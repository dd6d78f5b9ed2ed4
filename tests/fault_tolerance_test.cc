// Fault-injection tests: at-least-once delivery (duplicate messages) must
// not change Dema's results or crash any node, and malformed payloads must
// surface as clean error statuses rather than undefined behaviour.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/local_node.h"
#include "dema/protocol.h"
#include "dema/root_node.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"
#include "transport/transport.h"

namespace dema {
namespace {

// --- duplicate delivery -----------------------------------------------------

struct DupParam {
  double duplicate_prob;
  uint64_t seed;
  const char* name;
};

// Stable test names: gtest's default byte dump would print the name pointer.
void PrintTo(const DupParam& p, std::ostream* os) { *os << p.name; }

class DuplicateDelivery : public ::testing::TestWithParam<DupParam> {};

TEST_P(DuplicateDelivery, DemaStaysExactUnderRetransmission) {
  const DupParam& p = GetParam();
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 3;
  config.gamma = 64;
  config.adaptive_gamma = true;  // gamma updates get duplicated too

  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  sim::WorkloadConfig load =
      sim::MakeUniformWorkload(3, /*num_windows=*/6, /*event_rate=*/3000, dist);
  load.window_len_us = config.window_len_us;

  RealClock clock;
  net::Network::Options net_opts;
  net_opts.duplicate_prob = p.duplicate_prob;
  net_opts.fault_seed = p.seed;
  net::Network network(&clock, net_opts);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  ASSERT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  Status st = driver.Run(load);
  ASSERT_TRUE(st.ok()) << st;

  // Results identical to the oracle despite duplicated protocol messages.
  ASSERT_EQ(driver.outputs().size(), 6u);
  for (const auto& out : driver.outputs()) {
    std::vector<double> values;
    for (const Event& e : driver.recorded_events()[out.window_id]) {
      values.push_back(e.value);
    }
    auto oracle = stream::ExactQuantileValues(values, 0.5);
    ASSERT_TRUE(oracle.ok());
    EXPECT_DOUBLE_EQ(out.values[0], *oracle) << "window " << out.window_id;
  }

  if (p.duplicate_prob > 0) {
    EXPECT_GT(network.duplicates_injected(), 0u);
    auto* root = static_cast<core::DemaRootNode*>(system.root.get());
    // Some duplicates land on the root (synopses/replies) — they must have
    // been absorbed, not processed twice.
    EXPECT_GE(network.duplicates_injected(),
              root->registry()->CounterValue("dema.duplicates_ignored"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, DuplicateDelivery,
    ::testing::Values(DupParam{0.0, 1, "none"}, DupParam{0.1, 2, "ten_pct"},
                      DupParam{0.5, 3, "half"}, DupParam{1.0, 4, "every_msg"}),
    [](const auto& info) { return info.param.name; });

TEST(DuplicateDelivery, DuplicatesAreChargedToTheWire) {
  RealClock clock;
  net::Network::Options opts;
  opts.duplicate_prob = 1.0;  // every message doubled
  net::Network network(&clock, opts);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  net::Message m;
  m.type = net::MessageType::kEventBatch;
  m.src = 1;
  m.dst = 0;
  m.payload.assign(100, 0);
  m.event_count = 4;
  ASSERT_TRUE(network.Send(std::move(m)).ok());
  auto stats = network.GetLinkStats(1, 0);
  EXPECT_EQ(stats.counters.messages, 2u);
  EXPECT_EQ(stats.counters.events, 8u);
  EXPECT_EQ(network.duplicates_injected(), 1u);
  // Both copies are actually delivered.
  EXPECT_TRUE(network.Inbox(0)->TryPop().has_value());
  EXPECT_TRUE(network.Inbox(0)->TryPop().has_value());
  EXPECT_FALSE(network.Inbox(0)->TryPop().has_value());
}

// --- send failures ----------------------------------------------------------

/// Transport decorator that fails the next N sends of one message type,
/// modelling a connection reset mid-protocol.
class FlakyTransport : public transport::Transport {
 public:
  explicit FlakyTransport(transport::Transport* inner) : inner_(inner) {}

  void FailNext(net::MessageType type, int times) {
    fail_type_ = type;
    failures_left_ = times;
  }

  Status Send(net::Message m) override {
    if (failures_left_ > 0 && m.type == fail_type_) {
      --failures_left_;
      return Status::NetworkError("injected send failure");
    }
    return inner_->Send(std::move(m));
  }
  net::Channel* Inbox(NodeId id) override { return inner_->Inbox(id); }
  transport::LinkTrafficMap LinkTraffic() const override {
    return inner_->LinkTraffic();
  }
  std::map<net::MessageType, net::TrafficCounters> TrafficByType()
      const override {
    return inner_->TrafficByType();
  }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  transport::Transport* inner_;
  net::MessageType fail_type_ = net::MessageType::kCandidateReply;
  int failures_left_ = 0;
};

TEST(SendFailure, RetainedWindowSurvivesFailedCandidateReply) {
  // Regression: HandleCandidateRequest erased the retained window *before*
  // sending the reply, so a transport failure dropped the only copy of the
  // candidate events and a root retry could never succeed.
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  FlakyTransport flaky(&network);

  core::DemaLocalNodeOptions opts;
  opts.id = 1;
  opts.root_id = 0;
  opts.window_len_us = SecondsUs(1);
  opts.initial_gamma = 4;
  core::DemaLocalNode local(opts, &flaky, &clock);
  // More events than gamma, so the tiny-window rule leaves the window
  // retained.
  for (uint32_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(local.OnEvent(Event{i * 10.0, 100 + i, 1, i}).ok());
  }
  ASSERT_TRUE(local.OnWatermark(SecondsUs(1)).ok());
  ASSERT_TRUE(network.Inbox(0)->TryPop().has_value());  // the synopsis
  ASSERT_EQ(local.retained_windows(), 1u);

  core::CandidateRequest req;
  req.window_id = 0;
  req.slice_indices = {0};
  auto msg = net::MakeMessage(net::MessageType::kCandidateRequest, 0, 1, req);

  flaky.FailNext(net::MessageType::kCandidateReply, 1);
  EXPECT_EQ(local.OnMessage(msg).code(), StatusCode::kNetworkError);
  // The window must still be retained, and the failure accounted.
  EXPECT_EQ(local.retained_windows(), 1u);
  EXPECT_EQ(local.registry()->CounterValues().at("local.send_failures{node=1}"),
            1u);

  // The root's retry now succeeds and releases the window.
  ASSERT_TRUE(local.OnMessage(msg).ok());
  auto reply_msg = network.Inbox(0)->TryPop();
  ASSERT_TRUE(reply_msg.has_value());
  EXPECT_EQ(reply_msg->type, net::MessageType::kCandidateReply);
  net::Reader r(reply_msg->payload);
  auto reply = core::CandidateReply::Deserialize(&r);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->events.size(), 4u);
  EXPECT_EQ(local.retained_windows(), 0u);
}

// --- root deadlines: retry and degradation ----------------------------------

/// Pumps one root + one local by hand so individual protocol messages can be
/// dropped at exact points. Returns the popped message, if any.
std::optional<net::Message> PopFrom(net::Network* net, NodeId id) {
  return net->Inbox(id)->TryPop();
}

struct DeadlineRig {
  RealClock clock;
  net::Network network;
  core::DemaRootNode root;
  core::DemaLocalNode local;
  std::vector<sim::WindowOutput> outputs;

  DeadlineRig(uint64_t deadline_ticks, uint32_t max_retries)
      : network(&clock),
        root(MakeRootOpts(deadline_ticks, max_retries), &network, &clock),
        local(MakeLocalOpts(), &network, &clock) {
    EXPECT_TRUE(network.RegisterNode(0).ok());
    EXPECT_TRUE(network.RegisterNode(1).ok());
    root.SetResultCallback([this](const sim::WindowOutput& out) {
      outputs.push_back(out);
    });
  }

  static core::DemaRootNodeOptions MakeRootOpts(uint64_t deadline_ticks,
                                                uint32_t max_retries) {
    core::DemaRootNodeOptions o;
    o.locals = {1};
    o.quantiles = {0.5};
    o.recovery.deadline_ticks = deadline_ticks;
    o.recovery.max_retries = max_retries;
    return o;
  }

  static core::DemaLocalNodeOptions MakeLocalOpts() {
    core::DemaLocalNodeOptions o;
    o.id = 1;
    o.root_id = 0;
    o.window_len_us = SecondsUs(1);
    o.initial_gamma = 4;
    return o;
  }

  /// Ingests 12 events into window 0 and closes it (synopsis goes to node
  /// 0). More events than gamma, so the root must fetch a candidate slice.
  void FillWindowZero() {
    for (uint32_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(local.OnEvent(Event{i * 10.0, 100 + i, 1, i}).ok());
    }
    ASSERT_TRUE(local.OnWatermark(SecondsUs(1)).ok());
  }
};

TEST(RootDeadlines, RetriesCandidateRequestAfterLostReply) {
  DeadlineRig rig(/*deadline_ticks=*/1, /*max_retries=*/3);
  rig.FillWindowZero();

  auto synopsis = PopFrom(&rig.network, 0);
  ASSERT_TRUE(synopsis.has_value());
  ASSERT_TRUE(rig.root.OnMessage(*synopsis).ok());  // root sends the request

  auto request = PopFrom(&rig.network, 1);
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(rig.local.OnMessage(*request).ok());  // local replies
  auto lost_reply = PopFrom(&rig.network, 0);       // ...and we drop the reply
  ASSERT_TRUE(lost_reply.has_value());
  EXPECT_EQ(lost_reply->type, net::MessageType::kCandidateReply);

  // The deadline passes: the root must resend the request, not stall.
  ASSERT_TRUE(rig.root.Tick().ok());
  ASSERT_TRUE(rig.root.Tick().ok());
  auto retry = PopFrom(&rig.network, 1);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, net::MessageType::kCandidateRequest);
  EXPECT_EQ(rig.root.registry()->CounterValue("root.retries"), 1u);

  // The local re-serves the window (it kept a served copy), and the window
  // completes exactly.
  ASSERT_TRUE(rig.local.OnMessage(*retry).ok());
  auto reply = PopFrom(&rig.network, 0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(rig.root.OnMessage(*reply).ok());
  ASSERT_EQ(rig.outputs.size(), 1u);
  EXPECT_FALSE(rig.outputs[0].degraded);
  EXPECT_EQ(rig.outputs[0].global_size, 12u);
  EXPECT_DOUBLE_EQ(rig.outputs[0].values[0], 50.0);  // median of {0,...,110}
  EXPECT_EQ(rig.root.registry()->CounterValue("dema.degraded_windows"), 0u);
}

TEST(RootDeadlines, ExhaustedRetriesDegradeWithCauseAndBound) {
  DeadlineRig rig(/*deadline_ticks=*/1, /*max_retries=*/1);
  rig.FillWindowZero();

  auto synopsis = PopFrom(&rig.network, 0);
  ASSERT_TRUE(synopsis.has_value());
  ASSERT_TRUE(rig.root.OnMessage(*synopsis).ok());

  // Swallow the original request and every retry: the local never replies.
  uint64_t swallowed = 0;
  for (int tick = 0; tick < 10 && rig.outputs.empty(); ++tick) {
    while (PopFrom(&rig.network, 1).has_value()) ++swallowed;
    ASSERT_TRUE(rig.root.Tick().ok());
  }
  EXPECT_GE(swallowed, 2u);  // original + at least one retry

  // The window must be emitted best-effort, never silently stalled.
  ASSERT_EQ(rig.outputs.size(), 1u);
  const sim::WindowOutput& out = rig.outputs[0];
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_cause, "replies_lost");
  EXPECT_GE(out.rank_error_bound, 1u);
  ASSERT_EQ(out.values.size(), 1u);
  // The synopsis-only estimate still lands inside the observed value range.
  EXPECT_GE(out.values[0], 0.0);
  EXPECT_LE(out.values[0], 110.0);
  EXPECT_EQ(rig.root.registry()->CounterValue("dema.degraded_windows"), 1u);
}

TEST(RootDeadlines, DegradesWithinDrainTicks) {
  // Drivers stop ticking after `RootRecoveryOptions::DrainTicks()`: a window
  // whose replies never arrive must be emitted degraded within that bound,
  // across the whole exponential backoff of every retry budget.
  for (uint64_t deadline : {1u, 4u}) {
    for (uint32_t retries : {0u, 3u, 6u}) {
      SCOPED_TRACE("deadline " + std::to_string(deadline) + " retries " +
                   std::to_string(retries));
      DeadlineRig rig(deadline, retries);
      rig.FillWindowZero();
      auto synopsis = PopFrom(&rig.network, 0);
      ASSERT_TRUE(synopsis.has_value());
      ASSERT_TRUE(rig.root.OnMessage(*synopsis).ok());

      const uint64_t drain =
          DeadlineRig::MakeRootOpts(deadline, retries).recovery.DrainTicks();
      for (uint64_t tick = 0; tick < drain && rig.outputs.empty(); ++tick) {
        while (PopFrom(&rig.network, 1).has_value()) {
        }
        ASSERT_TRUE(rig.root.Tick().ok());
      }
      ASSERT_EQ(rig.outputs.size(), 1u);
      EXPECT_TRUE(rig.outputs[0].degraded);
      EXPECT_EQ(rig.outputs[0].degrade_cause, "replies_lost");
      EXPECT_TRUE(rig.root.idle());
    }
  }
}

TEST(RootDeadlines, GammaResyncRepliesWithCurrentGamma) {
  DeadlineRig rig(/*deadline_ticks=*/1, /*max_retries=*/1);
  // A restarted local asks the root for the current slice factor.
  ASSERT_TRUE(rig.local.ResyncGamma().ok());
  auto sync = PopFrom(&rig.network, 0);
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->type, net::MessageType::kGammaSyncRequest);
  ASSERT_TRUE(rig.root.OnMessage(*sync).ok());
  auto update = PopFrom(&rig.network, 1);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(update->type, net::MessageType::kGammaUpdate);
  net::Reader r(update->payload);
  auto parsed = core::GammaUpdate::Deserialize(&r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->effective_from, 0u);
  EXPECT_GE(parsed->gamma, 2u);
  // The restarted local applies it without error.
  EXPECT_TRUE(rig.local.OnMessage(*update).ok());
}

// --- malformed payloads -----------------------------------------------------

net::Message Corrupt(net::Message m, size_t truncate_to) {
  if (truncate_to < m.payload.size()) m.payload.resize(truncate_to);
  return m;
}

TEST(MalformedPayloads, RootRejectsTruncatedSynopsis) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  core::DemaRootNodeOptions opts;
  opts.locals = {1};
  core::DemaRootNode root(opts, &network, &clock);

  core::SynopsisBatch batch;
  batch.window_id = 0;
  batch.node = 1;
  batch.local_window_size = 2;
  batch.gamma_used = 2;
  core::SliceSynopsis s;
  s.node = 1;
  s.count = 2;
  batch.slices.push_back(s);
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, batch);
  // Truncated payloads are dropped and counted, never fatal to the root.
  uint64_t rejected = 0;
  for (size_t cut : {0u, 4u, 12u, 30u}) {
    EXPECT_TRUE(root.OnMessage(Corrupt(msg, cut)).ok()) << "cut=" << cut;
    EXPECT_EQ(root.registry()->CounterValue("dema.rejected"), ++rejected)
        << "cut=" << cut;
  }
  EXPECT_EQ(root.registry()->GetCounter("dema.rejected{reason=decode}")->Value(),
            rejected);
  // The intact message still works.
  EXPECT_TRUE(root.OnMessage(msg).ok());
  EXPECT_EQ(root.registry()->CounterValue("dema.rejected"), rejected);
}

TEST(MalformedPayloads, RootRejectsInconsistentSliceCounts) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  core::DemaRootNodeOptions opts;
  opts.locals = {1};
  core::DemaRootNode root(opts, &network, &clock);

  core::SynopsisBatch batch;
  batch.window_id = 0;
  batch.node = 1;
  batch.local_window_size = 99;  // does not match the slice sum (2)
  batch.gamma_used = 2;
  core::SliceSynopsis s;
  s.node = 1;
  s.count = 2;
  batch.slices.push_back(s);
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, batch);
  // The inconsistent batch is dropped and counted instead of poisoning the run.
  EXPECT_TRUE(root.OnMessage(msg).ok());
  EXPECT_GE(root.registry()->CounterValue("dema.rejected"), 1u);
}

TEST(MalformedPayloads, LocalRejectsGarbageRequests) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  core::DemaLocalNodeOptions opts;
  opts.id = 1;
  core::DemaLocalNode local(opts, &network, &clock);

  net::Message garbage;
  garbage.type = net::MessageType::kCandidateRequest;
  garbage.src = 0;
  garbage.dst = 1;
  garbage.payload = {0x01, 0x02, 0x03};
  EXPECT_EQ(local.OnMessage(garbage).code(), StatusCode::kSerializationError);

  net::Message wrong_type;
  wrong_type.type = net::MessageType::kEventBatch;
  EXPECT_EQ(local.OnMessage(wrong_type).code(), StatusCode::kInternal);
}

TEST(MalformedPayloads, RandomBytesNeverCrashNodes) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  core::DemaRootNodeOptions root_opts;
  root_opts.locals = {1};
  core::DemaRootNode root(root_opts, &network, &clock);
  core::DemaLocalNodeOptions local_opts;
  local_opts.id = 1;
  core::DemaLocalNode local(local_opts, &network, &clock);

  Rng rng(99);
  const net::MessageType types[] = {
      net::MessageType::kSynopsisBatch, net::MessageType::kCandidateRequest,
      net::MessageType::kCandidateReply, net::MessageType::kGammaUpdate};
  for (int trial = 0; trial < 500; ++trial) {
    net::Message m;
    m.type = types[rng.UniformInt(0, 3)];
    m.src = 1;
    m.dst = 0;
    size_t len = static_cast<size_t>(rng.UniformInt(0, 64));
    m.payload.resize(len);
    for (auto& b : m.payload) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    // Either node may reject with any error status; it must not crash.
    (void)root.OnMessage(m);
    (void)local.OnMessage(m);
  }
  SUCCEED();
}

}  // namespace
}  // namespace dema
