// Node-level protocol tests: DemaLocalNode and DemaRootNode driven directly
// through a network fabric, message by message.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/local_node.h"
#include "dema/protocol.h"
#include "dema/root_node.h"
#include "net/codec.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/pump.h"
#include "stream/quantile.h"

namespace dema::core {
namespace {

class DemaLocalNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    ASSERT_TRUE(network_->RegisterNode(0).ok());
    ASSERT_TRUE(network_->RegisterNode(1).ok());
    DemaLocalNodeOptions opts;
    opts.id = 1;
    opts.root_id = 0;
    opts.window_len_us = SecondsUs(1);
    opts.initial_gamma = 4;
    node_ = std::make_unique<DemaLocalNode>(opts, network_.get(), &clock_);
  }

  /// Pops the next message addressed to the root and parses it as a
  /// synopsis batch.
  SynopsisBatch PopSynopsis() {
    auto msg = network_->Inbox(0)->TryPop();
    EXPECT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, net::MessageType::kSynopsisBatch);
    net::Reader r(msg->payload);
    auto batch = SynopsisBatch::Deserialize(&r);
    EXPECT_TRUE(batch.ok());
    return std::move(batch).MoveValueUnsafe();
  }

  Event Ev(double v, TimestampUs t, uint32_t seq) { return Event{v, t, 1, seq}; }

  RealClock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<DemaLocalNode> node_;
};

TEST_F(DemaLocalNodeTest, EmitsSortedSlicesOnWindowClose) {
  ASSERT_TRUE(node_->OnEvent(Ev(30, 100, 0)).ok());
  ASSERT_TRUE(node_->OnEvent(Ev(10, 200, 1)).ok());
  ASSERT_TRUE(node_->OnEvent(Ev(20, 300, 2)).ok());
  ASSERT_TRUE(node_->OnEvent(Ev(40, 400, 3)).ok());
  ASSERT_TRUE(node_->OnEvent(Ev(50, 500, 4)).ok());
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(1)).ok());

  SynopsisBatch batch = PopSynopsis();
  EXPECT_EQ(batch.window_id, 0u);
  EXPECT_EQ(batch.node, 1u);
  EXPECT_EQ(batch.local_window_size, 5u);
  ASSERT_EQ(batch.slices.size(), 2u);  // gamma 4: [10,20,30,40] + [50]
  EXPECT_EQ(batch.slices[0].first.value, 10);
  EXPECT_EQ(batch.slices[0].last.value, 40);
  EXPECT_EQ(batch.slices[0].count, 4u);
  EXPECT_EQ(batch.slices[1].count, 1u);
  EXPECT_EQ(node_->retained_windows(), 1u);
}

TEST_F(DemaLocalNodeTest, EmitsEmptyWindowsToKeepRootAligned) {
  // No events at all; the watermark jumps three windows.
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(3)).ok());
  for (net::WindowId id = 0; id < 3; ++id) {
    SynopsisBatch batch = PopSynopsis();
    EXPECT_EQ(batch.window_id, id);
    EXPECT_EQ(batch.local_window_size, 0u);
    EXPECT_TRUE(batch.slices.empty());
  }
  EXPECT_EQ(node_->retained_windows(), 0u);
  EXPECT_FALSE(network_->Inbox(0)->TryPop().has_value());
}

TEST_F(DemaLocalNodeTest, ServesCandidateRequestAndReleases) {
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(node_->OnEvent(Ev(i * 10.0, 100 + i, i)).ok());
  }
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(1)).ok());
  PopSynopsis();

  CandidateRequest req;
  req.window_id = 0;
  req.slice_indices = {1};  // events 4..7 (values 40..70)
  auto msg = net::MakeMessage(net::MessageType::kCandidateRequest, 0, 1, req);
  ASSERT_TRUE(node_->OnMessage(msg).ok());

  auto reply_msg = network_->Inbox(0)->TryPop();
  ASSERT_TRUE(reply_msg.has_value());
  EXPECT_EQ(reply_msg->type, net::MessageType::kCandidateReply);
  net::Reader r(reply_msg->payload);
  auto reply = CandidateReply::Deserialize(&r);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->events.size(), 4u);
  EXPECT_EQ(reply->events[0].value, 40);
  EXPECT_EQ(reply->events[3].value, 70);
  EXPECT_EQ(node_->retained_windows(), 0u);  // released after reply
}

TEST_F(DemaLocalNodeTest, EmptyRequestJustReleases) {
  ASSERT_TRUE(node_->OnEvent(Ev(1, 100, 0)).ok());
  ASSERT_TRUE(node_->OnEvent(Ev(2, 200, 1)).ok());
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(1)).ok());
  PopSynopsis();

  CandidateRequest req;
  req.window_id = 0;
  auto msg = net::MakeMessage(net::MessageType::kCandidateRequest, 0, 1, req);
  ASSERT_TRUE(node_->OnMessage(msg).ok());
  EXPECT_EQ(node_->retained_windows(), 0u);
  EXPECT_FALSE(network_->Inbox(0)->TryPop().has_value());  // no reply
}

TEST_F(DemaLocalNodeTest, RequestForUnknownWindowFails) {
  CandidateRequest req;
  req.window_id = 42;
  req.slice_indices = {0};
  auto msg = net::MakeMessage(net::MessageType::kCandidateRequest, 0, 1, req);
  EXPECT_EQ(node_->OnMessage(msg).code(), StatusCode::kNotFound);
}

TEST_F(DemaLocalNodeTest, GammaUpdateAppliesToFutureWindows) {
  GammaUpdate update;
  update.effective_from = 1;
  update.gamma = 2;
  auto msg = net::MakeMessage(net::MessageType::kGammaUpdate, 0, 1, update);
  ASSERT_TRUE(node_->OnMessage(msg).ok());
  EXPECT_EQ(node_->GammaForWindow(0), 4u);  // initial gamma still applies
  EXPECT_EQ(node_->GammaForWindow(1), 2u);
  EXPECT_EQ(node_->GammaForWindow(5), 2u);

  // Window 0 closes with gamma 4; window 1 with gamma 2. The windows hold
  // more events than gamma 4, so the tiny-window rule cuts neither.
  for (uint32_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(node_->OnEvent(Ev(i, 100 + i, i)).ok());
  }
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(1)).ok());
  EXPECT_EQ(PopSynopsis().slices.size(), 3u);
  for (uint32_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(node_->OnEvent(Ev(i, SecondsUs(1) + i, 20 + i)).ok());
  }
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(2)).ok());
  EXPECT_EQ(PopSynopsis().slices.size(), 6u);
}

TEST_F(DemaLocalNodeTest, StaleGammaUpdateCannotRewriteShippedWindows) {
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(node_->OnEvent(Ev(i + 1, 100 + 50 * i, i)).ok());
  }
  ASSERT_TRUE(node_->OnWatermark(SecondsUs(1)).ok());
  PopSynopsis();  // window 0 shipped with gamma 4

  GammaUpdate update;
  update.effective_from = 0;  // stale: window 0 already shipped
  update.gamma = 2;
  auto msg = net::MakeMessage(net::MessageType::kGammaUpdate, 0, 1, update);
  ASSERT_TRUE(node_->OnMessage(msg).ok());

  // A candidate request for window 0 must still use gamma 4 slice ranges.
  CandidateRequest req;
  req.window_id = 0;
  req.slice_indices = {0};
  auto req_msg = net::MakeMessage(net::MessageType::kCandidateRequest, 0, 1, req);
  ASSERT_TRUE(node_->OnMessage(req_msg).ok());
  auto reply_msg = network_->Inbox(0)->TryPop();
  ASSERT_TRUE(reply_msg.has_value());
  net::Reader r(reply_msg->payload);
  auto reply = CandidateReply::Deserialize(&r);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->events.size(), 4u);  // slice 0 under gamma 4, not 2
}

class DemaRootNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    ASSERT_TRUE(network_->RegisterNode(0).ok());
    ASSERT_TRUE(network_->RegisterNode(1).ok());
    ASSERT_TRUE(network_->RegisterNode(2).ok());
    DemaRootNodeOptions opts;
    opts.id = 0;
    opts.locals = {1, 2};
    opts.quantiles = {0.5};
    opts.initial_gamma = 4;
    root_ = std::make_unique<DemaRootNode>(opts, network_.get(), &clock_);
    root_->SetResultCallback(
        [this](const sim::WindowOutput& out) { outputs_.push_back(out); });
  }

  /// Builds and delivers a synopsis batch for a sorted run of values.
  void SendWindow(NodeId node, net::WindowId wid,
                  const std::vector<double>& sorted_values, uint64_t gamma = 4) {
    SynopsisBatch batch;
    batch.window_id = wid;
    batch.node = node;
    batch.local_window_size = sorted_values.size();
    batch.gamma_used = static_cast<uint32_t>(gamma);
    batch.close_time_us = clock_.NowUs();
    std::vector<Event> events;
    for (uint32_t i = 0; i < sorted_values.size(); ++i) {
      events.push_back(Event{sorted_values[i], 0, node, i});
    }
    if (!events.empty()) {
      auto slices = CutIntoSlices(events, node, gamma);
      ASSERT_TRUE(slices.ok());
      batch.slices = *slices;
    }
    stored_[{node, wid}] = events;
    auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, node, 0, batch);
    ASSERT_TRUE(root_->OnMessage(msg).ok());
  }

  /// Serves every outstanding candidate request like a local node would.
  void ServeRequests(uint64_t gamma = 4) {
    for (NodeId node : {1u, 2u}) {
      while (auto msg = network_->Inbox(node)->TryPop()) {
        if (msg->type != net::MessageType::kCandidateRequest) continue;
        net::Reader r(msg->payload);
        auto req = CandidateRequest::Deserialize(&r);
        ASSERT_TRUE(req.ok());
        if (req->slice_indices.empty()) continue;
        const auto& events = stored_[{node, req->window_id}];
        CandidateReply reply;
        reply.window_id = req->window_id;
        reply.node = node;
        for (uint32_t idx : req->slice_indices) {
          auto [b, e] = SliceEventRange(events.size(), gamma, idx);
          reply.events.insert(reply.events.end(), events.begin() + b,
                              events.begin() + e);
        }
        auto reply_msg =
            net::MakeMessage(net::MessageType::kCandidateReply, node, 0, reply);
        ASSERT_TRUE(root_->OnMessage(reply_msg).ok());
      }
    }
  }

  RealClock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<DemaRootNode> root_;
  std::vector<sim::WindowOutput> outputs_;
  std::map<std::pair<NodeId, net::WindowId>, std::vector<Event>> stored_;
};

TEST_F(DemaRootNodeTest, WaitsForAllLocalsBeforeIdentification) {
  SendWindow(1, 0, {1, 2, 3, 4});
  EXPECT_FALSE(root_->idle());
  EXPECT_TRUE(outputs_.empty());
  // No candidate requests yet.
  EXPECT_FALSE(network_->Inbox(1)->TryPop().has_value());
  SendWindow(2, 0, {5, 6, 7, 8});
  // Now identification ran and requests are pending.
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_EQ(outputs_[0].global_size, 8u);
  EXPECT_EQ(outputs_[0].values[0], 4);  // rank ceil(0.5*8)=4 -> value 4
}

TEST_F(DemaRootNodeTest, EmptyGlobalWindowEmitsImmediately) {
  SendWindow(1, 0, {});
  SendWindow(2, 0, {});
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_EQ(outputs_[0].global_size, 0u);
  EXPECT_TRUE(root_->idle());
}

TEST_F(DemaRootNodeTest, OneEmptyLocalStillWorks) {
  SendWindow(1, 0, {10, 20, 30});
  SendWindow(2, 0, {});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_EQ(outputs_[0].values[0], 20);  // rank 2 of {10,20,30}
}

TEST_F(DemaRootNodeTest, WindowsCompleteOutOfOrder) {
  SendWindow(1, 0, {1, 2});
  SendWindow(1, 1, {3, 4});
  SendWindow(2, 1, {5, 6});  // window 1 complete first
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_EQ(outputs_[0].window_id, 1u);
  SendWindow(2, 0, {7, 8});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 2u);
  EXPECT_EQ(outputs_[1].window_id, 0u);
  EXPECT_TRUE(root_->idle());
}

TEST_F(DemaRootNodeTest, DuplicateSynopsisRejected) {
  SendWindow(1, 0, {1, 2});
  SynopsisBatch dup;
  dup.window_id = 0;
  dup.node = 1;
  dup.local_window_size = 0;
  dup.gamma_used = 4;  // structurally valid, so the duplicate check decides
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, dup);
  // At-least-once delivery: the copy is absorbed and counted, never fatal.
  EXPECT_TRUE(root_->OnMessage(msg).ok());
  EXPECT_EQ(root_->registry()->CounterValue("dema.duplicates_ignored"), 1u);
  // The window still completes once, from the original synopsis.
  SendWindow(2, 0, {3, 4});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_EQ(outputs_[0].global_size, 4u);
}

TEST_F(DemaRootNodeTest, SynopsisFromUnknownNodeRejected) {
  // An unknown sender is dropped and counted, never a root failure: the
  // window must stay alive for the real locals.
  SynopsisBatch batch;
  batch.window_id = 0;
  batch.node = 99;
  batch.gamma_used = 4;
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 99, 0, batch);
  EXPECT_TRUE(root_->OnMessage(msg).ok());
  EXPECT_EQ(root_->registry()->CounterValue("dema.rejected"), 1u);
  EXPECT_EQ(
      root_->registry()->GetCounter("dema.rejected{reason=unknown_node}")->Value(),
      1u);
  // The run is intact: the same window still completes from the real locals.
  SendWindow(1, 0, {1, 2});
  SendWindow(2, 0, {3, 4});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_FALSE(outputs_[0].degraded);
}

TEST_F(DemaRootNodeTest, ReplyForUnknownWindowRejected) {
  CandidateReply reply;
  reply.window_id = 9;
  reply.node = 1;
  auto msg = net::MakeMessage(net::MessageType::kCandidateReply, 1, 0, reply);
  // A reply for a window that is not pending is a late retransmission: it is
  // absorbed and counted, and emits nothing.
  EXPECT_TRUE(root_->OnMessage(msg).ok());
  EXPECT_EQ(root_->registry()->CounterValue("dema.duplicates_ignored"), 1u);
  EXPECT_TRUE(outputs_.empty());
  EXPECT_TRUE(root_->idle());
}

TEST_F(DemaRootNodeTest, StatsAccumulate) {
  SendWindow(1, 0, {1, 2, 3, 4, 5, 6, 7, 8});
  SendWindow(2, 0, {11, 12, 13, 14});
  ServeRequests();
  const obs::Registry& registry = *root_->registry();
  EXPECT_EQ(registry.CounterValue("dema.windows"), 1u);
  EXPECT_EQ(registry.CounterValue("dema.global_events"), 12u);
  EXPECT_EQ(registry.CounterValue("dema.synopsis_slices"), 3u);  // 2 + 1
  EXPECT_GE(registry.CounterValue("dema.candidate_slices"), 1u);
  EXPECT_GE(registry.CounterValue("dema.candidate_events"), 1u);
}

TEST_F(DemaRootNodeTest, GammaBroadcastCountsOneUpdatePerLocal) {
  // Regression: BroadcastGamma bumped gamma_updates_sent once per broadcast
  // while the per-node path counts individual messages. Both must count
  // messages, so with two locals one broadcast costs two updates.
  DemaRootNodeOptions opts;
  opts.id = 0;
  opts.locals = {1, 2};
  opts.quantiles = {0.5};
  opts.initial_gamma = 4;
  opts.adaptive_gamma = true;
  root_ = std::make_unique<DemaRootNode>(opts, network_.get(), &clock_);

  // A completed 800-event window moves the controller far from gamma 4
  // (optimum ~ sqrt(2 * 800 / m)), forcing exactly one broadcast.
  std::vector<double> run1, run2;
  for (int i = 0; i < 400; ++i) run1.push_back(i);
  for (int i = 0; i < 400; ++i) run2.push_back(1000 + i);
  SendWindow(1, 0, run1);
  SendWindow(2, 0, run2);
  ServeRequests();

  EXPECT_EQ(root_->registry()->CounterValue("dema.windows"), 1u);
  EXPECT_EQ(root_->registry()->CounterValue("dema.gamma_updates_sent"),
            opts.locals.size());
}

TEST(DemaRootNodeClock, PeerCloseAheadClampsLatencyToZero) {
  // A local's close stamp can run ahead of the root's clock (distinct
  // machines under RealClock). Regression: the latency subtraction used to
  // wrap negative; it must clamp to 0 and count the skewed window.
  VirtualClock clock(1'000);
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  DemaRootNodeOptions opts;
  opts.locals = {1};
  opts.quantiles = {0.5};
  DemaRootNode root(opts, &network, &clock);
  std::vector<sim::WindowOutput> outputs;
  root.SetResultCallback(
      [&](const sim::WindowOutput& out) { outputs.push_back(out); });

  SynopsisBatch batch;
  batch.window_id = 0;
  batch.node = 1;
  batch.local_window_size = 0;
  batch.gamma_used = 4;
  batch.close_time_us = 5'000;  // 4ms ahead of the root's clock
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, batch);
  ASSERT_TRUE(root.OnMessage(msg).ok());

  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].latency_us, 0);
  EXPECT_EQ(root.registry()->CounterValue("dema.clock_skew_windows"), 1u);

  // A window closed behind the clock keeps its real latency and does not
  // count as skewed.
  clock.SetUs(10'000);
  SynopsisBatch ok_batch;
  ok_batch.window_id = 1;
  ok_batch.node = 1;
  ok_batch.local_window_size = 0;
  ok_batch.gamma_used = 4;
  ok_batch.close_time_us = 8'000;
  auto ok_msg =
      net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, ok_batch);
  ASSERT_TRUE(root.OnMessage(ok_msg).ok());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].latency_us, 2'000);
  EXPECT_EQ(root.registry()->CounterValue("dema.clock_skew_windows"), 1u);
}

TEST(DemaRootNodeValidation, BadQuantilesFailAtConstruction) {
  // Regression: quantiles were validated per window inside RunIdentification,
  // so a bad value only surfaced after deployment, mid-protocol. The
  // constructor must arm the node with a sticky error instead.
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());

  auto first_message_status = [&](DemaRootNodeOptions opts) {
    opts.id = 0;
    opts.locals = {1};
    DemaRootNode root(opts, &network, &clock);
    SynopsisBatch batch;
    batch.window_id = 0;
    batch.node = 1;
    batch.local_window_size = 0;
    auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 1, 0, batch);
    EXPECT_EQ(root.init_status().code(), root.OnMessage(msg).code());
    return root.OnMessage(msg);
  };

  DemaRootNodeOptions too_big;
  too_big.quantiles = {0.5, 1.5};
  EXPECT_EQ(first_message_status(too_big).code(), StatusCode::kInvalidArgument);

  DemaRootNodeOptions zero;
  zero.quantiles = {0.0};
  EXPECT_EQ(first_message_status(zero).code(), StatusCode::kInvalidArgument);

  DemaRootNodeOptions none;
  none.quantiles = {};
  EXPECT_EQ(first_message_status(none).code(), StatusCode::kInvalidArgument);

  DemaRootNodeOptions naive_multi;
  naive_multi.quantiles = {0.5, 0.9};
  naive_multi.use_naive_selection = true;
  EXPECT_EQ(first_message_status(naive_multi).code(),
            StatusCode::kInvalidArgument);

  // The boundary q = 1.0 (the maximum) stays valid.
  DemaRootNodeOptions max_q;
  max_q.quantiles = {1.0};
  EXPECT_TRUE(first_message_status(max_q).ok());
}

TEST(DemaLocalIngest, NonFiniteValuesAreDroppedNotTheWindow) {
  // A NaN or ±Inf in a local's window would have no place in the total
  // order, and the root rejects a synopsis that carries one — striking an
  // honest local and losing the window. The local drops just those events.
  RealClock clock;
  obs::Registry registry;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  ASSERT_TRUE(network.RegisterNode(2).ok());
  DemaRootNodeOptions root_opts;
  root_opts.locals = {1, 2};
  root_opts.quantiles = {0.25, 0.5, 1.0};
  root_opts.initial_gamma = 4;
  root_opts.registry = &registry;
  DemaRootNode root(root_opts, &network, &clock);
  std::vector<sim::WindowOutput> outputs;
  root.SetResultCallback(
      [&](const sim::WindowOutput& out) { outputs.push_back(out); });
  std::vector<std::unique_ptr<DemaLocalNode>> locals;
  for (NodeId id : {1u, 2u}) {
    DemaLocalNodeOptions opts;
    opts.id = id;
    opts.initial_gamma = 4;
    opts.registry = &registry;
    locals.push_back(std::make_unique<DemaLocalNode>(opts, &network, &clock));
  }

  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> local1 = {7, kNaN, 3, 9, 1, 5};
  const std::vector<double> local2 = {8, 2, -kInf, 6, 4};
  std::vector<double> finite;
  for (size_t i = 0; i < 2; ++i) {
    const auto& values = i == 0 ? local1 : local2;
    for (uint32_t seq = 0; seq < values.size(); ++seq) {
      const NodeId node = static_cast<NodeId>(i + 1);
      ASSERT_TRUE(
          locals[i]->OnEvent(Event{values[seq], 100 + seq, node, seq}).ok());
      if (std::isfinite(values[seq])) finite.push_back(values[seq]);
    }
    ASSERT_TRUE(locals[i]->OnWatermark(SecondsUs(1)).ok());
  }
  std::vector<sim::PumpNode> nodes = {{0, &root}};
  for (size_t i = 0; i < locals.size(); ++i) {
    nodes.push_back({static_cast<NodeId>(i + 1), locals[i].get()});
  }
  ASSERT_TRUE(sim::PumpToQuiescence(&network, nodes).ok());

  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_FALSE(outputs[0].degraded);
  EXPECT_EQ(outputs[0].global_size, finite.size());
  for (size_t q = 0; q < root_opts.quantiles.size(); ++q) {
    auto exact = stream::ExactQuantileValues(finite, root_opts.quantiles[q]);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(outputs[0].values[q], *exact) << "q=" << root_opts.quantiles[q];
  }
  EXPECT_EQ(registry.GetCounter("dema.rejected")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("local.rejected_values{node=1}")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("local.rejected_values{node=2}")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("local.events_ingested{node=1}")->Value(),
            local1.size());
  EXPECT_TRUE(root.idle());
}

TEST(DemaLocalIngest, EventCounterIsLiveForOtherThreads) {
  // `local.events_ingested` has one writer, the ingesting thread, which adds
  // without a locked instruction. A reader on another thread must still see
  // every add as it happens, never a smaller value than before, and the
  // exact count in the end: tcp_loopback's set-up ends when every local's
  // count is above 0.
  RealClock clock;
  obs::Registry registry;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  DemaLocalNodeOptions opts;
  opts.id = 1;
  opts.initial_gamma = 64;
  opts.registry = &registry;
  DemaLocalNode local(opts, &network, &clock);
  const obs::Counter* ingested =
      registry.FindCounter("local.events_ingested{node=1}");
  ASSERT_NE(ingested, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> seen{0};
  uint64_t reads = 0;
  uint64_t regressions = 0;
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t v = ingested->Value();
      if (v < last) ++regressions;
      last = v;
      ++reads;
      seen.store(v, std::memory_order_release);
    }
  });

  uint64_t calls = 0;
  uint32_t seq = 0;
  auto ingest = [&](double value, TimestampUs ts) {
    EXPECT_TRUE(local.OnEvent(Event{value, ts, 1, seq++}).ok());
    ++calls;
  };
  // The first add reaches the reader before any watermark.
  ingest(1.0, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GT(seen.load(std::memory_order_acquire), 0u);

  // Three windows of ordinary events; between them, events the watermark
  // already passed (late) and non-finite values (rejected).
  Rng rng(3);
  uint64_t late = 0;
  uint64_t rejected = 0;
  for (int w = 0; w < 3; ++w) {
    const TimestampUs start = SecondsUs(w);
    for (int i = 0; i < 5'000; ++i) {
      ingest(rng.Uniform(0, 100), start + i);
      if (i % 1'000 == 999) {
        ingest(std::numeric_limits<double>::quiet_NaN(), start + i);
        ++rejected;
        if (w > 0) {
          ingest(rng.Uniform(0, 100), start - 1);
          ++late;
        }
      }
    }
    EXPECT_TRUE(local.OnWatermark(SecondsUs(w + 1)).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(regressions, 0u);
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(ingested->Value(), calls);
  EXPECT_EQ(registry.CounterValue("local.late_events{node=1}"), late);
  EXPECT_EQ(registry.CounterValue("local.rejected_values{node=1}"), rejected);
}

// ---------------------------------------------------------------------------
// LocalCore serving: a closed window is only slice-ordered, and a served
// slice is sorted in place. Replies and checkpoints must carry exactly the
// bytes a fully sorted window gives.

/// Records what a `LocalCore` sends. `fail_replies` replies fail before
/// reaching the wire, as a transient send failure does.
class RecordingSink final : public LocalSink {
 public:
  Status SendSynopsis(const SynopsisBatch& batch) override {
    synopses.push_back(batch);
    return Status::OK();
  }
  Status SendReply(const CandidateReply& reply) override {
    if (fail_replies > 0) {
      --fail_replies;
      return Status::NetworkError("send failed");
    }
    net::Writer w;
    reply.SerializeTo(&w);
    replies.push_back(w.TakeBuffer());
    return Status::OK();
  }
  Status SendGammaSync(const GammaSyncRequest&) override {
    return Status::OK();
  }

  /// The events of reply \p i.
  std::vector<Event> ReplyEvents(size_t i) const {
    net::Reader r(replies.at(i));
    auto reply = CandidateReply::Deserialize(&r);
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? reply->events : std::vector<Event>{};
  }

  std::vector<SynopsisBatch> synopses;
  std::vector<std::vector<uint8_t>> replies;
  int fail_replies = 0;
};

/// One local core and stream that has closed one window of `kEvents` events
/// with heavy duplicate values, cut with `kGamma`.
class LocalServeTest : public ::testing::Test {
 protected:
  static constexpr size_t kEvents = 1'000;
  static constexpr uint64_t kGamma = 64;
  static constexpr uint32_t kSlices = (kEvents + kGamma - 1) / kGamma;

  struct Local {
    Local(const DemaLocalNodeOptions& options, const Clock* clock)
        : core(options, clock), stream(core.options()) {}
    LocalCore core;
    LocalStream stream;
    RecordingSink sink;
  };

  void SetUp() override {
    Rng rng(7);
    for (uint32_t seq = 0; seq < kEvents; ++seq) {
      events_.push_back(Event{static_cast<double>(rng.UniformInt(0, 99)),
                              rng.UniformInt(0, SecondsUs(1) - 1), 1, seq});
    }
    sorted_ = events_;
    std::sort(sorted_.begin(), sorted_.end());
  }

  /// Options for node 1.
  DemaLocalNodeOptions Options() {
    DemaLocalNodeOptions opts;
    opts.window_len_us = SecondsUs(1);
    opts.initial_gamma = kGamma;
    return opts;
  }

  /// A local that has ingested every event and shipped window 0.
  std::unique_ptr<Local> Closed() {
    auto local = std::make_unique<Local>(Options(), &clock_);
    for (const Event& e : events_) local->core.OnEvent(&local->stream, e);
    EXPECT_TRUE(local->core
                    .OnWatermark(&local->stream, SecondsUs(1), &local->sink)
                    .ok());
    EXPECT_EQ(local->stream.retained_windows(), 1u);
    return local;
  }

  Status Request(Local* local, std::vector<uint32_t> slices) {
    net::Writer w;
    CandidateRequest{0, std::move(slices)}.SerializeTo(&w);
    return local->core.OnPayload(&local->stream,
                                 net::MessageType::kCandidateRequest,
                                 w.buffer(), &local->sink);
  }

  static std::vector<uint32_t> AllSlices() {
    std::vector<uint32_t> all(kSlices);
    for (uint32_t i = 0; i < kSlices; ++i) all[i] = i;
    return all;
  }

  static std::vector<uint8_t> CheckpointBytes(const Local& local) {
    net::Writer w;
    local.core.Checkpoint(local.stream, &w);
    return w.TakeBuffer();
  }

  /// The events of the one retained window in \p snapshot, as stored.
  static std::vector<Event> CheckpointedWindow(
      const std::vector<uint8_t>& snapshot) {
    net::Reader r(snapshot);
    uint8_t version = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    std::vector<Event> events;
    // Magic, version, node id, emission frontier and ingested count.
    EXPECT_TRUE(r.GetU32(&u32).ok() && r.GetU8(&version).ok() &&
                r.GetU32(&u32).ok() && r.GetU64(&u64).ok() &&
                r.GetU64(&u64).ok());
    uint32_t schedule = 0;
    EXPECT_TRUE(r.GetU32(&schedule).ok());
    for (uint32_t i = 0; i < 2 * schedule; ++i) {
      EXPECT_TRUE(r.GetU64(&u64).ok());
    }
    EXPECT_TRUE(r.GetU64(&u64).ok());  // oldest known γ
    uint32_t retained = 0;
    EXPECT_TRUE(r.GetU32(&retained).ok());
    EXPECT_EQ(retained, 1u);
    uint64_t id = 1;
    uint64_t gamma = 0;
    EXPECT_TRUE(r.GetU64(&id).ok() && r.GetU64(&gamma).ok());
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(gamma, kGamma);
    EXPECT_TRUE(net::DecodeEvents(&r, &events).ok());
    return events;
  }

  VirtualClock clock_;
  std::vector<Event> events_;
  std::vector<Event> sorted_;
};

TEST_F(LocalServeTest, SynopsesCarryTheSortedWindowsSliceEndpoints) {
  auto local = Closed();
  ASSERT_EQ(local->sink.synopses.size(), 1u);
  const auto& slices = local->sink.synopses[0].slices;
  ASSERT_EQ(slices.size(), kSlices);
  for (uint32_t i = 0; i < kSlices; ++i) {
    auto [begin, end] = SliceEventRange(kEvents, kGamma, i);
    EXPECT_EQ(slices[i].first, sorted_[begin]) << "slice " << i;
    EXPECT_EQ(slices[i].last, sorted_[end - 1]) << "slice " << i;
    EXPECT_EQ(slices[i].count, end - begin) << "slice " << i;
  }
}

TEST_F(LocalServeTest, EverySliceInOneRequestServesTheSortedWindow) {
  auto local = Closed();
  ASSERT_TRUE(Request(local.get(), AllSlices()).ok());
  ASSERT_EQ(local->sink.replies.size(), 1u);
  EXPECT_EQ(local->sink.ReplyEvents(0), sorted_);
}

TEST_F(LocalServeTest, OneRequestPerSliceServesTheSortedWindow) {
  auto local = Closed();
  std::vector<Event> served;
  for (uint32_t i = 0; i < kSlices; ++i) {
    ASSERT_TRUE(Request(local.get(), {i}).ok()) << "slice " << i;
    ASSERT_EQ(local->sink.replies.size(), i + 1u);
    auto events = local->sink.ReplyEvents(i);
    served.insert(served.end(), events.begin(), events.end());
  }
  EXPECT_EQ(served, sorted_);
}

TEST_F(LocalServeTest, RetriedRequestsReturnIdenticalBytes) {
  // A reply that fails to send leaves its slices sorted and the window
  // retained; one lost after sending is answered again from the served ring.
  auto local = Closed();
  const std::vector<uint32_t> slices = {1, 5, kSlices - 1};
  local->sink.fail_replies = 1;
  EXPECT_FALSE(Request(local.get(), slices).ok());
  EXPECT_EQ(local->stream.retained_windows(), 1u);
  ASSERT_TRUE(Request(local.get(), slices).ok());
  ASSERT_TRUE(Request(local.get(), slices).ok());
  EXPECT_EQ(local->stream.retained_windows(), 0u);
  ASSERT_EQ(local->sink.replies.size(), 2u);
  EXPECT_EQ(local->sink.replies[0], local->sink.replies[1]);

  auto fresh = Closed();
  ASSERT_TRUE(Request(fresh.get(), slices).ok());
  ASSERT_EQ(fresh->sink.replies.size(), 1u);
  EXPECT_EQ(fresh->sink.replies[0], local->sink.replies[0]);
}

TEST_F(LocalServeTest, CheckpointIsTheFullySortedWindowsAndRestoreServes) {
  // The retained window is only slice-ordered; its checkpoint holds it
  // fully sorted.
  auto local = Closed();
  const std::vector<uint8_t> snapshot = CheckpointBytes(*local);
  EXPECT_EQ(CheckpointedWindow(snapshot), sorted_);

  auto restored = std::make_unique<Local>(Options(), &clock_);
  net::Reader r(snapshot);
  ASSERT_TRUE(restored->core.Restore(&restored->stream, &r).ok());
  EXPECT_EQ(CheckpointBytes(*restored), snapshot);
  ASSERT_TRUE(Request(restored.get(), AllSlices()).ok());
  ASSERT_TRUE(Request(local.get(), AllSlices()).ok());
  ASSERT_EQ(restored->sink.replies.size(), 1u);
  EXPECT_EQ(restored->sink.ReplyEvents(0), sorted_);
  EXPECT_EQ(restored->sink.replies, local->sink.replies);
}

}  // namespace
}  // namespace dema::core
