// Corruption-defense tests: the dema::Validate* rules (one per rejection
// reason slug), the root's reject-and-count behaviour, the misbehaving-local
// quarantine lifecycle (strike -> quarantine -> probation -> re-admission),
// and the honest-subset exactness property — a rejected corrupt synopsis
// never shifts the quantile computed over the remaining honest nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>

#include "common/clock.h"
#include "dema/protocol.h"
#include "dema/root_node.h"
#include "dema/slice.h"
#include "dema/validate.h"
#include "net/network.h"
#include "stream/quantile.h"

namespace dema::core {
namespace {

Event Ev(double v, NodeId node, uint32_t seq) {
  return Event{v, static_cast<TimestampUs>(seq), node, seq};
}

/// A structurally valid batch: `n` sorted events cut at `gamma`, as an
/// honest local would build it.
SynopsisBatch ValidBatch(NodeId node, uint64_t n, uint64_t gamma) {
  SynopsisBatch batch;
  batch.window_id = 0;
  batch.node = node;
  batch.gamma_used = static_cast<uint32_t>(gamma);
  batch.local_window_size = n;
  std::vector<Event> events;
  for (uint32_t i = 0; i < n; ++i) events.push_back(Ev(i * 10.0, node, i));
  if (n > 0) {
    auto slices = CutIntoSlices(events, node, gamma);
    EXPECT_TRUE(slices.ok());
    batch.slices = *slices;
  }
  return batch;
}

TEST(ValidateSynopsis, AcceptsHonestBatches) {
  for (uint64_t n : {0u, 1u, 3u, 4u, 9u}) {
    SynopsisBatch batch = ValidBatch(7, n, 4);
    EXPECT_EQ(ValidateSynopsisBatch(batch, 7, /*strict=*/true), nullptr)
        << "n=" << n;
    EXPECT_EQ(ValidateSynopsisBatch(batch, 7, /*strict=*/false), nullptr);
  }
}

TEST(ValidateSynopsis, EachTamperedFieldMapsToItsReason) {
  const NodeId src = 7;
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.node = 8;  // claims to be someone else
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "node_mismatch");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.slices[1].node = 9;  // inner slice forged for another node
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "node_mismatch");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.gamma_used = 1;  // below the paper's minimum slice factor
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "bad_gamma");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.slices.pop_back();  // claims 8 events but only one gamma-4 slice
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_count");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    std::swap(b.slices[0].index, b.slices[1].index);
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_index");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.slices[0].count = 0;
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "empty_slice");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.slices[1].last.value = std::numeric_limits<double>::quiet_NaN();
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "bad_value");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    std::swap(b.slices[0].first, b.slices[0].last);  // inverted bounds
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_bounds");
  }
  {
    // A one-event slice is read from its synopsis, so its first and last
    // must be the same event; a forged pair would inject an event into the
    // selection without a candidate reply to check it against.
    SynopsisBatch b = ValidBatch(src, 9, 4);  // slices of 4, 4, 1
    b.slices[2].last.value += 1;
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_bounds");
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, false), "slice_bounds");
  }
  {
    SynopsisBatch b = ValidBatch(src, 9, 4);  // slices of 4, 4, 1
    b.slices[0].count = 3;
    b.slices[1].count = 5;  // sum still 9, but the gamma-cut shape is broken
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_size");
  }
  {
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.slices[1].first = b.slices[0].first;  // ranges overlap across the cut
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_overlap");
  }
  {
    // Strict mode derives every expected count from the claimed size, so an
    // inflated claim trips the arity formula first; the structural sum rule
    // is what catches it in non-strict (tree) mode.
    SynopsisBatch b = ValidBatch(src, 8, 4);
    b.local_window_size = 80;  // inflated claim vs the slice sum
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, true), "slice_count");
    EXPECT_STREQ(ValidateSynopsisBatch(b, src, false), "size_mismatch");
  }
}

TEST(ValidateSynopsis, NonStrictKeepsStructuralRulesOnly) {
  const NodeId relay = 5;
  // A relay-style combined batch: re-indexed slices from two children with
  // interleaved value ranges and mixed sizes. Strict rejects the shape;
  // structural validation accepts it.
  SynopsisBatch b;
  b.window_id = 0;
  b.node = relay;
  b.gamma_used = 4;
  b.local_window_size = 7;
  b.slices.push_back(SliceSynopsis{relay, 0, Ev(0, relay, 0), Ev(30, relay, 3), 4});
  b.slices.push_back(SliceSynopsis{relay, 1, Ev(5, relay, 4), Ev(25, relay, 6), 3});
  EXPECT_NE(ValidateSynopsisBatch(b, relay, /*strict=*/true), nullptr);
  EXPECT_EQ(ValidateSynopsisBatch(b, relay, /*strict=*/false), nullptr);
  // Structural corruption still rejects in non-strict mode.
  SynopsisBatch bad = b;
  bad.local_window_size = 70;
  EXPECT_STREQ(ValidateSynopsisBatch(bad, relay, false), "size_mismatch");
  // Counts that reach the declared size only by wrapping past 2^64.
  SynopsisBatch wrapped = b;
  wrapped.slices[0].count = 1ull << 63;
  wrapped.slices[1].count = (1ull << 63) + 7;
  EXPECT_STREQ(ValidateSynopsisBatch(wrapped, relay, false), "size_mismatch");
}

TEST(ValidateReply, AcceptsHonestAndRejectsTamperedRuns) {
  const NodeId src = 3;
  SynopsisBatch batch = ValidBatch(src, 8, 4);
  const std::vector<SliceSynopsis>& requested = batch.slices;
  CandidateReply reply;
  reply.window_id = 0;
  reply.node = src;
  for (uint32_t i = 0; i < 8; ++i) reply.events.push_back(Ev(i * 10.0, src, i));
  EXPECT_EQ(ValidateCandidateReply(reply, src, requested, true), nullptr);

  {
    CandidateReply r = reply;
    r.node = 4;
    EXPECT_STREQ(ValidateCandidateReply(r, src, requested, true),
                 "node_mismatch");
  }
  {
    CandidateReply r = reply;
    r.events.pop_back();  // short run vs the requested slice counts
    EXPECT_STREQ(ValidateCandidateReply(r, src, requested, true), "run_size");
  }
  {
    CandidateReply r = reply;
    r.events[3].value = std::numeric_limits<double>::infinity();
    EXPECT_STREQ(ValidateCandidateReply(r, src, requested, true), "bad_value");
  }
  {
    CandidateReply r = reply;
    std::swap(r.events[2], r.events[5]);
    EXPECT_STREQ(ValidateCandidateReply(r, src, requested, true),
                 "unsorted_run");
  }
  {
    // Sorted and the right size, but the values disagree with the synopsis
    // bounds the window-cut used — exactly the tampering that would shift
    // ranks silently.
    CandidateReply r = reply;
    for (Event& e : r.events) e.value += 1;
    std::sort(r.events.begin(), r.events.end());
    EXPECT_STREQ(ValidateCandidateReply(r, src, requested, true),
                 "bounds_mismatch");
    // A relay's merged run has no per-slice segmentation; only strict mode
    // holds the segments to the synopsis bounds.
    EXPECT_EQ(ValidateCandidateReply(r, src, requested, false), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Root-level defense: rejection counters, quarantine lifecycle, and the
// honest-subset exactness property.
// ---------------------------------------------------------------------------

class QuarantineRootTest : public ::testing::Test {
 protected:
  void Init(uint32_t strikes, uint64_t probation_windows,
            uint32_t probation_clean) {
    network_ = std::make_unique<net::Network>(&clock_);
    for (NodeId id : {0u, 1u, 2u, 3u}) {
      ASSERT_TRUE(network_->RegisterNode(id).ok());
    }
    DemaRootNodeOptions opts;
    opts.id = 0;
    opts.locals = {1, 2, 3};
    opts.quantiles = {0.5};
    opts.initial_gamma = 4;
    opts.recovery.quarantine_strikes = strikes;
    opts.recovery.probation_windows = probation_windows;
    opts.recovery.probation_clean_windows = probation_clean;
    root_ = std::make_unique<DemaRootNode>(opts, network_.get(), &clock_);
    root_->SetResultCallback(
        [this](const sim::WindowOutput& out) { outputs_.push_back(out); });
  }

  /// Builds and delivers an honest synopsis batch for sorted values.
  void SendWindow(NodeId node, net::WindowId wid,
                  const std::vector<double>& sorted_values) {
    SynopsisBatch batch;
    batch.window_id = wid;
    batch.node = node;
    batch.local_window_size = sorted_values.size();
    batch.gamma_used = 4;
    batch.close_time_us = clock_.NowUs();
    std::vector<Event> events;
    for (uint32_t i = 0; i < sorted_values.size(); ++i) {
      events.push_back(Ev(sorted_values[i], node, i));
    }
    if (!events.empty()) {
      auto slices = CutIntoSlices(events, node, 4);
      ASSERT_TRUE(slices.ok());
      batch.slices = *slices;
    }
    stored_[{node, wid}] = events;
    auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, node, 0, batch);
    ASSERT_TRUE(root_->OnMessage(msg).ok());
  }

  /// Delivers a tampered synopsis (forged node field) that strict
  /// validation rejects with `node_mismatch`.
  void SendCorruptWindow(NodeId node, net::WindowId wid, uint64_t claimed) {
    SynopsisBatch batch = ValidBatch(node, claimed, 4);
    batch.window_id = wid;
    batch.slices[0].node = node + 10;
    auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, node, 0, batch);
    ASSERT_TRUE(root_->OnMessage(msg).ok());
  }

  /// Serves every outstanding candidate request like honest locals would.
  void ServeRequests() {
    for (NodeId node : {1u, 2u, 3u}) {
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
          auto [b, e] = SliceEventRange(events.size(), 4, idx);
          reply.events.insert(reply.events.end(), events.begin() + b,
                              events.begin() + e);
        }
        auto reply_msg =
            net::MakeMessage(net::MessageType::kCandidateReply, node, 0, reply);
        ASSERT_TRUE(root_->OnMessage(reply_msg).ok());
      }
    }
  }

  double Oracle(std::vector<double> values, double q = 0.5) {
    auto result = stream::ExactQuantileValues(values, q);
    EXPECT_TRUE(result.ok());
    return *result;
  }

  RealClock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<DemaRootNode> root_;
  std::vector<sim::WindowOutput> outputs_;
  std::map<std::pair<NodeId, net::WindowId>, std::vector<Event>> stored_;
};

TEST_F(QuarantineRootTest, RejectionsCountWithoutQuarantineWhenDisabled) {
  Init(/*strikes=*/0, 8, 2);
  for (int i = 0; i < 5; ++i) SendCorruptWindow(3, 0, /*claimed=*/4);
  EXPECT_EQ(root_->registry()->CounterValue("dema.rejected"), 5u);
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 0u);
  EXPECT_EQ(
      root_->registry()->GetCounter("dema.rejected{reason=node_mismatch}")->Value(),
      5u);
  // The window still completes from every local — including the offender,
  // whose honest retransmission is welcome without quarantine.
  SendWindow(1, 0, {1, 2});
  SendWindow(2, 0, {3, 4});
  SendWindow(3, 0, {5, 6});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_FALSE(outputs_[0].degraded);
  EXPECT_EQ(outputs_[0].values[0], Oracle({1, 2, 3, 4, 5, 6}));
}

TEST_F(QuarantineRootTest, CorruptSynopsisLeavesHonestQuantileExact) {
  // The honest-subset exactness property: a corrupt synopsis is rejected
  // (and its sender quarantined), and the emitted quantile equals the
  // oracle over the remaining honest nodes' events exactly — corruption
  // shifts nothing, it only shrinks the answered population.
  Init(/*strikes=*/1, 8, 2);
  const std::vector<double> n1 = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> n2 = {11, 12, 13, 14, 15, 16, 17, 18};
  SendWindow(1, 0, n1);
  SendWindow(2, 0, n2);
  SendCorruptWindow(3, 0, /*claimed=*/20);
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  ServeRequests();

  ASSERT_EQ(outputs_.size(), 1u);
  const sim::WindowOutput& out = outputs_[0];
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_cause, "quarantine");
  // Exact over the honest union; the bound charges the offender's claim.
  std::vector<double> honest = n1;
  honest.insert(honest.end(), n2.begin(), n2.end());
  EXPECT_EQ(out.values[0], Oracle(honest));
  EXPECT_EQ(out.global_size, honest.size());
  EXPECT_EQ(out.rank_error_bound, 20u);
}

TEST_F(QuarantineRootTest, QuarantinedLocalIsReleasedAndItsBatchesDropped) {
  Init(/*strikes=*/1, /*probation_windows=*/4, 2);
  SendCorruptWindow(3, 0, 4);
  ASSERT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  // A quarantined local's (even well-formed) batch is dropped, counted, and
  // answered with a release so it does not retain the window forever.
  SendWindow(1, 1, {1, 2});
  SendWindow(2, 1, {3, 4});
  SynopsisBatch batch = ValidBatch(3, 4, 4);
  batch.window_id = 1;
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 3, 0, batch);
  ASSERT_TRUE(root_->OnMessage(msg).ok());
  EXPECT_EQ(
      root_->registry()->GetCounter("dema.rejected{reason=quarantined}")->Value(),
      1u);
  bool released = false;
  while (auto m = network_->Inbox(3)->TryPop()) {
    if (m->type != net::MessageType::kCandidateRequest) continue;
    net::Reader r(m->payload);
    auto req = CandidateRequest::Deserialize(&r);
    ASSERT_TRUE(req.ok());
    if (req->window_id == 1 && req->slice_indices.empty()) released = true;
  }
  EXPECT_TRUE(released);
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_TRUE(outputs_[0].degraded);
  EXPECT_EQ(outputs_[0].degrade_cause, "quarantine");
  EXPECT_EQ(outputs_[0].values[0], Oracle({1, 2, 3, 4}));
}

TEST_F(QuarantineRootTest, StripsAcceptedSlicesWhenQuarantineLandsMidWindow) {
  // Node 3's window-0 synopsis was *accepted* before its strikes ran out
  // (on a later window's payloads); the sweep must strip its contribution
  // from the still-collecting window and complete over the honest rest.
  Init(/*strikes=*/2, 8, 2);
  SendWindow(3, 0, {100, 200});
  SendWindow(1, 0, {1, 2, 3});
  SendCorruptWindow(3, 1, 2);
  SendCorruptWindow(3, 1, 2);  // second strike -> quarantine
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  SendWindow(2, 0, {4, 5, 6});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_TRUE(outputs_[0].degraded);
  EXPECT_EQ(outputs_[0].degrade_cause, "quarantine");
  // Exact over the honest six events; the stripped contribution is charged
  // at its exact accepted size.
  EXPECT_EQ(outputs_[0].values[0], Oracle({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(outputs_[0].global_size, 6u);
  EXPECT_EQ(outputs_[0].rank_error_bound, 2u);
}

TEST_F(QuarantineRootTest, ForgedOneEventSliceStrikesTheLocal) {
  // Node 3's trailing one-event slice carries two different events. The
  // root would read that slice from the synopsis instead of fetching it, so
  // validation must catch the forgery: node 3 is struck, and the window
  // emits exact over the honest locals, degraded with a cause and bound.
  Init(/*strikes=*/1, 8, 2);
  const std::vector<double> n1 = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<double> n2 = {11, 12, 13, 14, 15, 16, 17, 18, 19};
  SendWindow(1, 0, n1);
  SendWindow(2, 0, n2);
  SynopsisBatch forged = ValidBatch(3, 5, 4);  // slices of 4, 1
  forged.slices[1].last.value += 5;  // sorted, no overlap: only one event
  auto msg = net::MakeMessage(net::MessageType::kSynopsisBatch, 3, 0, forged);
  ASSERT_TRUE(root_->OnMessage(msg).ok());
  EXPECT_EQ(
      root_->registry()->GetCounter("dema.rejected{reason=slice_bounds}")->Value(),
      1u);
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  ServeRequests();

  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_TRUE(outputs_[0].degraded);
  EXPECT_EQ(outputs_[0].degrade_cause, "quarantine");
  std::vector<double> honest = n1;
  honest.insert(honest.end(), n2.begin(), n2.end());
  EXPECT_EQ(outputs_[0].values[0], Oracle(honest));
  EXPECT_EQ(outputs_[0].global_size, honest.size());
  EXPECT_EQ(outputs_[0].rank_error_bound, 5u);
  EXPECT_TRUE(root_->idle());
}

TEST_F(QuarantineRootTest, TamperedReplyDegradesInFlightWindow) {
  // Identification already ran when the tampering shows: the corrupt reply
  // is rejected, the sender quarantined, and the in-flight window emits
  // degraded from the honest replies instead of waiting forever.
  Init(/*strikes=*/1, 8, 2);
  // Interleaved ranges: every node's slices straddle the median rank, so
  // the window-cut requests candidates from all three nodes.
  SendWindow(1, 0, {1, 4, 7, 10, 13});
  SendWindow(2, 0, {2, 5, 8, 11, 14});
  SendWindow(3, 0, {3, 6, 9, 12, 15});
  // Serve nodes 1 and 2 honestly; node 3 replies with a forged node field.
  for (NodeId node : {1u, 2u}) {
    while (auto m = network_->Inbox(node)->TryPop()) {
      if (m->type != net::MessageType::kCandidateRequest) continue;
      net::Reader r(m->payload);
      auto req = CandidateRequest::Deserialize(&r);
      ASSERT_TRUE(req.ok());
      if (req->slice_indices.empty()) continue;
      const auto& events = stored_[{node, req->window_id}];
      CandidateReply reply;
      reply.window_id = req->window_id;
      reply.node = node;
      for (uint32_t idx : req->slice_indices) {
        auto [b, e] = SliceEventRange(events.size(), 4, idx);
        reply.events.insert(reply.events.end(), events.begin() + b,
                            events.begin() + e);
      }
      ASSERT_TRUE(root_
                      ->OnMessage(net::MakeMessage(
                          net::MessageType::kCandidateReply, node, 0, reply))
                      .ok());
    }
  }
  ASSERT_TRUE(outputs_.empty());  // still waiting on node 3
  CandidateReply forged;
  forged.window_id = 0;
  forged.node = 2;  // claims to be node 2
  ASSERT_TRUE(
      root_
          ->OnMessage(net::MakeMessage(net::MessageType::kCandidateReply, 3, 0,
                                       forged))
          .ok());
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_TRUE(outputs_[0].degraded);
  EXPECT_EQ(outputs_[0].degrade_cause, "quarantine");
  EXPECT_TRUE(root_->idle());
}

TEST_F(QuarantineRootTest, ProbationReadmitsCleanLocalAndRelapsesOffender) {
  Init(/*strikes=*/1, /*probation_windows=*/1, /*probation_clean=*/1);
  // Window 0: node 3 tampers -> quarantined; honest pair completes.
  SendCorruptWindow(3, 0, 2);
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 1u);
  SendWindow(1, 0, {1, 2});
  SendWindow(2, 0, {3, 4});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 1u);
  EXPECT_TRUE(outputs_[0].degraded);

  // Window 0 emitted -> the one-window quarantine term is served; node 3 is
  // on probation and its window-1 contribution is accepted again.
  SendWindow(1, 1, {1, 2});
  SendWindow(2, 1, {3, 4});
  SendWindow(3, 1, {5, 6});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 2u);
  EXPECT_FALSE(outputs_[1].degraded);
  EXPECT_EQ(outputs_[1].values[0], Oracle({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(outputs_[1].global_size, 6u);
  // One clean window was all probation required: fully re-admitted.
  EXPECT_EQ(root_->registry()->CounterValue("dema.readmitted"), 1u);

  // A re-admitted local that relapses is quarantined again, and a
  // *probation* local re-quarantines on its first strike.
  SendCorruptWindow(3, 2, 2);
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 2u);
  SendWindow(1, 2, {1, 2});
  SendWindow(2, 2, {3, 4});
  ServeRequests();
  ASSERT_EQ(outputs_.size(), 3u);
  EXPECT_TRUE(outputs_[2].degraded);
  SendCorruptWindow(3, 3, 2);  // strike while on probation
  EXPECT_EQ(root_->registry()->CounterValue("dema.quarantined"), 3u);
  EXPECT_EQ(root_->registry()->CounterValue("dema.readmitted"), 1u);
}

// ---------------------------------------------------------------------------
// The events form of a γ = 2 batch: a malformed one is rejected and counted
// at the root and at a relay, and never fails the node. So is a slices-form
// batch whose slice counts only sum to its size by wrapping past 2^64.
// ---------------------------------------------------------------------------

/// An events-form `SynopsisBatch` payload from node 1 for window 0:
/// the header declaring \p declared_size events at \p gamma, the form word
/// \p form, then \p events in \p codec.
std::vector<uint8_t> EventsFormPayload(
    uint64_t declared_size, const std::vector<Event>& events,
    net::EventCodec codec, uint32_t form = kSynopsisEventsForm,
    uint32_t gamma = 2) {
  net::Writer w;
  w.PutU64(0);  // window id
  w.PutU32(1);  // node
  w.PutU64(declared_size);
  w.PutU32(gamma);
  w.PutI64(0);  // close time
  w.PutU32(form);
  net::EncodeEvents(&w, events, codec, /*sorted_hint=*/true);
  return w.TakeBuffer();
}

TEST(NonStrictRoot, SizesThatWrapAreASizeMismatch) {
  // Each batch passes non-strict validation on its own, but 2^63 and
  // 2^63 + 4 sum past 64 bits: the second is rejected before it touches
  // the pending window, which stays open for the local's honest batch.
  RealClock clock;
  net::Network network(&clock);
  for (NodeId id : {0u, 1u, 2u}) ASSERT_TRUE(network.RegisterNode(id).ok());
  DemaRootNodeOptions opts;
  opts.id = 0;
  opts.locals = {1, 2};
  opts.initial_gamma = 4;
  opts.strict_validation = false;
  DemaRootNode root(opts, &network, &clock);
  auto deliver = [&](NodeId node, uint64_t size) {
    SynopsisBatch batch;
    batch.node = node;
    batch.local_window_size = size;
    batch.gamma_used = 4;
    batch.slices = {SliceSynopsis{node, 0, Ev(1, node, 0), Ev(2, node, 1), size}};
    return root.OnMessage(
        net::MakeMessage(net::MessageType::kSynopsisBatch, node, 0, batch));
  };
  obs::Counter* size_mismatch =
      root.registry()->GetCounter("dema.rejected{reason=size_mismatch}");
  ASSERT_TRUE(deliver(1, 1ull << 63).ok());
  ASSERT_TRUE(deliver(2, (1ull << 63) + 4).ok());
  EXPECT_EQ(size_mismatch->Value(), 1u);
  ASSERT_TRUE(deliver(2, 4).ok());
  EXPECT_EQ(root.registry()->CounterValue("dema.rejected"), 1u);
}

TEST(EventsFormRejection, RootAndRelayCountEachMalformedBatch) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Event> sorted = {Ev(1, 1, 0), Ev(2, 1, 1), Ev(3, 1, 2),
                                     Ev(4, 1, 3)};
  struct Case {
    std::string name;
    std::vector<uint8_t> payload;
    const char* reason;
  };
  std::vector<Case> cases;
  for (net::EventCodec codec :
       {net::EventCodec::kFixed, net::EventCodec::kCompact}) {
    const std::string tag =
        codec == net::EventCodec::kFixed ? "/fixed" : "/compact";
    std::vector<uint8_t> truncated = EventsFormPayload(4, sorted, codec);
    truncated.pop_back();
    cases.push_back({"truncated" + tag, truncated, "decode"});
    cases.push_back(
        {"count above" + tag, EventsFormPayload(5, sorted, codec), "decode"});
    cases.push_back(
        {"count below" + tag, EventsFormPayload(3, sorted, codec), "decode"});
    std::vector<Event> unsorted = sorted;
    std::swap(unsorted[1], unsorted[2]);
    cases.push_back(
        {"unsorted" + tag, EventsFormPayload(4, unsorted, codec), "decode"});
    // A non-finite value sorts (NaN compares equal to every value, so the
    // timestamps order it); the validator's value rule rejects it.
    for (auto [name, at, value] :
         {std::tuple{"NaN", 3, kNaN}, std::tuple{"+Inf", 3, kInf},
          std::tuple{"-Inf", 0, -kInf}}) {
      std::vector<Event> bad = sorted;
      bad[at].value = value;
      cases.push_back({name + tag, EventsFormPayload(4, bad, codec),
                       "bad_value"});
    }
    cases.push_back({"unknown form" + tag,
                     EventsFormPayload(4, sorted, codec, 0x80000001u),
                     "decode"});
    cases.push_back({"events form at gamma 4" + tag,
                     EventsFormPayload(4, sorted, codec, kSynopsisEventsForm,
                                       /*gamma=*/4),
                     "decode"});
  }
  {
    // 2^63 + (2^63 + 4) wraps to the declared 4 events.
    SynopsisBatch wrapped;
    wrapped.node = 1;
    wrapped.local_window_size = 4;
    wrapped.gamma_used = 4;
    wrapped.slices = {SliceSynopsis{1, 0, Ev(1, 1, 0), Ev(2, 1, 1), 1ull << 63},
                      SliceSynopsis{1, 1, Ev(3, 1, 2), Ev(4, 1, 3), (1ull << 63) + 4}};
    net::Writer w;
    wrapped.SerializeTo(&w);
    cases.push_back({"slice counts that wrap", w.TakeBuffer(), "decode"});
  }

  RealClock clock;
  net::Network network(&clock);
  for (NodeId id : {0u, 1u, 5u}) ASSERT_TRUE(network.RegisterNode(id).ok());
  DemaRootNodeOptions root_opts;
  root_opts.id = 0;
  root_opts.locals = {1};
  root_opts.initial_gamma = 4;
  DemaRootNode root(root_opts, &network, &clock);
  DemaRootNodeOptions relay_opts = root_opts;
  relay_opts.id = 5;
  relay_opts.parent = 0;
  DemaRootNode relay(relay_opts, &network, &clock);

  for (DemaRootNode* node : {&root, &relay}) {
    const std::string who = node == &root ? "root: " : "relay: ";
    for (const Case& c : cases) {
      const std::string counter =
          std::string("dema.rejected{reason=") + c.reason + "}";
      const uint64_t before = node->registry()->GetCounter(counter)->Value();
      net::Message m;
      m.type = net::MessageType::kSynopsisBatch;
      m.src = 1;
      m.dst = node == &root ? 0 : 5;
      m.payload = c.payload;
      ASSERT_TRUE(node->OnMessage(m).ok()) << who << c.name;
      EXPECT_EQ(node->registry()->GetCounter(counter)->Value(), before + 1)
          << who << c.name;
    }
    // The honest batch is still welcome after every rejection.
    net::Message m;
    m.type = net::MessageType::kSynopsisBatch;
    m.src = 1;
    m.dst = node == &root ? 0 : 5;
    m.payload = EventsFormPayload(4, sorted, net::EventCodec::kFixed);
    ASSERT_TRUE(node->OnMessage(m).ok()) << who;
    EXPECT_EQ(node->registry()->CounterValue("dema.rejected"), cases.size())
        << who;
  }
  // The root emitted the window exactly; the relay sent it up.
  EXPECT_EQ(root.registry()->CounterValue("dema.windows"), 1u);
  auto up = network.Inbox(0)->TryPop();
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->type, net::MessageType::kSynopsisBatch);
}

}  // namespace
}  // namespace dema::core
