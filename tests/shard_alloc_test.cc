// Heap-allocation bounds on the keyed paths. A counting global
// `operator new` measures what `RootShard` allocates per key-window once its
// buffers are warm: each window feeds one synopsis frame and one reply frame
// per local, covering every key, exactly as the keyed service does; windows
// small enough to complete from their synopses feed the synopses alone. The
// same counter bounds a `KeyedLocalNode`: its construction per key, and per
// key-window the ingest, the window close and one candidate request; and
// `ResultStore::Publish`, which allocates nothing at all.
//
// This is its own test binary because it replaces the global allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "common/clock.h"
#include "dema/adaptive_gamma.h"
#include "dema/protocol.h"
#include "dema/slice.h"
#include "net/keyed.h"
#include "obs/registry.h"
#include "shard/config.h"
#include "shard/key.h"
#include "shard/local_mux.h"
#include "shard/result_store.h"
#include "shard/root_shard.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dema {
namespace {

/// Keeps the frames the shard sends, for the test to answer.
class FrameSink final : public transport::Transport {
 public:
  Status Send(net::Message m) override {
    frames.push_back(std::move(m));
    return Status::OK();
  }
  net::Channel* Inbox(NodeId) override { return nullptr; }
  transport::LinkTrafficMap LinkTraffic() const override { return {}; }
  std::map<net::MessageType, net::TrafficCounters> TrafficByType()
      const override {
    return {};
  }
  void Shutdown() override {}

  std::vector<net::Message> frames;
};

constexpr uint64_t kKeys = 512;
constexpr size_t kLocals = 2;
constexpr uint64_t kEventsPerKeyLocal = 12;
/// Small enough for the tiny-window rule (`core::CutAtGammaTwo`): an honest
/// local cuts such a window at γ = 2 and the root completes it from the
/// synopses alone.
constexpr uint64_t kTinyEventsPerKeyLocal = 4;
constexpr uint64_t kGamma = 2'000;

/// Sorted events of (key, local, window): a few values spread so the two
/// locals' slices overlap for some keys and not for others. The default
/// count is more than the tiny-window rule ships complete, so an honest local
/// cuts one slice of all of them and serves it on request.
std::vector<Event> KeyEvents(net::KeyId key, NodeId node, net::WindowId w,
                             uint64_t count = kEventsPerKeyLocal) {
  std::vector<Event> events;
  for (uint32_t i = 0; i < count; ++i) {
    Event e;
    e.value = static_cast<double>((key * 7 + node * 13 + i * 29 + w * 3) % 101);
    e.timestamp = static_cast<TimestampUs>(w) * kMicrosPerSecond + i;
    e.node = node;
    e.seq = i;
    events.push_back(e);
  }
  std::sort(events.begin(), events.end());
  return events;
}

/// The synopses \p node ships for window \p w, cut as an honest local cuts
/// them (at γ = 2 when the tiny-window rule holds).
net::Message SynopsisFrame(NodeId node, net::WindowId w,
                           uint64_t count = kEventsPerKeyLocal) {
  const uint64_t gamma =
      core::CutAtGammaTwo(count, kGamma, net::EventCodec::kFixed) ? 2 : kGamma;
  net::KeyedBatchWriter batch(0);
  for (net::KeyId key = 0; key < kKeys; ++key) {
    std::vector<Event> events = KeyEvents(key, node, w, count);
    core::SynopsisBatch synopsis;
    synopsis.window_id = w;
    synopsis.node = node;
    synopsis.local_window_size = events.size();
    synopsis.gamma_used = static_cast<uint32_t>(gamma);
    synopsis.slices = *core::CutIntoSlices(events, node, gamma);
    batch.Add(key, synopsis);
  }
  return batch.Finish(net::MessageType::kShardSynopsisBatch, node, 0);
}

/// Answers the candidate requests the shard sent to \p node.
net::Message ReplyFrame(const std::vector<net::Message>& requests, NodeId node,
                        net::WindowId w) {
  net::KeyedBatchWriter batch(0);
  for (const net::Message& frame : requests) {
    if (frame.dst != node) continue;
    auto reader = net::KeyedBatchReader::Open(frame.payload_bytes());
    EXPECT_TRUE(reader.ok()) << reader.status();
    net::KeyedEntryView entry;
    while (reader->Next(&entry)) {
      net::Reader r(entry.payload);
      auto req = core::CandidateRequest::Deserialize(&r);
      EXPECT_TRUE(req.ok()) << req.status();
      if (req->slice_indices.empty()) continue;  // a release, no reply
      core::CandidateReply reply;
      reply.window_id = w;
      reply.node = node;
      reply.events = KeyEvents(entry.key, node, w);  // one slice holds all
      batch.Add(entry.key, reply);
    }
  }
  return batch.Finish(net::MessageType::kShardCandidateReply, node, 0);
}

TEST(ShardAllocations, RootShardKeyWindowStaysWithinBound) {
  shard::ShardedConfig config;
  config.num_locals = kLocals;
  config.num_shards = 1;
  config.num_keys = kKeys;
  config.gamma = kGamma;
  config.quantiles = {0.5, 0.99};
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  uint64_t emitted = 0;
  shard::RootShard shard(0, config, &transport, &clock, &registry,
                         [&emitted](net::KeyId, const sim::WindowOutput&) {
                           ++emitted;
                         });

  constexpr net::WindowId kWarmup = 2;
  constexpr net::WindowId kMeasured = 3;
  uint64_t allocations = 0;
  for (net::WindowId w = 0; w < kWarmup + kMeasured; ++w) {
    std::vector<net::Message> synopses;
    for (NodeId node = 1; node <= kLocals; ++node) {
      synopses.push_back(SynopsisFrame(node, w));
    }
    transport.frames.clear();
    transport.frames.reserve(16);
    const uint64_t before_synopses = g_allocations.load();
    for (const net::Message& frame : synopses) {
      ASSERT_TRUE(shard.OnFrame(frame).ok());
    }
    const uint64_t synopsis_allocations = g_allocations.load() - before_synopses;

    std::vector<net::Message> replies;
    for (NodeId node = 1; node <= kLocals; ++node) {
      replies.push_back(ReplyFrame(transport.frames, node, w));
    }
    transport.frames.clear();
    const uint64_t before_replies = g_allocations.load();
    for (const net::Message& frame : replies) {
      ASSERT_TRUE(shard.OnFrame(frame).ok());
    }
    const uint64_t reply_allocations = g_allocations.load() - before_replies;
    if (w >= kWarmup) allocations += synopsis_allocations + reply_allocations;
    ASSERT_EQ(emitted, (w + 1) * kKeys) << "window " << w;
  }
  ASSERT_TRUE(shard.idle());

  const double per_key_window =
      static_cast<double>(allocations) / static_cast<double>(kMeasured * kKeys);
  // One full single-key root per key, behind a buffering transport and an
  // owning envelope codec, took 54.1 allocations per key-window on this
  // path. The shared core with a rank-select merger built per call took 4.0;
  // with the core's reusable merger and order scratch it takes none, and
  // the bound leaves one for the reply runs' pool to settle.
  EXPECT_LE(per_key_window, 1.0);
  RecordProperty("allocations_per_key_window", std::to_string(per_key_window));
  std::printf("root-shard allocations per key-window: %.2f\n", per_key_window);
}

TEST(ShardAllocations, RootShardTinyKeyWindowStaysWithinBound) {
  shard::ShardedConfig config;
  config.num_locals = kLocals;
  config.num_shards = 1;
  config.num_keys = kKeys;
  config.gamma = kGamma;
  config.quantiles = {0.5, 0.99};
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  uint64_t emitted = 0;
  shard::RootShard shard(0, config, &transport, &clock, &registry,
                         [&emitted](net::KeyId, const sim::WindowOutput&) {
                           ++emitted;
                         });

  // Every key-window completes at identification from its synopsis-served
  // run, which goes back to the shared run pool. Enough windows run that a
  // run buffer taken fresh per key-window, instead of from the pool, shows
  // as allocations in every measured window.
  constexpr net::WindowId kWarmup = 2;
  constexpr net::WindowId kMeasured = 6;
  uint64_t allocations = 0;
  for (net::WindowId w = 0; w < kWarmup + kMeasured; ++w) {
    std::vector<net::Message> synopses;
    for (NodeId node = 1; node <= kLocals; ++node) {
      synopses.push_back(SynopsisFrame(node, w, kTinyEventsPerKeyLocal));
    }
    transport.frames.clear();
    const uint64_t before = g_allocations.load();
    for (const net::Message& frame : synopses) {
      ASSERT_TRUE(shard.OnFrame(frame).ok());
    }
    if (w >= kWarmup) allocations += g_allocations.load() - before;
    ASSERT_EQ(emitted, (w + 1) * kKeys) << "window " << w;
    // Neither a request nor a release: no local retains a tiny window.
    ASSERT_TRUE(transport.frames.empty()) << "window " << w;
  }
  ASSERT_TRUE(shard.idle());

  const double per_key_window =
      static_cast<double>(allocations) / static_cast<double>(kMeasured * kKeys);
  // Warm, a tiny key-window allocates nothing: the pending window, the
  // synopsis-served run and the scratch buffers are all reused, and its one
  // run is rank-selected by index. A run taken fresh per key-window instead
  // of from the pool measured 7.0 (and the pool then grew by one run for
  // every key-window); a merger built per selection measured 4.0.
  EXPECT_EQ(allocations, 0u);
  RecordProperty("allocations_per_key_window", std::to_string(per_key_window));
  std::printf("root-shard allocations per tiny key-window: %.2f\n",
              per_key_window);
}

TEST(ShardAllocations, KeyedLocalKeyWindowStaysWithinBound) {
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  transport.frames.reserve(16);
  shard::ShardedConfig config;
  config.num_shards = 1;
  config.num_keys = kKeys;
  config.gamma = kGamma;
  config.registry = &registry;
  constexpr NodeId kId = 1;
  const uint64_t before_build = g_allocations.load();
  shard::KeyedLocalNode local(config, kId, &transport, &clock);
  const double per_key_build =
      static_cast<double>(g_allocations.load() - before_build) /
      static_cast<double>(kKeys);

  constexpr net::WindowId kWarmup = 2;
  constexpr net::WindowId kMeasured = 3;
  uint64_t allocations = 0;
  for (net::WindowId w = 0; w < kWarmup + kMeasured; ++w) {
    std::vector<std::vector<Event>> events;
    net::KeyedBatchWriter batch(0);
    core::CandidateRequest req;
    req.window_id = w;
    req.slice_indices = {0};
    for (net::KeyId key = 0; key < kKeys; ++key) {
      events.push_back(KeyEvents(key, kId, w));
      batch.Add(key, req);
    }
    const net::Message requests =
        batch.Finish(net::MessageType::kShardCandidateRequest, 0, kId);
    transport.frames.clear();

    const uint64_t before = g_allocations.load();
    for (net::KeyId key = 0; key < kKeys; ++key) {
      for (const Event& e : events[key]) {
        ASSERT_TRUE(local.OnEvent(key, e).ok());
      }
    }
    ASSERT_TRUE(local.OnWatermark(static_cast<TimestampUs>(w + 1) *
                                  kMicrosPerSecond)
                    .ok());
    ASSERT_TRUE(local.OnMessage(requests).ok());
    if (w >= kWarmup) allocations += g_allocations.load() - before;

    ASSERT_EQ(transport.frames.size(), 2u) << "window " << w;
    auto replies = net::KeyedBatchReader::Open(transport.frames[1].payload_bytes());
    ASSERT_TRUE(replies.ok()) << replies.status();
    ASSERT_EQ(replies->size(), kKeys) << "window " << w;
  }

  const double per_key_window =
      static_cast<double>(allocations) / static_cast<double>(kMeasured * kKeys);
  // One full single-key local per key, behind a buffering transport, took
  // 11.1 allocations per key to build and 22.0 per key-window on this path
  // with 4-event windows (ingest 4, close 9, serve 9). The shared core took
  // 5.67 per key-window while it cut into a fresh batch, returned a fresh
  // closed-window list and decoded a fresh request. Warm, what is left is
  // the open window's map node and event buffer (2.0), plus the growth of
  // each key's served ring while these windows fill it; the core builds
  // each key with at most two.
  EXPECT_LE(per_key_build, 2.0);
  EXPECT_LE(per_key_window, 3.0);
  RecordProperty("allocations_per_key", std::to_string(per_key_build));
  RecordProperty("allocations_per_key_window", std::to_string(per_key_window));
  std::printf("keyed-local allocations per key: %.2f, per key-window: %.2f\n",
              per_key_build, per_key_window);
}

TEST(ShardAllocations, ResultStorePublishAllocatesNothing) {
  constexpr uint32_t kShards = 4;
  shard::ResultStore store(kShards, kKeys, {0.5, 0.99});
  sim::WindowOutput out;
  out.values = {1.0, 2.0};
  // Every slot and value already exists, so neither a key's first publish
  // nor any later one allocates: a strand never calls malloc while it holds
  // a stripe lock that queries wait on.
  const uint64_t before = g_allocations.load();
  for (net::WindowId w = 0; w < 3; ++w) {
    out.window_id = w;
    out.global_size = 8 + w;
    for (net::KeyId key = 0; key < kKeys; ++key) {
      store.Publish(shard::ShardOfKey(key, kShards), key, out);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(store.published_windows(), 3 * kKeys);
  auto latest = store.Latest(kKeys - 1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->window_id, 2u);
  EXPECT_EQ(latest->global_size, 10u);
  EXPECT_EQ(latest->values, out.values);
}

}  // namespace
}  // namespace dema
