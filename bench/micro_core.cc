// Microbenchmarks (google-benchmark) for the hot paths: local ingest, local
// window sorting and slice ordering, loser-tree merging, slice cutting,
// window-cut selection, a root shard's per-key-window cost, sketch updates,
// and wire serialization.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/local_node.h"
#include "dema/protocol.h"
#include "dema/slice.h"
#include "dema/window_cut.h"
#include "net/keyed.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/registry.h"
#include "shard/config.h"
#include "shard/root_shard.h"
#include "sketch/qdigest.h"
#include "sketch/tdigest.h"
#include "stream/event_sort.h"
#include "stream/merge.h"

namespace dema {
namespace {

std::vector<Event> RandomEvents(size_t n, uint64_t seed, NodeId node = 1) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    events.push_back(
        Event{rng.Uniform(0, 1e6), static_cast<TimestampUs>(i), node, i});
  }
  return events;
}

/// A sensor random walk in [0, 10000] with step stddev 25, the value shape
/// of a local window in the paper's setting.
std::vector<Event> WalkEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double pos = 5'000;
  for (uint32_t i = 0; i < n; ++i) {
    pos = std::clamp(pos + rng.Normal(0, 25), 0.0, 10'000.0);
    events.push_back(Event{pos, static_cast<TimestampUs>(i), 1, i});
  }
  return events;
}

/// Zipf-style duplicates: value k with probability ∝ 1/k², so a few values
/// hold most events and runs of equal values straddle slice boundaries.
std::vector<Event> DuplicateEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const double value = std::floor(1 / std::sqrt(rng.Uniform(1e-6, 1)));
    events.push_back(Event{value, static_cast<TimestampUs>(i), 1, i});
  }
  return events;
}

/// Closed windows of range(0) events: uniform values when range(1) is 0, a
/// random walk when it is 1, zipf-style duplicates when it is 2. Several
/// distinct windows (as many as fit in
/// about 24 MB, at most 16) are cycled through, so the branch predictor
/// cannot learn one input's comparisons and flatter `std::sort`.
std::vector<std::vector<Event>> WindowInputs(const benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<Event>> inputs(
      std::clamp<size_t>(1'000'000 / n, 1, 16));
  for (size_t i = 0; i < inputs.size(); ++i) {
    switch (state.range(1)) {
      case 0:
        inputs[i] = RandomEvents(n, 11 + i);
        break;
      case 1:
        inputs[i] = WalkEvents(n, 11 + i);
        break;
      default:
        inputs[i] = DuplicateEvents(n, 11 + i);
    }
  }
  return inputs;
}

/// Times the close-time sort every local runs (`stream::SortEvents`).
void BM_SortWindow(benchmark::State& state) {
  const auto inputs = WindowInputs(state);
  std::vector<Event> copy;
  size_t next = 0;
  for (auto _ : state) {
    copy = inputs[next++ % inputs.size()];
    stream::SortEvents(copy);
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
/// The `std::sort` reference it must match.
void BM_SortWindowStdSort(benchmark::State& state) {
  const auto inputs = WindowInputs(state);
  std::vector<Event> copy;
  size_t next = 0;
  for (auto _ : state) {
    copy = inputs[next++ % inputs.size()];
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
/// The close-time slice order every local runs instead of a full sort
/// (`stream::OrderSlices`), at γ = 166, the slice factor star_inline's
/// locals settle on for their 20,000-event windows.
void BM_SliceOrderWindow(benchmark::State& state) {
  const auto inputs = WindowInputs(state);
  std::vector<Event> copy;
  size_t next = 0;
  for (auto _ : state) {
    copy = inputs[next++ % inputs.size()];
    stream::OrderSlices(&copy, 166);
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
/// Uniform windows of 1k to 1M events, and 20,000-event windows — one
/// star_inline local window — of a walk and of zipf-style duplicates.
void SortWindowArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "shape"})
      ->Args({1'000, 0})
      ->Args({100'000, 0})
      ->Args({1'000'000, 0})
      ->Args({20'000, 1})
      ->Args({20'000, 2});
}
BENCHMARK(BM_SortWindow)->Apply(SortWindowArgs);
BENCHMARK(BM_SortWindowStdSort)->Apply(SortWindowArgs);
BENCHMARK(BM_SliceOrderWindow)->Apply(SortWindowArgs);

/// Times a Dema local's per-event ingest, the way perfbench and the TCP
/// runner feed it: one `OnEvent` call per event through a
/// `sim::LocalNodeLogic*`. One iteration is one 20,000-event walk window;
/// the watermark that closes it, and the root's release of the shipped
/// window, run with the timer paused. Reports ns/event.
void BM_LocalIngest(benchmark::State& state) {
  constexpr size_t kEvents = 20'000;
  constexpr DurationUs kWindowUs = 1'000'000;
  std::vector<std::vector<Event>> inputs(8);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = WalkEvents(kEvents, 11 + i);
    for (size_t k = 0; k < kEvents; ++k) {
      inputs[i][k].timestamp = static_cast<TimestampUs>(k * kWindowUs / kEvents);
    }
  }
  RealClock clock;
  net::Network network(&clock);
  (void)network.RegisterNode(0);
  (void)network.RegisterNode(1);
  core::DemaLocalNodeOptions opts;
  opts.window_len_us = kWindowUs;
  opts.initial_gamma = 166;
  core::DemaLocalNode node(opts, &network, &clock);
  sim::LocalNodeLogic* local = &node;
  net::WindowId window = 0;
  for (auto _ : state) {
    const TimestampUs base = static_cast<TimestampUs>(window) * kWindowUs;
    for (Event e : inputs[window % inputs.size()]) {
      e.timestamp += base;
      benchmark::DoNotOptimize(local->OnEvent(e));
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    ++window;
    if (!local->OnWatermark(static_cast<TimestampUs>(window) * kWindowUs).ok()) {
      state.SkipWithError("watermark failed");
      break;
    }
    while (network.Inbox(0)->TryPop().has_value()) {
    }
    // An empty request releases the retained window, as the root does once
    // it needs nothing from this local.
    (void)local->OnMessage(net::MakeMessage(net::MessageType::kCandidateRequest,
                                            0, 1,
                                            core::CandidateRequest{window - 1, {}}));
    state.ResumeTiming();
  }
  const auto events = static_cast<double>(state.iterations() * kEvents);
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["ns_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LocalIngest);

void BM_IncrementalSortedInsert(benchmark::State& state) {
  auto events = RandomEvents(state.range(0), 13);
  for (auto _ : state) {
    // The paper's local: every event inserted in order, drained at close.
    std::multiset<Event> window;
    for (const Event& e : events) window.insert(e);
    std::vector<Event> sorted(window.begin(), window.end());
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncrementalSortedInsert)->Arg(1'000)->Arg(100'000);

void BM_LoserTreeMerge(benchmark::State& state) {
  const size_t k = state.range(0);
  const size_t per_run = 100'000 / k;
  std::vector<std::vector<Event>> runs;
  for (size_t i = 0; i < k; ++i) {
    auto run = RandomEvents(per_run, 17 + i, static_cast<NodeId>(i));
    std::sort(run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  for (auto _ : state) {
    auto copy = runs;
    auto merged = stream::MergeSortedRuns(std::move(copy));
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() * k * per_run);
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(8)->Arg(64);

void BM_CutIntoSlices(benchmark::State& state) {
  auto events = RandomEvents(1'000'000, 23);
  std::sort(events.begin(), events.end());
  for (auto _ : state) {
    auto slices = core::CutIntoSlices(events, 1, state.range(0));
    benchmark::DoNotOptimize(&slices);
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_CutIntoSlices)->Arg(100)->Arg(10'000);

void BM_WindowCutSelect(benchmark::State& state) {
  // m overlapping slices across 4 nodes.
  const size_t m = state.range(0);
  Rng rng(29);
  std::vector<core::SliceSynopsis> slices;
  uint64_t total = 0;
  for (size_t i = 0; i < m; ++i) {
    core::SliceSynopsis s;
    s.node = static_cast<NodeId>(1 + i % 4);
    s.index = static_cast<uint32_t>(i / 4);
    double lo = rng.Uniform(0, 1e6);
    double hi = lo + rng.Uniform(1, 1e5);
    s.first = Event{lo, 0, s.node, s.index * 2};
    s.last = Event{hi, 0, s.node, s.index * 2 + 1};
    s.count = 1000;
    total += s.count;
    slices.push_back(s);
  }
  for (auto _ : state) {
    auto result = core::WindowCut::SelectMulti(slices, total, {total / 2});
    benchmark::DoNotOptimize(&result);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_WindowCutSelect)->Arg(100)->Arg(10'000);

void BM_WindowCutSortedRuns(benchmark::State& state) {
  // One sorted random-walk window per node, cut at gamma: the root sees each
  // node's slices as one run, in both first and last order. Args: nodes,
  // events per node, gamma.
  const auto nodes = static_cast<size_t>(state.range(0));
  const auto per_node = static_cast<size_t>(state.range(1));
  const auto gamma = static_cast<uint64_t>(state.range(2));
  std::vector<core::SliceSynopsis> slices;
  for (size_t n = 0; n < nodes; ++n) {
    const auto node = static_cast<NodeId>(n + 1);
    std::vector<Event> window = WalkEvents(per_node, 41 + n);
    for (Event& e : window) e.node = node;
    std::sort(window.begin(), window.end());
    std::vector<core::SliceSynopsis> cut;
    core::CutIntoSlicesInto(window, node, gamma, &cut);
    slices.insert(slices.end(), cut.begin(), cut.end());
  }
  const uint64_t total = nodes * per_node;
  const std::vector<uint64_t> ranks = {total / 2};
  core::WindowCutScratch scratch;
  core::WindowCutResult result;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::WindowCut::SelectMultiInto(
        slices, total, ranks, &scratch, &result));
  }
  state.counters["slices"] = static_cast<double>(slices.size());
  state.counters["ns_per_slice"] = benchmark::Counter(
      static_cast<double>(state.iterations() * slices.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// 4 nodes x 121 slices is star_inline's shape (20,000 events, gamma 166).
BENCHMARK(BM_WindowCutSortedRuns)
    ->Args({4, 20'000, 166})
    ->Args({4, 20'000, 16})
    ->Args({1000, 800, 166});

/// Keeps the frames a root shard sends, so the benchmark can answer its
/// candidate requests.
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

/// Sorted sensor-walk events of one (key, local, window), \p count of them.
std::vector<Event> KeyWindowEvents(net::KeyId key, NodeId node,
                                   net::WindowId w, size_t count) {
  std::vector<Event> events =
      WalkEvents(count, 1 + key * 7919 + node * 104729 + w * 15485863);
  for (Event& e : events) {
    e.node = node;
    e.timestamp += static_cast<TimestampUs>(w) * kMicrosPerSecond;
  }
  std::sort(events.begin(), events.end());
  return events;
}

/// Times a root shard's work per key-window: the keyed synopsis frames of
/// two locals through `RootShard::OnFrame` and, for windows too large for
/// the tiny-window rule, the keyed candidate-reply frames that answer its
/// requests. The frames are built with the timer paused. range(0) is the
/// events per key-local window: 4 is keyed_100k's shape, cut at γ = 2 and
/// completed from the synopses alone (tiny); 12 ships one slice of 12
/// events that the root fetches (fetched). Reports ns per key-window.
void BM_RootShardKeyWindow(benchmark::State& state) {
  constexpr uint64_t kKeys = 1024;
  constexpr size_t kLocals = 2;
  constexpr uint64_t kGamma = 2'000;
  const auto count = static_cast<size_t>(state.range(0));
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
  const uint64_t gamma =
      core::CutAtGammaTwo(count, kGamma, net::EventCodec::kFixed) ? 2 : kGamma;

  std::vector<net::Message> synopses, replies;
  net::WindowId w = 0;
  for (auto _ : state) {
    state.PauseTiming();
    synopses.clear();
    for (NodeId node = 1; node <= kLocals; ++node) {
      net::KeyedBatchWriter batch(0);
      for (net::KeyId key = 0; key < kKeys; ++key) {
        std::vector<Event> events = KeyWindowEvents(key, node, w, count);
        core::SynopsisBatch synopsis;
        synopsis.window_id = w;
        synopsis.node = node;
        synopsis.local_window_size = events.size();
        synopsis.gamma_used = static_cast<uint32_t>(gamma);
        core::CutIntoSlicesInto(events, node, gamma, &synopsis.slices);
        batch.Add(key, synopsis);
      }
      synopses.push_back(
          batch.Finish(net::MessageType::kShardSynopsisBatch, node, 0));
    }
    transport.frames.clear();
    state.ResumeTiming();

    for (const net::Message& frame : synopses) {
      if (!shard.OnFrame(frame).ok()) state.SkipWithError("synopsis frame");
    }

    state.PauseTiming();
    // Answer every request with the requested local's events: at 12 events
    // one slice holds them all.
    replies.clear();
    for (NodeId node = 1; node <= kLocals; ++node) {
      net::KeyedBatchWriter batch(0);
      size_t answered = 0;
      for (const net::Message& frame : transport.frames) {
        if (frame.dst != node) continue;
        auto reader = net::KeyedBatchReader::Open(frame.payload_bytes());
        net::KeyedEntryView entry;
        while (reader.ok() && reader->Next(&entry)) {
          net::Reader r(entry.payload);
          auto req = core::CandidateRequest::Deserialize(&r);
          if (!req.ok() || req->slice_indices.empty()) continue;
          core::CandidateReply reply;
          reply.window_id = w;
          reply.node = node;
          reply.events = KeyWindowEvents(entry.key, node, w, count);
          batch.Add(entry.key, reply);
          ++answered;
        }
      }
      if (answered > 0) {
        replies.push_back(
            batch.Finish(net::MessageType::kShardCandidateReply, node, 0));
      }
    }
    state.ResumeTiming();

    for (const net::Message& frame : replies) {
      if (!shard.OnFrame(frame).ok()) state.SkipWithError("reply frame");
    }
    ++w;
    if (emitted != w * kKeys) {
      state.SkipWithError("a key-window did not complete");
      break;
    }
  }
  state.counters["ns_per_key_window"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kKeys),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RootShardKeyWindow)->ArgName("events")->Arg(4)->Arg(12);

void BM_TDigestAdd(benchmark::State& state) {
  Rng rng(31);
  std::vector<double> values(100'000);
  for (double& v : values) v = rng.Normal(0, 100);
  for (auto _ : state) {
    sketch::TDigest digest(state.range(0));
    for (double v : values) digest.Add(v);
    digest.Compress();
    benchmark::DoNotOptimize(&digest);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_TDigestAdd)->Arg(100)->Arg(500);

void BM_TDigestMerge(benchmark::State& state) {
  Rng rng(37);
  sketch::TDigest a(100), b(100);
  for (int i = 0; i < 100'000; ++i) {
    a.Add(rng.Normal(0, 50));
    b.Add(rng.Normal(100, 50));
  }
  a.Compress();
  b.Compress();
  for (auto _ : state) {
    sketch::TDigest merged = a;
    merged.Merge(b);
    benchmark::DoNotOptimize(&merged);
  }
}
BENCHMARK(BM_TDigestMerge);

void BM_QDigestAdd(benchmark::State& state) {
  Rng rng(41);
  std::vector<double> values(100'000);
  for (double& v : values) v = rng.Uniform(0, 1e6);
  for (auto _ : state) {
    sketch::QDigest digest(sketch::ValueQuantizer(0, 1e6, 16), 128);
    for (double v : values) digest.Add(v);
    benchmark::DoNotOptimize(&digest);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_QDigestAdd);

void BM_EventBatchSerialize(benchmark::State& state) {
  net::EventBatch batch;
  batch.window_id = 1;
  batch.events = RandomEvents(state.range(0), 43);
  for (auto _ : state) {
    net::Writer w;
    batch.SerializeTo(&w);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventBatchSerialize)->Arg(1'000)->Arg(100'000);

void BM_EventBatchDeserialize(benchmark::State& state) {
  net::EventBatch batch;
  batch.window_id = 1;
  batch.events = RandomEvents(state.range(0), 47);
  net::Writer w;
  batch.SerializeTo(&w);
  for (auto _ : state) {
    net::Reader r(w.buffer());
    auto out = net::EventBatch::Deserialize(&r);
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventBatchDeserialize)->Arg(1'000)->Arg(100'000);

}  // namespace
}  // namespace dema

BENCHMARK_MAIN();
