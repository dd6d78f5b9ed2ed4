// Microbenchmarks for the network substrate: wire codecs (encode/decode for
// fixed and compact, plus the value-streaming fast path), channel push/pop,
// fabric send overhead, and the two wire forms of a γ = 2 synopsis batch.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/protocol.h"
#include "net/channel.h"
#include "net/codec.h"
#include "net/message.h"
#include "net/network.h"

namespace dema::net {
namespace {

std::vector<Event> MakeEvents(size_t n, bool sorted) {
  Rng rng(5);
  std::vector<Event> events;
  TimestampUs t = 0;
  for (uint32_t i = 0; i < n; ++i) {
    t += rng.UniformInt(1, 50);
    events.push_back(Event{rng.Uniform(0, 1e6), t, 2, i});
  }
  if (sorted) std::sort(events.begin(), events.end());
  return events;
}

void BM_EncodeFixed(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), false);
  for (auto _ : state) {
    Writer w;
    EncodeEvents(&w, events, EventCodec::kFixed);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeFixed)->Arg(10'000);

void BM_EncodeCompactSorted(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), true);
  for (auto _ : state) {
    Writer w;
    EncodeEvents(&w, events, EventCodec::kCompact, /*sorted_hint=*/true);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeCompactSorted)->Arg(10'000);

void BM_DecodeCompactSorted(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), true);
  Writer w;
  EncodeEvents(&w, events, EventCodec::kCompact, true);
  for (auto _ : state) {
    Reader r(w.buffer());
    std::vector<Event> out;
    benchmark::DoNotOptimize(DecodeEvents(&r, &out).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeCompactSorted)->Arg(10'000);

void BM_ValueStreamFixed(benchmark::State& state) {
  EventBatch batch;
  batch.events = MakeEvents(state.range(0), false);
  Message m = MakeMessage(MessageType::kEventBatch, 1, 0, batch);
  for (auto _ : state) {
    double sum = 0;
    auto count = EventBatch::ForEachValue(m.payload, [&](double v) { sum += v; });
    benchmark::DoNotOptimize(count.ok());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueStreamFixed)->Arg(10'000);

void BM_ValueStreamCompact(benchmark::State& state) {
  EventBatch batch;
  batch.sorted = true;
  batch.codec = EventCodec::kCompact;
  batch.events = MakeEvents(state.range(0), true);
  Message m = MakeMessage(MessageType::kEventBatch, 1, 0, batch);
  for (auto _ : state) {
    double sum = 0;
    auto count = EventBatch::ForEachValue(m.payload, [&](double v) { sum += v; });
    benchmark::DoNotOptimize(count.ok());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueStreamCompact)->Arg(10'000);

void BM_ChannelPushPop(benchmark::State& state) {
  Channel ch;
  for (auto _ : state) {
    Message m;
    m.type = MessageType::kEventBatch;
    m.payload.resize(64);
    ch.Push(std::move(m));
    benchmark::DoNotOptimize(ch.TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop);

void BM_NetworkSend(benchmark::State& state) {
  RealClock clock;
  Network network(&clock);
  (void)network.RegisterNode(0);
  (void)network.RegisterNode(1);
  Channel* inbox = network.Inbox(0);
  for (auto _ : state) {
    Message m;
    m.type = MessageType::kEventBatch;
    m.src = 1;
    m.dst = 0;
    m.payload.resize(64);
    benchmark::DoNotOptimize(network.Send(std::move(m)).ok());
    benchmark::DoNotOptimize(inbox->TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSend);

/// One `keyed_100k` key-local window: 4 events cut at γ = 2, its
/// `SynopsisBatch` encoded and decoded back per iteration, in the slice form
/// (arg 0) or the events form it ships in (arg 1). Items are key-windows, so
/// the time per iteration is ns per key-window; `bytes` is the payload size.
void BM_GammaTwoKeyWindow(benchmark::State& state) {
  const bool events_form = state.range(0) == 1;
  const std::vector<Event> events = MakeEvents(4, /*sorted=*/true);
  core::SynopsisBatch batch;
  batch.window_id = 7;
  batch.node = 2;
  batch.local_window_size = events.size();
  batch.gamma_used = 2;
  batch.close_time_us = 1'000;
  batch.slices = *core::CutIntoSlices(events, batch.node, 2);
  core::SynopsisBatch decoded;
  size_t bytes = 0;
  for (auto _ : state) {
    Writer w;
    w.Reserve(256);
    if (events_form) {
      batch.SerializeTo(&w);
    } else {
      batch.SerializeSlicesTo(&w);
    }
    Reader r(w.buffer());
    benchmark::DoNotOptimize(
        core::SynopsisBatch::DeserializeInto(&r, &decoded).ok());
    bytes = w.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_GammaTwoKeyWindow)->ArgName("events_form")->Arg(0)->Arg(1);

}  // namespace
}  // namespace dema::net

BENCHMARK_MAIN();
