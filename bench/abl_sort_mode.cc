// Ablation: local-window ordering strategy. The paper's implementation sorts
// incrementally as events arrive; this repo's locals append a window
// unsorted and slice-order it when it closes (`stream::OrderSlices`: exact
// slice sets and endpoints), sorting a slice only when the root asks for its
// events. This harness measures only that local-tier cost — append or
// insert every event of a window, then order it — on the same generated
// windows for every strategy, and reports the events/s one local would reach
// if ordering were all it did. The gap moves Dema's local-node bottleneck
// and explains why our Fig. 5a shows Dema ~tied with Tdigest where the paper
// shows Tdigest ahead (see EXPERIMENTS.md).

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>

#include "gen/generator.h"
#include "harness.h"
#include "stream/event_sort.h"

using namespace dema;

namespace {

/// Each strategy's time is the best of this many passes over the windows.
constexpr int kReps = 3;

/// True iff \p ordered is slice-ordered for \p gamma against \p sorted: each
/// slice holds exactly its sorted events, with its first and last in place.
bool SliceOrdered(std::vector<Event> ordered, const std::vector<Event>& sorted,
                  uint64_t gamma) {
  if (ordered.size() != sorted.size()) return false;
  for (size_t begin = 0; begin < ordered.size(); begin += gamma) {
    const size_t end = std::min<size_t>(ordered.size(), begin + gamma);
    if (ordered[begin] != sorted[begin] || ordered[end - 1] != sorted[end - 1]) {
      return false;
    }
    std::sort(ordered.begin() + begin, ordered.begin() + end);
    if (!std::equal(ordered.begin() + begin, ordered.begin() + end,
                    sorted.begin() + begin)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 2));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 6));
  const double rate = flags.GetDouble("rate", 150'000);
  const uint64_t gamma =
      std::max<uint64_t>(1, static_cast<uint64_t>(flags.GetInt("gamma", 10'000)));

  std::cout << "=== Ablation: Dema local ordering strategy (gamma=" << gamma
            << ", " << locals << " locals x " << windows << " windows x "
            << FmtRate(rate) << " per node, best of " << kReps << ") ===\n";

  // Every local window of the workload, in arrival order.
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());
  std::vector<std::vector<Event>> arrivals;
  uint64_t total_events = 0;
  for (const gen::GeneratorConfig& config : load.generators) {
    auto generator =
        bench::Unwrap(gen::StreamGenerator::Create(config), "generator");
    for (uint64_t w = 0; w < windows; ++w) {
      arrivals.push_back(generator->GenerateWindow(
          static_cast<TimestampUs>(w) * load.window_len_us,
          load.window_len_us));
      total_events += arrivals.back().size();
    }
  }

  struct Strategy {
    const char* name;
    /// Takes one window's arrivals and returns the ordered window.
    std::function<std::vector<Event>(const std::vector<Event>&)> order;
    /// Whether the result is fully sorted (else slice-ordered for γ).
    bool full;
  };
  const Strategy strategies[] = {
      {"slice order on close (ours)",
       [gamma](const std::vector<Event>& in) {
         std::vector<Event> window;
         window.reserve(in.size());  // a local reserves the last window's size
         for (const Event& e : in) window.push_back(e);
         stream::OrderSlices(&window, gamma);
         return window;
       },
       false},
      {"sort on close",
       [](const std::vector<Event>& in) {
         std::vector<Event> window;
         window.reserve(in.size());  // a local reserves the last window's size
         for (const Event& e : in) window.push_back(e);
         stream::SortEvents(window);
         return window;
       },
       true},
      {"incremental (paper)",
       [](const std::vector<Event>& in) {
         std::multiset<Event> window;
         for (const Event& e : in) window.insert(e);
         return std::vector<Event>(window.begin(), window.end());
       },
       true},
  };

  Table table({"ordering", "ns/event", "one-local events/s"});
  for (const Strategy& s : strategies) {
    double best_s = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      double seconds = 0;
      for (const std::vector<Event>& in : arrivals) {
        const auto start = std::chrono::steady_clock::now();
        std::vector<Event> out = s.order(in);
        seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        if (rep > 0) continue;
        // Outside the clock: every strategy must yield what its locals need.
        std::vector<Event> sorted = in;
        std::sort(sorted.begin(), sorted.end());
        if (s.full ? out != sorted : !SliceOrdered(out, sorted, gamma)) {
          std::cerr << s.name << " misordered a window\n";
          return 1;
        }
      }
      if (rep == 0 || seconds < best_s) best_s = seconds;
    }
    const double ns_per_event = best_s * 1e9 / static_cast<double>(total_events);
    bench::UnwrapStatus(
        table.AddRow({s.name, FmtF(ns_per_event, 1),
                      FmtRate(1e9 / ns_per_event)}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
