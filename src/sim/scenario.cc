#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "dema/root_node.h"
#include "gen/generator.h"
#include "sim/pump.h"
#include "stream/quantile.h"

namespace dema::sim {

Result<ScenarioReport> RunScenario(const SystemConfig& system_config,
                                   const WorkloadConfig& workload,
                                   const ScenarioOptions& options) {
  stream::WindowSpec spec{system_config.window_len_us,
                          system_config.window_slide_us};
  if (!spec.IsTumbling()) {
    return Status::InvalidArgument("scenarios support only tumbling windows");
  }
  if (workload.generators.size() != system_config.num_locals) {
    return Status::InvalidArgument("generator count != local node count");
  }
  const FaultPlan& plan = options.faults;
  if (!plan.crashes.empty() || !plan.partitions.empty() ||
      !plan.tampers.empty()) {
    return Status::InvalidArgument(
        "scenarios take only probabilistic faults (drop/dup/delay/corrupt); "
        "scheduled crashes, partitions, and tampers belong to RunChaos");
  }
  const bool faulty = plan.drop_prob > 0 || plan.duplicate_prob > 0 ||
                      plan.delay_us_max > 0 || plan.corrupt_prob > 0;
  if (faulty && system_config.kind != SystemKind::kDema) {
    return Status::InvalidArgument(
        "faulty scenarios support only the Dema system");
  }
  if (faulty && plan.deadline_ticks == 0) {
    return Status::InvalidArgument(
        "faulty scenarios need deadline_ticks > 0 (recovery depends on the "
        "root's deadline machinery)");
  }

  RealClock clock;
  obs::Registry registry;
  SystemConfig config = system_config;
  config.registry = &registry;
  if (faulty) {
    config.root_deadline_ticks = plan.deadline_ticks;
    config.root_max_retries = plan.max_retries;
    config.root_quarantine_strikes = plan.quarantine_strikes;
    config.root_probation_windows = plan.probation_windows;
    config.root_probation_clean_windows = plan.probation_clean_windows;
  }

  net::Network::Options net_options;
  net_options.registry = &registry;
  net_options.delivery = net::Network::DeliveryMode::kEvent;
  net_options.drop_prob = plan.drop_prob;
  net_options.duplicate_prob = plan.duplicate_prob;
  net_options.delay_us_max = plan.delay_us_max;
  net_options.delay_prob = plan.delay_prob;
  net_options.corrupt_prob = plan.corrupt_prob;
  net_options.fault_seed = plan.seed;
  ScenarioReport report;
  if (options.topology != "flat") {
    DEMA_ASSIGN_OR_RETURN(
        net_options.topology,
        tick::Topology::Build(options.topology, config.num_locals + 1));
    report.topology = net_options.topology->name();
  } else {
    report.topology = "flat";
  }
  report.num_locals = config.num_locals;
  net::Network network(&clock, net_options);

  DEMA_ASSIGN_OR_RETURN(System system, BuildSystem(config, &network, &clock));

  std::vector<std::unique_ptr<gen::StreamGenerator>> gens;
  for (const auto& cfg : workload.generators) {
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens.push_back(std::move(g));
  }

  system.root->SetResultCallback([&report](const WindowOutput& out) {
    report.outputs.push_back(out);
  });

  const uint64_t num_windows = workload.num_windows;
  const DurationUs window_len = config.window_len_us;
  std::vector<std::vector<double>> fed(num_windows);
  std::vector<double> local_busy_us(system.locals.size(), 0.0);
  double root_busy_us = 0;

  auto pump_all = [&] {
    return PumpToQuiescence(
        &network, SystemPumpNodes(system, &root_busy_us, &local_busy_us));
  };

  auto wall_start = std::chrono::steady_clock::now();
  for (uint64_t w = 0; w < num_windows; ++w) {
    TimestampUs start = static_cast<TimestampUs>(w) * window_len;
    TimestampUs end = start + window_len;
    for (size_t i = 0; i < gens.size(); ++i) {
      std::vector<Event> events = gens[i]->GenerateWindow(start, window_len);
      Status st;
      local_busy_us[i] += TimedUs(
          [&]() -> Status {
            for (const Event& e : events) {
              DEMA_RETURN_NOT_OK(system.locals[i]->OnEvent(e));
            }
            return Status::OK();
          },
          &st);
      DEMA_RETURN_NOT_OK(st);
      report.events_ingested += events.size();
      if (options.check_oracle) {
        for (const Event& e : events) fed[w].push_back(e.value);
      }
    }
    for (size_t i = 0; i < system.locals.size(); ++i) {
      Status st;
      local_busy_us[i] +=
          TimedUs([&] { return system.locals[i]->OnWatermark(end); }, &st);
      DEMA_RETURN_NOT_OK(st);
    }
    for (size_t i = 0; i < system.locals.size(); ++i) {
      DEMA_RETURN_NOT_OK(system.locals[i]->Quiesce());
    }
    DEMA_RETURN_NOT_OK(pump_all());
    DEMA_RETURN_NOT_OK(system.root->Tick());
    DEMA_RETURN_NOT_OK(pump_all());
  }

  TimestampUs final_ts = static_cast<TimestampUs>(num_windows) * window_len;
  for (size_t i = 0; i < system.locals.size(); ++i) {
    Status st;
    local_busy_us[i] +=
        TimedUs([&] { return system.locals[i]->OnFinish(final_ts); }, &st);
    DEMA_RETURN_NOT_OK(st);
  }
  auto* dema_root = dynamic_cast<core::DemaRootNode*>(system.root.get());
  if (dema_root != nullptr && num_windows > 0) {
    dema_root->NoteWindowHorizon(num_windows - 1);
  }

  // Drain: tick until the retry/degrade budget of every pending window is
  // provably exhausted (same bound as the chaos harness).
  const uint64_t max_drain_ticks =
      plan.deadline_ticks *
          (uint64_t{2} << std::min<uint32_t>(plan.max_retries, 32)) +
      plan.deadline_ticks + 64;
  for (uint64_t i = 0; i < max_drain_ticks; ++i) {
    DEMA_RETURN_NOT_OK(pump_all());
    if (system.root->idle() && network.pending_events() == 0) break;
    DEMA_RETURN_NOT_OK(system.root->Tick());
  }
  auto wall_end = std::chrono::steady_clock::now();
  report.root_idle = system.root->idle();

  // Verdict per window against the oracle over the fed events — the same
  // ground truth a flat-topology run is checked against, so "exact" here
  // means "matches the flat-topology oracle".
  std::map<net::WindowId, const WindowOutput*> by_window;
  for (const WindowOutput& out : report.outputs) {
    by_window.emplace(out.window_id, &out);
  }
  for (uint64_t w = 0; w < num_windows; ++w) {
    auto it = by_window.find(w);
    if (it == by_window.end()) {
      ++report.missing_windows;
      if (report.violation.empty()) {
        report.violation = "window " + std::to_string(w) + " was never emitted";
      }
      continue;
    }
    const WindowOutput& out = *it->second;
    if (out.degraded) {
      ++report.degraded_windows;
      if (out.degrade_cause.empty() && report.violation.empty()) {
        report.violation =
            "window " + std::to_string(w) + " degraded without a cause";
      }
      continue;
    }
    if (!options.check_oracle) {
      ++report.exact_windows;
      continue;
    }
    bool matches = out.global_size == fed[w].size();
    if (matches && !fed[w].empty()) {
      for (size_t qi = 0; qi < config.quantiles.size() && matches; ++qi) {
        DEMA_ASSIGN_OR_RETURN(
            double oracle,
            stream::ExactQuantileValues(fed[w], config.quantiles[qi]));
        matches = qi < out.values.size() && out.values[qi] == oracle;
      }
    }
    if (matches) {
      ++report.exact_windows;
    } else {
      ++report.mismatched_windows;
      if (report.violation.empty()) {
        report.violation = "window " + std::to_string(w) +
                           " emitted as exact but mismatches the oracle";
      }
    }
  }
  if (!report.root_idle && report.violation.empty()) {
    report.violation = "root still has pending windows after the drain";
  }

  report.messages_dropped = network.messages_dropped();
  report.duplicates_injected = network.duplicates_injected();
  report.messages_delayed = network.messages_delayed();
  report.messages_corrupted = network.messages_corrupted();
  report.event_queue_peak = network.event_queue_peak();
  report.virtual_time_us = network.virtual_now_us();
  auto total = network.TotalStats();
  report.network_total = total.counters;
  report.simulated_transfer_us = total.simulated_transfer_us;
  report.counters = registry.CounterValues();
  if (auto tick_it = report.counters.find("sim.ticks");
      tick_it != report.counters.end()) {
    report.sim_ticks = tick_it->second;
  }
  if (auto ev_it = report.counters.find("sim.events");
      ev_it != report.counters.end()) {
    report.sim_events = ev_it->second;
  }

  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.throughput_eps =
      report.wall_seconds > 0
          ? static_cast<double>(report.events_ingested) / report.wall_seconds
          : 0;
  report.root_busy_seconds = root_busy_us / 1e6;
  double max_local_us = 0;
  for (double b : local_busy_us) max_local_us = std::max(max_local_us, b);
  report.max_local_busy_seconds = max_local_us / 1e6;
  double bottleneck_seconds =
      std::max(report.root_busy_seconds, report.max_local_busy_seconds);
  report.sim_throughput_eps =
      bottleneck_seconds > 0
          ? static_cast<double>(report.events_ingested) / bottleneck_seconds
          : 0;
  return report;
}

std::string DescribeScenarioDiff(const ScenarioReport& a,
                                 const ScenarioReport& b) {
  std::ostringstream out;
  auto field = [&out](const char* name, uint64_t va, uint64_t vb) {
    if (va != vb) {
      out << name << ": " << va << " vs " << vb;
      return false;
    }
    return true;
  };
  if (a.topology != b.topology) {
    return "topology: " + a.topology + " vs " + b.topology;
  }
  if (a.outputs.size() != b.outputs.size()) {
    out << "output count: " << a.outputs.size() << " vs " << b.outputs.size();
    return out.str();
  }
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    const WindowOutput& x = a.outputs[i];
    const WindowOutput& y = b.outputs[i];
    if (x.window_id != y.window_id || x.global_size != y.global_size ||
        x.degraded != y.degraded || x.degrade_cause != y.degrade_cause ||
        x.rank_error_bound != y.rank_error_bound || x.values != y.values) {
      out << "output " << i << " (window " << x.window_id << ") differs";
      return out.str();
    }
  }
  if (!field("exact_windows", a.exact_windows, b.exact_windows) ||
      !field("degraded_windows", a.degraded_windows, b.degraded_windows) ||
      !field("mismatched_windows", a.mismatched_windows,
             b.mismatched_windows) ||
      !field("missing_windows", a.missing_windows, b.missing_windows) ||
      !field("sim_ticks", a.sim_ticks, b.sim_ticks) ||
      !field("sim_events", a.sim_events, b.sim_events) ||
      !field("event_queue_peak", a.event_queue_peak, b.event_queue_peak) ||
      !field("virtual_time_us", a.virtual_time_us, b.virtual_time_us) ||
      !field("messages_dropped", a.messages_dropped, b.messages_dropped) ||
      !field("duplicates_injected", a.duplicates_injected,
             b.duplicates_injected) ||
      !field("messages_delayed", a.messages_delayed, b.messages_delayed) ||
      !field("messages_corrupted", a.messages_corrupted,
             b.messages_corrupted)) {
    return out.str();
  }
  if (a.counters != b.counters) {
    for (const auto& [name, value] : a.counters) {
      auto it = b.counters.find(name);
      if (it == b.counters.end()) return "counter " + name + " missing in b";
      if (it->second != value) {
        out << "counter " << name << ": " << value << " vs " << it->second;
        return out.str();
      }
    }
    return "counter set differs";
  }
  return "";
}

}  // namespace dema::sim
