#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "dema/local_node.h"
#include "dema/root_node.h"
#include "net/serializer.h"
#include "stream/quantile.h"

namespace dema::sim {

namespace {

Status ValidatePlan(const SystemConfig& config, const ScenarioOptions& options,
                    bool faulty) {
  const FaultPlan& plan = options.faults;
  if ((!plan.crashes.empty() || !plan.partitions.empty() ||
       !plan.tampers.empty()) &&
      options.topology != "inline") {
    return Status::InvalidArgument(
        "scheduled crashes, partitions, and tampers need the inline "
        "topology; the event-driven fabrics take only probabilistic faults "
        "(drop/dup/delay/corrupt)");
  }
  if (faulty && config.kind != SystemKind::kDema) {
    return Status::InvalidArgument("fault plans support only the Dema system");
  }
  if (faulty && plan.recovery.deadline_ticks == 0) {
    return Status::InvalidArgument(
        "fault plans need deadline_ticks > 0 (the no-stall invariant depends "
        "on the root's deadline machinery)");
  }
  auto is_local = [&config](NodeId id) {
    return id >= 1 && id <= config.num_locals;
  };
  for (const CrashEvent& crash : plan.crashes) {
    if (!is_local(crash.node)) {
      return Status::InvalidArgument("crash schedule names unknown node " +
                                     std::to_string(crash.node));
    }
  }
  for (const TamperEvent& tamper : plan.tampers) {
    if (!is_local(tamper.node)) {
      return Status::InvalidArgument("tamper schedule names unknown node " +
                                     std::to_string(tamper.node));
    }
  }
  for (const PartitionEvent& part : plan.partitions) {
    // Node 0 is the root.
    for (NodeId id : {part.a, part.b}) {
      if (id != 0 && !is_local(id)) {
        return Status::InvalidArgument(
            "partition schedule names unknown node " + std::to_string(id));
      }
    }
    if (part.a == part.b) {
      return Status::InvalidArgument("partition of node " +
                                     std::to_string(part.a) + " with itself");
    }
  }
  if (!plan.tampers.empty() && plan.recovery.quarantine_strikes == 0) {
    return Status::InvalidArgument(
        "tamper schedule needs quarantine (strikes > 0): without it a "
        "tampering local stalls every window into its retry budget");
  }
  return Status::OK();
}

}  // namespace

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
  const bool faulty = plan.drop_prob > 0 || plan.duplicate_prob > 0 ||
                      plan.delay_us_max > 0 || plan.corrupt_prob > 0 ||
                      !plan.crashes.empty() || !plan.partitions.empty() ||
                      !plan.tampers.empty();
  DEMA_RETURN_NOT_OK(ValidatePlan(system_config, options, faulty));

  RealClock clock;
  obs::Registry registry;
  SystemConfig config = system_config;
  config.registry = &registry;
  if (faulty) config.recovery = plan.recovery;

  net::Network::Options net_options;
  net_options.registry = &registry;
  net_options.drop_prob = plan.drop_prob;
  net_options.duplicate_prob = plan.duplicate_prob;
  net_options.delay_us_max = plan.delay_us_max;
  net_options.delay_prob = plan.delay_prob;
  net_options.corrupt_prob = plan.corrupt_prob;
  net_options.tamper_prob = plan.tamper_prob;
  net_options.fault_seed = plan.seed;
  ScenarioReport report;
  report.topology = options.topology;
  if (options.topology != "inline") {
    net_options.delivery = net::Network::DeliveryMode::kEvent;
  }
  if (options.topology != "inline" && options.topology != "flat") {
    DEMA_ASSIGN_OR_RETURN(
        net_options.topology,
        tick::Topology::Build(options.topology, config.num_locals + 1));
    report.topology = net_options.topology->name();
  }
  report.num_locals = config.num_locals;
  net::Network network(&clock, net_options);

  DEMA_ASSIGN_OR_RETURN(System system, BuildSystem(config, &network, &clock));
  auto* dema_root = dynamic_cast<core::DemaRootNode*>(system.root.get());

  WorkloadConfig load = workload;
  load.window_len_us = config.window_len_us;
  load.window_slide_us = config.window_slide_us;
  SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  DEMA_RETURN_NOT_OK(driver.Start(load));

  // A crashed local's logic is null: the driver neither feeds it nor pumps
  // its inbox. Its checkpoint is the state it restarts from.
  std::vector<std::vector<uint8_t>> checkpoints(system.locals.size());
  auto crash_local = [&](size_t i) -> Status {
    auto* local = dynamic_cast<core::DemaLocalNode*>(system.locals[i].get());
    if (local == nullptr) {
      return Status::Internal("crashes require Dema local nodes");
    }
    // The "device" persisted its last checkpoint before dying; in-memory
    // state and queued inbox messages are lost.
    net::Writer w;
    local->Checkpoint(&w);
    checkpoints[i] = w.TakeBuffer();
    system.locals[i].reset();
    NodeId id = system.local_ids[i];
    network.SetNodeDown(id, true);
    net::Channel* inbox = network.Inbox(id);
    while (inbox->TryPop()) {
    }
    return Status::OK();
  };
  auto restart_local = [&](size_t i) -> Status {
    NodeId id = system.local_ids[i];
    DEMA_ASSIGN_OR_RETURN(auto logic,
                          BuildLocalLogic(config, id, &network, &clock));
    auto* local = dynamic_cast<core::DemaLocalNode*>(logic.get());
    if (local == nullptr) {
      return Status::Internal("restarts require Dema local nodes");
    }
    net::Reader r(checkpoints[i]);
    DEMA_RETURN_NOT_OK(local->Restore(&r));
    system.locals[i] = std::move(logic);
    network.SetNodeDown(id, false);
    // Best effort on a faulty fabric: a lost sync costs gamma freshness,
    // never correctness.
    DEMA_RETURN_NOT_OK(local->ResyncGamma());
    ++report.restarts;
    return Status::OK();
  };

  auto wall_start = std::chrono::steady_clock::now();
  for (uint64_t w = 0; w < load.num_windows; ++w) {
    // Boundary schedule: heal partitions, restart recovered nodes, then
    // apply new crashes, partitions and tampers for this window.
    for (const PartitionEvent& part : plan.partitions) {
      if (part.until_window == w) {
        network.Heal(part.a, part.b);
        network.Heal(part.b, part.a);
      }
    }
    for (const CrashEvent& crash : plan.crashes) {
      size_t i = static_cast<size_t>(crash.node) - 1;
      if (crash.at_window + crash.down_windows == w &&
          system.locals[i] == nullptr) {
        DEMA_RETURN_NOT_OK(restart_local(i));
      }
    }
    for (const CrashEvent& crash : plan.crashes) {
      size_t i = static_cast<size_t>(crash.node) - 1;
      if (crash.at_window == w && system.locals[i] != nullptr) {
        DEMA_RETURN_NOT_OK(crash_local(i));
      }
    }
    for (const PartitionEvent& part : plan.partitions) {
      if (part.from_window == w) {
        network.Partition(part.a, part.b);
        network.Partition(part.b, part.a);
      }
    }
    for (const TamperEvent& tamper : plan.tampers) {
      if (tamper.until_window == w) network.SetNodeTamper(tamper.node, false);
      if (tamper.from_window == w) network.SetNodeTamper(tamper.node, true);
    }
    DEMA_RETURN_NOT_OK(driver.Step(w));
  }
  DEMA_RETURN_NOT_OK(driver.Finish());
  if (dema_root != nullptr && load.num_windows > 0) {
    dema_root->NoteWindowHorizon(load.num_windows - 1);
  }

  // Drain: tick until the retry/degrade budget of every pending window is
  // provably exhausted.
  for (uint64_t i = 0; i < config.recovery.DrainTicks(); ++i) {
    DEMA_RETURN_NOT_OK(driver.Pump());
    if (system.root->idle() && network.pending_events() == 0 &&
        network.delayed_in_flight() == 0) {
      break;
    }
    DEMA_RETURN_NOT_OK(system.root->Tick());
  }
  auto wall_end = std::chrono::steady_clock::now();
  report.root_idle = system.root->idle();

  std::map<net::WindowId, const WindowOutput*> by_window;
  for (const WindowOutput& out : driver.outputs()) {
    by_window.emplace(out.window_id, &out);
  }
  auto violate = [&report](uint64_t w, const char* why) {
    if (report.violation.empty()) {
      report.violation = "window " + std::to_string(w) + " " + why;
    }
  };
  for (uint64_t w = 0; w < load.num_windows; ++w) {
    WindowVerdict verdict;
    verdict.output.window_id = w;
    std::vector<double> fed;
    for (const Event& e : driver.recorded_events()[w]) fed.push_back(e.value);
    for (double q : config.quantiles) {
      if (fed.empty()) break;
      DEMA_ASSIGN_OR_RETURN(double oracle, stream::ExactQuantileValues(fed, q));
      verdict.oracle.push_back(oracle);
    }
    auto it = by_window.find(w);
    if (it == by_window.end()) {
      ++report.missing_windows;
      violate(w, "was never emitted");
    } else {
      verdict.emitted = true;
      verdict.output = *it->second;
      const WindowOutput& out = verdict.output;
      if (out.degraded) {
        ++report.degraded_windows;
        if (out.degrade_cause.empty()) violate(w, "degraded without a cause");
      } else {
        // An empty window is exact when it is emitted empty.
        verdict.matches_oracle = out.global_size == fed.size() &&
                                 (fed.empty() || out.values == verdict.oracle);
        if (verdict.matches_oracle) {
          ++report.exact_windows;
        } else {
          ++report.mismatched_windows;
          violate(w, "emitted as exact but mismatches the oracle");
        }
      }
    }
    report.windows.push_back(std::move(verdict));
  }
  if (!report.root_idle && report.violation.empty()) {
    report.violation = "root still has pending windows after the drain";
  }

  report.events_ingested = driver.events_ingested();
  report.event_queue_peak = network.event_queue_peak();
  report.virtual_time_us = network.virtual_now_us();
  auto total = network.TotalStats();
  report.network_total = total.counters;
  report.simulated_transfer_us = total.simulated_transfer_us;
  report.counters = registry.CounterValues();

  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.throughput_eps =
      report.wall_seconds > 0
          ? static_cast<double>(report.events_ingested) / report.wall_seconds
          : 0;
  report.root_busy_seconds = driver.root_busy_seconds();
  report.max_local_busy_seconds = driver.max_local_busy_seconds();
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
  if (!field("window count", a.windows.size(), b.windows.size())) {
    return out.str();
  }
  for (size_t i = 0; i < a.windows.size(); ++i) {
    const WindowOutput& x = a.windows[i].output;
    const WindowOutput& y = b.windows[i].output;
    if (a.windows[i].emitted != b.windows[i].emitted ||
        x.global_size != y.global_size || x.degraded != y.degraded ||
        x.degrade_cause != y.degrade_cause ||
        x.rank_error_bound != y.rank_error_bound || x.values != y.values) {
      out << "window " << x.window_id << " differs";
      return out.str();
    }
  }
  if (!field("exact_windows", a.exact_windows, b.exact_windows) ||
      !field("degraded_windows", a.degraded_windows, b.degraded_windows) ||
      !field("mismatched_windows", a.mismatched_windows,
             b.mismatched_windows) ||
      !field("missing_windows", a.missing_windows, b.missing_windows) ||
      !field("event_queue_peak", a.event_queue_peak, b.event_queue_peak) ||
      !field("virtual_time_us", a.virtual_time_us, b.virtual_time_us) ||
      !field("restarts", a.restarts, b.restarts)) {
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
