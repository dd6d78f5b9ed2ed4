#include "sim/chaos.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>

#include "common/rng.h"
#include "dema/local_node.h"
#include "dema/root_node.h"
#include "gen/generator.h"
#include "net/serializer.h"
#include "sim/pump.h"
#include "stream/quantile.h"

namespace dema::sim {

namespace {

std::vector<std::string> SplitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseF64(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

Status BadSpec(const std::string& token, const char* why) {
  return Status::InvalidArgument("bad fault-schedule entry '" + token + "': " +
                                 why);
}

/// `NODE@WINDOW[+DOWN]`, e.g. `2@3+2` = node 2 crashes at window 3 for 2
/// windows.
Status ParseCrash(const std::string& token, const std::string& value,
                  CrashEvent* out) {
  size_t at = value.find('@');
  if (at == std::string::npos) return BadSpec(token, "expected NODE@WINDOW");
  uint64_t node = 0;
  if (!ParseU64(value.substr(0, at), &node)) return BadSpec(token, "bad node");
  std::string rest = value.substr(at + 1);
  size_t plus = rest.find('+');
  uint64_t window = 0, down = 1;
  if (!ParseU64(plus == std::string::npos ? rest : rest.substr(0, plus),
                &window)) {
    return BadSpec(token, "bad window");
  }
  if (plus != std::string::npos &&
      (!ParseU64(rest.substr(plus + 1), &down) || down == 0)) {
    return BadSpec(token, "bad down-window count");
  }
  out->node = static_cast<NodeId>(node);
  out->at_window = window;
  out->down_windows = down;
  return Status::OK();
}

/// `A-B@FROM..UNTIL`, e.g. `1-0@2..4` = link 1<->2 blocked for windows 2, 3.
Status ParsePartition(const std::string& token, const std::string& value,
                      PartitionEvent* out) {
  size_t dash = value.find('-');
  size_t at = value.find('@');
  if (dash == std::string::npos || at == std::string::npos || dash > at) {
    return BadSpec(token, "expected A-B@FROM..UNTIL");
  }
  uint64_t a = 0, b = 0;
  if (!ParseU64(value.substr(0, dash), &a) ||
      !ParseU64(value.substr(dash + 1, at - dash - 1), &b)) {
    return BadSpec(token, "bad node pair");
  }
  std::string range = value.substr(at + 1);
  size_t dots = range.find("..");
  if (dots == std::string::npos) return BadSpec(token, "expected FROM..UNTIL");
  uint64_t from = 0, until = 0;
  if (!ParseU64(range.substr(0, dots), &from) ||
      !ParseU64(range.substr(dots + 2), &until) || until <= from) {
    return BadSpec(token, "bad window range");
  }
  out->a = static_cast<NodeId>(a);
  out->b = static_cast<NodeId>(b);
  out->from_window = from;
  out->until_window = until;
  return Status::OK();
}

}  // namespace

Result<FaultPlan> ParseFaultSchedule(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& token : SplitList(spec, ',')) {
    if (token.empty()) continue;
    size_t eq = token.find('=');
    if (eq == std::string::npos) return BadSpec(token, "expected key=value");
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "drop" || key == "dup" || key == "delay-prob" ||
        key == "corrupt" || key == "tamper-prob") {
      double p = 0;
      if (!ParseF64(value, &p) || p < 0 || p >= 1) {
        return BadSpec(token, "probability must be in [0, 1)");
      }
      if (key == "drop") {
        plan.drop_prob = p;
      } else if (key == "dup") {
        plan.duplicate_prob = p;
      } else if (key == "corrupt") {
        plan.corrupt_prob = p;
      } else if (key == "tamper-prob") {
        plan.tamper_prob = p;
      } else {
        plan.delay_prob = p;
      }
    } else if (key == "delay-us") {
      uint64_t us = 0;
      if (!ParseU64(value, &us)) return BadSpec(token, "bad microseconds");
      plan.delay_us_max = static_cast<DurationUs>(us);
    } else if (key == "seed") {
      if (!ParseU64(value, &plan.seed)) return BadSpec(token, "bad seed");
    } else if (key == "deadline") {
      if (!ParseU64(value, &plan.deadline_ticks)) {
        return BadSpec(token, "bad tick count");
      }
    } else if (key == "retries") {
      uint64_t r = 0;
      if (!ParseU64(value, &r) || r > UINT32_MAX) {
        return BadSpec(token, "bad retry count");
      }
      plan.max_retries = static_cast<uint32_t>(r);
    } else if (key == "strikes") {
      uint64_t k = 0;
      if (!ParseU64(value, &k) || k > UINT32_MAX) {
        return BadSpec(token, "bad strike count");
      }
      plan.quarantine_strikes = static_cast<uint32_t>(k);
    } else if (key == "tamper") {
      // Same shape as a partition range: `NODE@FROM..UNTIL`.
      size_t at = value.find('@');
      if (at == std::string::npos) {
        return BadSpec(token, "expected NODE@FROM..UNTIL");
      }
      uint64_t node = 0;
      if (!ParseU64(value.substr(0, at), &node)) {
        return BadSpec(token, "bad node");
      }
      std::string range = value.substr(at + 1);
      size_t dots = range.find("..");
      uint64_t from = 0, until = 0;
      if (dots == std::string::npos || !ParseU64(range.substr(0, dots), &from) ||
          !ParseU64(range.substr(dots + 2), &until) || until <= from) {
        return BadSpec(token, "bad window range");
      }
      TamperEvent tamper;
      tamper.node = static_cast<NodeId>(node);
      tamper.from_window = from;
      tamper.until_window = until;
      plan.tampers.push_back(tamper);
    } else if (key == "crash") {
      CrashEvent crash;
      DEMA_RETURN_NOT_OK(ParseCrash(token, value, &crash));
      plan.crashes.push_back(crash);
    } else if (key == "partition") {
      PartitionEvent part;
      DEMA_RETURN_NOT_OK(ParsePartition(token, value, &part));
      plan.partitions.push_back(part);
    } else {
      return BadSpec(token, "unknown key");
    }
  }
  return plan;
}

Result<ConnChaosPlan> ParseConnKillSpec(const std::string& spec) {
  ConnChaosPlan plan;
  if (spec.empty()) return plan;
  size_t at = spec.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument("bad conn-kill spec '" + spec +
                                   "': expected N@FROM..UNTIL");
  }
  uint64_t kills = 0;
  if (!ParseU64(spec.substr(0, at), &kills) || kills == 0) {
    return Status::InvalidArgument("bad conn-kill spec '" + spec +
                                   "': kill count must be a positive integer");
  }
  std::string range = spec.substr(at + 1);
  size_t dots = range.find("..");
  uint64_t from = 0, until = 0;
  if (dots == std::string::npos) {
    if (!ParseU64(range, &from)) {
      return Status::InvalidArgument("bad conn-kill spec '" + spec +
                                     "': bad frame index");
    }
    until = from + 1;
  } else if (!ParseU64(range.substr(0, dots), &from) ||
             !ParseU64(range.substr(dots + 2), &until) || until <= from) {
    return Status::InvalidArgument("bad conn-kill spec '" + spec +
                                   "': bad frame range (need FROM < UNTIL)");
  }
  plan.kills = kills;
  plan.from_frame = from;
  plan.until_frame = until;
  return plan;
}

std::vector<uint64_t> BuildKillSchedule(const ConnChaosPlan& plan,
                                        uint64_t salt) {
  std::vector<uint64_t> schedule;
  if (plan.empty()) return schedule;
  // Deterministic spread: draw each kill point uniformly over the frame
  // range from an rng keyed on (range, salt). Duplicate draws collapse to
  // one kill per frame index (the transport fires at most one kill per
  // written frame anyway), so the schedule length may be < plan.kills on
  // tiny ranges — the caller asked for "about N kills in this interval".
  Rng rng(0x9E3779B97F4A7C15ull ^ (salt * 0xBF58476D1CE4E5B9ull) ^
          (plan.from_frame << 32) ^ plan.until_frame);
  schedule.reserve(plan.kills);
  for (uint64_t i = 0; i < plan.kills; ++i) {
    schedule.push_back(static_cast<uint64_t>(rng.UniformInt(
        static_cast<int64_t>(plan.from_frame),
        static_cast<int64_t>(plan.until_frame - 1))));
  }
  std::sort(schedule.begin(), schedule.end());
  schedule.erase(std::unique(schedule.begin(), schedule.end()),
                 schedule.end());
  return schedule;
}

namespace {

/// Chaos-run state per local slot.
struct LocalSlot {
  bool down = false;
  /// Checkpoint blob taken when the node crashed.
  std::vector<uint8_t> checkpoint;
};

}  // namespace

Result<ChaosReport> RunChaos(const SystemConfig& system_config,
                             const WorkloadConfig& workload,
                             const FaultPlan& plan) {
  if (system_config.kind != SystemKind::kDema) {
    return Status::InvalidArgument("chaos runs support only the Dema system");
  }
  stream::WindowSpec spec{system_config.window_len_us,
                          system_config.window_slide_us};
  if (!spec.IsTumbling()) {
    return Status::InvalidArgument("chaos runs support only tumbling windows");
  }
  if (workload.generators.size() != system_config.num_locals) {
    return Status::InvalidArgument("generator count != local node count");
  }
  if (plan.deadline_ticks == 0) {
    return Status::InvalidArgument(
        "chaos runs need deadline_ticks > 0 (the no-stall invariant depends "
        "on the root's deadline machinery)");
  }
  for (const CrashEvent& crash : plan.crashes) {
    if (crash.node == 0 || crash.node > system_config.num_locals) {
      return Status::InvalidArgument("crash schedule names unknown node " +
                                     std::to_string(crash.node));
    }
  }
  for (const TamperEvent& tamper : plan.tampers) {
    if (tamper.node == 0 || tamper.node > system_config.num_locals) {
      return Status::InvalidArgument("tamper schedule names unknown node " +
                                     std::to_string(tamper.node));
    }
  }
  if (!plan.tampers.empty() && plan.quarantine_strikes == 0) {
    return Status::InvalidArgument(
        "tamper schedule needs quarantine (strikes > 0): without it a "
        "tampering local stalls every window into its retry budget");
  }

  RealClock clock;
  obs::Registry registry;
  SystemConfig config = system_config;
  config.registry = &registry;
  config.root_deadline_ticks = plan.deadline_ticks;
  config.root_max_retries = plan.max_retries;
  config.root_quarantine_strikes = plan.quarantine_strikes;
  config.root_probation_windows = plan.probation_windows;
  config.root_probation_clean_windows = plan.probation_clean_windows;

  net::Network::Options net_options;
  net_options.registry = &registry;
  net_options.drop_prob = plan.drop_prob;
  net_options.duplicate_prob = plan.duplicate_prob;
  net_options.delay_us_max = plan.delay_us_max;
  net_options.delay_prob = plan.delay_prob;
  net_options.corrupt_prob = plan.corrupt_prob;
  net_options.tamper_prob = plan.tamper_prob;
  net_options.fault_seed = plan.seed;
  net::Network network(&clock, net_options);

  DEMA_ASSIGN_OR_RETURN(System system, BuildSystem(config, &network, &clock));
  auto* root = dynamic_cast<core::DemaRootNode*>(system.root.get());
  if (root == nullptr) {
    return Status::Internal("chaos run requires the Dema root node");
  }

  std::vector<std::unique_ptr<gen::StreamGenerator>> gens;
  for (const auto& cfg : workload.generators) {
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens.push_back(std::move(g));
  }

  std::map<net::WindowId, WindowOutput> outputs;
  system.root->SetResultCallback([&outputs](const WindowOutput& out) {
    outputs.emplace(out.window_id, out);
  });

  ChaosReport report;
  std::vector<LocalSlot> slots(system.locals.size());
  const uint64_t num_windows = workload.num_windows;
  const DurationUs window_len = config.window_len_us;
  /// Ground truth: values actually fed per window (a crashed node's events
  /// are lost at the source and excluded).
  std::vector<std::vector<double>> fed(num_windows);

  // A crashed local's logic is null, so the pump skips its inbox.
  auto pump_all = [&] {
    return PumpToQuiescence(&network, SystemPumpNodes(system));
  };

  auto restart_local = [&](size_t slot_index) -> Status {
    NodeId id = system.local_ids[slot_index];
    DEMA_ASSIGN_OR_RETURN(auto logic,
                          BuildLocalLogic(config, id, &network, &clock));
    auto* local = dynamic_cast<core::DemaLocalNode*>(logic.get());
    if (local == nullptr) {
      return Status::Internal("chaos restart requires Dema local nodes");
    }
    net::Reader r(slots[slot_index].checkpoint);
    DEMA_RETURN_NOT_OK(local->Restore(&r));
    system.locals[slot_index] = std::move(logic);
    slots[slot_index].down = false;
    network.SetNodeDown(id, false);
    // Best effort on a faulty fabric: a lost sync costs gamma freshness,
    // never correctness.
    DEMA_RETURN_NOT_OK(local->ResyncGamma());
    ++report.restarts;
    return Status::OK();
  };

  auto crash_local = [&](size_t slot_index) -> Status {
    NodeId id = system.local_ids[slot_index];
    auto* local = dynamic_cast<core::DemaLocalNode*>(
        system.locals[slot_index].get());
    if (local == nullptr) {
      return Status::Internal("chaos crash requires Dema local nodes");
    }
    // The "device" persisted its last checkpoint before dying; in-memory
    // state and queued inbox messages are lost.
    net::Writer w;
    local->Checkpoint(&w);
    slots[slot_index].checkpoint = w.TakeBuffer();
    system.locals[slot_index].reset();
    slots[slot_index].down = true;
    network.SetNodeDown(id, true);
    net::Channel* inbox = network.Inbox(id);
    while (inbox->TryPop()) {
    }
    return Status::OK();
  };

  for (uint64_t w = 0; w < num_windows; ++w) {
    // Boundary schedule: heal partitions, restart recovered nodes, then
    // apply new crashes and partitions for this window.
    for (const PartitionEvent& part : plan.partitions) {
      if (part.until_window == w) {
        network.Heal(part.a, part.b);
        network.Heal(part.b, part.a);
      }
    }
    for (const CrashEvent& crash : plan.crashes) {
      size_t slot_index = static_cast<size_t>(crash.node) - 1;
      if (crash.at_window + crash.down_windows == w && slots[slot_index].down) {
        DEMA_RETURN_NOT_OK(restart_local(slot_index));
      }
    }
    for (const CrashEvent& crash : plan.crashes) {
      size_t slot_index = static_cast<size_t>(crash.node) - 1;
      if (crash.at_window == w && !slots[slot_index].down) {
        DEMA_RETURN_NOT_OK(crash_local(slot_index));
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

    TimestampUs start = static_cast<TimestampUs>(w) * window_len;
    TimestampUs end = start + window_len;
    for (size_t i = 0; i < gens.size(); ++i) {
      // Generate for every node — a down node's stream is lost, not paused —
      // so the per-node event sequences stay identical across plans.
      std::vector<Event> events = gens[i]->GenerateWindow(start, window_len);
      if (slots[i].down) continue;
      for (const Event& e : events) {
        DEMA_RETURN_NOT_OK(system.locals[i]->OnEvent(e));
        fed[w].push_back(e.value);
      }
    }
    for (size_t i = 0; i < system.locals.size(); ++i) {
      if (slots[i].down) continue;
      DEMA_RETURN_NOT_OK(system.locals[i]->OnWatermark(end));
    }
    DEMA_RETURN_NOT_OK(pump_all());
    DEMA_RETURN_NOT_OK(system.root->Tick());
    DEMA_RETURN_NOT_OK(pump_all());
  }

  TimestampUs final_ts = static_cast<TimestampUs>(num_windows) * window_len;
  for (size_t i = 0; i < system.locals.size(); ++i) {
    if (slots[i].down) continue;
    DEMA_RETURN_NOT_OK(system.locals[i]->OnFinish(final_ts));
  }
  if (num_windows > 0) root->NoteWindowHorizon(num_windows - 1);

  // Drain: tick until the retry/degrade budget of every pending window is
  // provably exhausted. The bound covers the full exponential backoff.
  const uint64_t max_drain_ticks =
      plan.deadline_ticks * (uint64_t{2} << std::min<uint32_t>(plan.max_retries, 32)) +
      plan.deadline_ticks + 64;
  for (uint64_t i = 0; i < max_drain_ticks; ++i) {
    DEMA_RETURN_NOT_OK(pump_all());
    if (system.root->idle() && network.delayed_in_flight() == 0) break;
    DEMA_RETURN_NOT_OK(system.root->Tick());
  }
  report.root_idle = system.root->idle();

  // Verdict per window, against the oracle over fed events.
  for (uint64_t w = 0; w < num_windows; ++w) {
    ChaosWindowReport wr;
    wr.window_id = w;
    for (double q : config.quantiles) {
      if (fed[w].empty()) break;
      DEMA_ASSIGN_OR_RETURN(double oracle,
                            stream::ExactQuantileValues(fed[w], q));
      wr.oracle.push_back(oracle);
    }
    auto it = outputs.find(w);
    if (it == outputs.end()) {
      ++report.missing_windows;
      if (report.violation.empty()) {
        report.violation = "window " + std::to_string(w) + " was never emitted";
      }
      report.windows.push_back(std::move(wr));
      continue;
    }
    const WindowOutput& out = it->second;
    wr.emitted = true;
    wr.degraded = out.degraded;
    wr.degrade_cause = out.degrade_cause;
    wr.rank_error_bound = out.rank_error_bound;
    wr.global_size = out.global_size;
    wr.values = out.values;
    if (out.degraded) {
      ++report.degraded_windows;
      if (out.degrade_cause.empty() && report.violation.empty()) {
        report.violation =
            "window " + std::to_string(w) + " degraded without a cause";
      }
    } else {
      wr.matches_oracle = out.global_size == fed[w].size() &&
                          out.values.size() == wr.oracle.size();
      if (wr.matches_oracle) {
        for (size_t qi = 0; qi < wr.oracle.size(); ++qi) {
          if (out.values[qi] != wr.oracle[qi]) {
            wr.matches_oracle = false;
            break;
          }
        }
      }
      if (fed[w].empty()) {
        // Empty window: exact means "emitted empty".
        wr.matches_oracle = out.global_size == 0;
      }
      if (wr.matches_oracle) {
        ++report.exact_windows;
      } else {
        ++report.mismatched_windows;
        if (report.violation.empty()) {
          report.violation = "window " + std::to_string(w) +
                             " emitted as exact but mismatches the oracle";
        }
      }
    }
    report.windows.push_back(std::move(wr));
  }
  if (!report.root_idle && report.violation.empty()) {
    report.violation = "root still has pending windows after the drain";
  }

  report.messages_dropped = network.messages_dropped();
  report.duplicates_injected = network.duplicates_injected();
  report.messages_delayed = network.messages_delayed();
  report.messages_corrupted = network.messages_corrupted();
  const core::DemaRootStats root_stats = root->stats();
  report.root_retries = root_stats.retries;
  report.rejected_payloads = root_stats.rejected_payloads;
  report.quarantines = root_stats.quarantines;
  report.readmissions = root_stats.readmissions;
  return report;
}

}  // namespace dema::sim
