#include "sim/chaos.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/rng.h"

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
      if (!ParseU64(value, &plan.recovery.deadline_ticks)) {
        return BadSpec(token, "bad tick count");
      }
    } else if (key == "retries") {
      uint64_t r = 0;
      if (!ParseU64(value, &r) || r > UINT32_MAX) {
        return BadSpec(token, "bad retry count");
      }
      plan.recovery.max_retries = static_cast<uint32_t>(r);
    } else if (key == "strikes") {
      uint64_t k = 0;
      if (!ParseU64(value, &k) || k > UINT32_MAX) {
        return BadSpec(token, "bad strike count");
      }
      plan.recovery.quarantine_strikes = static_cast<uint32_t>(k);
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

}  // namespace dema::sim
