#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/topology.h"

namespace dema::sim {

/// \brief One scheduled node crash: the node goes down at the start of
/// `at_window` and restarts (from its checkpoint) `down_windows` window
/// boundaries later.
struct CrashEvent {
  NodeId node = 0;
  net::WindowId at_window = 0;
  uint64_t down_windows = 1;
};

/// \brief One scheduled directed-pair partition: both directions of the
/// a <-> b link are blocked at the start of `from_window` and healed at the
/// start of `until_window` (exclusive).
struct PartitionEvent {
  NodeId a = 0;
  NodeId b = 0;
  net::WindowId from_window = 0;
  net::WindowId until_window = 0;
};

/// \brief One scheduled field-tampering phase: the node's protocol payloads
/// are tampered (valid checksum — only the root's validation pass catches
/// them) from the start of `from_window` until the start of `until_window`.
struct TamperEvent {
  NodeId node = 0;
  net::WindowId from_window = 0;
  net::WindowId until_window = 0;
};

/// \brief A deterministic fault schedule for one chaos run: probabilistic
/// message faults (drop / duplicate / delay / corrupt, all driven by `seed`)
/// plus scheduled crashes, partitions, and tampering phases pinned to window
/// boundaries. The same plan over the same workload replays the same faults.
struct FaultPlan {
  /// Per-message silent-loss probability.
  double drop_prob = 0;
  /// Per-message duplicate-delivery probability.
  double duplicate_prob = 0;
  /// Upper bound on injected in-flight delay (0 disables; delayed messages
  /// are redelivered out of order).
  DurationUs delay_us_max = 0;
  /// Probability a message is delayed when `delay_us_max` > 0.
  double delay_prob = 0.25;
  /// Per-message frame byte-flip probability: the fabric re-runs the real
  /// CRC32C check and drops the corrupted frame exactly as the TCP reader
  /// would (`net.corrupted{layer=frame}`); the loss is then recovered by the
  /// root's retry/deadline machinery.
  double corrupt_prob = 0;
  /// Probability a tampering node's eligible payload is field-tampered.
  double tamper_prob = 1.0;
  /// Seed for every probabilistic fault draw.
  uint64_t seed = 1;
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<TamperEvent> tampers;
  /// The root's recovery machinery for the run; it replaces the system's.
  /// The harness ticks the root once per window boundary. Quarantine is on
  /// by default in chaos runs: honest locals are never rejected, so the
  /// strike budget only ever fires on injected tampering. Seeded replays
  /// depend on these defaults.
  core::RootRecoveryOptions recovery = {.deadline_ticks = 4,
                                        .max_retries = 3,
                                        .quarantine_strikes = 3,
                                        .probation_windows = 2,
                                        .probation_clean_windows = 2};
};

/// \brief Parses a compact fault-schedule spec, e.g.
/// `drop=0.03,dup=0.05,corrupt=0.05,seed=7,crash=2@3+2,tamper=1@2..5`.
///
/// Keys: `drop`, `dup`, `delay-us`, `delay-prob`, `corrupt`, `tamper-prob`,
/// `seed`, `deadline`, `retries`, `strikes`, plus repeatable
/// `crash=NODE@WINDOW[+DOWN]`, `partition=A-B@FROM..UNTIL`, and
/// `tamper=NODE@FROM..UNTIL`. Unknown keys fail.
Result<FaultPlan> ParseFaultSchedule(const std::string& spec);

/// \brief A connection-level kill plan for the TCP transport's session
/// layer: \p kills socket severances spread deterministically over the
/// data-frame interval [`from_frame`, `until_frame`). Unlike the fabric
/// faults above this targets *connections*, not messages — every kill drops
/// the in-flight socket state and exercises heartbeat detection, redial, and
/// acked-frame replay.
struct ConnChaosPlan {
  uint64_t kills = 0;
  uint64_t from_frame = 0;
  uint64_t until_frame = 0;
  bool empty() const { return kills == 0; }
};

/// \brief Parses a conn-kill spec of the form `N@FROM..UNTIL`, e.g.
/// `3@10..200` = sever the connection 3 times, somewhere between the 10th
/// and 200th data frame written. `N@FROM` pins all kills at one point.
Result<ConnChaosPlan> ParseConnKillSpec(const std::string& spec);

/// \brief Expands a plan into a sorted cumulative-data-frame kill schedule
/// (the `TcpFaultOptions::kill_conn_schedule` format). \p salt
/// decorrelates the schedules of different nodes running the same plan, so a
/// cluster's kills do not land in lockstep; the same (plan, salt) always
/// yields the same schedule.
std::vector<uint64_t> BuildKillSchedule(const ConnChaosPlan& plan,
                                        uint64_t salt);

}  // namespace dema::sim
