// Chaos-harness tests: a seeded fault schedule must replay deterministically,
// and every window of a faulty run must either match the oracle exactly or be
// explicitly degraded with a cause — never silently wrong or missing.

#include <gtest/gtest.h>

#include <string>

#include "sim/chaos.h"
#include "sim/driver.h"
#include "sim/scenario.h"
#include "sim/topology.h"

namespace dema::sim {
namespace {

SystemConfig ChaosConfig(size_t locals = 2) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = 64;
  config.quantiles = {0.5, 0.9};
  return config;
}

WorkloadConfig ChaosWorkload(const SystemConfig& config, uint64_t windows = 5,
                             double rate = 2000) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  WorkloadConfig load =
      MakeUniformWorkload(config.num_locals, windows, rate, dist);
  load.window_len_us = config.window_len_us;
  return load;
}

/// The chaos fabric: inline delivery, the only one that takes scheduled
/// crashes, partitions and tampers.
Result<ScenarioReport> RunInline(const SystemConfig& config,
                                 const WorkloadConfig& load,
                                 const FaultPlan& plan) {
  ScenarioOptions options;
  options.topology = "inline";
  options.faults = plan;
  return RunScenario(config, load, options);
}

// --- spec parsing -----------------------------------------------------------

/// Checks all five recovery settings a plan hands the root.
void ExpectRecovery(const core::RootRecoveryOptions& r, uint64_t deadline,
                    uint32_t retries, uint32_t strikes, uint64_t probation,
                    uint32_t clean) {
  EXPECT_EQ(r.deadline_ticks, deadline);
  EXPECT_EQ(r.max_retries, retries);
  EXPECT_EQ(r.quarantine_strikes, strikes);
  EXPECT_EQ(r.probation_windows, probation);
  EXPECT_EQ(r.probation_clean_windows, clean);
}

TEST(FaultScheduleSpec, ParsesEveryKey) {
  auto plan = ParseFaultSchedule(
      "drop=0.03,dup=0.05,delay-us=1500,delay-prob=0.4,seed=7,deadline=2,"
      "retries=5,crash=2@3+2,partition=1-0@2..4");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_DOUBLE_EQ(plan->drop_prob, 0.03);
  EXPECT_DOUBLE_EQ(plan->duplicate_prob, 0.05);
  EXPECT_EQ(plan->delay_us_max, 1500);
  EXPECT_DOUBLE_EQ(plan->delay_prob, 0.4);
  EXPECT_EQ(plan->seed, 7u);
  ExpectRecovery(plan->recovery, /*deadline=*/2, /*retries=*/5,
                 /*strikes=*/3, /*probation=*/2, /*clean=*/2);
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].node, 2u);
  EXPECT_EQ(plan->crashes[0].at_window, 3u);
  EXPECT_EQ(plan->crashes[0].down_windows, 2u);
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].a, 1u);
  EXPECT_EQ(plan->partitions[0].b, 0u);
  EXPECT_EQ(plan->partitions[0].from_window, 2u);
  EXPECT_EQ(plan->partitions[0].until_window, 4u);

  // A spec without recovery keys keeps the chaos defaults; seeded chaos
  // replays stay byte-identical only while they hold.
  plan = ParseFaultSchedule("drop=0.05,dup=0.05,seed=7,crash=1@2+1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ExpectRecovery(plan->recovery, /*deadline=*/4, /*retries=*/3,
                 /*strikes=*/3, /*probation=*/2, /*clean=*/2);
}

TEST(FaultScheduleSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultSchedule("bogus=1").ok());
  EXPECT_FALSE(ParseFaultSchedule("drop=1.5").ok());   // probability >= 1
  EXPECT_FALSE(ParseFaultSchedule("drop=nope").ok());
  EXPECT_FALSE(ParseFaultSchedule("crash=1").ok());    // missing @WINDOW
  EXPECT_FALSE(ParseFaultSchedule("crash=1@2+0").ok());  // zero downtime
  EXPECT_FALSE(ParseFaultSchedule("partition=1-0@4..2").ok());  // until<=from
  EXPECT_FALSE(ParseFaultSchedule("corrupt=1.0").ok());  // probability >= 1
  EXPECT_FALSE(ParseFaultSchedule("tamper=1").ok());     // missing @FROM..UNTIL
  EXPECT_FALSE(ParseFaultSchedule("tamper=1@4..2").ok());  // until<=from
}

TEST(FaultScheduleSpec, ParsesCorruptionKeys) {
  auto plan = ParseFaultSchedule(
      "corrupt=0.07,tamper-prob=0.5,strikes=2,tamper=1@2..5,seed=9");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_DOUBLE_EQ(plan->corrupt_prob, 0.07);
  EXPECT_DOUBLE_EQ(plan->tamper_prob, 0.5);
  ExpectRecovery(plan->recovery, /*deadline=*/4, /*retries=*/3,
                 /*strikes=*/2, /*probation=*/2, /*clean=*/2);
  ASSERT_EQ(plan->tampers.size(), 1u);
  EXPECT_EQ(plan->tampers[0].node, 1u);
  EXPECT_EQ(plan->tampers[0].from_window, 2u);
  EXPECT_EQ(plan->tampers[0].until_window, 5u);
}

// --- invariants -------------------------------------------------------------

TEST(Chaos, FaultFreeRunIsAllExact) {
  SystemConfig config = ChaosConfig();
  FaultPlan plan;  // no probabilistic faults, no crashes
  auto report = RunInline(config, ChaosWorkload(config), plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_EQ(report->exact_windows, 5u);
  EXPECT_EQ(report->degraded_windows, 0u);
  EXPECT_EQ(report->counter("net.dropped"), 0u);
}

TEST(Chaos, SeededScheduleReplaysIdentically) {
  SystemConfig config = ChaosConfig(3);
  WorkloadConfig load = ChaosWorkload(config, /*windows=*/6);
  // Schedule seeds 1–11: 11 is the historical one.
  for (int seed = 1; seed <= 11; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    auto plan = ParseFaultSchedule(
        "drop=0.05,dup=0.05,delay-us=2000,seed=" + std::to_string(seed) +
        ",crash=1@2+1,partition=2-0@3..4");
    ASSERT_TRUE(plan.ok()) << plan.status();

    auto first = RunInline(config, load, *plan);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_TRUE(first->Invariant()) << first->violation;
    EXPECT_EQ(first->restarts, 1u);

    auto second = RunInline(config, load, *plan);
    ASSERT_TRUE(second.ok()) << second.status();
    ASSERT_EQ(first->windows.size(), second->windows.size());
    for (size_t i = 0; i < first->windows.size(); ++i) {
      const WindowOutput& a = first->windows[i].output;
      const WindowOutput& b = second->windows[i].output;
      EXPECT_EQ(first->windows[i].emitted, second->windows[i].emitted)
          << "window " << a.window_id;
      EXPECT_EQ(a.degraded, b.degraded) << "window " << a.window_id;
      EXPECT_EQ(a.degrade_cause, b.degrade_cause) << "window " << a.window_id;
      EXPECT_EQ(a.rank_error_bound, b.rank_error_bound)
          << "window " << a.window_id;
      EXPECT_EQ(a.global_size, b.global_size) << "window " << a.window_id;
      EXPECT_EQ(a.values, b.values) << "window " << a.window_id;
    }
    EXPECT_EQ(first->counter("net.dropped"), second->counter("net.dropped"));
    EXPECT_EQ(first->duplicates_injected, second->duplicates_injected);
    EXPECT_EQ(first->counter("net.delayed"), second->counter("net.delayed"));
    EXPECT_EQ(first->counter("root.retries"), second->counter("root.retries"));
  }
}

TEST(Chaos, HeavyLossDegradesExplicitlyInsteadOfStalling) {
  SystemConfig config = ChaosConfig();
  auto plan = ParseFaultSchedule("drop=0.3,seed=3,deadline=2,retries=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto report = RunInline(config, ChaosWorkload(config), *plan);
  ASSERT_TRUE(report.ok()) << report.status();
  // The contract under loss: no silent stalls, no wrong answers.
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_EQ(report->missing_windows, 0u);
  EXPECT_EQ(report->mismatched_windows, 0u);
  EXPECT_GT(report->counter("net.dropped"), 0u);
  // With this seed, synopsis losses are unrecoverable: windows degrade, each
  // carrying a cause and a rank-error bound.
  EXPECT_GT(report->degraded_windows, 0u);
  for (const WindowVerdict& w : report->windows) {
    if (!w.output.degraded) continue;
    EXPECT_FALSE(w.output.degrade_cause.empty())
        << "window " << w.output.window_id;
    EXPECT_GT(w.output.rank_error_bound, 0u) << "window " << w.output.window_id;
  }
}

TEST(Chaos, CrashedNodeRecoversFromCheckpoint) {
  SystemConfig config = ChaosConfig(3);
  auto plan = ParseFaultSchedule("crash=2@2+2,seed=5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto report = RunInline(config, ChaosWorkload(config, /*windows=*/6), *plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_EQ(report->restarts, 1u);
  // The oracle covers only fed events, so windows during the outage compare
  // against the two surviving nodes — every window must still be exact (no
  // messages were lost, only a node's source stream).
  EXPECT_EQ(report->exact_windows, 6u);
}

TEST(Chaos, CorruptFramesAreDetectedNeverSilentlyWrong) {
  // Mixed loss + frame corruption: every corrupted frame must be caught by
  // the CRC trailer and handled like a loss — recovered by retries or
  // explicitly degraded, never a crashed run and never a wrong quantile.
  SystemConfig config = ChaosConfig(3);
  auto plan = ParseFaultSchedule(
      "corrupt=0.05,drop=0.02,dup=0.03,seed=21,deadline=2,retries=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  WorkloadConfig load = ChaosWorkload(config, /*windows=*/6);
  auto report = RunInline(config, load, *plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_EQ(report->mismatched_windows, 0u);
  EXPECT_EQ(report->missing_windows, 0u);
  EXPECT_GT(report->counter("net.corrupted"), 0u);
  // Honest traffic is never rejected by validation: the CRC layer catches
  // wire corruption before the payloads reach the root.
  EXPECT_EQ(report->counter("dema.rejected"), 0u);
  EXPECT_EQ(report->counter("dema.quarantined"), 0u);

  // The corruption schedule replays deterministically.
  auto replay = RunInline(config, load, *plan);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(report->counter("net.corrupted"),
            replay->counter("net.corrupted"));
  ASSERT_EQ(report->windows.size(), replay->windows.size());
  for (size_t i = 0; i < report->windows.size(); ++i) {
    EXPECT_EQ(report->windows[i].output.values,
              replay->windows[i].output.values);
    EXPECT_EQ(report->windows[i].output.degraded,
              replay->windows[i].output.degraded);
  }
}

TEST(Chaos, TamperingLocalIsQuarantinedThenReadmitted) {
  // Node 2 field-tampers (valid CRC) during windows 1..3: only the root's
  // validation layer can catch it. The strike budget quarantines the node,
  // affected windows degrade with cause=quarantine, probation begins once
  // the term is served, and clean windows re-admit it — the final windows
  // are exact over all locals again.
  SystemConfig config = ChaosConfig(3);
  auto plan = ParseFaultSchedule("tamper=2@1..3,strikes=2,seed=13,deadline=2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto report = RunInline(config, ChaosWorkload(config, /*windows=*/10), *plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_GT(report->counter("net.corrupted"), 0u);
  EXPECT_GT(report->counter("dema.rejected"), 0u);
  EXPECT_GE(report->counter("dema.quarantined"), 1u);
  EXPECT_GE(report->counter("dema.readmitted"), 1u);
  bool saw_quarantine_cause = false;
  for (const WindowVerdict& w : report->windows) {
    if (w.output.degrade_cause == "quarantine") saw_quarantine_cause = true;
  }
  EXPECT_TRUE(saw_quarantine_cause);
  // After re-admission the cluster answers exactly again.
  const WindowVerdict& last = report->windows.back();
  EXPECT_TRUE(last.emitted);
  EXPECT_FALSE(last.output.degraded);
  EXPECT_TRUE(last.matches_oracle);
}

TEST(Chaos, TamperScheduleRequiresQuarantine) {
  // Tampered payloads are indistinguishable from honest ones below the
  // validation layer; with quarantine disabled the run could only stall or
  // lie, so the harness refuses the combination up front.
  SystemConfig config = ChaosConfig(3);
  auto plan = ParseFaultSchedule("tamper=2@1..3,strikes=0");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(RunInline(config, ChaosWorkload(config), *plan).ok());
}

TEST(Chaos, RejectsNonDemaSystems) {
  // Fault-free baseline runs are legal; a fault needs the Dema root's
  // deadline machinery.
  SystemConfig config = ChaosConfig();
  config.kind = SystemKind::kCentralExact;
  auto plan = ParseFaultSchedule("drop=0.01");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(RunInline(config, ChaosWorkload(config), *plan).ok());
}

TEST(Chaos, RejectsPartitionOfUnknownNode) {
  // Node ids are 0 (the root) to num_locals; a partition naming anything
  // else, or a node with itself, would silently block nothing.
  SystemConfig config = ChaosConfig(3);
  auto known = ParseFaultSchedule("partition=3-0@1..3,seed=7");
  ASSERT_TRUE(known.ok()) << known.status();
  auto report = RunInline(config, ChaosWorkload(config), *known);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  for (const char* spec : {"partition=9-0@1..3,seed=7", "partition=0-4@1..3",
                           "partition=2-2@1..3"}) {
    auto plan = ParseFaultSchedule(spec);
    ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();
    EXPECT_EQ(RunInline(config, ChaosWorkload(config), *plan).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

}  // namespace
}  // namespace dema::sim
