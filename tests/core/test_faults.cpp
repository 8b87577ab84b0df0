#include "core/faults.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "obs/self_profile.h"
#include "sim/scenario_runner.h"
#include "util/error.h"
#include "util/json.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

net::Topology hybrid() { return make_environment(NicEnv::kHybrid, 4); }

/// The CI fixture scenario: the first RoCE node runs compute 2x slow.
FaultPlan straggler_plan(double slowdown = 2.0) {
  FaultPlan plan;
  ComputeStraggler straggler;
  straggler.cluster = 1;
  straggler.node_in_cluster = 0;
  straggler.slowdown = slowdown;
  plan.stragglers.push_back(straggler);
  return plan;
}

// ---------------------------------------------------------------------------
// Schema round-trip
// ---------------------------------------------------------------------------

TEST(FaultPlan, JsonRoundTripsByteExactly) {
  FaultPlan plan = straggler_plan();
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 2.0;
  window.end_s = 6.5;
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  plan.node_failure = {20.0, 1, 1};
  plan.checkpoint = {1, 0.5, 2.0};
  plan.seed = 99;

  const std::string first = fault_plan_json(plan);
  const FaultPlan reparsed = parse_fault_plan(first);
  EXPECT_EQ(fault_plan_json(reparsed), first);
  EXPECT_EQ(reparsed.seed, 99u);
  ASSERT_EQ(reparsed.nic_degradation.size(), 1u);
  EXPECT_EQ(reparsed.nic_degradation[0].end_s, 6.5);
  ASSERT_EQ(reparsed.stragglers.size(), 1u);
  EXPECT_EQ(reparsed.stragglers[0].slowdown, 2.0);
  EXPECT_TRUE(reparsed.has_node_failure());
  EXPECT_EQ(reparsed.checkpoint.period_iterations, 1);
}

TEST(FaultPlan, ParseAcceptsMinimalDocumentWithDefaults) {
  const FaultPlan plan =
      parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\"}");
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_node_failure());
  EXPECT_EQ(plan.seed, 0x5EEDu);
}

TEST(FaultPlan, ParseRejectsWrongSchemaAndUnknownKeys) {
  EXPECT_THROW(parse_fault_plan("{\"schema\":\"holmes.fault_plan.v2\"}"),
               ConfigError);
  EXPECT_THROW(parse_fault_plan("{}"), ConfigError);
  EXPECT_THROW(parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\","
                                "\"stragglerz\":[]}"),
               ConfigError);
  EXPECT_THROW(
      parse_fault_plan("{\"schema\":\"holmes.fault_plan.v1\","
                       "\"stragglers\":[{\"slowdwn\":2}]}"),
      ConfigError);
}

// ---------------------------------------------------------------------------
// HV501-503 lints
// ---------------------------------------------------------------------------

TEST(FaultLint, CleanPlanChecksAllThreeRules) {
  const verify::LintReport report = lint_fault_plan(straggler_plan(), hybrid());
  EXPECT_TRUE(report.ok());
  for (const char* rule : {verify::kRuleFaultWindowSane,
                           verify::kRuleFaultScopeValid,
                           verify::kRuleCheckpointModelSane}) {
    EXPECT_FALSE(report.fired(rule)) << rule;
  }
  EXPECT_EQ(report.rules_checked().size(), 3u);
}

TEST(FaultLint, MalformedWindowFiresHV501) {
  FaultPlan plan;
  NicDegradation window;
  window.begin_s = 5.0;
  window.end_s = 5.0;  // not after begin
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  const verify::LintReport report = lint_fault_plan(plan, hybrid());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.fired(verify::kRuleFaultWindowSane));

  FaultPlan negative_factor;
  window.end_s = 6.0;
  window.bandwidth_factor = 0.0;
  negative_factor.nic_degradation.push_back(window);
  EXPECT_TRUE(lint_fault_plan(negative_factor, hybrid())
                  .fired(verify::kRuleFaultWindowSane));
}

TEST(FaultLint, NonFiniteFactorsFireHV501) {
  // A JSON number like 1e999 parses to infinity; neither it nor NaN may
  // reach the simulator, where it would turn every timing into NaN.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    FaultPlan slow = straggler_plan();
    slow.stragglers[0].slowdown = bad;
    EXPECT_FALSE(lint_fault_plan(slow, hybrid()).ok()) << bad;

    FaultPlan window;
    window.nic_degradation.push_back({-1, -1, 1.0, 2.0, bad});
    EXPECT_TRUE(lint_fault_plan(window, hybrid())
                    .fired(verify::kRuleFaultWindowSane))
        << bad;
  }
}

TEST(FaultLint, WindowBeyondHorizonWarns) {
  FaultPlan plan;
  NicDegradation window;
  window.begin_s = 100.0;
  window.end_s = 200.0;
  window.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(window);
  const verify::LintReport report =
      lint_fault_plan(plan, hybrid(), /*horizon_s=*/50.0);
  EXPECT_TRUE(report.ok()) << "a dormant window is a warning, not an error";
  EXPECT_TRUE(report.fired(verify::kRuleFaultWindowSane));
  EXPECT_EQ(report.count(verify::Severity::kWarning), 1u);
}

TEST(FaultLint, UnresolvableScopeFiresHV502) {
  FaultPlan plan = straggler_plan();
  plan.stragglers[0].cluster = 99;
  EXPECT_TRUE(
      lint_fault_plan(plan, hybrid()).fired(verify::kRuleFaultScopeValid));

  FaultPlan bad_failure;
  bad_failure.node_failure = {10.0, 0, 77};
  bad_failure.checkpoint = {1, 0.1, 1.0};
  EXPECT_TRUE(lint_fault_plan(bad_failure, hybrid())
                  .fired(verify::kRuleFaultScopeValid));
}

TEST(FaultLint, NodeFailureWithoutCheckpointFiresHV503) {
  FaultPlan plan;
  plan.node_failure = {10.0, 1, 0};
  const verify::LintReport report = lint_fault_plan(plan, hybrid());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.fired(verify::kRuleCheckpointModelSane));

  plan.checkpoint = {1, 0.5, 2.0};
  EXPECT_FALSE(lint_fault_plan(plan, hybrid())
                   .fired(verify::kRuleCheckpointModelSane));
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(FaultLowering, StragglerScopeResolvesToMemberRanks) {
  const net::Topology topo = hybrid();
  const Perturbations perturb = lower_fault_plan(straggler_plan(), topo);
  // Cluster 1's first node on the 2x8:ib+2x8:roce fixture is ranks 16-23.
  EXPECT_EQ(perturb.device_slowdown.size(), 8u);
  for (int rank = 16; rank < 24; ++rank) {
    ASSERT_TRUE(perturb.device_slowdown.count(rank)) << rank;
    EXPECT_EQ(perturb.device_slowdown.at(rank), 2.0);
  }
}

TEST(FaultLowering, IdentitySlowdownLowersToNothing) {
  const Perturbations perturb =
      lower_fault_plan(straggler_plan(/*slowdown=*/1.0), hybrid());
  EXPECT_TRUE(perturb.empty());
}

TEST(FaultLowering, OverlappingStragglerScopesCompound) {
  FaultPlan plan = straggler_plan(2.0);
  ComputeStraggler whole_cluster;
  whole_cluster.cluster = 1;
  whole_cluster.slowdown = 1.5;
  plan.stragglers.push_back(whole_cluster);
  const Perturbations perturb = lower_fault_plan(plan, hybrid());
  EXPECT_EQ(perturb.device_slowdown.at(16), 3.0);  // 2.0 * 1.5
  EXPECT_EQ(perturb.device_slowdown.at(24), 1.5);  // cluster-wide only
}

TEST(FaultLowering, WindowsCarrySeedAndScopes) {
  FaultPlan plan;
  NicDegradation window;
  window.cluster = 0;
  window.begin_s = 1.0;
  window.end_s = 2.0;
  window.bandwidth_factor = 0.25;
  plan.nic_degradation.push_back(window);
  plan.seed = 1234;
  const Perturbations perturb = lower_fault_plan(plan, hybrid());
  ASSERT_EQ(perturb.nic_degradation.size(), 1u);
  EXPECT_EQ(perturb.nic_degradation[0].bandwidth_factor, 0.25);
  EXPECT_EQ(perturb.seed, 1234u);
  EXPECT_FALSE(perturb.empty());
}

// ---------------------------------------------------------------------------
// Recovery experiment
// ---------------------------------------------------------------------------

TEST(FaultRecovery, MeetsAcceptanceBarForTwoXStraggler) {
  const RecoveryReport report = run_fault_injection(hybrid(), straggler_plan());
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.lint.ok());
  EXPECT_LT(report.faulted.throughput, report.fault_free.throughput);
  EXPECT_GT(report.replanned.throughput, report.faulted.throughput);
  // The repo's acceptance bar: measured-speed re-planning must win back at
  // least half the throughput a 2.0x straggler destroys.
  EXPECT_GE(report.recovery_ratio, 0.5);
  EXPECT_FALSE(report.node_lost);
  EXPECT_EQ(report.static_partition.size(), report.replanned_partition.size());
  EXPECT_FALSE(report.bucket_deltas.empty());
}

TEST(FaultRecovery, ReportJsonIsByteStableAndUnstamped) {
  const FaultPlan plan = straggler_plan();
  std::ostringstream a;
  write_recovery_report_json(a, run_fault_injection(hybrid(), plan));
  std::ostringstream b;
  write_recovery_report_json(b, run_fault_injection(hybrid(), plan));
  EXPECT_EQ(a.str(), b.str()) << "recovery reports must be byte-stable";

  const JsonValue doc = json_parse(a.str());
  EXPECT_EQ(doc.at("schema").as_string(), kRecoveryReportSchema);
  EXPECT_EQ(doc.at("verdict").as_string(), "pass");
  EXPECT_EQ(doc.find("fingerprint"), nullptr)
      << "recovery reports are deliberately unstamped (cross-machine CI "
         "goldens)";
  EXPECT_GE(doc.at("recovery_ratio").as_number(), 0.5);
  EXPECT_EQ(doc.at("fault_plan").at("schema").as_string(), kFaultPlanSchema);
}

TEST(FaultRecovery, InvalidPlanShortCircuitsWithoutSimulating) {
  FaultPlan plan = straggler_plan();
  plan.stragglers[0].cluster = 99;
  const RecoveryReport report = run_fault_injection(hybrid(), plan);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.lint.ok());
  EXPECT_EQ(report.fault_free.makespan_s, 0);
  std::ostringstream out;
  write_recovery_report_json(out, report);
  EXPECT_EQ(json_parse(out.str()).at("verdict").as_string(), "fail");
}

TEST(FaultRecovery, NodeLossAccountsCheckpointReplayDowntime) {
  FaultPlan plan;
  plan.node_failure = {20.0, 1, 1};
  plan.checkpoint = {1, 0.5, 2.0};
  const RecoveryReport report = run_fault_injection(hybrid(), plan);
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.node_lost);
  EXPECT_TRUE(report.recoverable);
  EXPECT_EQ(report.failed_ranks, 8);
  EXPECT_GE(report.checkpointed_iterations, 1);
  EXPECT_GE(report.lost_work_s, 0);
  EXPECT_EQ(report.downtime_s, report.lost_work_s + report.restart_s);
  EXPECT_GT(report.elastic_throughput, 0);
  // Survivors are fewer, so the elastic steady state is slower than the
  // full machine's.
  EXPECT_LT(report.elastic_throughput, report.fault_free.throughput);
  // The composed recovery timeline cannot beat simply never failing.
  EXPECT_GT(report.recovered_makespan_s, report.fault_free.makespan_s);
  // Synthetic recovery buckets join the critical-path delta.
  bool found_restart = false;
  for (const RecoveryReport::BucketDelta& d : report.bucket_deltas) {
    if (d.name == "recovery/restart") {
      found_restart = true;
      EXPECT_EQ(d.faulted_s, 2.0);
    }
  }
  EXPECT_TRUE(found_restart);
}

TEST(FaultRecovery, HV504IsCheckedOnEveryLeg) {
  const RecoveryReport report = run_fault_injection(hybrid(), straggler_plan());
  EXPECT_FALSE(report.lint.fired(verify::kRuleRecoveryInvariant));
  bool checked = false;
  for (const std::string& rule : report.lint.rules_checked()) {
    if (rule == verify::kRuleRecoveryInvariant) checked = true;
  }
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// SimMemo interaction
// ---------------------------------------------------------------------------

TEST(FaultMemo, ActiveRateTimelineBypassesTheMemoAndCounts) {
  const net::Topology topo = hybrid();
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));

  FaultPlan faults;
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 0.0;
  window.end_s = 30.0;
  window.bandwidth_factor = 0.25;
  faults.nic_degradation.push_back(window);
  const Perturbations degraded = lower_fault_plan(faults, topo);

  obs::SelfProfiler profiler;
  sim::SimMemo memo;
  TrainingSimulator simulator;
  simulator.set_memo(&memo);

  // Clean run seeds the memo; the degraded run must not consult it (the
  // memo key hashes structure, not execution-time rates) nor poison it.
  const IterationMetrics clean = simulator.run(topo, plan, 2);
  const std::size_t memo_after_clean = memo.size();
  const IterationMetrics slow = simulator.run(topo, plan, 2, degraded);
  EXPECT_EQ(memo.size(), memo_after_clean)
      << "a faulted run must never enter the memo";
  EXPECT_GT(slow.iteration_time, clean.iteration_time);

  // Re-running degraded is deterministic and still bypasses.
  const IterationMetrics slow_again = simulator.run(topo, plan, 2, degraded);
  EXPECT_DOUBLE_EQ(slow.iteration_time, slow_again.iteration_time);

  // And the clean scenario still hits the memo with the clean result.
  const IterationMetrics clean_again = simulator.run(topo, plan, 2);
  EXPECT_DOUBLE_EQ(clean.iteration_time, clean_again.iteration_time);

  memo.flush_profile();
  const obs::SelfProfileCounters& counters = profiler.snapshot().counters;
  EXPECT_GE(counters.memo_bypass, 2u);
  EXPECT_GE(counters.memo_hits, 1u);
}

TEST(FaultMemo, BypassCountEqualsRateActiveRunsInMixedBatch) {
  const net::Topology topo = hybrid();
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));

  FaultPlan faults;
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 1.0;
  window.end_s = 10.0;
  window.bandwidth_factor = 0.5;
  faults.nic_degradation.push_back(window);
  const Perturbations degraded = lower_fault_plan(faults, topo);

  // A straggler perturbs durations but installs no rate timeline, so it
  // must take the memo path (distinct key), never the bypass.
  Perturbations straggler;
  straggler.device_slowdown[0] = 2.0;

  obs::SelfProfiler profiler;
  sim::SimMemo memo;
  TrainingSimulator simulator;
  simulator.set_memo(&memo);

  // Mixed batch: faulted (rate-active) and unfaulted scenarios interleaved.
  // Exactly the rate-active runs bypass — no more (clean/straggler runs
  // must not inflate the counter), no fewer (every degraded run counts,
  // memo warm or cold).
  const std::vector<const Perturbations*> batch = {
      nullptr, &degraded, nullptr, &straggler, &degraded, &degraded, nullptr,
  };
  std::size_t rate_active = 0;
  for (const Perturbations* perturb : batch) {
    simulator.run(topo, plan, 2, perturb == nullptr ? Perturbations{} : *perturb);
    if (perturb == &degraded) ++rate_active;
  }

  memo.flush_profile();
  const obs::SelfProfileCounters& counters = profiler.snapshot().counters;
  EXPECT_EQ(counters.memo_bypass, rate_active)
      << "memo_bypass must equal the rate-active run count exactly";
  // Two distinct structural keys entered the memo: clean and straggler.
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(counters.memo_misses, 2u);
  // 3 clean runs (1 miss, 2 hits) + 1 straggler run (1 miss, 0 hits).
  EXPECT_EQ(counters.memo_hits, 2u);
}

TEST(FaultMemo, DifferentFaultSchedulesNeverCollide) {
  const net::Topology topo = hybrid();
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  sim::SimMemo memo;
  TrainingSimulator simulator;
  simulator.set_memo(&memo);

  // Stragglers and jitter seeds perturb task *durations*, so they reach
  // the memo path — distinct schedules must produce distinct keys.
  Perturbations straggler_a;
  straggler_a.device_slowdown[16] = 2.0;
  Perturbations straggler_b;
  straggler_b.device_slowdown[16] = 3.0;
  const IterationMetrics a = simulator.run(topo, plan, 2, straggler_a);
  const IterationMetrics b = simulator.run(topo, plan, 2, straggler_b);
  EXPECT_NE(a.iteration_time, b.iteration_time)
      << "distinct fault schedules must not collide in the memo";

  Perturbations jitter_a;
  jitter_a.compute_jitter = 0.1;
  jitter_a.seed = 42;
  Perturbations jitter_b = jitter_a;
  jitter_b.seed = 43;
  const IterationMetrics ja = simulator.run(topo, plan, 2, jitter_a);
  const IterationMetrics jb = simulator.run(topo, plan, 2, jitter_b);
  EXPECT_NE(ja.iteration_time, jb.iteration_time);

  // Re-running each scenario reproduces its own memoized result exactly.
  EXPECT_DOUBLE_EQ(simulator.run(topo, plan, 2, straggler_a).iteration_time,
                   a.iteration_time);
  EXPECT_DOUBLE_EQ(simulator.run(topo, plan, 2, jitter_b).iteration_time,
                   jb.iteration_time);
}

}  // namespace
}  // namespace holmes::core
