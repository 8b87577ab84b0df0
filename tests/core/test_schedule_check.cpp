#include "core/schedule_check.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "core/run_stats.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "obs/critical_path.h"
#include "obs/self_profile.h"
#include "obs/summary.h"
#include "util/build_info.h"
#include "util/json.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

TrainingPlan plan_for(const FrameworkConfig& framework,
                      const net::Topology& topo, int group = 1) {
  return Planner(framework).plan(topo, model::parameter_group(group));
}

ScheduleCheckOptions quick_options() {
  ScheduleCheckOptions options;
  options.permutations = 2;
  options.iterations = 2;
  return options;
}

TEST(ScheduleCheck, HybridRunIsDeterministicUnderDisjointPermutations) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  const ScheduleCheckResult result =
      check_schedule_determinism(topo, plan, quick_options());
  EXPECT_EQ(result.permutations, 2);
  EXPECT_EQ(result.diverged, 0);
  EXPECT_TRUE(result.report.ok());
  EXPECT_FALSE(result.report.fired(verify::kRuleScheduleRace));
}

TEST(ScheduleCheck, FlowBoundsHoldAcrossFrameworks) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  for (const FrameworkConfig& framework :
       {FrameworkConfig::holmes(), FrameworkConfig::megatron_lm()}) {
    const TrainingPlan plan = plan_for(framework, topo);
    ScheduleCheckOptions options = quick_options();
    options.permutations = 1;
    const ScheduleCheckResult result =
        check_schedule_determinism(topo, plan, options);
    ASSERT_TRUE(result.flow.valid) << framework.name;
    EXPECT_GT(result.flow.makespan_bound_s, 0) << framework.name;
    EXPECT_LE(result.flow.makespan_bound_s, result.makespan_s * (1 + 1e-9))
        << framework.name;
    EXPECT_FALSE(result.report.fired(verify::kRuleFlowChainBound))
        << framework.name;
    EXPECT_FALSE(result.report.fired(verify::kRuleFlowResourceBound))
        << framework.name;
  }
}

TEST(ScheduleCheck, ReportJsonIsStampedParsableAndStable) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions options = quick_options();
  options.permutations = 1;
  const ScheduleCheckResult result =
      check_schedule_determinism(topo, plan, options);

  std::ostringstream a;
  write_check_report_json(a, result, current_build_info());
  const JsonValue doc = json_parse(a.str());
  EXPECT_EQ(doc.at("schema").as_string(), kCheckReportSchema);
  EXPECT_TRUE(doc.find("fingerprint") != nullptr);
  EXPECT_EQ(doc.at("verdict").as_string(), "pass");
  EXPECT_EQ(doc.at("policy").as_string(), "disjoint");
  EXPECT_EQ(doc.at("diverged").as_number(), 0);
  EXPECT_GT(doc.at("flow").at("chain_bound_s").as_number(), 0);
  EXPECT_EQ(doc.at("lint").at("schema").as_string(), "holmes.lint_report.v1");

  std::ostringstream b;
  write_check_report_json(b, result, current_build_info());
  EXPECT_EQ(a.str(), b.str());  // byte-stable for fixed inputs
}

TEST(ScheduleCheck, ParallelFanOutMatchesSerialReportBytes) {
  // The permutation fan-out is embarrassingly parallel; the report must be
  // byte-identical whether the permuted runs execute serially or across a
  // pool sharing the one lowered graph. Under kPermuteAll every result
  // differs, so pool threads keep them out of order for the seed-order
  // comparison.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  for (const sim::TieBreak policy :
       {sim::TieBreak::kPermuteDisjoint, sim::TieBreak::kPermuteAll}) {
    ScheduleCheckOptions serial = quick_options();
    serial.permutations = 4;
    serial.tie_break = policy;
    ScheduleCheckOptions parallel = serial;
    parallel.threads = 4;
    const ScheduleCheckResult a =
        check_schedule_determinism(topo, plan, serial);
    const ScheduleCheckResult b =
        check_schedule_determinism(topo, plan, parallel);
    std::ostringstream sa;
    std::ostringstream sb;
    write_check_report_json(sa, a, current_build_info());
    write_check_report_json(sb, b, current_build_info());
    EXPECT_EQ(sa.str(), sb.str()) << to_string(policy);
    EXPECT_EQ(b.permutations, 4);
    EXPECT_EQ(b.diverged, policy == sim::TieBreak::kPermuteAll ? 4 : 0);
  }
}

TEST(ScheduleCheck, LowersOneGraphPerInvocation) {
  // The canonical run and every permutation execute one lowered graph, so a
  // check creates the tasks of exactly one run, serial or threaded.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions options = quick_options();
  options.permutations = 4;
  std::uint64_t one_run = 0;
  {
    const obs::SelfProfiler profiler;
    TrainingSimulator{}.run(topo, plan, options.iterations);
    one_run = profiler.snapshot().counters.tasks_created;
  }
  ASSERT_GT(one_run, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const obs::SelfProfiler profiler;
    const ScheduleCheckResult result =
        check_schedule_determinism(topo, plan, options);
    EXPECT_EQ(result.permutations, 4);
    EXPECT_EQ(profiler.snapshot().counters.tasks_created, one_run)
        << threads << " thread(s)";
  }
}

// A representative fault schedule: a straggler node plus a NIC degradation
// window, i.e. both the duration-perturbing and the rate-timeline paths.
Perturbations faulted_perturbations() {
  Perturbations perturb;
  for (int rank = 8; rank < 16; ++rank) perturb.device_slowdown[rank] = 2.0;
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 1.0;
  window.end_s = 10.0;
  window.bandwidth_factor = 0.5;
  perturb.nic_degradation.push_back(window);
  return perturb;
}

TEST(ScheduleCheck, FaultedRunStaysDeterministicAcrossPermutations) {
  // Byte-identity is part of the fault-injection contract: degradation
  // windows stretch occupancies but must not open scheduling races.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions options = quick_options();
  options.perturbations = faulted_perturbations();
  const ScheduleCheckResult result =
      check_schedule_determinism(topo, plan, options);
  EXPECT_EQ(result.permutations, 2);
  EXPECT_EQ(result.diverged, 0);
  EXPECT_TRUE(result.report.ok());
  EXPECT_FALSE(result.report.fired(verify::kRuleScheduleRace));
}

TEST(ScheduleCheck, FaultedParallelFanOutMatchesSerialReportBytes) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions serial = quick_options();
  serial.permutations = 4;
  serial.perturbations = faulted_perturbations();
  ScheduleCheckOptions parallel = serial;
  parallel.threads = 4;
  const ScheduleCheckResult a = check_schedule_determinism(topo, plan, serial);
  const ScheduleCheckResult b =
      check_schedule_determinism(topo, plan, parallel);
  std::ostringstream sa;
  std::ostringstream sb;
  write_check_report_json(sa, a, current_build_info());
  write_check_report_json(sb, b, current_build_info());
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(b.diverged, 0);

  // The faults actually bit: the checked makespan differs from fault-free.
  ScheduleCheckOptions clean = quick_options();
  clean.permutations = 1;
  const ScheduleCheckResult baseline =
      check_schedule_determinism(topo, plan, clean);
  EXPECT_GT(a.makespan_s, baseline.makespan_s);
}

TEST(ScheduleCheck, PermuteAllDivergenceNamesTheFirstMovedTask) {
  // Every permute-all result differs, so each takes the path that builds
  // and byte-compares the documents; the divergences name the first task
  // that moved, in seed order, byte for byte as a check that serializes
  // every permutation reports them.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions options;
  options.permutations = 3;
  options.tie_break = sim::TieBreak::kPermuteAll;
  const ScheduleCheckResult result =
      check_schedule_determinism(topo, plan, options);
  EXPECT_EQ(result.permutations, 3);
  EXPECT_EQ(result.diverged, 3);
  const std::string moved =
      " moved it from start 0.987566519814 s to 1.05467538381 s (finish "
      "1.44022238679 s -> 1.50733125079 s)";
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"task 3 'bwd'", "tie permutation (seed 79505419748691)" + moved},
      {"task 307 'bwd'", "tie permutation (seed 79505419748692)" + moved},
      {"task 3 'bwd'", "tie permutation (seed 79505419748693)" + moved},
  };
  std::vector<std::pair<std::string, std::string>> races;
  for (const verify::Diagnostic& d : result.report.diagnostics()) {
    if (d.rule == verify::kRuleScheduleRace) {
      races.emplace_back(d.subject, d.message);
    }
  }
  EXPECT_EQ(races, expected);
}

/// The two documents check_schedule_determinism byte-compares, serialized
/// independently of it: the run summary and the critical path, as JSON.
std::pair<std::string, std::string> documents(const net::Topology& topo,
                                              const TrainingPlan& plan,
                                              const SimArtifacts& executed) {
  const IterationMetrics metrics = TrainingSimulator::account(plan, executed);
  std::ostringstream summary;
  obs::write_json(summary, build_run_summary(topo, plan, metrics, executed));
  std::ostringstream path;
  obs::write_json(path,
                  build_critical_path_summary(topo, plan, metrics, executed));
  return {summary.str(), path.str()};
}

TEST(ScheduleCheck, BitIdenticalResultsSerializeIdenticalDocuments) {
  // The oracle behind skipping the documents: a disjoint permutation's
  // result is bit-identical to the canonical one, and so are both of its
  // serialized documents, clean and with faults active.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  const ScheduleCheckOptions options;
  for (const Perturbations& perturbations :
       {Perturbations{}, faulted_perturbations()}) {
    SimArtifacts artifacts = TrainingSimulator{}.lower(
        topo, plan, options.iterations, perturbations);
    artifacts.result = TrainingSimulator::execute(artifacts, {});
    const sim::SimResult canonical = *artifacts.result;
    const auto expected = documents(topo, plan, artifacts);
    for (std::uint64_t k = 0; k < 4; ++k) {
      sim::ExecutorOptions exec;
      exec.tie_break = sim::TieBreak::kPermuteDisjoint;
      exec.tie_seed = options.base_seed + k;
      artifacts.result = TrainingSimulator::execute(artifacts, exec);
      EXPECT_TRUE(artifacts.result->bit_identical(canonical)) << "seed " << k;
      const auto docs = documents(topo, plan, artifacts);
      EXPECT_EQ(docs.first, expected.first) << "run summary, seed " << k;
      EXPECT_EQ(docs.second, expected.second) << "critical path, seed " << k;
    }
  }
}

TEST(ScheduleCheck, TieBreakNamesAreStable) {
  EXPECT_EQ(to_string(sim::TieBreak::kCanonical), "canonical");
  EXPECT_EQ(to_string(sim::TieBreak::kPermuteDisjoint), "disjoint");
  EXPECT_EQ(to_string(sim::TieBreak::kPermuteAll), "all");
}

}  // namespace
}  // namespace holmes::core
