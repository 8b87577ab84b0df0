#include "core/schedule_check.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/plan.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "obs/self_profile.h"
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
  // pool sharing the one lowered graph.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  ScheduleCheckOptions serial = quick_options();
  serial.permutations = 4;
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
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(b.permutations, 4);
  EXPECT_EQ(b.diverged, 0);
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

TEST(ScheduleCheck, TieBreakNamesAreStable) {
  EXPECT_EQ(to_string(sim::TieBreak::kCanonical), "canonical");
  EXPECT_EQ(to_string(sim::TieBreak::kPermuteDisjoint), "disjoint");
  EXPECT_EQ(to_string(sim::TieBreak::kPermuteAll), "all");
}

}  // namespace
}  // namespace holmes::core
