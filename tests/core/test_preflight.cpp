#include "core/preflight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/plan.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "util/logging.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

TrainingPlan plan_for(const FrameworkConfig& framework,
                      const net::Topology& topo, int group = 1) {
  return Planner(framework).plan(topo, model::parameter_group(group));
}

TEST(Preflight, PlanViewMirrorsAHolmesPlan) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  const verify::PlanView view = make_plan_view(plan);
  EXPECT_EQ(view.groups, &plan.groups);
  EXPECT_EQ(view.partition, &plan.partition);
  EXPECT_EQ(view.stage_nics, &plan.stage_nics);
  EXPECT_EQ(view.model, &plan.workload.config);
  EXPECT_EQ(view.micro_batch_size, plan.workload.micro_batch_size);
  ASSERT_TRUE(view.micro_batches.has_value());
  EXPECT_EQ(*view.micro_batches, plan.micro_batches);
  EXPECT_TRUE(view.per_group_transport);  // Holmes: per-group best transport
  EXPECT_FALSE(view.ethernet_fallback);
  // The overlapped distributed optimizer shards optimizer state over DP.
  EXPECT_EQ(view.optimizer_shards, plan.degrees.data);
  EXPECT_EQ(view.weight_shards, 1);
}

TEST(Preflight, PlanViewMirrorsAMegatronFallbackPlan) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  const TrainingPlan plan = plan_for(FrameworkConfig::megatron_lm(), topo);
  const verify::PlanView view = make_plan_view(plan);
  EXPECT_FALSE(view.per_group_transport);
  EXPECT_TRUE(view.ethernet_fallback);  // heterogeneous job downgrades
  EXPECT_EQ(view.optimizer_shards, 1);  // plain all-reduce DDP
}

TEST(Preflight, PlannedLayoutsPassThePlanLints) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  for (const FrameworkConfig& framework :
       {FrameworkConfig::holmes(), FrameworkConfig::megatron_lm(),
        FrameworkConfig::megatron_llama()}) {
    const TrainingPlan plan = plan_for(framework, topo);
    const verify::LintReport report = lint_training_plan(topo, plan);
    EXPECT_TRUE(report.ok()) << framework.name;
    EXPECT_FALSE(report.fired(verify::kRuleDpGroupTransport))
        << framework.name;
  }
}

TEST(Preflight, ArtifactsOfARealRunPassGraphAndExecutionLints) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  SimArtifacts artifacts;
  TrainingSimulator{}.run(topo, plan, 2, {}, nullptr, &artifacts);
  const verify::LintReport report = lint_artifacts(artifacts);
  EXPECT_TRUE(report.clean());
  const auto& rules = report.rules_checked();
  // The compute-resource map supplies serial programs, so the deadlock rule
  // and the execution family must actually have run.
  for (const char* rule :
       {verify::kRuleGraphAcyclic, verify::kRuleSerialOrder,
        verify::kRuleTimingMonotone, verify::kRuleResourceExclusive}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end())
        << rule;
  }
}

TEST(Preflight, LogLevelNeverChangesARunOfANicMixedPlan) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  TrainingPlan plan = plan_for(FrameworkConfig::holmes(), topo);
  // Poison the layout: swap one InfiniBand rank with one RoCE rank, mixing
  // NICs inside two DP groups. The Planner would never emit this; a refactor
  // bug might. `lint` flags it; the simulator runs it as it stands.
  std::vector<int> order(static_cast<std::size_t>(topo.world_size()));
  std::iota(order.begin(), order.end(), 0);
  std::swap(order[0], order[16]);
  plan.groups = parallel::ParallelGroups(plan.degrees, order);
  ASSERT_TRUE(
      lint_training_plan(topo, plan).fired(verify::kRuleDpGroupTransport));

  const LogLevel saved = log_level();
  SimArtifacts debug;
  SimArtifacts warning;
  set_log_level(LogLevel::kDebug);
  TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &debug);
  set_log_level(LogLevel::kWarning);
  TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &warning);
  set_log_level(saved);
  ASSERT_TRUE(debug.result.has_value());
  ASSERT_TRUE(warning.result.has_value());
  EXPECT_TRUE(debug.result->bit_identical(*warning.result));
}

}  // namespace
}  // namespace holmes::core
