#include "verify/plan_lints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "model/memory.h"
#include "model/transformer.h"
#include "net/nic.h"
#include "net/topology.h"
#include "parallel/groups.h"
#include "pipeline/partition.h"
#include "verify/rules.h"

namespace holmes::verify {
namespace {

using net::NicType;
using net::Topology;
using parallel::ParallelConfig;
using parallel::ParallelGroups;

/// Identity permutation with ranks `a` and `b` swapped.
std::vector<int> swapped_order(int world, int a, int b) {
  std::vector<int> order(static_cast<std::size_t>(world));
  std::iota(order.begin(), order.end(), 0);
  std::swap(order[static_cast<std::size_t>(a)],
            order[static_cast<std::size_t>(b)]);
  return order;
}

bool checked(const LintReport& report, const char* rule) {
  const auto& rules = report.rules_checked();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

model::TransformerConfig tiny_model() {
  model::TransformerConfig config;
  config.layers = 8;
  config.hidden = 512;
  config.heads = 8;
  return config;
}

// ---- HV101 dp-group-transport ----

TEST(PlanLints, HV101CleanOnClusterAlignedHybridLayout) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const ParallelGroups groups(ParallelConfig{1, 2, 16});  // stage == cluster
  PlanView view;
  view.groups = &groups;
  view.per_group_transport = true;
  const LintReport report = lint_plan(topo, view);
  EXPECT_FALSE(report.fired(kRuleDpGroupTransport));
  EXPECT_FALSE(report.fired(kRuleDpClusterCrossing));
  EXPECT_TRUE(checked(report, kRuleDpGroupTransport));
  EXPECT_TRUE(report.ok());
}

TEST(PlanLints, HV101ErrorOnNicMixedDpGroupUnderPerGroupTransport) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  // Swapping one IB rank with one RoCE rank poisons two DP groups.
  const ParallelGroups groups(ParallelConfig{1, 2, 16},
                              swapped_order(32, 0, 16));
  PlanView view;
  view.groups = &groups;
  view.per_group_transport = true;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDpGroupTransport));
  EXPECT_FALSE(report.ok());
  bool named = false;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == kRuleDpGroupTransport) {
      EXPECT_EQ(d.severity, Severity::kError);
      if (d.subject.rfind("dp", 0) == 0) named = true;
    }
  }
  EXPECT_TRUE(named) << "diagnostic must name the offending dp group";
}

TEST(PlanLints, HV101DowngradesToWarningUnderDeliberateFallback) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const ParallelGroups groups(ParallelConfig{1, 2, 16},
                              swapped_order(32, 0, 16));
  PlanView view;
  view.groups = &groups;
  view.per_group_transport = false;
  view.ethernet_fallback = true;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDpGroupTransport));
  EXPECT_TRUE(report.ok());  // warning, not error: the cost is deliberate
}

TEST(PlanLints, HV101IgnoresEthernetOnlyGroups) {
  const Topology topo = Topology::homogeneous(2, NicType::kEthernet);
  const ParallelGroups groups(ParallelConfig{1, 2, 8});
  PlanView view;
  view.groups = &groups;
  view.per_group_transport = true;
  const LintReport report = lint_plan(topo, view);
  // Ethernet is the best these members have; nothing was lost.
  EXPECT_FALSE(report.fired(kRuleDpGroupTransport));
}

// ---- HV102 tp-group-locality ----

TEST(PlanLints, HV102ErrorWhenTensorGroupSpansNodes) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const ParallelGroups groups(ParallelConfig{8, 2, 1},
                              swapped_order(16, 0, 8));
  PlanView view;
  view.groups = &groups;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleTpGroupLocality));
  EXPECT_FALSE(report.ok());
}

TEST(PlanLints, HV102CleanOnNodeLocalTensorGroups) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const ParallelGroups groups(ParallelConfig{8, 2, 1});
  PlanView view;
  view.groups = &groups;
  const LintReport report = lint_plan(topo, view);
  EXPECT_FALSE(report.fired(kRuleTpGroupLocality));
  EXPECT_TRUE(report.ok());
}

// ---- HV103 dp-cluster-crossing ----

TEST(PlanLints, HV103WarnsWhenDpGroupCrossesClusters) {
  const Topology topo = Topology::hybrid_two_clusters(1);
  const ParallelGroups groups(ParallelConfig{1, 1, 16});  // one giant DP group
  PlanView view;
  view.groups = &groups;
  view.ethernet_fallback = true;  // keep HV101 at warning severity
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDpClusterCrossing));
  EXPECT_EQ(report.count(Severity::kError), 0u);
}

// ---- HV107 degrees-consistent ----

TEST(PlanLints, HV107ErrorOnWorldSizeMismatch) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);  // 16
  const ParallelGroups groups(ParallelConfig{1, 1, 8});                 // 8
  PlanView view;
  view.groups = &groups;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDegreesConsistent));
  EXPECT_FALSE(report.ok());
}

TEST(PlanLints, HV107ErrorWhenTensorDegreeDoesNotDivideNode) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 6);
  const ParallelGroups groups(ParallelConfig{4, 1, 3});  // t=4 vs 6 GPUs/node
  PlanView view;
  view.groups = &groups;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDegreesConsistent));
}

TEST(PlanLints, HV107ErrorOnZeroMicroBatches) {
  const Topology topo = Topology::homogeneous(1, NicType::kInfiniBand);
  const ParallelGroups groups(ParallelConfig{1, 2, 4});
  PlanView view;
  view.groups = &groups;
  view.micro_batches = 0;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleDegreesConsistent));
}

TEST(PlanLints, HV107CleanOnConsistentDegrees) {
  const Topology topo = Topology::homogeneous(1, NicType::kInfiniBand);
  const ParallelGroups groups(ParallelConfig{1, 2, 4});
  PlanView view;
  view.groups = &groups;
  view.micro_batches = 8;
  const LintReport report = lint_plan(topo, view);
  EXPECT_FALSE(report.fired(kRuleDegreesConsistent));
  EXPECT_TRUE(report.ok());
}

// ---- HV104 partition-structure ----

struct PartitionFixture {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand);
  ParallelGroups groups{ParallelConfig{1, 2, 4}};
  model::TransformerConfig model = tiny_model();
  pipeline::StagePartition partition;
  std::vector<NicType> nics{NicType::kInfiniBand, NicType::kInfiniBand};

  PlanView view() {
    PlanView v;
    v.groups = &groups;
    v.partition = &partition;
    v.stage_nics = &nics;
    v.model = &model;
    return v;
  }
};

TEST(PlanLints, HV104CleanOnBalancedPartition) {
  PartitionFixture fx;
  fx.partition = {4, 4};
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_FALSE(report.fired(kRulePartitionStructure));
  EXPECT_TRUE(checked(report, kRulePartitionStructure));
}

TEST(PlanLints, HV104ErrorWhenLayerSumDisagreesWithModel) {
  PartitionFixture fx;
  fx.partition = {3, 4};  // 7 layers for an 8-layer model
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_TRUE(report.fired(kRulePartitionStructure));
  EXPECT_FALSE(report.ok());
}

TEST(PlanLints, HV104ErrorWhenSizeIsNotMultipleOfPipeline) {
  PartitionFixture fx;
  fx.partition = {4, 2, 2};  // 3 virtual stages on p=2
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_TRUE(report.fired(kRulePartitionStructure));
}

TEST(PlanLints, HV104ErrorOnEmptyStage) {
  PartitionFixture fx;
  fx.partition = {0, 8};
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_TRUE(report.fired(kRulePartitionStructure));
}

// ---- HV105 partition-speed-order ----

TEST(PlanLints, HV105WarnsWhenFasterNicStageGetsFewerLayers) {
  PartitionFixture fx;
  fx.partition = {3, 5};
  fx.nics = {NicType::kInfiniBand, NicType::kEthernet};  // Eq. (2) inverted
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_TRUE(report.fired(kRulePartitionSpeedOrder));
  EXPECT_TRUE(report.ok());  // warning only
}

TEST(PlanLints, HV105CleanWhenLayersFollowSpeeds) {
  PartitionFixture fx;
  fx.partition = {5, 3};
  fx.nics = {NicType::kInfiniBand, NicType::kEthernet};
  const LintReport report = lint_plan(fx.topo, fx.view());
  EXPECT_FALSE(report.fired(kRulePartitionSpeedOrder));
  EXPECT_TRUE(checked(report, kRulePartitionSpeedOrder));
}

TEST(PlanLints, HV105SkippedUnderGlobalFallback) {
  PartitionFixture fx;
  fx.partition = {3, 5};
  fx.nics = {NicType::kInfiniBand, NicType::kEthernet};
  PlanView view = fx.view();
  view.ethernet_fallback = true;  // all stages ride Ethernet; order is moot
  const LintReport report = lint_plan(fx.topo, view);
  EXPECT_FALSE(checked(report, kRulePartitionSpeedOrder));
}

// ---- HV106 memory-fit ----

TEST(PlanLints, HV106ErrorWhenEstimateExceedsBudget) {
  PartitionFixture fx;
  fx.model.hidden = 16384;  // 4 such layers hold ~13B parameters
  fx.model.heads = 128;
  fx.partition = {4, 4};
  // Each stage as HV106 estimates it (t = 1, a micro-batch of 1, two in
  // flight for p = 2, no sharding) is well past the 80 GiB device memory.
  ASSERT_GT(model::estimate_device_memory(fx.model, 4, 1, 1, 2, 1).total(),
            model::kDeviceMemory);
  PlanView view = fx.view();
  view.micro_batch_size = 1;
  const LintReport report = lint_plan(fx.topo, view);
  EXPECT_TRUE(report.fired(kRuleMemoryFit));
  EXPECT_FALSE(report.ok());
}

TEST(PlanLints, HV106CleanWhenTinyModelFitsTheDefaultBudget) {
  PartitionFixture fx;
  fx.partition = {4, 4};
  PlanView view = fx.view();
  view.micro_batch_size = 1;
  const LintReport report = lint_plan(fx.topo, view);
  EXPECT_FALSE(report.fired(kRuleMemoryFit));
  EXPECT_TRUE(checked(report, kRuleMemoryFit));
}

TEST(PlanLints, HV106SkippedWithoutMicroBatchSize) {
  PartitionFixture fx;
  fx.partition = {4, 4};
  PlanView view = fx.view();
  view.micro_batch_size = 0;
  const LintReport report = lint_plan(fx.topo, view);
  EXPECT_FALSE(checked(report, kRuleMemoryFit));
}

// ---- HV108 needless-fallback ----

TEST(PlanLints, HV108WarnsOnFallbackInHomogeneousRdmaCluster) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const ParallelGroups groups(ParallelConfig{1, 2, 8});
  PlanView view;
  view.groups = &groups;
  view.ethernet_fallback = true;
  const LintReport report = lint_plan(topo, view);
  EXPECT_TRUE(report.fired(kRuleNeedlessFallback));
  EXPECT_TRUE(report.ok());
}

TEST(PlanLints, HV108SilentWhenFallbackIsJustified) {
  const Topology hybrid = Topology::hybrid_two_clusters(2);
  const ParallelGroups on_hybrid(ParallelConfig{1, 2, 16});
  PlanView view;
  view.groups = &on_hybrid;
  view.ethernet_fallback = true;
  EXPECT_FALSE(lint_plan(hybrid, view).fired(kRuleNeedlessFallback));

  const Topology eth = Topology::homogeneous(2, NicType::kEthernet);
  const ParallelGroups on_eth(ParallelConfig{1, 2, 8});
  PlanView eth_view;
  eth_view.groups = &on_eth;
  eth_view.ethernet_fallback = true;
  EXPECT_FALSE(lint_plan(eth, eth_view).fired(kRuleNeedlessFallback));
}

}  // namespace
}  // namespace holmes::verify
