#include "verify/flow_lints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "model/memory.h"
#include "sim/executor.h"
#include "sim/task_graph.h"
#include "verify/rules.h"

namespace holmes::verify {
namespace {

using sim::ResourceId;
using sim::SimResult;
using sim::TaskGraph;
using sim::TaskGraphExecutor;
using sim::TaskId;
using sim::TaskTiming;

bool checked(const LintReport& report, const char* rule) {
  const auto& rules = report.rules_checked();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/// Two devices, a chained compute -> transfer -> compute, plus independent
/// work on gpu1 — enough structure for every flow quantity to be non-zero.
struct SmallGraph {
  TaskGraph graph;
  ResourceId gpu0, gpu1, tx, rx;
  TaskId a, move, b, extra;

  SmallGraph() {
    gpu0 = graph.add_resource("gpu0.compute");
    gpu1 = graph.add_resource("gpu1.compute");
    tx = graph.add_resource("gpu0.ib.tx");
    rx = graph.add_resource("gpu1.ib.rx");
    a = graph.add_compute(gpu0, 1.0, "fwd0");
    move = graph.add_transfer(tx, rx, Bytes{1000}, 1e3, 0.5, "act");
    graph.add_dep(move, a);
    b = graph.add_compute(gpu1, 2.0, "fwd1");
    graph.add_dep(b, move);
    extra = graph.add_compute(gpu1, 0.5, "other1");
  }
};

// ---- analyze_flow ----

TEST(FlowAnalysis, ChainAndResourceBounds) {
  SmallGraph fx;
  const FlowAnalysis flow = analyze_flow(fx.graph);
  ASSERT_TRUE(flow.valid);
  // Chain: fwd0 (1.0) + transfer (1000/1e3 + 0.5) + fwd1 (2.0).
  EXPECT_DOUBLE_EQ(flow.chain_bound_s, 1.0 + 1.5 + 2.0);
  ASSERT_EQ(flow.chain.size(), 3u);
  EXPECT_EQ(flow.chain.front(), fx.a);
  EXPECT_EQ(flow.chain.back(), fx.b);
  // Busiest resource: gpu1 with 2.0 + 0.5 aggregate compute.
  EXPECT_EQ(flow.busiest_resource, fx.gpu1);
  EXPECT_DOUBLE_EQ(flow.resource_bound_s, 2.5);
  EXPECT_DOUBLE_EQ(flow.makespan_bound_s, flow.chain_bound_s);
  // Watermark: 1000 bytes live at the gpu1.ib endpoint.
  ASSERT_EQ(flow.watermarks.size(), 1u);
  EXPECT_EQ(flow.watermarks[0].endpoint, "gpu1.ib");
  EXPECT_EQ(flow.watermarks[0].peak_bytes, Bytes{1000});
}

TEST(FlowAnalysis, ChainTailFollowsLifoAscendingTopologicalOrder) {
  // Equal-length chains tie; the chain ends at the first tail the
  // topological order reaches. The frontier is LIFO and a task releases its
  // dependents in ascending id (not edge-declaration) order, so task 3 is
  // reached before task 2 and task 1 before task 0.
  TaskGraph graph;
  const ResourceId r = graph.add_resource("gpu0.compute");
  for (int k = 0; k < 4; ++k) graph.add_compute(r, 1.0);
  graph.add_dep(3, 0);
  graph.add_dep(2, 0);
  const FlowAnalysis flow = analyze_flow(graph);
  ASSERT_TRUE(flow.valid);
  EXPECT_DOUBLE_EQ(flow.chain_bound_s, 2.0);
  EXPECT_EQ(flow.chain, (std::vector<TaskId>{0, 3}));
}

TEST(FlowAnalysis, InvalidOnCyclicGraph) {
  TaskGraph graph;
  const ResourceId r = graph.add_resource("gpu0.compute");
  const TaskId x = graph.add_compute(r, 1.0);
  const TaskId y = graph.add_compute(r, 1.0);
  graph.add_dep(x, y);
  graph.add_dep(y, x);
  EXPECT_FALSE(analyze_flow(graph).valid);
}

TEST(FlowAnalysis, WatermarksSortByEndpointName) {
  // Twelve unnamed resources (r0..r11): name order puts r1 < r10 < r2.
  std::vector<sim::Task> tasks(3);
  std::vector<sim::TaskInfo> infos(3);
  const ResourceId dst[] = {2, 10, 1};
  const Bytes bytes[] = {700, 100, 50};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].kind = sim::TaskKind::kTransfer;
    tasks[i].resource = 0;
    tasks[i].dst_port = dst[i];
    tasks[i].cost = static_cast<double>(bytes[i]) / 1e3;
    infos[i].bytes = bytes[i];
    infos[i].bandwidth = 1e3;
  }
  const FlowAnalysis flow = analyze_flow(TaskSetRef{&tasks, &infos, 12, 0});
  ASSERT_TRUE(flow.valid);
  std::vector<std::pair<std::string, Bytes>> watermarks;
  for (const auto& wm : flow.watermarks) {
    watermarks.emplace_back(wm.endpoint, wm.peak_bytes);
  }
  EXPECT_EQ(watermarks, (std::vector<std::pair<std::string, Bytes>>{
                            {"r1", 50}, {"r10", 100}, {"r2", 700}}));
}

TEST(FlowAnalysis, WatermarkCollapsesTxAndRxPortsIntoOneEndpoint) {
  TaskGraph graph;
  for (int k = 0; k < 12; ++k) {
    graph.add_resource("gpu" + std::to_string(k) + ".ib.tx");
    graph.add_resource("gpu" + std::to_string(k) + ".ib.rx");
  }
  const ResourceId tx2 = 4, rx2 = 5, tx10 = 20, rx10 = 21;
  // Both of gpu2's ports receive, and a sink keeps both buffers live at
  // once: one endpoint holds 300 + 200 bytes.
  const TaskId a = graph.add_transfer(tx10, rx2, Bytes{300}, 1e3, 0);
  const TaskId b = graph.add_transfer(rx10, tx2, Bytes{200}, 1e3, 0);
  const TaskId c = graph.add_transfer(tx2, rx10, Bytes{100}, 1e3, 0);
  const TaskId sink = graph.add_noop("sink");
  graph.add_deps(sink, {a, b, c});
  const FlowAnalysis flow = analyze_flow(graph);
  ASSERT_TRUE(flow.valid);
  ASSERT_EQ(flow.watermarks.size(), 2u);
  EXPECT_EQ(flow.watermarks[0].endpoint, "gpu10.ib");
  EXPECT_EQ(flow.watermarks[0].peak_bytes, Bytes{100});
  EXPECT_EQ(flow.watermarks[1].endpoint, "gpu2.ib");
  EXPECT_EQ(flow.watermarks[1].peak_bytes, Bytes{500});
}

TEST(FlowAnalysis, WatermarkFreesABufferPastItsLastConsumer) {
  // The first 500 bytes are consumed by the noop at position 1, so they are
  // free by position 2, where the next 300 bytes arrive: the peak is 500,
  // not 800.
  TaskGraph graph;
  const ResourceId tx = graph.add_resource("gpu0.ib.tx");
  const ResourceId rx = graph.add_resource("gpu1.ib.rx");
  const TaskId first = graph.add_transfer(tx, rx, Bytes{500}, 1e3, 0);
  const TaskId consume = graph.add_noop("consume");
  graph.add_dep(consume, first);
  const TaskId second = graph.add_transfer(tx, rx, Bytes{300}, 1e3, 0);
  graph.add_dep(second, consume);
  const FlowAnalysis flow = analyze_flow(graph);
  ASSERT_EQ(flow.watermarks.size(), 1u);
  EXPECT_EQ(flow.watermarks[0].endpoint, "gpu1.ib");
  EXPECT_EQ(flow.watermarks[0].peak_bytes, Bytes{500});
}

// ---- HV401 flow-chain-bound ----

TEST(FlowLints, HV401CleanOnExecutedGraph) {
  SmallGraph fx;
  const SimResult result = TaskGraphExecutor{}.run(fx.graph);
  const LintReport report = lint_flow(fx.graph, result);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(checked(report, kRuleFlowChainBound));
  EXPECT_TRUE(checked(report, kRuleFlowResourceBound));
}

TEST(FlowLints, HV401ErrorWhenMakespanBeatsTheChain) {
  SmallGraph fx;
  const std::size_t n = fx.graph.task_count();
  // A fabricated result claiming everything finished instantly: the chain
  // bound (4.5 s) proves it impossible.
  const SimResult impossible(std::vector<TaskTiming>(n, {0.0, 0.0}),
                             std::vector<SimTime>(fx.graph.resource_count(), 0),
                             /*makespan=*/0.0);
  const LintReport report = lint_flow(fx.graph, impossible);
  EXPECT_TRUE(report.fired(kRuleFlowChainBound));
  EXPECT_FALSE(report.ok());
}

// ---- HV402 flow-resource-bound ----

TEST(FlowLints, HV402ErrorWhenBusyAccountingDisagrees) {
  SmallGraph fx;
  const SimResult result = TaskGraphExecutor{}.run(fx.graph);
  // Re-use the true timings but claim every resource idled: the static
  // aggregate (e.g. gpu1's 2.5 s) disagrees with the accounted busy time.
  SimResult cooked(std::vector<TaskTiming>(result.timings()),
                   std::vector<SimTime>(fx.graph.resource_count(), 0.0),
                   result.makespan());
  const LintReport report = lint_flow(fx.graph, cooked);
  EXPECT_TRUE(report.fired(kRuleFlowResourceBound));
}

TEST(FlowLints, HV402SkippedWithoutExecutedTimings) {
  SmallGraph fx;
  const LintReport report = lint_flow(as_ref(fx.graph), nullptr);
  EXPECT_FALSE(checked(report, kRuleFlowChainBound));
  EXPECT_FALSE(checked(report, kRuleFlowResourceBound));
  EXPECT_TRUE(report.ok());
}

// ---- HV403 flow-memory-watermark ----

/// One transfer of `bytes` into gpu1's InfiniBand endpoint.
TaskGraph receive_graph(Bytes bytes) {
  TaskGraph graph;
  const ResourceId tx = graph.add_resource("gpu0.ib.tx");
  const ResourceId rx = graph.add_resource("gpu1.ib.rx");
  graph.add_transfer(tx, rx, bytes, 25e9, 0, "act");
  return graph;
}

TEST(FlowLints, HV403WarningOverBufferBudget) {
  // One byte past the 80 GiB device memory.
  const TaskGraph graph = receive_graph(model::kDeviceMemory + 1);
  const LintReport report = lint_flow(as_ref(graph), nullptr);
  EXPECT_TRUE(checked(report, kRuleFlowMemoryWatermark));
  EXPECT_TRUE(report.fired(kRuleFlowMemoryWatermark));
  EXPECT_TRUE(report.ok());  // warning, not error
}

TEST(FlowLints, HV403CleanUpToTheDeviceMemory) {
  SmallGraph fx;
  const LintReport small = lint_flow(as_ref(fx.graph), nullptr);
  EXPECT_TRUE(checked(small, kRuleFlowMemoryWatermark));
  EXPECT_FALSE(small.fired(kRuleFlowMemoryWatermark));
  // Exactly the device memory in flight still fits.
  const TaskGraph full = receive_graph(model::kDeviceMemory);
  EXPECT_FALSE(
      lint_flow(as_ref(full), nullptr).fired(kRuleFlowMemoryWatermark));
}

// ---- HV404 channel-cut-balance ----

/// Closed two-endpoint channel crossing a cluster cut; `back_bytes` tunes
/// the balance.
TaskGraph cut_graph(Bytes back_bytes) {
  TaskGraph graph;
  const ResourceId tx0 = graph.add_resource("gpu0.eth.tx");
  const ResourceId rx0 = graph.add_resource("gpu0.eth.rx");
  const ResourceId tx1 = graph.add_resource("gpu1.eth.tx");
  const ResourceId rx1 = graph.add_resource("gpu1.eth.rx");
  const sim::ChannelId ch = graph.channel("dp0");
  graph.add_transfer(tx0, rx1, Bytes{1000}, 1e9, 0, "fwd", sim::kUntagged, ch);
  graph.add_transfer(tx1, rx0, back_bytes, 1e9, 0, "bwd", sim::kUntagged, ch);
  return graph;
}

FlowLintOptions cut_options() {
  FlowLintOptions options;
  options.resource_cluster = {0, 0, 1, 1};  // gpu0 ports / gpu1 ports
  return options;
}

TEST(FlowLints, HV404CleanOnBalancedCut) {
  const TaskGraph graph = cut_graph(Bytes{1000});
  const LintReport report = lint_flow(as_ref(graph), nullptr, cut_options());
  EXPECT_TRUE(checked(report, kRuleChannelCutBalance));
  EXPECT_FALSE(report.fired(kRuleChannelCutBalance));
}

TEST(FlowLints, HV404WarningOnUnbalancedCut) {
  const TaskGraph graph = cut_graph(Bytes{250});
  const LintReport report = lint_flow(as_ref(graph), nullptr, cut_options());
  EXPECT_TRUE(report.fired(kRuleChannelCutBalance));
  EXPECT_TRUE(report.ok());  // warning severity
}

TEST(FlowLints, HV404SkippedWithoutClusterMap) {
  const TaskGraph graph = cut_graph(Bytes{250});
  const LintReport report = lint_flow(as_ref(graph), nullptr);
  EXPECT_FALSE(checked(report, kRuleChannelCutBalance));
}

TEST(FlowLints, PrecomputedAnalysisGivesTheSameReport) {
  TaskGraph graph = cut_graph(Bytes{250});
  // Off the channel, past the device memory: HV403 fires as well.
  graph.add_transfer(0, 3, model::kDeviceMemory + 1, 1e9, 0, "spill");
  const SimResult result = TaskGraphExecutor{}.run(graph);
  const FlowLintOptions options = cut_options();
  const TaskSetRef view = as_ref(graph);
  const LintReport direct = lint_flow(view, &result, options);
  const LintReport reused =
      lint_flow(view, analyze_flow(view), &result, options);
  EXPECT_TRUE(direct.fired(kRuleChannelCutBalance));
  EXPECT_TRUE(direct.fired(kRuleFlowMemoryWatermark));
  EXPECT_EQ(reused.rules_checked(), direct.rules_checked());
  ASSERT_EQ(reused.diagnostics().size(), direct.diagnostics().size());
  for (std::size_t i = 0; i < direct.diagnostics().size(); ++i) {
    EXPECT_EQ(reused.diagnostics()[i].rule, direct.diagnostics()[i].rule);
    EXPECT_EQ(reused.diagnostics()[i].subject, direct.diagnostics()[i].subject);
    EXPECT_EQ(reused.diagnostics()[i].message, direct.diagnostics()[i].message);
  }
}

}  // namespace
}  // namespace holmes::verify
