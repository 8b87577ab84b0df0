#include "verify/graph_lints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"
#include "verify/rules.h"

namespace holmes::verify {
namespace {

using sim::ResourceId;
using sim::SimResult;
using sim::Task;
using sim::TaskGraph;
using sim::TaskGraphExecutor;
using sim::TaskId;
using sim::TaskKind;
using sim::TaskTiming;

bool checked(const LintReport& report, const char* rule) {
  const auto& rules = report.rules_checked();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/// Raw-task fixtures: task sets the TaskGraph API would refuse to build.
struct RawTask {
  Task task;
  std::vector<TaskId> deps;
};

/// Owns a raw fixture: the tasks plus their dependencies, parallel per task.
struct RawTasks {
  std::vector<Task> tasks;
  std::vector<std::vector<TaskId>> deps;

  RawTasks(std::initializer_list<RawTask> items = {}) {
    for (const RawTask& t : items) push_back(t);
  }
  void push_back(const RawTask& t) {
    tasks.push_back(t.task);
    deps.push_back(t.deps);
  }
};

RawTask compute(ResourceId resource, SimTime duration,
                std::vector<TaskId> deps = {}) {
  Task task;
  task.kind = TaskKind::kCompute;
  task.resource = resource;
  task.duration = duration;
  return {task, std::move(deps)};
}

RawTask transfer(ResourceId src, ResourceId dst, Bytes bytes, double bandwidth,
                 SimTime latency, sim::ChannelId channel = sim::kInvalidChannel,
                 std::vector<TaskId> deps = {}) {
  Task task;
  task.kind = TaskKind::kTransfer;
  task.src_port = src;
  task.dst_port = dst;
  task.bytes = bytes;
  task.bandwidth = bandwidth;
  task.latency = latency;
  task.channel = channel;
  return {task, std::move(deps)};
}

TaskSetRef raw(const RawTasks& fixture, std::size_t resources,
               std::size_t channels = 0) {
  return TaskSetRef{&fixture.tasks, resources, channels, nullptr,
                    &fixture.deps};
}

/// A small well-formed graph: two devices computing, one transfer between
/// them over a channel, everything properly chained.
struct GoodGraph {
  TaskGraph graph;
  ResourceId gpu0, gpu1, tx, rx;
  GraphLintOptions options;

  GoodGraph() {
    gpu0 = graph.add_resource("gpu0.compute");
    gpu1 = graph.add_resource("gpu1.compute");
    tx = graph.add_resource("gpu0.ib.tx");
    rx = graph.add_resource("gpu1.ib.rx");
    const TaskId a = graph.add_compute(gpu0, 1.0, "fwd0");
    const TaskId move = graph.add_transfer(tx, rx, 1000, 1e9, 1e-6, "act",
                                           sim::kUntagged, graph.channel("pp"));
    graph.add_dep(move, a);
    const TaskId b = graph.add_compute(gpu1, 2.0, "fwd1");
    graph.add_dep(b, move);
    options.serial_programs = {gpu0, gpu1};
  }
};

// ---- HV201 graph-acyclic / HV202 deps-valid ----

TEST(GraphLints, CleanOnWellFormedGraph) {
  GoodGraph fx;
  const LintReport report = lint_graph(fx.graph, fx.options);
  EXPECT_TRUE(report.clean());
  for (const char* rule : {kRuleGraphAcyclic, kRuleDepsValid, kRuleTaskFields,
                           kRuleSerialOrder, kRuleChannelConservation}) {
    EXPECT_TRUE(checked(report, rule)) << rule;
  }
}

TEST(GraphLints, HV201ErrorOnDependencyCycle) {
  const RawTasks tasks = {compute(0, 1.0, {1}), compute(0, 1.0, {0})};
  const LintReport report = lint_graph(raw(tasks, 1));
  EXPECT_TRUE(report.fired(kRuleGraphAcyclic));
  EXPECT_FALSE(report.ok());
}

TEST(GraphLints, HV202ErrorOnDanglingDependency) {
  const RawTasks tasks = {compute(0, 1.0, {7})};
  const LintReport report = lint_graph(raw(tasks, 1));
  EXPECT_TRUE(report.fired(kRuleDepsValid));
  // Broken ids gate the reachability passes — they must not run (or crash).
  EXPECT_FALSE(checked(report, kRuleGraphAcyclic));
}

TEST(GraphLints, HV202ErrorOnSelfDependency) {
  const RawTasks tasks = {compute(0, 1.0, {0})};
  const LintReport report = lint_graph(raw(tasks, 1));
  EXPECT_TRUE(report.fired(kRuleDepsValid));
}

// ---- HV203 task-fields ----

TEST(GraphLints, HV203ErrorOnUnknownResourceAndNegativeDuration) {
  const RawTasks tasks = {compute(5, 1.0), compute(0, -2.0)};
  const LintReport report = lint_graph(raw(tasks, 1));
  EXPECT_TRUE(report.fired(kRuleTaskFields));
  EXPECT_EQ(report.count(Severity::kError), 2u);
}

TEST(GraphLints, HV203ErrorOnBrokenTransferFields) {
  const RawTasks tasks = {
      transfer(0, 0, 100, 1e9, 0),    // TX == RX port
      transfer(0, 1, 100, 0, 0),      // bytes but no bandwidth
      transfer(0, 1, -5, 1e9, 0),     // negative bytes
      transfer(0, 1, 100, 1e9, -1),   // negative latency
      transfer(0, 1, 100, 1e9, 0, 3)  // unknown channel (only 1 registered)
  };
  const LintReport report = lint_graph(raw(tasks, 2, 1));
  EXPECT_TRUE(report.fired(kRuleTaskFields));
  EXPECT_GE(report.count(Severity::kError), 5u);
}

TEST(GraphLints, HV203CapsDiagnosticsPerRule) {
  RawTasks tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back(compute(9, 1.0));
  GraphLintOptions options;
  options.max_diagnostics_per_rule = 3;
  const LintReport report = lint_graph(raw(tasks, 1), options);
  EXPECT_EQ(report.count(Severity::kError), 3u);
}

// ---- HV204 serial-order ----

TEST(GraphLints, HV204ErrorWhenProgramOrderConflictsWithDeps) {
  // Task 0 is issued first on the device but depends on task 1 — an
  // in-order issue engine would deadlock even though deps alone are acyclic.
  const RawTasks tasks = {compute(0, 1.0, {1}), compute(0, 1.0)};
  GraphLintOptions options;
  options.serial_programs = {0};
  const LintReport report = lint_graph(raw(tasks, 1), options);
  EXPECT_TRUE(report.fired(kRuleSerialOrder));
  EXPECT_FALSE(lint_graph(raw(tasks, 1)).fired(kRuleGraphAcyclic));
}

TEST(GraphLints, HV204SkippedWithoutDeclaredPrograms) {
  const RawTasks tasks = {compute(0, 1.0, {1}), compute(0, 1.0)};
  const LintReport report = lint_graph(raw(tasks, 1));
  EXPECT_FALSE(checked(report, kRuleSerialOrder));
}

// ---- HV205 channel-conservation ----

TEST(GraphLints, HV205WarnsOnImbalancedClosedChannel) {
  const RawTasks tasks = {transfer(0, 1, 100, 1e9, 0, 0),
                                   transfer(1, 0, 40, 1e9, 0, 0)};
  const LintReport report = lint_graph(raw(tasks, 2, 1));
  EXPECT_TRUE(report.fired(kRuleChannelConservation));
  EXPECT_TRUE(report.ok());  // warning severity
}

TEST(GraphLints, HV205CleanOnBalancedChannelAndSilentOnOpenOnes) {
  const RawTasks balanced = {transfer(0, 1, 100, 1e9, 0, 0),
                                      transfer(1, 0, 100, 1e9, 0, 0)};
  EXPECT_FALSE(
      lint_graph(raw(balanced, 2, 1)).fired(kRuleChannelConservation));
  // One-directional (open) channels carry no conservation claim.
  const RawTasks open = {transfer(0, 1, 100, 1e9, 0, 0)};
  EXPECT_FALSE(lint_graph(raw(open, 2, 1)).fired(kRuleChannelConservation));
}

// ---- HV301..HV303 execution lints ----

TEST(ExecutionLints, CleanOnRealExecutorRun) {
  GoodGraph fx;
  const SimResult result = TaskGraphExecutor{}.run(fx.graph);
  const LintReport report = lint_execution(fx.graph, result, fx.options);
  EXPECT_TRUE(report.clean());
  for (const char* rule :
       {kRuleTimingMonotone, kRuleResourceExclusive, kRuleResultComplete}) {
    EXPECT_TRUE(checked(report, rule)) << rule;
  }
}

TEST(ExecutionLints, HV301ErrorWhenSpanDisagreesWithDuration) {
  const RawTasks tasks = {compute(0, 1.0)};
  const SimResult result({{0.0, 0.5}}, {0.5}, 0.5);
  const LintReport report = lint_execution(raw(tasks, 1), result);
  EXPECT_TRUE(report.fired(kRuleTimingMonotone));
}

TEST(ExecutionLints, HV301ErrorWhenTaskStartsBeforeDependencyFinished) {
  const RawTasks tasks = {compute(0, 1.0), compute(1, 1.0, {0})};
  const SimResult result({{0.0, 1.0}, {0.5, 1.5}}, {1.0, 1.0}, 1.5);
  const LintReport report = lint_execution(raw(tasks, 2), result);
  EXPECT_TRUE(report.fired(kRuleTimingMonotone));
}

TEST(ExecutionLints, HV301ErrorOnNegativeStart) {
  const RawTasks tasks = {compute(0, 1.0)};
  const SimResult result({{-1.0, 0.0}}, {1.0}, 0.0);
  EXPECT_TRUE(
      lint_execution(raw(tasks, 1), result).fired(kRuleTimingMonotone));
}

TEST(ExecutionLints, HV302ErrorOnOverlappingSerialResource) {
  const RawTasks tasks = {compute(0, 1.0), compute(0, 1.0)};
  const SimResult result({{0.0, 1.0}, {0.5, 1.5}}, {2.0}, 1.5);
  const LintReport report = lint_execution(raw(tasks, 1), result);
  EXPECT_TRUE(report.fired(kRuleResourceExclusive));
}

TEST(ExecutionLints, HV302PortOccupancyExcludesPropagationLatency) {
  // Two back-to-back transfers on the same ports: the second starts when
  // serialization of the first ends, while the first's *finish* (including
  // latency) is later. That is legal — ports are held for serialization
  // only.
  const RawTasks tasks = {transfer(0, 1, 1000, 1e3, 0.5),
                                   transfer(0, 1, 1000, 1e3, 0.5)};
  const SimResult result({{0.0, 1.5}, {1.0, 2.5}}, {2.0, 2.0}, 2.5);
  const LintReport report = lint_execution(raw(tasks, 2), result);
  EXPECT_FALSE(report.fired(kRuleResourceExclusive));
  EXPECT_FALSE(report.fired(kRuleTimingMonotone));
}

TEST(ExecutionLints, HV303ErrorOnMissingTimings) {
  const RawTasks tasks = {compute(0, 1.0), compute(0, 1.0)};
  const SimResult result({{0.0, 1.0}}, {1.0}, 1.0);
  const LintReport report = lint_execution(raw(tasks, 1), result);
  EXPECT_TRUE(report.fired(kRuleResultComplete));
  // Per-task passes cannot run over a truncated result.
  EXPECT_FALSE(checked(report, kRuleTimingMonotone));
  EXPECT_FALSE(checked(report, kRuleResourceExclusive));
}

TEST(ExecutionLints, HV303ErrorOnMakespanMismatch) {
  const RawTasks tasks = {compute(0, 1.0)};
  const SimResult result({{0.0, 1.0}}, {1.0}, 7.0);
  EXPECT_TRUE(
      lint_execution(raw(tasks, 1), result).fired(kRuleResultComplete));
}

}  // namespace
}  // namespace holmes::verify
