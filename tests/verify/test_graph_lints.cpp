#include "verify/graph_lints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"
#include "util/rng.h"
#include "verify/flow_lints.h"
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
  sim::TaskInfo info;
  std::vector<TaskId> deps;
  std::string label;
};

/// Owns a raw fixture: the task records plus their reader-only fields,
/// dependencies and labels, parallel per task.
struct RawTasks {
  std::vector<Task> tasks;
  std::vector<sim::TaskInfo> infos;
  std::vector<std::vector<TaskId>> deps;
  std::vector<std::string> labels;

  RawTasks(std::initializer_list<RawTask> items = {}) {
    for (const RawTask& t : items) push_back(t);
  }
  void push_back(const RawTask& t) {
    tasks.push_back(t.task);
    infos.push_back(t.info);
    deps.push_back(t.deps);
    labels.push_back(t.label);
  }
};

/// A compute record as add_compute writes it: the resource in both slots,
/// the duration as the cost.
RawTask compute(ResourceId resource, SimTime duration,
                std::vector<TaskId> deps = {}) {
  Task task;
  task.kind = TaskKind::kCompute;
  task.resource = resource;
  task.dst_port = resource;
  task.cost = duration;
  return {task, {}, std::move(deps), {}};
}

RawTask labeled(RawTask t, std::string label) {
  t.label = std::move(label);
  return t;
}

/// A transfer record as add_transfer writes it, minus its checks: the TX
/// port as the resource, bytes / bandwidth as the cost (0 when either is
/// not positive), and bytes, bandwidth and channel in its info.
RawTask transfer(ResourceId src, ResourceId dst, Bytes bytes, double bandwidth,
                 SimTime latency, sim::ChannelId channel = sim::kInvalidChannel,
                 std::vector<TaskId> deps = {}) {
  Task task;
  task.kind = TaskKind::kTransfer;
  task.resource = src;
  task.dst_port = dst;
  task.cost = bytes > 0 && bandwidth > 0
                  ? static_cast<double>(bytes) / bandwidth
                  : 0.0;
  task.latency = latency;
  sim::TaskInfo info;
  info.bytes = bytes;
  info.bandwidth = bandwidth;
  info.channel = channel;
  return {task, info, std::move(deps), {}};
}

TaskSetRef raw(const RawTasks& fixture, std::size_t resources,
               std::size_t channels = 0) {
  return TaskSetRef{&fixture.tasks, &fixture.infos, resources, channels,
                    nullptr,        &fixture.deps,   &fixture.labels};
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

TEST(GraphLints, HV203ErrorOnComputeClaimingASecondResource) {
  // The executor places a compute on its resource and its dst_port alike,
  // so a record naming another resource there would occupy that one too.
  RawTask claims_two = compute(0, 1.0);
  claims_two.task.dst_port = 1;
  const RawTasks tasks = {claims_two, compute(1, 1.0)};
  const LintReport report = lint_graph(raw(tasks, 2));
  ASSERT_EQ(report.count(Severity::kError), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, kRuleTaskFields);
  EXPECT_EQ(report.diagnostics()[0].subject, "task 0");
  EXPECT_EQ(report.diagnostics()[0].message,
            "compute task also claims resource 1");
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

/// Two programs, a1 -> a2 on resource 0 and b1 -> b2 on resource 1, where
/// a1 waits for b2 and b1 waits for a2: the deps alone are acyclic and
/// neither program alone deadlocks, but together they form the cycle
/// a1 -> a2 -> b1 -> b2 -> a1.
RawTasks interleaved_programs() {
  return {labeled(compute(0, 1.0, {3}), "a1"),
          labeled(compute(1, 1.0, {2}), "b1"), labeled(compute(0, 1.0), "a2"),
          labeled(compute(1, 1.0), "b2")};
}

const Diagnostic* find_rule(const LintReport& report, const char* rule) {
  for (const Diagnostic& diag : report.diagnostics()) {
    if (diag.rule == rule) return &diag;
  }
  return nullptr;
}

TEST(GraphLints, HV204ErrorOnInterleavedTwoProgramDeadlock) {
  const RawTasks tasks = interleaved_programs();
  GraphLintOptions options;
  options.serial_programs = {0, 1};
  const LintReport report = lint_graph(raw(tasks, 2), options);
  EXPECT_FALSE(report.fired(kRuleGraphAcyclic));
  const Diagnostic* diag = find_rule(report, kRuleSerialOrder);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message,
            "declared program order conflicts with the dependency structure: "
            "4 tasks deadlock under in-order issue (task 0 'a1', task 1 'b1', "
            "task 2 'a2', task 3 'b2')");
  for (const ResourceId program : {0, 1}) {
    options.serial_programs = {program};
    EXPECT_FALSE(lint_graph(raw(tasks, 2), options).fired(kRuleSerialOrder))
        << "program " << program << " alone";
  }
}

TEST(GraphLints, HV204IgnoresDuplicateAndUnknownProgramIds) {
  const RawTasks tasks = interleaved_programs();
  GraphLintOptions options;
  options.serial_programs = {0, 1};
  const LintReport reference = lint_graph(raw(tasks, 2), options);
  options.serial_programs = {1, 0, 1, 9, -1, 0};
  const LintReport report = lint_graph(raw(tasks, 2), options);
  ASSERT_EQ(report.diagnostics().size(), reference.diagnostics().size());
  for (std::size_t i = 0; i < report.diagnostics().size(); ++i) {
    EXPECT_EQ(report.diagnostics()[i].rule, reference.diagnostics()[i].rule);
    EXPECT_EQ(report.diagnostics()[i].subject,
              reference.diagnostics()[i].subject);
    EXPECT_EQ(report.diagnostics()[i].message,
              reference.diagnostics()[i].message);
  }
}

TEST(GraphLints, HV204ChainsTasksOnAnUnknownProgramResource) {
  // Resource 7 is unknown (HV203), but a program id naming it still chains
  // its compute tasks in creation order, and task 0 waits for task 1.
  const RawTasks tasks = {compute(7, 1.0, {1}), compute(7, 1.0)};
  GraphLintOptions options;
  options.serial_programs = {7, 7};
  const LintReport report = lint_graph(raw(tasks, 1), options);
  EXPECT_TRUE(report.fired(kRuleTaskFields));
  const Diagnostic* diag = find_rule(report, kRuleSerialOrder);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message,
            "declared program order conflicts with the dependency structure: "
            "2 tasks deadlock under in-order issue (task 0, task 1)");
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

TEST(GraphLints, HV205ReportsEndpointsInNameOrder) {
  // Twelve resources named r0..r11: a closed ring r2 -> r10 -> r1 -> r2
  // where every endpoint is unbalanced. Name order puts r10 before r2.
  const RawTasks tasks = {transfer(2, 10, 100, 1e9, 0, 0),
                          transfer(10, 1, 50, 1e9, 0, 0),
                          transfer(1, 2, 70, 1e9, 0, 0)};
  const LintReport report = lint_graph(raw(tasks, 12, 1));
  std::vector<std::string> messages;
  for (const Diagnostic& diag : report.diagnostics()) {
    if (diag.rule == kRuleChannelConservation) {
      EXPECT_EQ(diag.subject, "channel ch0");
      messages.push_back(diag.message);
    }
  }
  const std::string tail =
      " on a closed collective channel — bytes-in != bytes-out";
  EXPECT_EQ(messages,
            (std::vector<std::string>{
                "endpoint 'r1' transmitted 70 bytes but received 50" + tail,
                "endpoint 'r10' transmitted 50 bytes but received 100" + tail,
                "endpoint 'r2' transmitted 100 bytes but received 70" + tail}));
}

TEST(GraphLints, HV205CollapsesTxAndRxPortsIntoOneEndpoint) {
  // Each side's TX and RX ports are one endpoint that both sends and
  // receives, so the channel is closed; were the ports counted apart, every
  // "endpoint" would only send or only receive and the rule would not fire.
  TaskGraph graph;
  for (int k = 0; k < 12; ++k) {
    graph.add_resource("gpu" + std::to_string(k) + ".ib.tx");
    graph.add_resource("gpu" + std::to_string(k) + ".ib.rx");
  }
  const ResourceId tx2 = 4, rx2 = 5, tx10 = 20, rx10 = 21;
  ASSERT_EQ(graph.resource_name(tx10), "gpu10.ib.tx");
  const sim::ChannelId ch = graph.channel("dp0");
  graph.add_transfer(tx2, rx10, 1000, 1e9, 0, "send", sim::kUntagged, ch);
  graph.add_transfer(tx10, rx2, 400, 1e9, 0, "reply", sim::kUntagged, ch);
  const LintReport report = lint_graph(graph);
  std::vector<std::string> subjects;
  for (const Diagnostic& diag : report.diagnostics()) {
    ASSERT_EQ(diag.rule, kRuleChannelConservation);
    EXPECT_EQ(diag.subject, "channel dp0");
    subjects.push_back(
        diag.message.substr(0, diag.message.find(" transmitted")));
  }
  EXPECT_EQ(subjects, (std::vector<std::string>{"endpoint 'gpu10.ib'",
                                                "endpoint 'gpu2.ib'"}));
}

// ---- Oracle: HV201/HV204 stuck sets and the flow chain bound ----

/// Naive reference for Kahn's stuck set: sweep every task until nothing
/// changes, marking a task done once all its predecessors are done.
/// `program_pred[i]` is one extra predecessor (kInvalidTask for none).
std::vector<std::size_t> naive_stuck(const RawTasks& fixture,
                                     const std::vector<TaskId>& program_pred) {
  const std::size_t n = fixture.tasks.size();
  std::vector<bool> done(n, false);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      bool ready = program_pred[i] == sim::kInvalidTask ||
                   done[static_cast<std::size_t>(program_pred[i])];
      for (TaskId dep : fixture.deps[i]) {
        ready = ready && done[static_cast<std::size_t>(dep)];
      }
      if (ready) done[i] = changed = true;
    }
  }
  std::vector<std::size_t> stuck;
  for (std::size_t i = 0; i < n; ++i) {
    if (!done[i]) stuck.push_back(i);
  }
  return stuck;
}

/// The previous compute task on the same declared program, found by a
/// backwards scan per task.
std::vector<TaskId> naive_program_pred(
    const RawTasks& fixture, const std::vector<ResourceId>& programs) {
  std::vector<TaskId> pred(fixture.tasks.size(), sim::kInvalidTask);
  for (std::size_t i = 0; i < fixture.tasks.size(); ++i) {
    const Task& task = fixture.tasks[i];
    if (task.kind != TaskKind::kCompute ||
        std::find(programs.begin(), programs.end(), task.resource) ==
            programs.end()) {
      continue;
    }
    for (std::size_t j = i; j-- > 0;) {
      const Task& other = fixture.tasks[j];
      if (other.kind == TaskKind::kCompute && other.resource == task.resource) {
        pred[i] = static_cast<TaskId>(j);
        break;
      }
    }
  }
  return pred;
}

/// Longest declared-cost path ending at each task of an acyclic fixture,
/// by n rounds of relaxation over every task (a path has at most n tasks).
std::vector<double> naive_dist(const RawTasks& fixture) {
  const std::size_t n = fixture.tasks.size();
  std::vector<double> dist(n, 0.0);
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const Task& task = fixture.tasks[i];
      const sim::TaskInfo& info = fixture.infos[i];
      double longest = 0.0;
      for (TaskId dep : fixture.deps[i]) {
        longest = std::max(longest, dist[static_cast<std::size_t>(dep)]);
      }
      const double span =
          task.kind == TaskKind::kCompute
              ? task.cost
              : static_cast<double>(info.bytes) / info.bandwidth + task.latency;
      dist[i] = longest + span;
    }
  }
  return dist;
}

std::string stuck_message(const std::string& head, std::size_t count,
                          const std::string& tail,
                          const std::vector<std::size_t>& stuck) {
  std::string message = head + std::to_string(count) + tail + " (";
  for (std::size_t k = 0; k < stuck.size(); ++k) {
    if (k > 0) message += ", ";
    message += "task " + std::to_string(stuck[k]);
  }
  return message + ")";
}

TEST(GraphLintOracle, StuckSetsAndChainBoundMatchNaiveReference) {
  Rng rng(20240915);
  int cyclic = 0;
  int conflicting = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto resources = static_cast<std::size_t>(rng.uniform_int(2, 4));
    // Deps point from higher to lower rank in a random permutation, so they
    // are acyclic but may disagree with creation (program) order.
    std::vector<std::size_t> rank(n);
    for (std::size_t i = 0; i < n; ++i) rank[i] = i;
    for (std::size_t i = n; i-- > 1;) {
      std::swap(rank[i], rank[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(i)))]);
    }
    RawTasks fixture;
    for (std::size_t i = 0; i < n; ++i) {
      const auto resource = static_cast<ResourceId>(
          rng.uniform_int(0, static_cast<std::int64_t>(resources) - 1));
      fixture.push_back(
          rng.chance(0.7)
              ? compute(resource,
                        0.25 * static_cast<double>(rng.uniform_int(0, 8)))
              : transfer(0, 1, 100 * rng.uniform_int(0, 4), 400.0, 0.125));
      for (std::size_t j = 0; j < n; ++j) {
        if (rank[j] < rank[i] && rng.chance(0.25)) {
          fixture.deps[i].push_back(static_cast<TaskId>(j));
        }
      }
    }
    // Every third trial injects a back edge (a lower-ranked task waits for
    // a higher-ranked one), which may close a cycle.
    if (trial % 3 == 0) {
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (rank[a] < rank[b]) fixture.deps[a].push_back(static_cast<TaskId>(b));
      if (rank[b] < rank[a]) fixture.deps[b].push_back(static_cast<TaskId>(a));
    }
    GraphLintOptions options;
    options.max_diagnostics_per_rule = n + 1;  // list every stuck task
    for (std::size_t r = 0; r < resources; ++r) {
      if (rng.chance(0.6)) {
        options.serial_programs.push_back(static_cast<ResourceId>(r));
      }
    }
    const TaskSetRef view = raw(fixture, resources);
    const LintReport report = lint_graph(view, options);

    const std::vector<std::size_t> cycle =
        naive_stuck(fixture, std::vector<TaskId>(n, sim::kInvalidTask));
    const Diagnostic* acyclic = find_rule(report, kRuleGraphAcyclic);
    if (cycle.empty()) {
      EXPECT_EQ(acyclic, nullptr) << "trial " << trial;
    } else {
      ++cyclic;
      ASSERT_NE(acyclic, nullptr) << "trial " << trial;
      EXPECT_EQ(acyclic->message,
                stuck_message("dependency cycle: ", cycle.size(),
                              " tasks can never become ready", cycle))
          << "trial " << trial;
    }

    const std::vector<std::size_t> deadlock = naive_stuck(
        fixture, naive_program_pred(fixture, options.serial_programs));
    const Diagnostic* serial = find_rule(report, kRuleSerialOrder);
    if (options.serial_programs.empty() || deadlock.empty()) {
      EXPECT_EQ(serial, nullptr) << "trial " << trial;
    } else {
      conflicting += cycle.empty() ? 1 : 0;
      ASSERT_NE(serial, nullptr) << "trial " << trial;
      EXPECT_EQ(serial->message,
                stuck_message("declared program order conflicts with the "
                              "dependency structure: ",
                              deadlock.size(),
                              " tasks deadlock under in-order issue", deadlock))
          << "trial " << trial;
    }

    const FlowAnalysis flow = analyze_flow(view);
    ASSERT_EQ(flow.valid, cycle.empty()) << "trial " << trial;
    if (!flow.valid) continue;
    const std::vector<double> dist = naive_dist(fixture);
    const double bound = *std::max_element(dist.begin(), dist.end());
    EXPECT_DOUBLE_EQ(flow.chain_bound_s, bound) << "trial " << trial;
    // The reported chain is a dependency path ending on the bound.
    if (bound > 0) {
      ASSERT_FALSE(flow.chain.empty());
      auto at = [](TaskId id) { return static_cast<std::size_t>(id); };
      EXPECT_TRUE(fixture.deps[at(flow.chain.front())].empty());
      for (std::size_t k = 1; k < flow.chain.size(); ++k) {
        const auto& deps = fixture.deps[at(flow.chain[k])];
        EXPECT_NE(std::find(deps.begin(), deps.end(), flow.chain[k - 1]),
                  deps.end());
      }
      EXPECT_DOUBLE_EQ(dist[at(flow.chain.back())], bound);
    }
  }
  // The sweep must actually reach both failure modes.
  EXPECT_GT(cyclic, 10);
  EXPECT_GT(conflicting, 10);
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
