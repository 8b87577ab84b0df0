#include "obs/sensitivity.h"

#include <gtest/gtest.h>

#include "sim/executor.h"

namespace holmes::obs {
namespace {

using sim::TaskGraph;
using sim::TaskGraphExecutor;
using sim::TaskId;

/// compute(1 s) -> transfer(1 s busy + 0.5 s latency) -> compute(2 s).
TaskGraph chain_graph(sim::SimResult* result_out) {
  TaskGraph g;
  const auto gpu0 = g.add_resource("gpu0.compute");
  const auto tx = g.add_resource("gpu0.tx");
  const auto rx = g.add_resource("gpu1.rx");
  const auto gpu1 = g.add_resource("gpu1.compute");
  const TaskId c1 = g.add_compute(gpu0, 1.0, "fwd");
  const TaskId x = g.add_transfer(tx, rx, 1000, 1000.0, 0.5, "act");
  g.add_dep(x, c1);
  const TaskId c2 = g.add_compute(gpu1, 2.0, "fwd2");
  g.add_dep(c2, x);
  *result_out = TaskGraphExecutor{}.run(g);
  return g;
}

/// "class/<label>" of the task a classifier is handed: the blocking
/// occupant for a queue wait, else the segment's own task.
std::string by_label(const TaskGraph& g, const PathSegment& segment) {
  const TaskId source = segment.kind == SegmentKind::kQueueWait
                            ? segment.holder
                            : segment.task;
  return "class/" + g.label(source);
}

std::string by_kind(const PathSegment& segment, sim::TaskKind kind) {
  (void)kind;
  return segment.kind == SegmentKind::kCompute ? "compute" : "link";
}

TEST(Sensitivity, AggregatesBusySegmentsPerClass) {
  sim::SimResult result({}, {}, 0);
  const TaskGraph g = chain_graph(&result);
  const CriticalPath path = extract_critical_path(g, result);
  const std::vector<WhatIf> whatifs =
      what_if_sensitivities(g, path, by_kind);

  // compute: 1 + 2 = 3 s; link: 1 s busy (the 0.5 s latency is excluded —
  // no bandwidth speedup removes propagation delay).
  ASSERT_EQ(whatifs.size(), 2u);
  EXPECT_EQ(whatifs[0].target, "compute");
  EXPECT_DOUBLE_EQ(whatifs[0].critical_s, 3.0);
  EXPECT_DOUBLE_EQ(whatifs[0].dmakespan_ds, -3.0);
  EXPECT_EQ(whatifs[1].target, "link");
  EXPECT_DOUBLE_EQ(whatifs[1].critical_s, 1.0);
}

TEST(Sensitivity, FirstOrderPredictionIsExactForPureChain) {
  // On a pure dependency chain the path cannot re-route, so the first-order
  // prediction is exact: doubling compute speed halves the compute seconds.
  sim::SimResult result({}, {}, 0);
  const TaskGraph g = chain_graph(&result);
  const CriticalPath path = extract_critical_path(g, result);
  const std::vector<WhatIf> whatifs =
      what_if_sensitivities(g, path, by_kind);
  ASSERT_FALSE(whatifs.empty());
  const WhatIf& compute = whatifs[0];

  EXPECT_DOUBLE_EQ(compute.predicted_savings(2.0), 1.5);

  // Re-simulate with compute twice as fast and compare.
  TaskGraph fast;
  const auto gpu0 = fast.add_resource("gpu0.compute");
  const auto tx = fast.add_resource("gpu0.tx");
  const auto rx = fast.add_resource("gpu1.rx");
  const auto gpu1 = fast.add_resource("gpu1.compute");
  const TaskId c1 = fast.add_compute(gpu0, 0.5, "fwd");
  const TaskId x = fast.add_transfer(tx, rx, 1000, 1000.0, 0.5, "act");
  fast.add_dep(x, c1);
  const TaskId c2 = fast.add_compute(gpu1, 1.0, "fwd2");
  fast.add_dep(c2, x);
  const sim::SimResult fast_result = TaskGraphExecutor{}.run(fast);
  EXPECT_DOUBLE_EQ(fast_result.makespan(),
                   result.makespan() - compute.predicted_savings(2.0));
}

TEST(Sensitivity, QueueWaitCreditsTheBlockingOccupant) {
  // a holds gpu0 over [0,3]; b (fed by c elsewhere) is ready at 1.5 but
  // queues until a releases. The wait [1.5, 3] is controlled by a, so a's
  // class must carry a's *full* occupancy (1.5 busy + 1.5 wait).
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const auto other = g.add_resource("gpu1.compute");
  g.add_compute(gpu, 3.0, "hog");
  const TaskId c = g.add_compute(other, 1.5, "feeder");
  const TaskId b = g.add_compute(gpu, 1.0, "blocked");
  g.add_dep(b, c);
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const CriticalPath path = extract_critical_path(g, result);
  const std::vector<WhatIf> whatifs = what_if_sensitivities(
      g, path, [&g](const PathSegment& segment, sim::TaskKind) {
        return by_label(g, segment);
      });

  ASSERT_EQ(whatifs.size(), 2u);
  EXPECT_EQ(whatifs[0].target, "class/hog");
  EXPECT_DOUBLE_EQ(whatifs[0].critical_s, 3.0);
  EXPECT_EQ(whatifs[1].target, "class/blocked");
  EXPECT_DOUBLE_EQ(whatifs[1].critical_s, 1.0);

  // The credit makes the first-order prediction exact here: halving a's
  // duration moves its release to 1.5, b runs [1.5, 2.5] — saving 1.5 s,
  // exactly predicted_savings(2.0) on 3.0 critical seconds.
  EXPECT_DOUBLE_EQ(whatifs[0].predicted_savings(2.0), 1.5);
  TaskGraph fast;
  const auto fgpu = fast.add_resource("gpu0.compute");
  const auto fother = fast.add_resource("gpu1.compute");
  fast.add_compute(fgpu, 1.5, "hog");
  const TaskId fc = fast.add_compute(fother, 1.5, "feeder");
  const TaskId fb = fast.add_compute(fgpu, 1.0, "blocked");
  fast.add_dep(fb, fc);
  EXPECT_DOUBLE_EQ(TaskGraphExecutor{}.run(fast).makespan(),
                   result.makespan() - 1.5);
}

TEST(Sensitivity, EmptyClassNamesAreExcluded) {
  sim::SimResult result({}, {}, 0);
  const TaskGraph g = chain_graph(&result);
  const CriticalPath path = extract_critical_path(g, result);
  const std::vector<WhatIf> whatifs = what_if_sensitivities(
      g, path, [](const PathSegment& segment, sim::TaskKind) {
        return segment.kind == SegmentKind::kCompute ? "compute" : "";
      });
  ASSERT_EQ(whatifs.size(), 1u);
  EXPECT_EQ(whatifs[0].target, "compute");
}

TEST(Sensitivity, EmptyPathYieldsNoEntries) {
  TaskGraph g;
  const CriticalPath path =
      extract_critical_path(g, TaskGraphExecutor{}.run(g));
  EXPECT_TRUE(what_if_sensitivities(g, path, by_kind).empty());
}

TEST(Sensitivity, SortsDescendingWithNameTiebreak) {
  // Two equal-duration computes classified into different classes must come
  // out in name order.
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const TaskId c1 = g.add_compute(gpu, 1.0, "a");
  const TaskId c2 = g.add_compute(gpu, 1.0, "b");
  g.add_dep(c2, c1);
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const CriticalPath path = extract_critical_path(g, result);
  const std::vector<WhatIf> whatifs = what_if_sensitivities(
      g, path, [&g](const PathSegment& segment, sim::TaskKind) {
        return by_label(g, segment);
      });
  ASSERT_EQ(whatifs.size(), 2u);
  EXPECT_EQ(whatifs[0].target, "class/a");
  EXPECT_EQ(whatifs[1].target, "class/b");
}

}  // namespace
}  // namespace holmes::obs
