#include "sim/executor.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace holmes::sim {
namespace {

TEST(Executor, SingleComputeTask) {
  TaskGraph g;
  const ResourceId r = g.add_resource("gpu");
  const TaskId t = g.add_compute(r, 2.0);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.timing(t).start, 0.0);
  EXPECT_DOUBLE_EQ(result.timing(t).finish, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan(), 2.0);
}

TEST(Executor, SerialResourceQueuesIndependentTasks) {
  TaskGraph g;
  const ResourceId r = g.add_resource("gpu");
  const TaskId a = g.add_compute(r, 1.0);
  const TaskId b = g.add_compute(r, 1.0);
  SimResult result = TaskGraphExecutor{}.run(g);
  // No dependency, but the resource is serial: tasks run back to back.
  EXPECT_DOUBLE_EQ(result.timing(a).finish, 1.0);
  EXPECT_DOUBLE_EQ(result.timing(b).start, 1.0);
  EXPECT_DOUBLE_EQ(result.makespan(), 2.0);
}

TEST(Executor, IndependentResourcesRunInParallel) {
  TaskGraph g;
  const ResourceId r0 = g.add_resource("gpu0");
  const ResourceId r1 = g.add_resource("gpu1");
  g.add_compute(r0, 3.0);
  g.add_compute(r1, 3.0);
  EXPECT_DOUBLE_EQ(TaskGraphExecutor{}.run(g).makespan(), 3.0);
}

TEST(Executor, DependencyDelaysStart) {
  TaskGraph g;
  const ResourceId r0 = g.add_resource("gpu0");
  const ResourceId r1 = g.add_resource("gpu1");
  const TaskId a = g.add_compute(r0, 2.0);
  const TaskId b = g.add_compute(r1, 1.0);
  g.add_dep(b, a);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.timing(b).start, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan(), 3.0);
}

TEST(Executor, TransferTimingIsLatencyPlusSerialization) {
  TaskGraph g;
  const ResourceId tx = g.add_resource("tx");
  const ResourceId rx = g.add_resource("rx");
  // 1 MB over 1 MB/s with 0.5 s latency -> finish at 1.5 s.
  const TaskId t = g.add_transfer(tx, rx, 1'000'000, 1e6, 0.5);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.timing(t).finish, 1.5);
}

TEST(Executor, PortsFreeAfterSerializationNotLatency) {
  TaskGraph g;
  const ResourceId tx = g.add_resource("tx");
  const ResourceId rx = g.add_resource("rx");
  // Two back-to-back transfers on the same ports: the second starts after
  // the first's serialization (1 s), not after its latency-inclusive finish.
  const TaskId a = g.add_transfer(tx, rx, 1'000'000, 1e6, 10.0);
  const TaskId b = g.add_transfer(tx, rx, 1'000'000, 1e6, 10.0);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.timing(a).finish, 11.0);
  EXPECT_DOUBLE_EQ(result.timing(b).start, 1.0);
  EXPECT_DOUBLE_EQ(result.timing(b).finish, 12.0);
}

TEST(Executor, ComputeOverlapsWithTransferOnDifferentResources) {
  TaskGraph g;
  const ResourceId gpu = g.add_resource("gpu");
  const ResourceId tx = g.add_resource("tx");
  const ResourceId rx = g.add_resource("rx");
  g.add_compute(gpu, 5.0);
  g.add_transfer(tx, rx, 5'000'000, 1e6, 0.0);
  // Both take 5 s but use disjoint resources -> total still 5 s.
  EXPECT_DOUBLE_EQ(TaskGraphExecutor{}.run(g).makespan(), 5.0);
}

TEST(Executor, DiamondDependencyJoinsAtMax) {
  TaskGraph g;
  const ResourceId r0 = g.add_resource("a");
  const ResourceId r1 = g.add_resource("b");
  const TaskId src = g.add_noop("src");
  const TaskId left = g.add_compute(r0, 1.0);
  const TaskId right = g.add_compute(r1, 4.0);
  const TaskId join = g.add_noop("join");
  g.add_dep(left, src);
  g.add_dep(right, src);
  g.add_dep(join, left);
  g.add_dep(join, right);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.timing(join).finish, 4.0);
}

TEST(Executor, CycleDetected) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId a = g.add_compute(r, 1.0);
  const TaskId b = g.add_compute(r, 1.0);
  g.add_dep(a, b);
  g.add_dep(b, a);
  EXPECT_THROW(TaskGraphExecutor{}.run(g), ConfigError);
}

TEST(Executor, ResourceBusyAndUtilization) {
  TaskGraph g;
  const ResourceId r0 = g.add_resource("busy");
  const ResourceId r1 = g.add_resource("half");
  const TaskId a = g.add_compute(r0, 4.0);
  const TaskId b = g.add_compute(r1, 2.0);
  g.add_dep(b, a);  // makespan 6
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.resource_busy(r0), 4.0);
  EXPECT_DOUBLE_EQ(result.resource_busy(r1), 2.0);
  EXPECT_DOUBLE_EQ(result.makespan(), 6.0);  // utilizations 4/6 and 2/6
}

TEST(Executor, TagAggregation) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const ResourceId other_r = g.add_resource("other");
  constexpr TaskTag kTag = 42;
  const TaskId a = g.add_compute(r, 1.0, "x", kTag);
  const TaskId b = g.add_compute(r, 2.0, "y", kTag);
  g.add_compute(other_r, 7.0, "other", 1);
  g.add_dep(b, a);
  SimResult result = TaskGraphExecutor{}.run(g);
  EXPECT_DOUBLE_EQ(result.tag_span(g, kTag), 3.0);
  EXPECT_DOUBLE_EQ(result.tag_span(g, 999), 0.0);
}

TEST(Executor, EmptyGraphHasZeroMakespan) {
  TaskGraph g;
  EXPECT_DOUBLE_EQ(TaskGraphExecutor{}.run(g).makespan(), 0.0);
}

TEST(Executor, LargeChainIsLinear) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  TaskId prev = kInvalidTask;
  for (int i = 0; i < 10000; ++i) {
    const TaskId t = g.add_compute(r, 0.001);
    if (prev != kInvalidTask) g.add_dep(t, prev);
    prev = t;
  }
  EXPECT_NEAR(TaskGraphExecutor{}.run(g).makespan(), 10.0, 1e-6);
}

}  // namespace
}  // namespace holmes::sim
