#include "sim/task_graph.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.h"

namespace holmes::sim {
namespace {

TEST(TaskGraph, AddsResourcesWithNames) {
  TaskGraph g;
  const ResourceId a = g.add_resource("gpu0");
  const ResourceId b = g.add_resource("gpu1");
  EXPECT_NE(a, b);
  EXPECT_EQ(g.resource_count(), 2u);
  EXPECT_EQ(g.resource_name(a), "gpu0");
  EXPECT_EQ(g.resource_name(b), "gpu1");
}

TEST(TaskGraph, ComputeTaskStoresFields) {
  TaskGraph g;
  const ResourceId r = g.add_resource("gpu0");
  const TaskId t = g.add_compute(r, 0.25, "fwd", 7);
  const Task& task = g.task(t);
  EXPECT_EQ(task.kind, TaskKind::kCompute);
  EXPECT_EQ(task.resource, r);
  EXPECT_EQ(task.dst_port, r);
  EXPECT_DOUBLE_EQ(task.cost, 0.25);
  EXPECT_EQ(g.label(t), "fwd");
  EXPECT_EQ(g.info(t).tag, 7);
}

TEST(TaskGraph, TransferTaskStoresFields) {
  TaskGraph g;
  const ResourceId tx = g.add_resource("tx");
  const ResourceId rx = g.add_resource("rx");
  const TaskId t = g.add_transfer(tx, rx, 1000, 1e9, 1e-6, "p2p");
  const Task& task = g.task(t);
  EXPECT_EQ(task.kind, TaskKind::kTransfer);
  EXPECT_EQ(task.resource, tx);
  EXPECT_EQ(task.dst_port, rx);
  EXPECT_EQ(g.info(t).bytes, 1000);
  EXPECT_DOUBLE_EQ(g.info(t).bandwidth, 1e9);
  EXPECT_DOUBLE_EQ(task.latency, 1e-6);
  // The serialization time is precomputed with the division placement
  // would otherwise do, bit for bit.
  EXPECT_EQ(task.cost, 1000.0 / 1e9);
}

TEST(TaskGraph, NoopParksOnTheScratchSlotOnceCompiled) {
  // The scratch slot is resource_count(), so a resource added after the
  // noop moves it; compiling the adjacency settles it.
  TaskGraph g;
  g.add_resource("r0");
  const TaskId noop = g.add_noop("join");
  g.add_resource("r1");
  g.build_adjacency();
  EXPECT_EQ(g.task(noop).resource, 2);
  EXPECT_EQ(g.task(noop).dst_port, 2);
  EXPECT_DOUBLE_EQ(g.task(noop).cost, 0.0);
  EXPECT_DOUBLE_EQ(g.task(noop).latency, 0.0);
}

TEST(TaskGraph, RejectsInvalidArguments) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  EXPECT_THROW(g.add_compute(99, 1.0), InternalError);
  EXPECT_THROW(g.add_compute(r, -1.0), InternalError);
  EXPECT_THROW(g.add_transfer(r, 99, 10, 1e9, 0), InternalError);
  EXPECT_THROW(g.add_transfer(r, r, 10, 0.0, 0), InternalError);
  EXPECT_THROW(g.add_transfer(r, r, -5, 1e9, 0), InternalError);
  EXPECT_THROW(g.add_transfer(r, r, 10, 1e9, -1e-6), InternalError);
}

TEST(TaskGraph, ZeroByteTransferNeedsNoBandwidth) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  EXPECT_NO_THROW(g.add_transfer(r, r, 0, 0.0, 1e-6));
}

TEST(TaskGraph, DepsAccumulate) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId a = g.add_compute(r, 1.0);
  const TaskId b = g.add_compute(r, 1.0);
  const TaskId c = g.add_compute(r, 1.0);
  g.add_dep(c, a);
  g.add_dep(c, b);
  EXPECT_EQ(g.deps(c).size(), 2u);
}

TEST(TaskGraph, AddDepsSkipsInvalidTaskSentinel) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId a = g.add_compute(r, 1.0);
  const TaskId b = g.add_compute(r, 1.0);
  const TaskId c = g.add_compute(r, 1.0);
  g.add_deps(b, {kInvalidTask, a, kInvalidTask});
  EXPECT_EQ(g.deps(b).size(), 1u);
  // From a vector (the span overload), in order.
  const std::vector<TaskId> preds = {a, kInvalidTask, b};
  g.add_deps(c, preds);
  EXPECT_EQ(std::vector<TaskId>(g.deps(c).begin(), g.deps(c).end()),
            (std::vector<TaskId>{a, b}));
  EXPECT_EQ(g.dep_count(), 3u);
}

TEST(TaskGraph, EqualLabelsShareOneIdAcrossKinds) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId compute = g.add_compute(r, 1.0, "dp0.allreduce.r3");
  const TaskId transfer = g.add_transfer(r, r, 0, 0.0, 1e-6, "dp0.allreduce.r3");
  const TaskId noop = g.add_noop(std::string("dp0.allreduce.r3"));
  const TaskId other = g.add_noop("dp0.allreduce.join");
  EXPECT_EQ(g.info(transfer).label, g.info(compute).label);
  EXPECT_EQ(g.info(noop).label, g.info(compute).label);
  EXPECT_NE(g.info(other).label, g.info(compute).label);
  EXPECT_EQ(g.label(transfer), "dp0.allreduce.r3");
  EXPECT_EQ(g.label(other), "dp0.allreduce.join");
}

TEST(TaskGraph, UnlabeledTaskReadsBackEmpty) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId compute = g.add_compute(r, 1.0);
  const TaskId noop = g.add_noop("");
  EXPECT_EQ(g.info(compute).label, kNoLabel);
  EXPECT_EQ(g.info(noop).label, kNoLabel);
  EXPECT_EQ(g.label(compute), "");
  EXPECT_EQ(g.label(noop), "");
}

TEST(TaskGraph, LabelsSurviveCopyAndAdjacency) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId fwd = g.add_compute(r, 1.0, "fwd");
  const TaskId bwd = g.add_compute(r, 1.0, "bwd");
  g.add_dep(bwd, fwd);
  TaskGraph copy = g;
  g.add_noop("only-in-the-original");
  copy.build_adjacency();
  EXPECT_EQ(copy.label(fwd), "fwd");
  EXPECT_EQ(copy.label(bwd), "bwd");
  // The copy keeps interning against its own table.
  const TaskId again = copy.add_compute(r, 1.0, "fwd");
  const TaskId fresh = copy.add_noop("join");
  EXPECT_EQ(copy.info(again).label, copy.info(fwd).label);
  EXPECT_EQ(copy.label(fresh), "join");
  EXPECT_EQ(g.label(fwd), "fwd");
  EXPECT_EQ(g.task_count(), 3u);
}

TEST(TaskGraph, ReserveChangesNoCounts) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  g.reserve(1000, 2000);
  EXPECT_EQ(g.task_count(), 0u);
  EXPECT_EQ(g.dep_count(), 0u);
  const TaskId a = g.add_compute(r, 1.0, "a");
  const TaskId b = g.add_compute(r, 1.0, "b");
  g.add_dep(b, a);
  EXPECT_EQ(g.task_count(), 2u);
  EXPECT_EQ(g.deps(b).size(), 1u);
}

TEST(TaskGraph, ClearedGraphRebuildsLikeAFreshOne) {
  // A compiled graph, cleared, then refilled with a different graph, reads
  // back exactly like that graph built from scratch: nothing of the first
  // (tasks, edges, resources, channels, interned labels, adjacency) leaks.
  TaskGraph reused;
  {
    const ResourceId r = reused.add_resource("old.r");
    const ChannelId c = reused.channel("old.c");
    const TaskId a = reused.add_compute(r, 1.0, "old.a");
    const TaskId b = reused.add_transfer(r, r, 10, 1e9, 0, "shared", 0, c);
    const TaskId j = reused.add_noop("old.join");
    reused.add_deps(j, {a, b});
    reused.build_adjacency();
  }
  reused.clear();
  EXPECT_EQ(reused.task_count(), 0u);
  EXPECT_EQ(reused.dep_count(), 0u);
  EXPECT_EQ(reused.resource_count(), 0u);
  EXPECT_EQ(reused.channel_count(), 0u);

  auto fill = [](TaskGraph& g) {
    const ResourceId tx = g.add_resource("tx");
    const ResourceId rx = g.add_resource("rx");
    const ChannelId pp = g.channel("pp");
    const TaskId send = g.add_transfer(tx, rx, 64, 1e9, 1e-6, "shared", 3, pp);
    const TaskId fwd = g.add_compute(rx, 0.5, "fwd");
    const TaskId bwd = g.add_compute(rx, 0.5);
    g.add_dep(fwd, send);
    g.add_dep(bwd, fwd);
  };
  TaskGraph fresh;
  fill(fresh);
  fill(reused);
  ASSERT_EQ(reused.task_count(), fresh.task_count());
  EXPECT_EQ(reused.dep_count(), fresh.dep_count());
  EXPECT_EQ(reused.channel_name(0), "pp");
  EXPECT_EQ(reused.max_dependent_count(), fresh.max_dependent_count());
  for (std::size_t r = 0; r < fresh.resource_count(); ++r) {
    EXPECT_EQ(reused.resource_name(static_cast<ResourceId>(r)),
              fresh.resource_name(static_cast<ResourceId>(r)));
  }
  for (TaskId t = 0; t < static_cast<TaskId>(fresh.task_count()); ++t) {
    EXPECT_EQ(reused.info(t).label, fresh.info(t).label) << t;
    EXPECT_EQ(reused.label(t), fresh.label(t)) << t;
    EXPECT_EQ(reused.info(t).channel, fresh.info(t).channel) << t;
    EXPECT_EQ(std::vector<TaskId>(reused.deps(t).begin(), reused.deps(t).end()),
              std::vector<TaskId>(fresh.deps(t).begin(), fresh.deps(t).end()));
    EXPECT_EQ(std::vector<TaskId>(reused.dependents(t).begin(),
                                  reused.dependents(t).end()),
              std::vector<TaskId>(fresh.dependents(t).begin(),
                                  fresh.dependents(t).end()));
    EXPECT_EQ(reused.task(t).out_count, fresh.task(t).out_count);
  }
}

TEST(TaskGraph, SelfDependencyRejected) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  const TaskId a = g.add_compute(r, 1.0);
  EXPECT_THROW(g.add_dep(a, a), InternalError);
}

TEST(TaskGraph, NoopHasZeroCost) {
  TaskGraph g;
  const TaskId t = g.add_noop("join");
  EXPECT_EQ(g.task(t).kind, TaskKind::kNoop);
  EXPECT_DOUBLE_EQ(g.task(t).cost, 0.0);
}

TEST(TaskGraph, ChannelsAreDenseAndStable) {
  TaskGraph g;
  EXPECT_EQ(g.channel_count(), 0u);
  const ChannelId dp0 = g.channel("dp0");
  const ChannelId pp = g.channel("pp");
  EXPECT_EQ(dp0, 0);
  EXPECT_EQ(pp, 1);
  // Get-or-create: the same name maps to the same id.
  EXPECT_EQ(g.channel("dp0"), dp0);
  EXPECT_EQ(g.channel_count(), 2u);
  EXPECT_EQ(g.channel_name(dp0), "dp0");
  EXPECT_EQ(g.channel_name(pp), "pp");
}

TEST(TaskGraph, TransferCarriesChannel) {
  TaskGraph g;
  const ResourceId tx = g.add_resource("tx");
  const ResourceId rx = g.add_resource("rx");
  const ChannelId dp0 = g.channel("dp0");
  const TaskId attributed = g.add_transfer(tx, rx, 10, 1e9, 0, "a", 0, dp0);
  const TaskId plain = g.add_transfer(tx, rx, 10, 1e9, 0, "b");
  EXPECT_EQ(g.info(attributed).channel, dp0);
  EXPECT_EQ(g.info(plain).channel, kInvalidChannel);
  // Unknown channel ids are rejected.
  EXPECT_THROW(g.add_transfer(tx, rx, 10, 1e9, 0, "c", 0, 99), InternalError);
}

}  // namespace
}  // namespace holmes::sim
