#include "obs/accounting.h"

#include <gtest/gtest.h>

#include "sim/executor.h"
#include "sim/task_graph.h"

namespace holmes::obs {
namespace {

using sim::TaskGraph;
using sim::TaskGraphExecutor;

TEST(Window, ClipIsIntersectionMeasure) {
  const Window w{1.0, 4.0};
  EXPECT_DOUBLE_EQ(w.length(), 3.0);
  EXPECT_DOUBLE_EQ(w.clip(0.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(w.clip(2.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(w.clip(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(w.clip(5.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(Window{}.clip(0.0, 2.5), 2.5);  // default covers all
}

TEST(AccountResources, DeviceBusyAndQueueing) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const auto a = g.add_compute(gpu, 2.0, "a");
  const auto b = g.add_compute(gpu, 3.0, "b");
  (void)a;
  (void)b;  // both ready at t=0; b queues behind a for 2 s
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const auto accounts = account_resources(g, result);
  ASSERT_EQ(accounts.size(), 1u);
  const ResourceAccount& acc = accounts[0];
  EXPECT_TRUE(acc.is_device);
  EXPECT_FALSE(acc.is_link);
  EXPECT_EQ(acc.name, "gpu0.compute");
  EXPECT_DOUBLE_EQ(acc.busy, 5.0);
  EXPECT_DOUBLE_EQ(acc.waiting, 2.0);  // b sat ready for [0, 2)
  EXPECT_EQ(acc.tasks, 2u);
  EXPECT_DOUBLE_EQ(acc.utilization(Window{0.0, 5.0}), 1.0);
}

TEST(AccountResources, LinkBusyIsSerializationOnly) {
  TaskGraph g;
  const auto tx = g.add_resource("gpu0.NIC.tx");
  const auto rx = g.add_resource("gpu1.NIC.rx");
  // 1000 bytes at 1000 B/s -> 1 s serialization, plus 0.5 s latency.
  g.add_transfer(tx, rx, 1000, 1000.0, 0.5, "x");
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const auto accounts = account_resources(g, result);
  ASSERT_EQ(accounts.size(), 2u);
  for (const ResourceAccount& acc : accounts) {
    EXPECT_TRUE(acc.is_link);
    EXPECT_DOUBLE_EQ(acc.busy, 1.0);  // not 1.5: latency occupies no port
    EXPECT_EQ(acc.bytes, 1000);
    EXPECT_EQ(acc.tasks, 1u);
  }
}

TEST(AccountResources, WindowRestrictsBusy) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  g.add_compute(gpu, 4.0);  // [0, 4)
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const auto accounts = account_resources(g, result, Window{1.0, 3.0});
  EXPECT_DOUBLE_EQ(accounts[0].busy, 2.0);
  EXPECT_EQ(accounts[0].tasks, 1u);
  const auto outside = account_resources(g, result, Window{10.0, 20.0});
  EXPECT_DOUBLE_EQ(outside[0].busy, 0.0);
  EXPECT_EQ(outside[0].tasks, 0u);
}

TEST(AccountChannels, AttributesTrafficPerCommunicator) {
  TaskGraph g;
  const auto tx = g.add_resource("tx");
  const auto rx = g.add_resource("rx");
  const auto dp0 = g.channel("dp0");
  const auto a = g.add_transfer(tx, rx, 1000, 1000.0, 0.0, "a", 0, dp0);
  const auto b = g.add_transfer(tx, rx, 2000, 1000.0, 0.0, "b", 0, dp0);
  g.add_dep(b, a);
  g.add_transfer(tx, rx, 500, 1000.0, 0.0, "un");  // unattributed
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const auto accounts = account_channels(g, result);
  ASSERT_EQ(accounts.size(), 1u);
  const ChannelAccount& acc = accounts[0];
  EXPECT_EQ(acc.name, "dp0");
  EXPECT_EQ(acc.bytes, 3000);
  EXPECT_EQ(acc.transfers, 2u);
  EXPECT_DOUBLE_EQ(acc.busy, 3.0);
  EXPECT_GT(acc.span, 0.0);
  EXPECT_DOUBLE_EQ(acc.effective_bandwidth(), acc.bytes / acc.span);
}

TEST(AccountTasks, PredicateAndWindow) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const auto fwd = g.add_compute(gpu, 1.0, "fwd", /*tag=*/1);
  const auto bwd = g.add_compute(gpu, 2.0, "bwd", /*tag=*/2);
  g.add_dep(bwd, fwd);
  g.add_noop("join", /*tag=*/1);  // noops never count
  const sim::SimResult result = TaskGraphExecutor{}.run(g);

  const SpanAccount both = account_tasks(g, result, tag_in(g, {1, 2}));
  EXPECT_DOUBLE_EQ(both.busy, 3.0);
  EXPECT_DOUBLE_EQ(both.span, 3.0);
  EXPECT_EQ(both.tasks, 2u);

  const SpanAccount only_fwd = account_tasks(g, result, tag_in(g, {1}));
  EXPECT_DOUBLE_EQ(only_fwd.busy, 1.0);
  EXPECT_EQ(only_fwd.tasks, 1u);

  const SpanAccount none = account_tasks(g, result, tag_in(g, {99}));
  EXPECT_EQ(none.tasks, 0u);
  EXPECT_DOUBLE_EQ(none.span, 0.0);
}

TEST(AccountOverlap, SplitsExposedFromHidden) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const auto tx = g.add_resource("tx");
  const auto rx = g.add_resource("rx");
  // Compute covers [0, 2); the transfer runs [1, 3) -> 1 s hidden, 1 s
  // exposed.
  g.add_compute(gpu, 2.0, "bwd", /*tag=*/2);
  const auto pre = g.add_compute(gpu, 1.0, "warm", /*tag=*/0);
  (void)pre;
  const auto x = g.add_transfer(tx, rx, 2000, 1000.0, 0.0, "rs", /*tag=*/4);
  // Delay the transfer start to t=1 via a 1 s dummy on its TX port.
  const auto hold = g.add_transfer(tx, rx, 1000, 1000.0, 0.0, "hold");
  g.add_dep(x, hold);
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  ASSERT_DOUBLE_EQ(result.timing(x).start, 1.0);
  const OverlapAccount acc =
      account_overlap(g, result, tag_in(g, {4}), tag_in(g, {2}));
  EXPECT_DOUBLE_EQ(acc.total, 2.0);
  EXPECT_DOUBLE_EQ(acc.overlapped, 1.0);
  EXPECT_DOUBLE_EQ(acc.exposed, 1.0);
}

TEST(AccountOverlap, FullyHiddenAndFullyExposed) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  const auto tx = g.add_resource("tx");
  const auto rx = g.add_resource("rx");
  g.add_compute(gpu, 10.0, "bwd", /*tag=*/2);
  g.add_transfer(tx, rx, 1000, 1000.0, 0.0, "rs", /*tag=*/4);  // [0,1)
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const OverlapAccount hidden =
      account_overlap(g, result, tag_in(g, {4}), tag_in(g, {2}));
  EXPECT_DOUBLE_EQ(hidden.exposed, 0.0);
  EXPECT_DOUBLE_EQ(hidden.overlapped, 1.0);
  // With no cover tasks, everything is exposed.
  const OverlapAccount exposed =
      account_overlap(g, result, tag_in(g, {4}), tag_in(g, {99}));
  EXPECT_DOUBLE_EQ(exposed.exposed, 1.0);
  EXPECT_DOUBLE_EQ(exposed.overlapped, 0.0);
}

}  // namespace
}  // namespace holmes::obs
