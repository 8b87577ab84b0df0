#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "obs/accounting.h"
#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "sim/task_graph.h"
#include "timeline_oracle.h"

namespace holmes::obs {
namespace {

using sim::TaskGraph;
using sim::TaskGraphExecutor;
using testing::expect_matches_naive;
using testing::naive_timeline;
using testing::NaiveChannel;
using testing::NaiveResource;
using testing::NaiveTimeline;

// ---------------------------------------------------------------- StepSeries

TEST(StepSeries, FromDeltasCoalescesAndDropsNoOpBreakpoints) {
  const StepSeries s = StepSeries::from_deltas(
      {{1.0, 1.0}, {1.0, 1.0}, {3.0, -2.0}, {5.0, 0.0}});
  // Two equal-time deltas coalesce into one breakpoint; the zero delta at
  // t=5 changes nothing and is dropped entirely.
  ASSERT_EQ(s.breakpoints(), 2u);
  EXPECT_DOUBLE_EQ(s.times()[0], 1.0);
  EXPECT_DOUBLE_EQ(s.values()[0], 2.0);
  EXPECT_DOUBLE_EQ(s.times()[1], 3.0);
  EXPECT_DOUBLE_EQ(s.values()[1], 0.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 0.0);  // before the first breakpoint
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(2.9), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value_at(100.0), 0.0);
}

TEST(StepSeries, FromDeltasIsStableUnderUnsortedInput) {
  // Deltas arrive out of time order; from_deltas stable-sorts them.
  const StepSeries s =
      StepSeries::from_deltas({{4.0, -1.0}, {2.0, 1.0}, {0.0, 1.0}, {6.0, -1.0}});
  ASSERT_EQ(s.breakpoints(), 4u);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(3.0), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(7.0), 0.0);
}

TEST(StepSeries, FromLevelsDropsRepeatedValues) {
  const StepSeries s =
      StepSeries::from_levels({0.0, 1.0, 2.0, 3.0}, {1.0, 1.0, 0.5, 0.5});
  ASSERT_EQ(s.breakpoints(), 2u);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(1.5), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(s.value_at(10.0), 0.5);  // last level holds forever
}

TEST(StepSeries, IntegralAverageAndMaximum) {
  // Value 2 on [1,3), 0 after.
  const StepSeries s = StepSeries::from_deltas({{1.0, 2.0}, {3.0, -2.0}});
  EXPECT_DOUBLE_EQ(s.integral(0.0, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(s.integral(2.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(s.integral(3.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.average(0.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(s.average(1.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(s.average(5.0, 5.0), 0.0);  // empty window
  EXPECT_DOUBLE_EQ(s.maximum(0.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(s.maximum_at(0.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(s.maximum(3.0, 4.0), 0.0);
}

TEST(StepSeries, BucketizeIsTimeWeightedMean) {
  // 1 on [0,2), 3 on [2,4).
  const StepSeries s =
      StepSeries::from_deltas({{0.0, 1.0}, {2.0, 2.0}, {4.0, -3.0}});
  const std::vector<double> two = s.bucketize(0.0, 4.0, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_DOUBLE_EQ(two[0], 1.0);
  EXPECT_DOUBLE_EQ(two[1], 3.0);
  const std::vector<double> one = s.bucketize(1.0, 3.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 2.0);  // half at 1, half at 3
  EXPECT_TRUE(s.bucketize(0.0, 4.0, 0).empty());
  EXPECT_TRUE(s.bucketize(4.0, 4.0, 3).empty());
}

TEST(StepSeries, IntervalsAtLeastMergesContiguousSegments) {
  // 1 on [0,2), 2 on [2,4), 1 on [4,5): threshold 1 must merge all three
  // contiguous segments into one interval; threshold 2 isolates the middle.
  const StepSeries s = StepSeries::from_deltas(
      {{0.0, 1.0}, {2.0, 1.0}, {4.0, -1.0}, {5.0, -1.0}});
  const auto merged = s.intervals_at_least(1.0, 0.0, 5.0);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].first, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].second, 5.0);
  const auto strict = s.intervals_at_least(2.0, 0.0, 5.0);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_DOUBLE_EQ(strict[0].first, 2.0);
  EXPECT_DOUBLE_EQ(strict[0].second, 4.0);
  EXPECT_TRUE(s.intervals_at_least(3.0, 0.0, 5.0).empty());
  // Window clipping applies to the extracted intervals too.
  const auto clipped = s.intervals_at_least(1.0, 1.0, 3.0);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_DOUBLE_EQ(clipped[0].first, 1.0);
  EXPECT_DOUBLE_EQ(clipped[0].second, 3.0);
}

// ------------------------------------------------------ extraction exactness

/// A small but non-trivial fixture: two devices, two NIC port pairs of
/// different classes, a channel, and enough dependencies that queueing and
/// overlap both occur.
TaskGraph mixed_graph() {
  TaskGraph g;
  const auto gpu0 = g.add_resource("gpu0.compute");
  const auto gpu1 = g.add_resource("gpu1.compute");
  const auto ib_tx = g.add_resource("gpu0.InfiniBand.tx");
  const auto ib_rx = g.add_resource("gpu1.InfiniBand.rx");
  const auto eth_tx = g.add_resource("gpu0.Ethernet.tx");
  const auto eth_rx = g.add_resource("gpu1.Ethernet.rx");
  const auto dp = g.channel("dp0");
  const auto a = g.add_compute(gpu0, 2.0, "fwd0");
  const auto b = g.add_compute(gpu0, 3.0, "fwd1");  // queues behind a
  const auto c = g.add_compute(gpu1, 1.0, "fwd2");
  // 1000 B at 1000 B/s -> 1 s serialization + 0.5 s latency.
  const auto x = g.add_transfer(ib_tx, ib_rx, 1000, 1000.0, 0.5, "p2p", 0, dp);
  g.add_dep(x, a);
  const auto y =
      g.add_transfer(eth_tx, eth_rx, 4000, 1000.0, 0.25, "grad", 0, dp);
  g.add_dep(y, b);
  const auto join = g.add_noop("join");
  g.add_dep(join, x);
  g.add_dep(join, y);
  (void)c;
  return g;
}

TEST(ExtractTimeline, AggregatesAreBitEqualToAccounting) {
  const TaskGraph g = mixed_graph();
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const Timeline t = extract_timeline(g, result);
  const NaiveTimeline naive = naive_timeline(g, result);
  const auto accounts = account_resources(g, result, t.window);
  const auto channel_accounts = account_channels(g, result, t.window);

  ASSERT_EQ(t.resources.size(), accounts.size());
  for (std::size_t r = 0; r < accounts.size(); ++r) {
    // Exact == on doubles is deliberate: the timeline copies the accounting
    // layer's numbers, it does not recompute them.
    EXPECT_EQ(t.resources[r].busy_total, accounts[r].busy) << accounts[r].name;
    EXPECT_EQ(t.resources[r].waiting_total, accounts[r].waiting);
    EXPECT_EQ(t.resources[r].bytes, accounts[r].bytes);
    EXPECT_EQ(t.resources[r].tasks, accounts[r].tasks);
    EXPECT_EQ(t.resources[r].is_device, accounts[r].is_device);
    EXPECT_EQ(t.resources[r].is_link, accounts[r].is_link);
    // The busy series must integrate to exactly the accounted busy time: a
    // serial resource's 0/1 occupancy sums disjoint task intervals in the
    // same order as the accounting pass.
    EXPECT_DOUBLE_EQ(
        naive.resources[r].busy.integral(t.window.begin, t.window.end),
        t.resources[r].busy_total)
        << accounts[r].name;
  }
  ASSERT_EQ(t.channels.size(), channel_accounts.size());
  for (std::size_t c = 0; c < channel_accounts.size(); ++c) {
    EXPECT_EQ(t.channels[c].bytes, channel_accounts[c].bytes);
    EXPECT_EQ(t.channels[c].transfers, channel_accounts[c].transfers);
    EXPECT_EQ(t.channels[c].busy_total, channel_accounts[c].busy);
    EXPECT_EQ(t.channels[c].name, channel_accounts[c].name);
  }
  expect_matches_naive(naive, g, result, {});
}

TEST(ExtractTimeline, DeviceOccupancyAndQueueDepth) {
  TaskGraph g;
  const auto gpu = g.add_resource("gpu0.compute");
  g.add_compute(gpu, 2.0, "a");
  g.add_compute(gpu, 3.0, "b");  // ready at 0, starts at 2
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const Timeline t = extract_timeline(g, result);
  const NaiveTimeline naive = naive_timeline(g, result);
  ASSERT_EQ(t.resources.size(), 1u);
  ASSERT_EQ(naive.resources.size(), 1u);
  const NaiveResource& res = naive.resources[0];
  EXPECT_DOUBLE_EQ(res.busy.value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(res.busy.value_at(4.9), 1.0);
  EXPECT_DOUBLE_EQ(res.busy.value_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(res.busy.integral(0.0, 5.0), 5.0);
  // b is ready-but-blocked on [0, 2).
  EXPECT_DOUBLE_EQ(res.queue.value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(res.queue.value_at(1.9), 1.0);
  EXPECT_DOUBLE_EQ(res.queue.value_at(2.0), 0.0);
  EXPECT_DOUBLE_EQ(res.queue.integral(0.0, 5.0), t.resources[0].waiting_total);
  EXPECT_DOUBLE_EQ(t.makespan, 5.0);
  expect_matches_naive(naive, g, result, {});
}

TEST(ExtractTimeline, ChannelInFlightAndCumulativeCurves) {
  TaskGraph g;
  const auto tx = g.add_resource("gpu0.NIC.tx");
  const auto rx = g.add_resource("gpu1.NIC.rx");
  const auto dp = g.channel("dp0");
  // 1 s serialization + 0.5 s latency: in flight on [0, 1.5), delivered at
  // t=1.5.
  g.add_transfer(tx, rx, 1000, 1000.0, 0.5, "x", 0, dp);
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const Timeline t = extract_timeline(g, result);
  const NaiveTimeline naive = naive_timeline(g, result);
  ASSERT_EQ(t.channels.size(), 1u);
  ASSERT_EQ(naive.channels.size(), 1u);
  const ChannelTimeline& chan = t.channels[0];
  const NaiveChannel& curves = naive.channels[0];
  EXPECT_EQ(chan.name, "dp0");
  EXPECT_DOUBLE_EQ(curves.in_flight.value_at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(curves.in_flight.value_at(1.49), 1000.0);
  EXPECT_DOUBLE_EQ(curves.in_flight.value_at(1.5), 0.0);
  EXPECT_DOUBLE_EQ(curves.cumulative.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(curves.cumulative.value_at(1.5), 1000.0);
  EXPECT_DOUBLE_EQ(chan.peak_in_flight, 1000.0);
  EXPECT_DOUBLE_EQ(chan.peak_at, 0.0);
  // The TX/RX ports are busy for the serialization second only.
  EXPECT_DOUBLE_EQ(naive.resources[tx].busy.integral(0.0, t.makespan), 1.0);
  EXPECT_DOUBLE_EQ(naive.resources[rx].busy.integral(0.0, t.makespan), 1.0);
  // Over the whole 1.5 s run in 3 buckets, the in-flight means read the
  // full transfer and the cumulative samples step up at the last edge.
  TimelineOptions three;
  three.buckets = 3;
  const Timeline bucketed = extract_timeline(g, result, three);
  EXPECT_EQ(bucketed.channels[0].in_flight,
            (std::vector<double>{1000.0, 1000.0, 1000.0}));
  EXPECT_EQ(bucketed.channels[0].cumulative,
            (std::vector<double>{0.0, 0.0, 1000.0}));
  expect_matches_naive(naive, g, result, {});
}

TEST(ExtractTimeline, ClassSaturationIntervals) {
  const TaskGraph g = mixed_graph();
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  TimelineOptions options;
  options.saturation_threshold = 1.0;
  // mixed_graph registers two devices, then an InfiniBand and an Ethernet
  // port pair.
  const auto classify = [](sim::ResourceId resource) -> std::string {
    static const char* const kClasses[] = {"compute",    "compute",
                                           "InfiniBand", "InfiniBand",
                                           "Ethernet",   "Ethernet"};
    return kClasses[resource];
  };
  const Timeline t = extract_timeline(g, result, options, classify);
  // Link classes only, sorted by name.
  ASSERT_EQ(t.classes.size(), 2u);
  EXPECT_EQ(t.classes[0].nic_class, "Ethernet");
  EXPECT_EQ(t.classes[1].nic_class, "InfiniBand");
  for (const ClassTimeline& cls : t.classes) {
    EXPECT_EQ(cls.ports, 2u);
    // Both ports of a p2p transfer are busy simultaneously for its 1-per-
    // byte serialization, so at threshold 1.0 the saturated measure equals
    // one port's busy time.
    EXPECT_DOUBLE_EQ(cls.saturated_total, cls.busy_total / 2.0);
    ASSERT_EQ(cls.saturated.size(), 1u);
    EXPECT_DOUBLE_EQ(cls.saturated[0].second - cls.saturated[0].first,
                     cls.saturated_total);
  }
  // The IB transfer serializes on [2, 3); Ethernet on [5, 9).
  EXPECT_DOUBLE_EQ(t.classes[1].saturated[0].first, 2.0);
  EXPECT_DOUBLE_EQ(t.classes[1].saturated[0].second, 3.0);
  EXPECT_DOUBLE_EQ(t.classes[0].saturated[0].first, 5.0);
  EXPECT_DOUBLE_EQ(t.classes[0].saturated[0].second, 9.0);

  // The class-only routine reports the same classes, port counts and
  // busy-port breakpoints, and nothing of the window-dependent fields.
  const std::vector<ClassTimeline> only =
      extract_class_timelines(g, result, classify);
  ASSERT_EQ(only.size(), t.classes.size());
  for (std::size_t k = 0; k < only.size(); ++k) {
    EXPECT_EQ(only[k].nic_class, t.classes[k].nic_class);
    EXPECT_EQ(only[k].ports, t.classes[k].ports);
    EXPECT_EQ(only[k].busy_ports.times(), t.classes[k].busy_ports.times());
    EXPECT_EQ(only[k].busy_ports.values(), t.classes[k].busy_ports.values());
    EXPECT_EQ(only[k].busy_total, 0.0);
    EXPECT_TRUE(only[k].saturated.empty());
  }
}

TEST(ExtractTimeline, ClassCurvesCountComputeOnALinkResource) {
  // A resource that carries a transfer is a link, so a compute task that
  // runs on it later in id order still occupies one of the class's ports,
  // exactly as the per-resource busy series shows it.
  TaskGraph g;
  const auto tx = g.add_resource("gpu0.InfiniBand.tx");
  const auto rx = g.add_resource("gpu1.InfiniBand.rx");
  const auto first = g.add_compute(tx, 2.0, "on-port");
  const auto x = g.add_transfer(tx, rx, 1000, 1000.0, 0.0, "p2p");
  g.add_dep(x, first);
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const auto classify = [](sim::ResourceId) -> std::string {
    return "InfiniBand";
  };
  const Timeline t = extract_timeline(g, result, {}, classify);
  const std::vector<ClassTimeline> only =
      extract_class_timelines(g, result, classify);
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].ports, 2u);
  // One port busy on [0, 2) for the compute, two on [2, 3) for the transfer.
  EXPECT_EQ(only[0].busy_ports.times(), (std::vector<SimTime>{0.0, 2.0, 3.0}));
  EXPECT_EQ(only[0].busy_ports.values(), (std::vector<double>{1.0, 2.0, 0.0}));
  ASSERT_EQ(t.classes.size(), 1u);
  EXPECT_EQ(t.classes[0].busy_ports.times(), only[0].busy_ports.times());
  EXPECT_EQ(t.classes[0].busy_ports.values(), only[0].busy_ports.values());
  expect_matches_naive(naive_timeline(g, result, classify), g, result, {},
                       classify);
}

TEST(ExtractTimeline, TopTalkersRankByBytesThenId) {
  const TaskGraph g = mixed_graph();
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  const Timeline t = extract_timeline(g, result);
  // Four ports carried bytes: the Ethernet pair (4000 each) outranks the
  // InfiniBand pair (1000 each); ties break by ascending resource id.
  ASSERT_EQ(t.top_talkers.size(), 4u);
  EXPECT_EQ(t.top_talkers[0].name, "gpu0.Ethernet.tx");
  EXPECT_EQ(t.top_talkers[1].name, "gpu1.Ethernet.rx");
  EXPECT_EQ(t.top_talkers[2].name, "gpu0.InfiniBand.tx");
  EXPECT_EQ(t.top_talkers[3].name, "gpu1.InfiniBand.rx");
  EXPECT_DOUBLE_EQ(t.top_talkers[0].share, 4000.0 / 10000.0);
  EXPECT_DOUBLE_EQ(t.top_talkers[2].share, 1000.0 / 10000.0);
}

TEST(ExtractTimeline, WindowClipsAggregatesButNotSeries) {
  const TaskGraph g = mixed_graph();
  const sim::SimResult result = TaskGraphExecutor{}.run(g);
  TimelineOptions options;
  options.window = Window{0.0, 4.0};
  const Timeline t = extract_timeline(g, result, options);
  EXPECT_DOUBLE_EQ(t.window.end, 4.0);
  const auto accounts = account_resources(g, result, Window{0.0, 4.0});
  for (std::size_t r = 0; r < accounts.size(); ++r) {
    EXPECT_EQ(t.resources[r].busy_total, accounts[r].busy);
  }
  // The series themselves still cover the whole run: the Ethernet transfer
  // serializes on [5, 9), past the window.
  const NaiveTimeline naive = naive_timeline(g, result);
  EXPECT_DOUBLE_EQ(naive.resources[4].busy.integral(0.0, t.makespan), 4.0);
  EXPECT_DOUBLE_EQ(naive.resources[4].busy.integral(t.window.begin,
                                                    t.window.end),
                   0.0);
  expect_matches_naive(naive, g, result, options);
  // A window end past the makespan clips to the makespan.
  TimelineOptions wide;
  wide.window = Window{0.0, 1e9};
  const Timeline clipped = extract_timeline(g, result, wide);
  EXPECT_DOUBLE_EQ(clipped.window.end, clipped.makespan);
  expect_matches_naive(naive, g, result, wide);
  // A window that opens mid-run clips both edges.
  TimelineOptions inner;
  inner.window = Window{2.5, 7.25};
  expect_matches_naive(naive, g, result, inner);
}

TEST(ExtractTimeline, RateOverlayTracksEffectiveRate) {
  TaskGraph g;
  const auto tx = g.add_resource("gpu0.Ethernet.tx");
  const auto rx = g.add_resource("gpu1.Ethernet.rx");
  g.add_transfer(tx, rx, 4000, 1000.0, 0.0, "grad");
  sim::RateTimeline rates;
  rates.add_window(tx, 1.0, 3.0, 0.5);  // half speed on [1, 3)
  sim::ExecutorOptions exec_options;
  exec_options.rates = &rates;
  const sim::SimResult result = sim::TaskGraphExecutor{exec_options}.run(g);
  // 4 s of serialization: 1 s done on [0,1), 1 s on [1,3) at half speed,
  // the last 2 s at nominal -> makespan 5 s.
  EXPECT_DOUBLE_EQ(result.makespan(), 5.0);
  const Timeline t = extract_timeline(g, result, {}, {}, &rates);
  const NaiveTimeline naive = naive_timeline(g, result, {}, &rates);
  ASSERT_EQ(t.overlays.size(), 1u);
  const RateOverlay& overlay = t.overlays[0];
  EXPECT_EQ(overlay.resource, tx);
  EXPECT_EQ(overlay.name, "gpu0.Ethernet.tx");
  EXPECT_DOUBLE_EQ(overlay.effective.value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(overlay.effective.value_at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(overlay.effective.value_at(2.9), 0.5);
  EXPECT_DOUBLE_EQ(overlay.effective.value_at(3.0), 1.0);
  EXPECT_DOUBLE_EQ(overlay.degraded_total, 2.0);
  // The stretched occupancy is what the busy series records — exactness
  // holds under degradation because ports_free carries the stretch.
  EXPECT_DOUBLE_EQ(naive.resources[tx].busy.integral(0.0, t.makespan),
                   t.resources[tx].busy_total);
  EXPECT_DOUBLE_EQ(t.resources[tx].busy_total, 5.0);
  expect_matches_naive(naive, g, result, {}, {}, &rates);
}

}  // namespace
}  // namespace holmes::obs
