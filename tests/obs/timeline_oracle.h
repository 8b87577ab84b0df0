#pragma once

/// Test-only reference for obs/timeline.h: every step series built the
/// naive way, with StepSeries::from_deltas over +-1 and +-bytes deltas
/// emitted in task-id order (or, for rate overlays, from the rate
/// timeline's own rate_at at every window edge). It shares no event list,
/// sort or merge with the library, so comparing the two catches a slip in
/// either. expect_matches_naive holds the library's bucketed curves,
/// cumulative samples, peaks, class curves and overlays to it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeline.h"
#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "sim/task_graph.h"

namespace holmes::obs::testing {

struct NaiveResource {
  StepSeries busy;
  StepSeries queue;
};

struct NaiveChannel {
  StepSeries in_flight;
  StepSeries cumulative;
};

struct NaiveTimeline {
  std::vector<NaiveResource> resources;      ///< index == ResourceId
  std::vector<NaiveChannel> channels;        ///< index == ChannelId
  std::map<std::string, StepSeries> classes;  ///< busy link ports per class
  std::map<sim::ResourceId, StepSeries> overlays;  ///< effective rate
};

/// Builds every series of `graph`'s executed run from per-slot delta
/// lists, one pass over the tasks in id order.
inline NaiveTimeline naive_timeline(const sim::TaskGraph& graph,
                                    const sim::SimResult& result,
                                    const ResourceClassifier& classify = {},
                                    const sim::RateTimeline* rates = nullptr) {
  using Deltas = std::vector<std::pair<SimTime, double>>;
  const std::vector<sim::Task>& tasks = graph.tasks();
  // Links are the resources some transfer serializes on; only they count
  // toward a NIC class.
  std::vector<bool> is_link(graph.resource_count(), false);
  for (const sim::Task& task : tasks) {
    if (task.kind != sim::TaskKind::kTransfer) continue;
    is_link[static_cast<std::size_t>(task.resource)] = true;
    is_link[static_cast<std::size_t>(task.dst_port)] = true;
  }
  std::vector<std::string> class_of(is_link.size());
  for (std::size_t r = 0; r < is_link.size(); ++r) {
    if (!is_link[r]) continue;
    class_of[r] = classify ? classify(static_cast<sim::ResourceId>(r))
                           : std::string("unknown");
  }
  std::vector<Deltas> busy(graph.resource_count());
  std::vector<Deltas> queue(graph.resource_count());
  std::vector<Deltas> in_flight(graph.channel_count());
  std::vector<Deltas> delivered(graph.channel_count());
  std::map<std::string, Deltas> ports_busy;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const sim::Task& task = tasks[i];
    if (task.kind == sim::TaskKind::kNoop) continue;
    const auto id = static_cast<sim::TaskId>(i);
    const sim::TaskTiming& timing = result.timing(id);
    // A compute task holds its device to its finish; a transfer holds its
    // ports for the serialization only (the latency occupies none).
    const bool compute = task.kind == sim::TaskKind::kCompute;
    const SimTime held_until =
        compute ? timing.finish
                : timing.start +
                      std::max(0.0, timing.finish - timing.start - task.latency);
    SimTime ready = 0;
    for (sim::TaskId dep : graph.deps(id)) {
      ready = std::max(ready, result.timing(dep).finish);
    }
    std::vector<std::size_t> ports{static_cast<std::size_t>(task.resource)};
    if (task.dst_port != task.resource) {
      ports.push_back(static_cast<std::size_t>(task.dst_port));
    }
    for (std::size_t port : ports) {
      if (held_until > timing.start) {
        busy[port].emplace_back(timing.start, 1.0);
        busy[port].emplace_back(held_until, -1.0);
        if (is_link[port]) {
          ports_busy[class_of[port]].emplace_back(timing.start, 1.0);
          ports_busy[class_of[port]].emplace_back(held_until, -1.0);
        }
      }
      if (timing.start > ready) {
        queue[port].emplace_back(ready, 1.0);
        queue[port].emplace_back(timing.start, -1.0);
      }
    }
    const sim::TaskInfo& info = graph.info(id);
    if (!compute && info.channel != sim::kInvalidChannel) {
      const auto c = static_cast<std::size_t>(info.channel);
      const auto bytes = static_cast<double>(info.bytes);
      in_flight[c].emplace_back(timing.start, bytes);
      in_flight[c].emplace_back(timing.finish, -bytes);
      delivered[c].emplace_back(timing.finish, bytes);
    }
  }

  NaiveTimeline naive;
  for (std::size_t r = 0; r < busy.size(); ++r) {
    naive.resources.push_back({StepSeries::from_deltas(std::move(busy[r])),
                               StepSeries::from_deltas(std::move(queue[r]))});
  }
  for (std::size_t c = 0; c < in_flight.size(); ++c) {
    naive.channels.push_back(
        {StepSeries::from_deltas(std::move(in_flight[c])),
         StepSeries::from_deltas(std::move(delivered[c]))});
  }
  for (std::size_t r = 0; r < is_link.size(); ++r) {
    if (is_link[r]) naive.classes.emplace(class_of[r], StepSeries{});
  }
  for (auto& [cls, deltas] : ports_busy) {
    naive.classes[cls] = StepSeries::from_deltas(std::move(deltas));
  }
  if (rates != nullptr) {
    std::map<sim::ResourceId, std::vector<SimTime>> edges;
    for (const sim::RateTimeline::AppliedWindow& w : rates->windows()) {
      edges[w.resource].push_back(w.begin);
      edges[w.resource].push_back(w.end);
    }
    for (auto& [resource, times] : edges) {
      times.push_back(0.0);
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      std::vector<double> levels;
      for (SimTime t : times) {
        levels.push_back(std::min(1.0, rates->rate_at(resource, t)));
      }
      naive.overlays[resource] =
          StepSeries::from_levels(std::move(times), std::move(levels));
    }
  }
  return naive;
}

/// The bucket counts every comparison runs at: one bucket, an odd count
/// whose edges are inexact, the CLI default and the CLI's maximum.
inline constexpr int kOracleBucketCounts[] = {1, 7, 48, 10000};

/// The right edges at which a cumulative curve is sampled: bucket i's end,
/// the last one the window's end itself.
inline std::vector<SimTime> right_edges(const Window& window, int buckets) {
  std::vector<SimTime> edges;
  const double span = window.end - window.begin;
  for (int i = 0; i < buckets; ++i) {
    edges.push_back(i + 1 == buckets
                        ? window.end
                        : window.begin + span * (static_cast<double>(i + 1) /
                                                 buckets));
  }
  return edges;
}

/// Extracts the timeline under `options` at every kOracleBucketCounts
/// count and EXPECTs each resource's series and buckets (through
/// ResourceSeriesIndex), each channel's buckets, cumulative samples, peak
/// and peak instant, each class curve and each overlay to equal `naive`'s
/// exactly.
inline void expect_matches_naive(const NaiveTimeline& naive,
                                 const sim::TaskGraph& graph,
                                 const sim::SimResult& result,
                                 TimelineOptions options,
                                 const ResourceClassifier& classify = {},
                                 const sim::RateTimeline* rates = nullptr) {
  const ResourceSeriesIndex index(graph, result);
  for (int buckets : kOracleBucketCounts) {
    SCOPED_TRACE("buckets " + std::to_string(buckets));
    options.buckets = buckets;
    const Timeline t = extract_timeline(graph, result, options, classify, rates);
    const Window& w = t.window;

    ASSERT_EQ(t.resources.size(), naive.resources.size());
    for (std::size_t r = 0; r < naive.resources.size(); ++r) {
      SCOPED_TRACE(t.resources[r].name);
      const ResourceSeries series =
          index.series(static_cast<sim::ResourceId>(r));
      const NaiveResource& want = naive.resources[r];
      EXPECT_EQ(series.busy.times(), want.busy.times());
      EXPECT_EQ(series.busy.values(), want.busy.values());
      EXPECT_EQ(series.queue.times(), want.queue.times());
      EXPECT_EQ(series.queue.values(), want.queue.values());
      EXPECT_EQ(series.busy.bucketize(w.begin, w.end, buckets),
                want.busy.bucketize(w.begin, w.end, buckets));
      EXPECT_EQ(series.queue.bucketize(w.begin, w.end, buckets),
                want.queue.bucketize(w.begin, w.end, buckets));
    }

    ASSERT_EQ(t.channels.size(), naive.channels.size());
    const std::vector<SimTime> edges = right_edges(w, buckets);
    for (std::size_t c = 0; c < naive.channels.size(); ++c) {
      SCOPED_TRACE(t.channels[c].name);
      const ChannelTimeline& chan = t.channels[c];
      const NaiveChannel& want = naive.channels[c];
      EXPECT_EQ(chan.in_flight, want.in_flight.bucketize(w.begin, w.end, buckets));
      std::vector<double> samples;
      for (SimTime edge : edges) samples.push_back(want.cumulative.value_at(edge));
      EXPECT_EQ(chan.cumulative, samples);
      EXPECT_EQ(chan.peak_in_flight, want.in_flight.maximum(w.begin, w.end));
      EXPECT_EQ(chan.peak_at, want.in_flight.maximum_at(w.begin, w.end));
    }

    ASSERT_EQ(t.classes.size(), naive.classes.size());
    for (const ClassTimeline& cls : t.classes) {
      SCOPED_TRACE(cls.nic_class);
      const auto want = naive.classes.find(cls.nic_class);
      ASSERT_NE(want, naive.classes.end());
      EXPECT_EQ(cls.busy_ports.times(), want->second.times());
      EXPECT_EQ(cls.busy_ports.values(), want->second.values());
      EXPECT_EQ(cls.busy_ports.bucketize(w.begin, w.end, buckets),
                want->second.bucketize(w.begin, w.end, buckets));
    }

    ASSERT_EQ(t.overlays.size(), naive.overlays.size());
    for (const RateOverlay& overlay : t.overlays) {
      SCOPED_TRACE(overlay.name);
      const auto want = naive.overlays.find(overlay.resource);
      ASSERT_NE(want, naive.overlays.end());
      EXPECT_EQ(overlay.effective.bucketize(w.begin, w.end, buckets),
                want->second.bucketize(w.begin, w.end, buckets));
      for (SimTime at : want->second.times()) {
        EXPECT_EQ(overlay.effective.value_at(at), want->second.value_at(at))
            << "at " << at;
      }
    }
  }
}

}  // namespace holmes::obs::testing
