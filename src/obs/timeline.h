#pragma once

/// \file timeline.h
/// Exact time-resolved telemetry derived from executed TaskTiming records.
///
/// Every artifact the observability layer emitted before this file is an
/// aggregate over the whole run (or a single window): utilizations, bubble
/// fractions, critical-path buckets. This file adds the *time axis back*:
///
///  - per-resource busy occupancy (0/1 for a serial resource) and
///    ready-queue depth as piecewise-constant step series;
///  - per-channel in-flight bytes and cumulative delivered-byte curves;
///  - per-NIC-class busy-port counts with saturation-interval extraction
///    (maximal intervals where at least `threshold` of the class's ports
///    are simultaneously busy — the paper's Fig. 3 "the Ethernet fallback
///    is the binding constraint *while* grad-sync is in flight" made
///    machine-checkable);
///  - effective-vs-nominal rate overlays wherever a sim::RateTimeline
///    degraded a resource (fault windows become visible dips);
///  - per-link "top talker" ranking and per-channel burst/peak detection.
///
/// Exactness contract: every aggregate (busy seconds, waiting seconds,
/// bytes, task counts) is copied from obs/accounting.h — the same per-task
/// arithmetic in the same task-id iteration order — so the timeline's
/// totals equal the accounting layer's *bit for bit*. Occupancy intervals
/// use the executor's `ports_free` stretching via serialization_of, never a
/// recomputed bytes/bandwidth.
///
/// Construction: curves are built one slot (a resource, a channel or a NIC
/// class) at a time and reduced to what a report prints before the next is
/// built, so nothing held grows with slots x breakpoints. A slot's events
/// are emitted in task-id order, each list is time-sorted (usually just an
/// is_sorted check), and one linear walk turns it into a StepSeries. Every
/// delta is integer-valued (+-1 port or queue counts, +-bytes), so the
/// walks' running sums match an id-ordered from_deltas construction bit
/// for bit.
///  - extract_timeline keeps each channel's bucketed in-flight curve, its
///    right-edge cumulative samples and its peak, built from a per-channel
///    index of the transfers; the per-class busy-port curves and the rate
///    overlays stay whole series.
///  - Per-resource occupancy and queue depth are not part of Timeline:
///    ResourceSeriesIndex builds them from a per-port index of the executed
///    tasks for one resource per call, only for the resources a writer
///    asks for.
///  - The per-class busy-port curves come from one routine,
///    extract_class_timelines, which callers needing only those curves use
///    on its own.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/accounting.h"
#include "sim/executor.h"
#include "sim/task_graph.h"

namespace holmes::sim {
class RateTimeline;
}  // namespace holmes::sim

namespace holmes::obs {

/// Piecewise-constant step series: value is values()[i] on
/// [times()[i], times()[i+1]) and values().back() from times().back() on;
/// 0.0 before the first breakpoint (and everywhere when empty).
class StepSeries {
 public:
  StepSeries() = default;

  /// Builds from (time, delta) events: the value at t is the sum of every
  /// delta stamped <= t. Events are stable-sorted by time (insertion order
  /// breaks ties, keeping construction deterministic for the id-ordered
  /// passes that feed it); equal-time deltas coalesce into one breakpoint
  /// and breakpoints that do not change the value are dropped.
  static StepSeries from_deltas(std::vector<std::pair<SimTime, double>> deltas);

  /// Builds from explicit breakpoints: `values[i]` holds on
  /// [times[i], times[i+1]). Times must be strictly increasing.
  static StepSeries from_levels(std::vector<SimTime> times,
                                std::vector<double> values);

  bool empty() const { return times_.empty(); }
  std::size_t breakpoints() const { return times_.size(); }
  const std::vector<SimTime>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Value at time `t` (0.0 before the first breakpoint).
  double value_at(SimTime t) const;

  /// Maximum value attained anywhere in [begin, end); 0 when the window is
  /// empty or the series is silent there.
  double maximum(SimTime begin, SimTime end) const;

  /// First instant in [begin, end) at which `maximum` is attained (begin
  /// when the series is silent).
  SimTime maximum_at(SimTime begin, SimTime end) const;

  /// Integral of the series over [begin, end).
  double integral(SimTime begin, SimTime end) const;

  /// Time-weighted mean over [begin, end); 0 for an empty window.
  double average(SimTime begin, SimTime end) const;

  /// `buckets` time-weighted means tiling [begin, end) into equal buckets.
  std::vector<double> bucketize(SimTime begin, SimTime end,
                                int buckets) const;

  /// Maximal intervals inside [begin, end) where the value is >=
  /// `threshold`, in time order.
  std::vector<std::pair<SimTime, SimTime>> intervals_at_least(
      double threshold, SimTime begin, SimTime end) const;

 private:
  std::vector<SimTime> times_;
  std::vector<double> values_;
};

/// Gives a resource's reporting class (e.g. "Ethernet", "InfiniBand",
/// "compute") by id. The core layer supplies it from the run's
/// net::PortMap, which registered the resources and knows what each one
/// is; an empty function classifies everything as "unknown".
using ResourceClassifier = std::function<std::string(sim::ResourceId)>;

struct TimelineOptions {
  /// Observation window for the aggregates, saturation extraction, and
  /// bucketed channel curves. The class and overlay series always cover
  /// the whole run.
  Window window = {};
  /// An instant is *saturated* for a class when at least this fraction of
  /// the class's ports are simultaneously busy (1.0 = every port).
  double saturation_threshold = 1.0;
  /// Equal buckets tiling the window for each channel's in-flight means
  /// and cumulative samples (values below 1 count as 1).
  int buckets = 48;
};

struct ResourceTimeline {
  sim::ResourceId id = -1;
  std::string name;
  std::string nic_class;   ///< classifier output ("compute" for devices)
  bool is_device = false;
  bool is_link = false;
  SimTime busy_total = 0;     ///< accounting-exact, window-clipped
  SimTime waiting_total = 0;  ///< accounting-exact, window-clipped
  Bytes bytes = 0;
  std::size_t tasks = 0;
};

struct ChannelTimeline {
  sim::ChannelId id = -1;
  std::string name;
  Bytes bytes = 0;  ///< accounting-exact, start-in-window attribution
  std::size_t transfers = 0;
  SimTime busy_total = 0;
  /// Bytes in flight (start..finish of members): the time-weighted mean of
  /// each of TimelineOptions::buckets equal buckets of the window.
  std::vector<double> in_flight;
  /// Bytes delivered by each bucket's right edge, so the last sample is
  /// the total delivered by the window's end.
  std::vector<double> cumulative;
  double peak_in_flight = 0;  ///< max in-flight bytes inside the window
  SimTime peak_at = 0;        ///< first instant the peak is attained
};

struct ClassTimeline {
  std::string nic_class;
  std::size_t ports = 0;   ///< link resources in the class
  SimTime busy_total = 0;  ///< sum of member busy totals, id order
  StepSeries busy_ports;   ///< simultaneously busy port count
  /// Maximal saturated intervals inside the window (see
  /// TimelineOptions::saturation_threshold), and their total measure.
  std::vector<std::pair<SimTime, SimTime>> saturated;
  SimTime saturated_total = 0;
};

struct RateOverlay {
  sim::ResourceId resource = -1;
  std::string name;
  StepSeries effective;       ///< min(1, compound factor), breakpoint-exact
  SimTime degraded_total = 0; ///< seconds with effective rate < 1 in-window
};

struct TopTalker {
  sim::ResourceId resource = -1;
  std::string name;
  std::string nic_class;
  Bytes bytes = 0;
  SimTime busy = 0;
  double share = 0;  ///< bytes / total link bytes (0 when no link traffic)
};

struct Timeline {
  Window window;        ///< resolved: end clipped to the makespan
  SimTime makespan = 0;
  std::vector<ResourceTimeline> resources;  ///< index == ResourceId
  std::vector<ChannelTimeline> channels;    ///< index == ChannelId
  std::vector<ClassTimeline> classes;       ///< link classes, sorted by name
  std::vector<RateOverlay> overlays;        ///< resources a rate window hit
  std::vector<TopTalker> top_talkers;       ///< links by bytes desc, id asc
};

/// Extracts the time-resolved telemetry of one executed run: every
/// aggregate, the bucketed channel curves, the class curves and the rate
/// overlays (per-resource curves come from ResourceSeriesIndex). `rates`
/// (optional) contributes the effective-rate overlays; `classify` names the
/// NIC class of each resource.
Timeline extract_timeline(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const TimelineOptions& options = {},
                          const ResourceClassifier& classify = {},
                          const sim::RateTimeline* rates = nullptr);

/// The per-NIC-class busy-port curves alone: each link class's
/// `nic_class`, `ports` and `busy_ports`, sorted by name, exactly as
/// extract_timeline reports them (it builds its `classes` here).
/// `busy_total` and the saturation fields are left empty. One scan of the
/// graph finds the links; one pass over the executed tasks collects their
/// busy intervals. No accounting, dependency walk, or per-resource or
/// per-channel series, so callers that need only the class curves (the
/// recovery report's occupancy deltas) skip the rest of the timeline.
std::vector<ClassTimeline> extract_class_timelines(
    const sim::TaskGraph& graph, const sim::SimResult& result,
    const ResourceClassifier& classify = {});

/// One resource's step series over the whole run.
struct ResourceSeries {
  StepSeries busy;   ///< 0/1 occupancy (serial resources never overlap)
  StepSeries queue;  ///< ready-but-blocked task count for this resource
};

/// Builds each resource's occupancy and ready-queue depth on demand, one
/// resource per call, from a per-port index of the executed compute and
/// transfer tasks (task ids in id order: 4 bytes per port a task holds).
/// A task's ready instant (its latest dependency finish) is derived when
/// one of its ports is built. Holds references to `graph` and `result`,
/// which must outlive it.
class ResourceSeriesIndex {
 public:
  ResourceSeriesIndex(const sim::TaskGraph& graph,
                      const sim::SimResult& result);

  ResourceSeries series(sim::ResourceId resource) const;

 private:
  const sim::TaskGraph& graph_;
  const sim::SimResult& result_;
  std::vector<std::uint32_t> offsets_;  ///< resource r's tasks: [r], [r+1)
  std::vector<sim::TaskId> tasks_;
};

}  // namespace holmes::obs
