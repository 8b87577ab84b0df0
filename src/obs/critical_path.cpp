#include "obs/critical_path.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "obs/timing_internal.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

namespace holmes::obs {

namespace {

using detail::ready_time;

/// One occupancy of a serial resource.
struct Occupancy {
  SimTime acquire = 0;
  SimTime release = 0;
  sim::TaskId task = sim::kInvalidTask;
};

/// Chain element plus how it was entered (walking forward in time).
struct ChainLink {
  sim::TaskId task = sim::kInvalidTask;
  PathEdge edge = PathEdge::kStart;
  /// For kResource: the contended resource the *successor* waited on.
  sim::ResourceId blocked_resource = -1;
};

}  // namespace

const char* to_string(PathEdge edge) {
  switch (edge) {
    case PathEdge::kStart: return "start";
    case PathEdge::kDependency: return "dependency";
    case PathEdge::kResource: return "resource";
  }
  return "?";
}

const char* to_string(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kCompute: return "compute";
    case SegmentKind::kCommBusy: return "comm";
    case SegmentKind::kCommLatency: return "latency";
    case SegmentKind::kQueueWait: return "wait";
  }
  return "?";
}

CriticalPath extract_critical_path(const sim::TaskGraph& graph,
                                   const sim::SimResult& result) {
  CriticalPath path;
  path.makespan = result.makespan();
  const std::size_t n = graph.task_count();
  if (n == 0) return path;

  // Per-resource occupancy lists in acquire order (ties by task id), for
  // finding the occupant whose release bound a resource-blocked start. A
  // task releases its resources at the executor's own recorded ports_free,
  // so comparisons against start times are exact even when a fault timeline
  // stretched the occupancy beyond bytes/bandwidth.
  std::vector<std::vector<Occupancy>> occupancy(graph.resource_count());
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Task& task = graph.tasks()[i];
    if (task.kind == sim::TaskKind::kNoop) continue;
    const sim::TaskTiming& timing = result.timing(static_cast<sim::TaskId>(i));
    const Occupancy held{timing.start, timing.ports_free,
                         static_cast<sim::TaskId>(i)};
    occupancy[static_cast<std::size_t>(task.resource)].push_back(held);
    if (task.dst_port != task.resource) {
      occupancy[static_cast<std::size_t>(task.dst_port)].push_back(held);
    }
  }
  // Prefix maxima of release times let the blocker search below stop as
  // soon as no earlier occupant can still be holding the resource (sorted
  // order only approximates placement order around zero-duration
  // occupancies, so a plain "previous entry" lookup would be unsound).
  std::vector<std::vector<SimTime>> release_prefix_max(graph.resource_count());
  for (std::size_t r = 0; r < occupancy.size(); ++r) {
    auto& list = occupancy[r];
    std::sort(list.begin(), list.end(), [](const Occupancy& a, const Occupancy& b) {
      if (a.acquire != b.acquire) return a.acquire < b.acquire;
      return a.task < b.task;
    });
    auto& prefix = release_prefix_max[r];
    prefix.reserve(list.size());
    SimTime running = -std::numeric_limits<SimTime>::infinity();
    for (const Occupancy& o : list) {
      running = std::max(running, o.release);
      prefix.push_back(running);
    }
  }

  // The occupant of `resource` whose release bound a start at `at`,
  // searching before task `after` in occupancy order. Returns kInvalidTask
  // when no prior occupant released exactly then (the resource was not the
  // binding constraint).
  auto blocking_occupant = [&](sim::ResourceId resource, SimTime at,
                               sim::TaskId after) {
    const auto& list = occupancy[static_cast<std::size_t>(resource)];
    const auto& prefix = release_prefix_max[static_cast<std::size_t>(resource)];
    auto it = std::find_if(list.begin(), list.end(), [after](const Occupancy& o) {
      return o.task == after;
    });
    HOLMES_CHECK(it != list.end());
    while (it != list.begin()) {
      --it;
      const auto index = static_cast<std::size_t>(it - list.begin());
      if (prefix[index] < at) break;  // nothing earlier still holds it
      if (it->release == at) return it->task;
    }
    return sim::kInvalidTask;
  };

  // Terminal task: latest finish, ties to the lowest id.
  sim::TaskId terminal = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (result.timing(static_cast<sim::TaskId>(i)).finish >
        result.timing(terminal).finish) {
      terminal = static_cast<sim::TaskId>(i);
    }
  }

  // Walk the binding constraints backwards from the terminal task. Each
  // link records the edge that bound its own start — i.e. how it is
  // entered when reading the chain forward in time.
  std::vector<ChainLink> chain;  // reverse time order while walking
  sim::TaskId cur = terminal;
  while (true) {
    chain.push_back({cur, PathEdge::kStart, -1});
    HOLMES_CHECK_MSG(chain.size() <= 2 * n + 1,
                     "critical-path walk did not terminate");
    const sim::Task& task = graph.task(cur);
    const sim::TaskTiming& timing = result.timing(cur);
    if (timing.start <= 0) break;

    const SimTime ready = ready_time(graph, result, cur);
    if (ready == timing.start) {
      // Dependency-bound: the latest-finishing dependency (lowest id wins
      // ties) is the predecessor.
      sim::TaskId pred = sim::kInvalidTask;
      for (sim::TaskId dep : graph.deps(cur)) {
        if (result.timing(dep).finish == ready &&
            (pred == sim::kInvalidTask || dep < pred)) {
          pred = dep;
        }
      }
      HOLMES_CHECK(pred != sim::kInvalidTask);
      chain.back().edge = PathEdge::kDependency;
      cur = pred;
      continue;
    }

    // Resource-bound: one of the task's serial resources was held until
    // exactly this start time.
    std::vector<sim::ResourceId> resources;
    if (task.kind != sim::TaskKind::kNoop) {
      resources = {task.resource};
      if (task.dst_port != task.resource) resources.push_back(task.dst_port);
    }
    sim::TaskId pred = sim::kInvalidTask;
    sim::ResourceId bound_resource = -1;
    for (sim::ResourceId r : resources) {
      const sim::TaskId candidate = blocking_occupant(r, timing.start, cur);
      if (candidate != sim::kInvalidTask) {
        pred = candidate;
        bound_resource = r;
        break;
      }
    }
    HOLMES_CHECK_MSG(pred != sim::kInvalidTask,
                     "no binding constraint found for a delayed task");
    chain.back().edge = PathEdge::kResource;
    chain.back().blocked_resource = bound_resource;
    cur = pred;
  }
  std::reverse(chain.begin(), chain.end());

  // Chain -> segments. Interval k spans [start_k, start_{k+1}) (the last
  // spans to the makespan); split busy / latency / queue-wait parts.
  path.tasks.reserve(chain.size());
  for (const ChainLink& link : chain) path.tasks.push_back(link.task);

  auto emit = [&path](sim::TaskId task, SegmentKind kind, PathEdge edge,
                      SimTime begin, SimTime end, sim::ResourceId resource,
                      sim::TaskId holder) {
    if (end <= begin) return;
    path.segments.push_back({task, kind, edge, begin, end, resource, holder});
  };

  for (std::size_t k = 0; k < chain.size(); ++k) {
    const ChainLink& link = chain[k];
    const sim::Task& task = graph.task(link.task);
    const sim::TaskTiming& timing = result.timing(link.task);
    const bool last = k + 1 == chain.size();
    const SimTime next_bind =
        last ? path.makespan : result.timing(chain[k + 1].task).start;
    const SimTime release = timing.ports_free;
    const SegmentKind busy_kind = task.kind == sim::TaskKind::kTransfer
                                      ? SegmentKind::kCommBusy
                                      : SegmentKind::kCompute;

    if (!last && chain[k + 1].edge == PathEdge::kResource) {
      // The successor sat ready while this task held the resource: the tail
      // of the interval from its ready time is queue wait (contention).
      const SimTime ready_next = ready_time(graph, result, chain[k + 1].task);
      const SimTime wait_begin = std::max(timing.start, ready_next);
      emit(link.task, busy_kind, link.edge, timing.start, wait_begin,
           task.resource, link.task);
      emit(chain[k + 1].task, SegmentKind::kQueueWait, PathEdge::kResource,
           wait_begin, next_bind, chain[k + 1].blocked_resource, link.task);
    } else {
      // Dependency-bound successor (or the terminal task): the interval
      // runs to this task's finish; a transfer contributes its propagation
      // latency after the ports free.
      emit(link.task, busy_kind, link.edge, timing.start,
           std::min(release, next_bind), task.resource, link.task);
      emit(link.task, SegmentKind::kCommLatency, link.edge,
           std::min(release, next_bind), next_bind, task.resource, link.task);
    }
  }
  return path;
}

// ---------------------------------------------------------------------------
// Stable JSON + text report
// ---------------------------------------------------------------------------

namespace {

void field(std::ostream& out, const char* key, const std::string& value,
           bool* first) {
  if (!*first) out << ",";
  *first = false;
  out << "\"" << key << "\":\"" << json_escape(value) << "\"";
}

void field(std::ostream& out, const char* key, double value, bool* first) {
  if (!*first) out << ",";
  *first = false;
  out << "\"" << key << "\":" << json_number(value);
}

void field(std::ostream& out, const char* key, std::uint64_t value,
           bool* first) {
  if (!*first) out << ",";
  *first = false;
  out << "\"" << key << "\":" << value;
}

void field(std::ostream& out, const char* key, std::int32_t value,
           bool* first) {
  if (!*first) out << ",";
  *first = false;
  out << "\"" << key << "\":" << value;
}

}  // namespace

void write_json(std::ostream& out, const CriticalPathSummary& s) {
  out << "{";
  bool first = true;
  field(out, "schema", s.schema, &first);
  field(out, "topology", s.topology, &first);
  field(out, "framework", s.framework, &first);
  field(out, "workload", s.workload, &first);
  field(out, "makespan_s", s.makespan_s, &first);
  field(out, "iteration_s", s.iteration_s, &first);
  field(out, "window_begin_s", s.window_begin_s, &first);
  field(out, "window_end_s", s.window_end_s, &first);
  field(out, "total_segments", s.total_segments, &first);
  out << ",\"buckets\":[";
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    const CriticalPathSummary::Bucket& b = s.buckets[i];
    if (i > 0) out << ",";
    out << "{";
    bool f = true;
    field(out, "name", b.name, &f);
    field(out, "kind", b.kind, &f);
    field(out, "seconds", b.seconds, &f);
    field(out, "share", b.share, &f);
    field(out, "segments", b.segments, &f);
    out << "}";
  }
  out << "],\"top_segments\":[";
  for (std::size_t i = 0; i < s.top_segments.size(); ++i) {
    const CriticalPathSummary::Segment& seg = s.top_segments[i];
    if (i > 0) out << ",";
    out << "{";
    bool f = true;
    field(out, "task", seg.task, &f);
    field(out, "label", seg.label, &f);
    field(out, "kind", seg.kind, &f);
    field(out, "edge", seg.edge, &f);
    field(out, "resource", seg.resource, &f);
    field(out, "bucket", seg.bucket, &f);
    field(out, "begin_s", seg.begin_s, &f);
    field(out, "end_s", seg.end_s, &f);
    out << "}";
  }
  out << "],\"sensitivities\":[";
  for (std::size_t i = 0; i < s.sensitivities.size(); ++i) {
    const CriticalPathSummary::Sensitivity& sv = s.sensitivities[i];
    if (i > 0) out << ",";
    out << "{";
    bool f = true;
    field(out, "bucket", sv.bucket, &f);
    field(out, "critical_s", sv.critical_s, &f);
    field(out, "dmakespan_ds", sv.dmakespan_ds, &f);
    field(out, "savings_10pct_s", sv.savings_10pct_s, &f);
    out << "}";
  }
  out << "]}";
}

void print_text(std::ostream& out, const CriticalPathSummary& s,
                std::size_t top) {
  out << s.framework << " / " << s.workload << " on " << s.topology << "\n"
      << "critical path over " << format_time(s.makespan_s) << " makespan ("
      << s.total_segments << " segments)\n";
  const bool windowed = s.window_begin_s > 0 || s.window_end_s < s.makespan_s;
  if (windowed) {
    out << "attribution window [" << json_number(s.window_begin_s) << ", "
        << json_number(s.window_end_s) << "] s\n";
  }
  out << "\n";

  TextTable buckets({"Bucket", "Kind", "Seconds", "Share %", "Segments"});
  for (const CriticalPathSummary::Bucket& b : s.buckets) {
    buckets.add_row({b.name, b.kind, TextTable::num(b.seconds, 4),
                     TextTable::num(b.share * 100, 1),
                     TextTable::num(static_cast<std::int64_t>(b.segments))});
  }
  out << (windowed
              ? "makespan attribution (buckets sum to the window exactly)\n"
              : "makespan attribution (buckets sum to the makespan exactly)\n")
      << buckets.to_string();

  TextTable segments({"Start", "Duration", "Kind", "Bucket", "Task", "Resource"});
  for (std::size_t i = 0; i < std::min(top, s.top_segments.size()); ++i) {
    const CriticalPathSummary::Segment& seg = s.top_segments[i];
    segments.add_row({TextTable::num(seg.begin_s, 4),
                      format_time(seg.end_s - seg.begin_s), seg.kind,
                      seg.bucket, seg.label, seg.resource});
  }
  out << "\nlongest segments (" << std::min(top, s.top_segments.size())
      << " of " << s.total_segments << ")\n"
      << segments.to_string();

  TextTable whatif({"Speed up", "On path", "d(makespan)/d(speed)", "10% => saves"});
  for (std::size_t i = 0; i < std::min(top, s.sensitivities.size()); ++i) {
    const CriticalPathSummary::Sensitivity& sv = s.sensitivities[i];
    whatif.add_row({sv.bucket, format_time(sv.critical_s),
                    TextTable::num(sv.dmakespan_ds, 4),
                    format_time(sv.savings_10pct_s)});
  }
  out << "\nwhat-if sensitivities (first-order, slack analysis)\n"
      << whatif.to_string();
}

}  // namespace holmes::obs
