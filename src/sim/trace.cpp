#include "sim/trace.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/rate_timeline.h"
#include "util/json.h"

namespace holmes::sim {

namespace {

/// Process id of every event: a trace holds one simulation.
constexpr int kPid = 1;

const char* kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kCompute: return "compute";
    case TaskKind::kTransfer: return "transfer";
    case TaskKind::kNoop: return "noop";
  }
  return "?";
}

/// A slice's name: the task's label, or its kind when it has none.
std::string slice_name(const TaskGraph& graph, TaskId id) {
  const std::string& label = graph.label(id);
  return json_escape(label.empty() ? kind_name(graph.task(id).kind) : label);
}

/// A simulated time in the trace's unit, microseconds, written as every JSON
/// number is: 12 significant digits keep 0.1 ns at 50 simulated seconds.
std::string micros(SimTime seconds) { return json_number(seconds * 1e6); }

/// Accumulates step deltas per timestamp for one counter track and emits
/// the resulting staircase as "C" events. Steps append to a flat vector —
/// one sort at emit time replaces the per-step ordered-map rebalancing the
/// old implementation paid on every call.
class CounterTrack {
 public:
  CounterTrack(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  void step(SimTime at, double delta) { steps_.push_back({at, delta}); }

  /// Writes the staircase, each event preceded by a comma (it follows the
  /// trace's metadata events).
  void emit(std::ostream& out) {
    // stable_sort keeps equal-timestamp deltas in step() call order, so the
    // per-timestamp sum adds in exactly the order the old map accumulated —
    // output stays byte-identical.
    std::stable_sort(steps_.begin(), steps_.end(),
                     [](const std::pair<SimTime, double>& a,
                        const std::pair<SimTime, double>& b) {
                       return a.first < b.first;
                     });
    double value = 0;
    for (std::size_t i = 0; i < steps_.size();) {
      const SimTime at = steps_[i].first;
      double delta = 0;
      for (; i < steps_.size() && steps_[i].first == at; ++i) {
        delta += steps_[i].second;
      }
      if (delta == 0) continue;
      value += delta;
      // Clamp tiny negative float residue so the track never dips below 0.
      const double shown = value < 0 && value > -1e-9 ? 0 : value;
      out << ",\n{\"name\":\"" << json_escape(name_)
          << "\",\"ph\":\"C\",\"pid\":" << kPid << ",\"ts\":" << micros(at)
          << ",\"args\":{\"" << unit_ << "\":" << json_number(shown) << "}}";
    }
  }

 private:
  std::string name_;
  std::string unit_;
  std::vector<std::pair<SimTime, double>> steps_;  ///< unsorted until emit
};

}  // namespace

void write_chrome_trace(std::ostream& out, const TaskGraph& graph,
                        const SimResult& result, const TraceOptions& options) {
  // Process-name metadata, then thread-name metadata: one row per resource.
  // Every later event follows one of these, so each opens with a comma.
  out << "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
      << ",\"args\":{\"name\":\"holmes simulation\"}}";
  for (std::size_t r = 0; r < graph.resource_count(); ++r) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
        << ",\"tid\":" << r << ",\"args\":{\"name\":\""
        << json_escape(graph.resource_name(static_cast<ResourceId>(r)))
        << "\"}}";
  }
  // The emphasized critical-path lane sits below the resource rows.
  const std::size_t critical_row = graph.resource_count();
  if (!options.critical_tasks.empty()) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
        << ",\"tid\":" << critical_row
        << ",\"args\":{\"name\":\"critical path\"}}";
  }

  CounterTrack compute_track("compute in flight", "devices");
  CounterTrack link_track("links busy", "ports");
  CounterTrack bytes_track("bytes in flight", "bytes");

  // Rows of the slices emitted, for flow-arrow endpoints (arrows must land
  // on visible slices; -1 marks the dropped noops).
  std::vector<ResourceId> slice_row(graph.task_count(), -1);

  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    const Task& task = graph.tasks()[i];
    const TaskInfo& info = graph.infos()[i];
    const TaskTiming& timing = result.timing(static_cast<TaskId>(i));
    const SimTime duration = timing.finish - timing.start;
    if (task.kind == TaskKind::kNoop) continue;

    if (task.kind == TaskKind::kCompute) {
      if (duration > 0) {
        compute_track.step(timing.start, 1);
        compute_track.step(timing.finish, -1);
      }
    } else {
      // Ports are busy for the serialization time only; the payload is
      // "in flight" until the transfer completes (incl. latency).
      const SimTime serialization = std::max(0.0, duration - task.latency);
      if (serialization > 0) {
        link_track.step(timing.start, 1);
        link_track.step(timing.start + serialization, -1);
      }
      if (info.bytes > 0 && duration > 0) {
        bytes_track.step(timing.start, static_cast<double>(info.bytes));
        bytes_track.step(timing.finish, -static_cast<double>(info.bytes));
      }
    }

    slice_row[i] = task.resource;  // a transfer's row is its TX port's
    out << ",\n{\"name\":\"" << slice_name(graph, static_cast<TaskId>(i))
        << "\",\"cat\":\"" << kind_name(task.kind)
        << "\",\"ph\":\"X\",\"pid\":" << kPid
        << ",\"tid\":" << task.resource << ",\"ts\":" << micros(timing.start)
        << ",\"dur\":" << micros(duration) << ",\"args\":{\"task\":" << i
        << ",\"tag\":" << info.tag << ",\"bytes\":" << info.bytes << "}}";
  }

  // One arrow per cross-row dependency edge: "s" anchored at the producer's
  // finish on its row, "f" (bp:"e" = bind to the enclosing slice) at the
  // consumer's start. Same-row edges read off adjacency.
  int flow_id = 0;
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    if (slice_row[i] < 0) continue;
    const TaskTiming& timing = result.timing(static_cast<TaskId>(i));
    for (TaskId dep : graph.deps(static_cast<TaskId>(i))) {
      const auto d = static_cast<std::size_t>(dep);
      if (slice_row[d] < 0 || slice_row[d] == slice_row[i]) continue;
      ++flow_id;
      const SimTime dep_finish = result.timing(dep).finish;
      out << ",\n{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":"
          << flow_id << ",\"pid\":" << kPid
          << ",\"tid\":" << slice_row[d] << ",\"ts\":" << micros(dep_finish)
          << ",\"args\":{\"task\":" << d << "}}";
      out << ",\n{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":"
          << "\"e\",\"id\":" << flow_id << ",\"pid\":" << kPid
          << ",\"tid\":" << slice_row[i] << ",\"ts\":" << micros(timing.start)
          << ",\"args\":{\"task\":" << i << "}}";
    }
  }

  // Duplicate the critical chain onto its own lane so the binding sequence
  // reads contiguously; cat "critical" makes the lane filterable.
  for (TaskId id : options.critical_tasks) {
    if (graph.task(id).kind == TaskKind::kNoop) continue;
    const TaskInfo& info = graph.info(id);
    const TaskTiming& timing = result.timing(id);
    out << ",\n{\"name\":\"" << slice_name(graph, id)
        << "\",\"cat\":\"critical\",\"ph\":\"X\",\"pid\":" << kPid
        << ",\"tid\":" << critical_row << ",\"ts\":" << micros(timing.start)
        << ",\"dur\":" << micros(timing.finish - timing.start)
        << ",\"args\":{\"task\":" << id << ",\"tag\":" << info.tag
        << ",\"bytes\":" << info.bytes << "}}";
  }

  compute_track.emit(out);
  link_track.emit(out);
  bytes_track.emit(out);

  // Effective-rate tracks: one breakpoint-exact staircase per resource a
  // rate window degraded, charting min(1, compound factor) — the pacing the
  // executor actually integrated through — so fault windows read as dips
  // right next to the slices they stretch.
  if (options.rates != nullptr) {
    auto emit_counter = [&](const std::string& name, SimTime at,
                            double value) {
      out << ",\n{\"name\":\"" << json_escape(name)
          << "\",\"ph\":\"C\",\"pid\":" << kPid << ",\"ts\":" << micros(at)
          << ",\"args\":{\"rate\":" << json_number(value) << "}}";
    };
    for (const RateTimeline::Staircase& stairs :
         options.rates->staircases()) {
      const std::string track = "rate " + graph.resource_name(stairs.resource);
      double last = 1.0;
      emit_counter(track, 0.0, 1.0);
      for (const RateTimeline::Step& step : stairs.steps) {
        if (step.rate == last) continue;
        emit_counter(track, step.at, step.rate);
        last = step.rate;
      }
    }
  }
  out << "\n]";
}

}  // namespace holmes::sim
