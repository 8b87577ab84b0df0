#pragma once

/// \file timing_internal.h
/// Per-task timing helpers the obs readers share (internal to holmes_obs):
/// one definition each, so accounting, the critical path and the timeline
/// derive a task's occupancy and ready time with the same arithmetic.

#include <algorithm>

#include "sim/executor.h"
#include "sim/task_graph.h"

namespace holmes::obs::detail {

/// Serialization time of a transfer as the executor scheduled it — the
/// ports' occupancy interval, including any RateTimeline stretching (the
/// executor folded it into finish/ports_free; recomputing bytes/bandwidth
/// would be wrong under a fault window).
inline SimTime serialization_of(const sim::Task& task,
                                const sim::TaskTiming& timing) {
  return std::max(0.0, timing.finish - timing.start - task.latency);
}

/// End of the interval a compute or transfer task holds its resources: a
/// compute task holds its device to the finish, a transfer its ports for
/// the serialization only.
inline SimTime busy_end(const sim::Task& task, const sim::TaskTiming& timing) {
  return task.kind == sim::TaskKind::kCompute
             ? timing.finish
             : timing.start + serialization_of(task, timing);
}

/// Latest dependency finish: the instant the executor saw `id` ready.
inline SimTime ready_time(const sim::TaskGraph& graph,
                          const sim::SimResult& result, sim::TaskId id) {
  SimTime ready = 0;
  for (sim::TaskId dep : graph.deps(id)) {
    ready = std::max(ready, result.timing(dep).finish);
  }
  return ready;
}

}  // namespace holmes::obs::detail
