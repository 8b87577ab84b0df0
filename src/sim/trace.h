#pragma once

/// \file trace.h
/// Chrome-trace export of a simulated task graph.
///
/// Writes the `chrome://tracing` / Perfetto JSON array format: one complete
/// ("X") event per task, with the task's resource as the thread row. Rows
/// are labeled via "M" (process_name / thread_name) metadata events, and
/// counter ("C") tracks chart global state over time — devices computing,
/// ports transferring, payload bytes in flight. Flow events ("s"/"f")
/// draw producer→consumer arrows across rows, and an optional emphasized
/// "critical path" row duplicates the critical chain's slices so the
/// binding constraint sequence reads as one contiguous lane. Load the file
/// in https://ui.perfetto.dev to inspect pipeline bubbles, the overlap of
/// gradient reduce-scatter with backward compute, or NIC port contention.

#include <ostream>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"

namespace holmes::sim {

class RateTimeline;

/// What a trace holds besides the slices, counters and flow arrows every
/// trace has.
struct TraceOptions {
  /// Tasks to duplicate onto an emphasized extra "critical path" row (tid
  /// = resource count), e.g. obs::CriticalPath::tasks. Slices there carry
  /// cat "critical" so the lane is filterable.
  std::vector<TaskId> critical_tasks;
  /// Optional rate timeline the run executed under (see
  /// sim/rate_timeline.h). When set and non-empty, one breakpoint-exact
  /// "rate <resource>" counter track per degraded resource charts the
  /// effective service rate (min(1, compound factor)) so fault windows are
  /// visible as dips right next to the slices they stretch. Not owned.
  const RateTimeline* rates = nullptr;
};

/// Writes the trace of `graph` as executed in `result`: one process
/// ("holmes simulation", pid 1), one slice per compute or transfer task
/// (noops are dropped), the "compute in flight", "links busy" and
/// "bytes in flight" counter tracks, and a flow arrow ("s" at the
/// producer's finish, "f" with bp:"e" at the consumer's start) for every
/// dependency edge between two slices on different rows; same-row edges
/// read off slice adjacency. Transfers appear on their source port's row;
/// compute on its resource's row. The stream is left without a trailing
/// newline so callers can embed the array.
void write_chrome_trace(std::ostream& out, const TaskGraph& graph,
                        const SimResult& result,
                        const TraceOptions& options = {});

}  // namespace holmes::sim
