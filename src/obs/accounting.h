#pragma once

/// \file accounting.h
/// Derived accounting over a simulated TaskGraph + SimResult.
///
/// Everything here is computed *after* the run from the task timings — no
/// instrumentation required — and every quantity can be restricted to a
/// window (e.g. the steady-state iterations, excluding warm-up):
///
///  - per-resource busy / queueing (contention) time and utilization,
///    with resources classified into devices (run compute) and links
///    (carry transfers);
///  - per-channel (communicator) bytes, busy time, wall span, and the
///    effective bus bandwidth those imply;
///  - busy/span aggregates over arbitrary task subsets (used by the core
///    layer for per-stage pipeline-bubble fractions);
///  - interval-union overlap accounting: how much of one task family's
///    wall time is covered by another's — the paper's exposed-vs-hidden
///    grad-sync question (Fig. 3, Table 5).

#include <functional>
#include <limits>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"

namespace holmes::obs {

/// Half-open observation window [begin, end). The default covers any run.
struct Window {
  SimTime begin = 0;
  SimTime end = std::numeric_limits<SimTime>::infinity();

  SimTime length() const { return end - begin; }
  /// Portion of [s, f) inside the window (>= 0).
  SimTime clip(SimTime s, SimTime f) const;
};

/// Per-resource account. Ports are occupied for a transfer's serialization
/// time only (propagation latency occupies no resource), matching the
/// executor's busy accounting.
struct ResourceAccount {
  sim::ResourceId id = -1;
  std::string name;
  bool is_device = false;  ///< ran at least one compute task
  bool is_link = false;    ///< carried at least one transfer
  SimTime busy = 0;        ///< occupied seconds inside the window
  /// Seconds tasks sat ready-but-blocked waiting for this resource. For a
  /// transfer, the wait is attributed to both of its ports (it blocks on
  /// whichever frees last; per-port attribution is not observable).
  SimTime waiting = 0;
  Bytes bytes = 0;  ///< egress + ingress payload (links only)
  std::size_t tasks = 0;

  double utilization(const Window& window) const {
    return window.length() > 0 ? busy / window.length() : 0.0;
  }
};

/// Accounts every resource of the graph over `window`. Index == ResourceId.
std::vector<ResourceAccount> account_resources(const sim::TaskGraph& graph,
                                               const sim::SimResult& result,
                                               const Window& window = {});

/// Per-channel (communicator) traffic account.
struct ChannelAccount {
  sim::ChannelId id = -1;
  std::string name;
  Bytes bytes = 0;          ///< payload summed over member transfers
  std::size_t transfers = 0;
  SimTime busy = 0;         ///< summed serialization seconds
  SimTime span = 0;         ///< last finish - first start inside the window
  /// Bus-bandwidth view: payload moved per wall-second of channel activity
  /// (bytes / span). 0 when the span is empty.
  double effective_bandwidth() const {
    return span > 0 ? static_cast<double>(bytes) / span : 0.0;
  }
};

/// Accounts every registered channel over `window`. Index == ChannelId.
/// Transfers are attributed to the window they *start* in.
std::vector<ChannelAccount> account_channels(const sim::TaskGraph& graph,
                                             const sim::SimResult& result,
                                             const Window& window = {});

/// Busy/span aggregate of an arbitrary task subset.
struct SpanAccount {
  SimTime busy = 0;  ///< summed clipped durations
  SimTime span = 0;  ///< last finish - first start (clipped), 0 when empty
  std::size_t tasks = 0;
};

/// Selects tasks by id; a predicate reads what it needs through the graph.
using TaskPredicate = std::function<bool(sim::TaskId)>;

/// Aggregates every task matching `predicate` over `window`. Noops are
/// skipped (zero duration, they only distort spans).
SpanAccount account_tasks(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const TaskPredicate& predicate,
                          const Window& window = {});

/// Exposure accounting: of the wall time covered by `span_tasks` (union of
/// their [start, finish) intervals), how much is overlapped by at least one
/// `cover_tasks` interval, and how much is exposed (nothing to hide under)?
struct OverlapAccount {
  SimTime total = 0;       ///< measure of the span-task interval union
  SimTime overlapped = 0;  ///< covered by some cover-task interval
  SimTime exposed = 0;     ///< total - overlapped
};

OverlapAccount account_overlap(const sim::TaskGraph& graph,
                               const sim::SimResult& result,
                               const TaskPredicate& span_tasks,
                               const TaskPredicate& cover_tasks,
                               const Window& window = {});

/// Predicate matching `graph`'s tasks that carry any of the given tags
/// (convenience for the canonical per-iteration tag scheme). The predicate
/// reads `graph`, which must outlive it.
TaskPredicate tag_in(const sim::TaskGraph& graph,
                     std::vector<sim::TaskTag> tags);

}  // namespace holmes::obs
