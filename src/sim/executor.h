#pragma once

/// \file executor.h
/// Simulates a TaskGraph over its resources and reports per-task timing.
///
/// Scheduling discipline: a task becomes *ready* when all its dependencies
/// have finished. Ready tasks claim their resources greedily in ready-time
/// order (ties broken by task id), i.e. a task may reserve a busy resource
/// and start when it frees up. This is the standard list-scheduling model
/// used by network/compute co-simulators and is fully deterministic.
///
/// That tie-by-id discipline is a *documented contract*, and ExecutorOptions
/// exists to verify it: the permuting tie-break policies deliberately
/// reorder equal-ready-time tasks under a seeded hash so the determinism
/// check (core/schedule_check.h, `holmes_cli check`) can prove which
/// results depend on tie order and which do not — the gate the future
/// parallel engine must keep green.

#include <cstdint>
#include <vector>

#include "sim/task_graph.h"
#include "util/units.h"

namespace holmes::sim {

struct TaskTiming {
  SimTime start = 0;
  SimTime finish = 0;
  /// Instant the task's serial resources freed: start plus the (possibly
  /// rate-stretched) occupancy. `finish` additionally includes the
  /// propagation latency, so consumers reconstructing port release times
  /// must use this field — recomputing bytes/bandwidth from the task is
  /// wrong whenever a fault timeline stretched the occupancy.
  SimTime ports_free = 0;
};

/// Result of simulating one task graph.
class SimResult {
 public:
  SimResult(std::vector<TaskTiming> timing, std::vector<SimTime> resource_busy,
            SimTime makespan)
      : timing_(std::move(timing)),
        resource_busy_(std::move(resource_busy)),
        makespan_(makespan) {}

  /// Time at which the last task finished.
  SimTime makespan() const { return makespan_; }

  const TaskTiming& timing(TaskId id) const;
  const std::vector<TaskTiming>& timings() const { return timing_; }

  /// Total time `resource` was occupied.
  SimTime resource_busy(ResourceId resource) const;

  /// Wall-span (latest finish - earliest start) of all tasks carrying `tag`;
  /// 0 when no task carries the tag.
  SimTime tag_span(const TaskGraph& graph, TaskTag tag) const;

  /// True when `other` holds exactly the same bits: the makespan, every
  /// task's start, finish and ports_free, and every resource busy time.
  /// Conservative by design: +0.0 and -0.0 compare unequal, so `false`
  /// means the results may differ in value, not that they do.
  bool bit_identical(const SimResult& other) const;

 private:
  std::vector<TaskTiming> timing_;
  std::vector<SimTime> resource_busy_;
  SimTime makespan_ = 0;
};

/// How the executor orders tasks that become ready at the same simulated
/// time.
enum class TieBreak {
  /// The documented production discipline: ascending task id.
  kCanonical,
  /// Permutes only *resource-disjoint* groups of tied tasks (tasks that
  /// share no resource with each other); tied tasks contending for the same
  /// resource keep their id order, and a tied task that may finish at the
  /// tie time (a noop, or zero cost and latency) is placed in id order on
  /// its own, so the dependents it releases join the tie before the rest is
  /// ordered. Placement of resource-disjoint tasks commutes, so any
  /// divergence from kCanonical output is an executor bug — this is the
  /// policy `holmes_cli check` drives by default.
  kPermuteDisjoint,
  /// Permutes every tie by a seeded hash of the task id. Tied tasks
  /// contending for a resource swap places, so results legitimately change
  /// whenever the schedule depends on tie order; use it to *find* such
  /// schedule-order-sensitive graphs (the HV405 fixtures).
  kPermuteAll,
};

class RateTimeline;

struct ExecutorOptions {
  TieBreak tie_break = TieBreak::kCanonical;
  /// Seed for the permuting policies; ignored by kCanonical.
  std::uint64_t tie_seed = 0;
  /// Optional time-varying resource rates (see sim/rate_timeline.h): a
  /// task's occupancy stretches while any of its resources is degraded.
  /// Not owned; must outlive the run. Null (the default) or an empty
  /// timeline keeps the fixed-rate fast path byte-for-byte unchanged.
  const RateTimeline* rates = nullptr;
};

class TaskGraphExecutor {
 public:
  TaskGraphExecutor() = default;
  explicit TaskGraphExecutor(const ExecutorOptions& options)
      : options_(options) {}

  /// Simulates `graph` from time zero. Throws holmes::ConfigError when the
  /// dependency graph contains a cycle (some tasks can never run).
  SimResult run(const TaskGraph& graph);

 private:
  ExecutorOptions options_;
};

}  // namespace holmes::sim
