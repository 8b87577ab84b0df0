#pragma once

/// \file reference_executor.h
/// A deliberately naive list scheduler, test-only, written from the
/// placement formula in docs/engine.md rather than from sim/executor.cpp:
///
///   start      = max(ready, avail[each resource the task holds])
///   occupancy  = cost, or RateTimeline::stretched(...) under a fault plan
///   ports_free = start + occupancy
///   finish     = (start + latency) + occupancy
///
/// Tasks are placed in canonical (ready, id) order, taken from a std::set;
/// there is no packed heap slot, no inline dependent, no CSR walk. The graph
/// is read only through its public per-task API, and a transfer's
/// serialization time is recomputed from its bytes and bandwidth instead of
/// trusting a precomputed cost. Its SimResult must be bit-identical to
/// TaskGraphExecutor's canonical one: any difference means one of the two
/// places a task differently from the documented formula.

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "sim/task_graph.h"

namespace holmes::sim::testing {

/// What placing one task needs, read from the graph's public API.
struct ReferenceTask {
  std::vector<ResourceId> held;  ///< none (noop), one (compute), TX then RX
  SimTime cost = 0;              ///< declared occupancy before stretching
  SimTime latency = 0;           ///< delays the dependents, not the ports
};

inline ReferenceTask reference_task(const TaskGraph& graph, TaskId id) {
  const Task& task = graph.task(id);
  ReferenceTask out;
  switch (task.kind) {
    case TaskKind::kCompute:
      out.held = {task.resource};
      out.cost = task.cost;
      break;
    case TaskKind::kTransfer: {
      const TaskInfo& info = graph.info(id);
      out.held = {task.resource, task.dst_port};
      out.cost = info.bytes > 0
                     ? static_cast<double>(info.bytes) / info.bandwidth
                     : 0.0;
      out.latency = task.latency;
      break;
    }
    case TaskKind::kNoop:
      break;
  }
  return out;
}

/// Simulates `graph` from time zero under the canonical tie-break, with
/// `rates` (may be null) stretching every occupancy it touches. The graph
/// must be acyclic.
inline SimResult reference_run(const TaskGraph& graph,
                               const RateTimeline* rates = nullptr) {
  const std::size_t n = graph.task_count();
  // Dependents and outstanding dependency counts, from deps() alone.
  std::vector<std::vector<TaskId>> dependents(n);
  std::vector<std::size_t> waiting(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : graph.deps(static_cast<TaskId>(i))) {
      dependents[static_cast<std::size_t>(dep)].push_back(
          static_cast<TaskId>(i));
      ++waiting[i];
    }
  }

  std::set<std::pair<SimTime, TaskId>> queue;  // (ready, id), ascending
  std::vector<SimTime> ready(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (waiting[i] == 0) queue.emplace(0.0, static_cast<TaskId>(i));
  }

  std::vector<SimTime> avail(graph.resource_count(), 0.0);
  std::vector<SimTime> busy(graph.resource_count(), 0.0);
  std::vector<TaskTiming> timing(n);
  SimTime makespan = 0;
  while (!queue.empty()) {
    const auto [at, id] = *queue.begin();
    queue.erase(queue.begin());
    const ReferenceTask task = reference_task(graph, id);

    SimTime start = at;
    for (ResourceId r : task.held) {
      start = std::max(start, avail[static_cast<std::size_t>(r)]);
    }
    // A compute is paced by its one resource, a transfer by the slower of
    // its two ports; a noop holds nothing and takes no time.
    const SimTime occupancy =
        rates == nullptr || task.held.empty()
            ? task.cost
            : rates->stretched(task.held.front(), task.held.back(), start,
                               task.cost);
    const SimTime ports_free = start + occupancy;
    const SimTime finish = (start + task.latency) + occupancy;
    for (std::size_t k = 0; k < task.held.size(); ++k) {
      const auto r = static_cast<std::size_t>(task.held[k]);
      avail[r] = ports_free;
      // A transfer between two distinct ports is busy on each of them once.
      if (k == 0 || task.held[k] != task.held.front()) busy[r] += occupancy;
    }
    timing[static_cast<std::size_t>(id)] = {start, finish, ports_free};
    makespan = std::max(makespan, finish);

    for (TaskId next : dependents[static_cast<std::size_t>(id)]) {
      const auto k = static_cast<std::size_t>(next);
      ready[k] = std::max(ready[k], finish);
      if (--waiting[k] == 0) queue.emplace(ready[k], next);
    }
  }
  return SimResult(std::move(timing), std::move(busy), makespan);
}

}  // namespace holmes::sim::testing
