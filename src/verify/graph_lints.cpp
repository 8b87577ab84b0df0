#include "verify/graph_lints.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <string>

#include "util/error.h"
#include "verify/lint_internal.h"
#include "verify/rules.h"

namespace holmes::verify {

namespace {

using namespace detail;
using sim::ResourceId;
using sim::Task;
using sim::TaskId;
using sim::TaskKind;

/// True when every dep id of every task is a valid, distinct task id.
/// HV202. Returns validity so dependent rules can skip on broken ids.
bool lint_deps_valid(const TaskSetRef& view, const GraphLintOptions& options,
                     LintReport& report) {
  report.mark_checked(kRuleDepsValid);
  const std::size_t n = view.tasks->size();
  std::size_t findings = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : view.deps(i)) {
      const bool dangling = dep < 0 || static_cast<std::size_t>(dep) >= n;
      const bool self = !dangling && static_cast<std::size_t>(dep) == i;
      if (!dangling && !self) continue;
      if (findings < options.max_diagnostics_per_rule) {
        report.add(kRuleDepsValid, Severity::kError, task_subject(view, i),
                   dangling ? "depends on task id " + std::to_string(dep) +
                                  " which does not exist (dangling edge)"
                            : "depends on itself");
      }
      ++findings;
    }
  }
  return findings == 0;
}

/// Tasks that never become ready under deps plus the optional program
/// predecessor edges, ascending (empty means acyclic).
std::vector<std::size_t> stuck_tasks(
    const TaskSetRef& view, std::span<const TaskId> program_pred = {}) {
  std::vector<bool> ready(view.tasks->size(), false);
  for (TaskId id : topological_order(view, program_pred)) {
    ready[static_cast<std::size_t>(id)] = true;
  }
  std::vector<std::size_t> stuck;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (!ready[i]) stuck.push_back(i);
  }
  return stuck;
}

std::string sample_tasks(const TaskSetRef& view,
                         const std::vector<std::size_t>& ids,
                         std::size_t limit) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size() && i < limit; ++i) {
    if (i > 0) os << ", ";
    os << task_subject(view, ids[i]);
  }
  if (ids.size() > limit) os << ", ...";
  return os.str();
}

void lint_acyclic(const TaskSetRef& view, const GraphLintOptions& options,
                  LintReport& report) {
  report.mark_checked(kRuleGraphAcyclic);
  const std::vector<std::size_t> stuck = stuck_tasks(view);
  if (stuck.empty()) return;
  std::ostringstream os;
  os << "dependency cycle: " << stuck.size()
     << " tasks can never become ready ("
     << sample_tasks(view, stuck, options.max_diagnostics_per_rule) << ")";
  report.add(kRuleGraphAcyclic, Severity::kError, "graph", os.str());
}

void lint_task_fields(const TaskSetRef& view, const GraphLintOptions& options,
                      LintReport& report) {
  report.mark_checked(kRuleTaskFields);
  std::size_t findings = 0;
  auto emit = [&](std::size_t id, const std::string& message) {
    if (findings < options.max_diagnostics_per_rule) {
      report.add(kRuleTaskFields, Severity::kError, task_subject(view, id),
                 message);
    }
    ++findings;
  };
  for (std::size_t i = 0; i < view.tasks->size(); ++i) {
    const Task& task = (*view.tasks)[i];
    const sim::TaskInfo& info = (*view.infos)[i];
    switch (task.kind) {
      case TaskKind::kCompute:
        if (!resource_ok(view, task.resource)) {
          emit(i, "compute task references unknown resource " +
                      std::to_string(task.resource));
        }
        // The executor claims dst_port too: a compute must name its own
        // resource there.
        if (task.dst_port != task.resource) {
          emit(i, "compute task also claims resource " +
                      std::to_string(task.dst_port));
        }
        if (task.cost < 0) emit(i, "compute task has negative duration");
        break;
      case TaskKind::kTransfer:
        if (!resource_ok(view, task.resource)) {
          emit(i, "transfer references unknown TX port " +
                      std::to_string(task.resource));
        }
        if (!resource_ok(view, task.dst_port)) {
          emit(i, "transfer references unknown RX port " +
                      std::to_string(task.dst_port));
        }
        if (resource_ok(view, task.resource) &&
            task.resource == task.dst_port) {
          emit(i, "transfer TX and RX port are the same resource '" +
                      resource_name(view, task.resource) + "'");
        }
        if (info.bytes < 0) emit(i, "transfer moves a negative byte count");
        if (info.bytes > 0 && info.bandwidth <= 0) {
          emit(i, "non-empty transfer has no positive bandwidth");
        }
        if (task.latency < 0) emit(i, "transfer has negative latency");
        if (info.channel != sim::kInvalidChannel &&
            (info.channel < 0 ||
             static_cast<std::size_t>(info.channel) >= view.channel_count)) {
          emit(i, "transfer references unknown channel " +
                      std::to_string(info.channel));
        }
        break;
      case TaskKind::kNoop:
        break;
    }
  }
}

void lint_serial_order(const TaskSetRef& view, const GraphLintOptions& options,
                       LintReport& report) {
  if (options.serial_programs.empty()) return;
  report.mark_checked(kRuleSerialOrder);
  // Chain consecutive compute tasks of each declared program resource in
  // creation order; a cycle through deps ∪ chains means the device's
  // in-order issue engine would deadlock. One pass: each program keeps its
  // last compute task, which becomes the next one's program predecessor. A
  // program listed twice would only repeat its edges, so ids are deduplicated.
  std::vector<ResourceId> programs = options.serial_programs;
  std::sort(programs.begin(), programs.end());
  programs.erase(std::unique(programs.begin(), programs.end()), programs.end());
  std::vector<TaskId> last(programs.size(), sim::kInvalidTask);
  std::vector<TaskId> program_pred(view.tasks->size(), sim::kInvalidTask);
  for (std::size_t i = 0; i < view.tasks->size(); ++i) {
    const Task& task = (*view.tasks)[i];
    if (task.kind != TaskKind::kCompute) continue;
    const auto it =
        std::lower_bound(programs.begin(), programs.end(), task.resource);
    if (it == programs.end() || *it != task.resource) continue;
    TaskId& prev = last[static_cast<std::size_t>(it - programs.begin())];
    program_pred[i] = prev;
    prev = static_cast<TaskId>(i);
  }
  const std::vector<std::size_t> stuck = stuck_tasks(view, program_pred);
  if (stuck.empty()) return;
  std::ostringstream os;
  os << "declared program order conflicts with the dependency structure: "
     << stuck.size() << " tasks deadlock under in-order issue ("
     << sample_tasks(view, stuck, options.max_diagnostics_per_rule) << ")";
  report.add(kRuleSerialOrder, Severity::kError, "graph", os.str());
}

void lint_channel_conservation(const TaskSetRef& view,
                               const GraphLintOptions& options,
                               LintReport& report) {
  if (view.channel_count == 0) return;
  report.mark_checked(kRuleChannelConservation);
  const EndpointIndex endpoints = intern_endpoints(view);
  const ChannelFlows tally = tally_channels(view, endpoints);
  std::size_t findings = 0;
  for (const EndpointFlow& flow : tally.flows) {
    if (!tally.closed[static_cast<std::size_t>(flow.channel)] ||
        flow.tx == flow.rx) {
      continue;
    }
    if (findings < options.max_diagnostics_per_rule) {
      std::ostringstream os;
      os << "endpoint '" << endpoints.names[flow.endpoint] << "' transmitted "
         << flow.tx << " bytes but received " << flow.rx
         << " on a closed collective channel — bytes-in != bytes-out";
      report.add(kRuleChannelConservation, Severity::kWarning,
                 "channel " + channel_name(view, flow.channel), os.str());
    }
    ++findings;
  }
}

void lint_timing_monotone(const TaskSetRef& view, const sim::SimResult& result,
                          const GraphLintOptions& options, LintReport& report) {
  report.mark_checked(kRuleTimingMonotone);
  std::size_t findings = 0;
  auto emit = [&](std::size_t id, const std::string& message) {
    if (findings < options.max_diagnostics_per_rule) {
      report.add(kRuleTimingMonotone, Severity::kError,
                 task_subject(view, id), message);
    }
    ++findings;
  };
  for (std::size_t i = 0; i < view.tasks->size(); ++i) {
    const Task& task = (*view.tasks)[i];
    const sim::TaskTiming& timing = result.timings()[i];
    if (timing.start < 0) emit(i, "starts at negative simulated time");
    if (timing.finish < timing.start) {
      emit(i, "has a negative span (finish precedes start)");
      continue;
    }
    const double span = timing.finish - timing.start;
    switch (task.kind) {
      case TaskKind::kCompute:
        if (!near(span, task.cost)) {
          emit(i, "compute span disagrees with its declared duration");
        }
        break;
      case TaskKind::kTransfer:
        if (!near(span, serialization_of((*view.infos)[i]) + task.latency)) {
          emit(i, "transfer span disagrees with serialization + latency");
        }
        break;
      case TaskKind::kNoop:
        if (!near(span, 0.0)) {
          emit(i, "noop consumed simulated time");
        }
        break;
    }
    for (TaskId dep : view.deps(i)) {
      if (dep < 0 || static_cast<std::size_t>(dep) >= view.tasks->size()) {
        continue;  // HV202 reports these
      }
      const sim::TaskTiming& dep_timing =
          result.timings()[static_cast<std::size_t>(dep)];
      if (!ge(timing.start, dep_timing.finish)) {
        emit(i, "starts before its dependency " +
                    task_subject(view, static_cast<std::size_t>(dep)) +
                    " finished");
      }
    }
  }
}

void lint_resource_exclusive(const TaskSetRef& view,
                             const sim::SimResult& result,
                             const GraphLintOptions& options,
                             LintReport& report) {
  report.mark_checked(kRuleResourceExclusive);
  struct Occupancy {
    SimTime begin;
    SimTime end;
    std::size_t task;
  };
  std::vector<std::vector<Occupancy>> per_resource(view.resource_count);
  auto occupy = [&](ResourceId resource, SimTime begin, SimTime end,
                    std::size_t task) {
    if (!resource_ok(view, resource)) return;  // HV203 reports these
    per_resource[static_cast<std::size_t>(resource)].push_back(
        {begin, end, task});
  };
  for (std::size_t i = 0; i < view.tasks->size(); ++i) {
    const Task& task = (*view.tasks)[i];
    if (task.kind == TaskKind::kNoop) continue;
    const sim::TaskTiming& timing = result.timings()[i];
    // A compute holds its resource for its duration; a transfer holds its
    // ports for the serialization time only (the propagation latency delays
    // dependents, not the ports).
    const SimTime end =
        timing.start + (task.kind == TaskKind::kCompute
                            ? task.cost
                            : serialization_of((*view.infos)[i]));
    occupy(task.resource, timing.start, end, i);
    if (task.dst_port != task.resource) {
      occupy(task.dst_port, timing.start, end, i);
    }
  }
  std::size_t findings = 0;
  for (std::size_t r = 0; r < per_resource.size(); ++r) {
    auto& intervals = per_resource[r];
    std::sort(intervals.begin(), intervals.end(),
              [](const Occupancy& a, const Occupancy& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end < b.end;
              });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const Occupancy& prev = intervals[i - 1];
      const Occupancy& next = intervals[i];
      if (ge(next.begin, prev.end)) continue;
      if (findings < options.max_diagnostics_per_rule) {
        std::ostringstream os;
        os << task_subject(view, prev.task) << " and "
           << task_subject(view, next.task)
           << " overlap on the serial resource";
        report.add(kRuleResourceExclusive, Severity::kError,
                   "resource '" + resource_name(view, static_cast<ResourceId>(r)) +
                       "'",
                   os.str());
      }
      ++findings;
    }
  }
}

bool lint_result_complete(const TaskSetRef& view, const sim::SimResult& result,
                          LintReport& report) {
  report.mark_checked(kRuleResultComplete);
  if (result.timings().size() != view.tasks->size()) {
    std::ostringstream os;
    os << "result carries " << result.timings().size() << " timings for "
       << view.tasks->size() << " tasks";
    report.add(kRuleResultComplete, Severity::kError, "result", os.str());
    return false;
  }
  SimTime last = 0;
  for (const sim::TaskTiming& timing : result.timings()) {
    last = std::max(last, timing.finish);
  }
  if (!near(result.makespan(), last)) {
    std::ostringstream os;
    os << "makespan " << result.makespan()
       << " disagrees with the latest task finish " << last;
    report.add(kRuleResultComplete, Severity::kError, "result", os.str());
  }
  return true;
}

}  // namespace

TaskSetRef as_ref(const sim::TaskGraph& graph) {
  return TaskSetRef{&graph.tasks(), &graph.infos(), graph.resource_count(),
                    graph.channel_count(), &graph};
}

LintReport lint_graph(const TaskSetRef& view, const GraphLintOptions& options) {
  HOLMES_CHECK_MSG(view.tasks != nullptr && view.infos != nullptr,
                   "TaskSetRef needs tasks and their infos");
  LintReport report;
  const bool deps_ok = lint_deps_valid(view, options, report);
  lint_task_fields(view, options, report);
  if (deps_ok) {
    lint_acyclic(view, options, report);
    lint_serial_order(view, options, report);
  }
  lint_channel_conservation(view, options, report);
  return report;
}

LintReport lint_graph(const sim::TaskGraph& graph,
                      const GraphLintOptions& options) {
  return lint_graph(as_ref(graph), options);
}

LintReport lint_execution(const TaskSetRef& view, const sim::SimResult& result,
                          const GraphLintOptions& options) {
  HOLMES_CHECK_MSG(view.tasks != nullptr && view.infos != nullptr,
                   "TaskSetRef needs tasks and their infos");
  LintReport report;
  if (lint_result_complete(view, result, report)) {
    lint_timing_monotone(view, result, options, report);
    lint_resource_exclusive(view, result, options, report);
  }
  return report;
}

LintReport lint_execution(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const GraphLintOptions& options) {
  return lint_execution(as_ref(graph), result, options);
}

}  // namespace holmes::verify
