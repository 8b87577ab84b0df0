#pragma once

/// \file graph_lints.h
/// Graph-family (HV2xx) and execution-family (HV3xx) lints.
///
/// Graph lints are structural checks on a built task graph: acyclicity,
/// dangling dependencies, per-kind field consistency, per-device
/// serial-order deadlock detection (deps vs declared program order), and
/// bytes-in == bytes-out conservation per collective channel.
///
/// Execution lints audit a finished sim::SimResult against the graph:
/// monotone timings that honor dependencies and declared costs, exclusive
/// occupancy of every serial resource, and completeness of the result.
///
/// The passes deliberately re-derive everything from the task records
/// rather than trusting TaskGraph's construction-time checks — the point of
/// the verifier is to survive refactors that bypass or weaken those checks.
/// A transfer's serialization time, in particular, is recomputed from its
/// TaskInfo's bytes and bandwidth, never read from the Task's precomputed
/// cost. The TaskSetRef view makes that testable: known-bad fixtures are raw
/// `std::vector<sim::Task>` and `std::vector<sim::TaskInfo>` values, with
/// their dependencies and labels in parallel per-task arrays, that the
/// TaskGraph API would refuse to build.
///
/// Cost: lint_graph is O(tasks + deps) plus per-resource and endpoint sorts.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"
#include "verify/diagnostics.h"

namespace holmes::verify {

/// Non-owning view of a task set. `graph` is optional and used only to
/// resolve resource/channel names for subjects and the HV205 endpoint
/// pairing; when absent, synthetic names ("r7", "ch2") are used.
struct TaskSetRef {
  const std::vector<sim::Task>* tasks = nullptr;
  /// Each task's reader-only fields, parallel to `tasks`.
  const std::vector<sim::TaskInfo>* infos = nullptr;
  std::size_t resource_count = 0;
  std::size_t channel_count = 0;
  const sim::TaskGraph* graph = nullptr;
  /// Raw fixtures only: task `i`'s dependencies, parallel to `tasks`.
  const std::vector<std::vector<sim::TaskId>>* fixture_deps = nullptr;
  /// Raw fixtures only: task `i`'s label, parallel to `tasks`.
  const std::vector<std::string>* fixture_labels = nullptr;

  /// Dependencies of task `i`: a TaskGraph stores them in its flat edge
  /// list, a raw fixture in `fixture_deps` (none when that is null).
  std::span<const sim::TaskId> deps(std::size_t i) const {
    if (graph != nullptr) return graph->deps(static_cast<sim::TaskId>(i));
    if (fixture_deps == nullptr) return {};
    return (*fixture_deps)[i];
  }

  /// Label of task `i`: a TaskGraph interns it, a raw fixture keeps it in
  /// `fixture_labels` (empty when that is null).
  std::string_view label(std::size_t i) const {
    if (graph != nullptr) return graph->label(static_cast<sim::TaskId>(i));
    if (fixture_labels == nullptr) return {};
    return (*fixture_labels)[i];
  }
};

/// View over a real TaskGraph.
TaskSetRef as_ref(const sim::TaskGraph& graph);

struct GraphLintOptions {
  /// Resources whose task creation order is the intended serial program
  /// order (device compute engines). HV204 checks that deps plus that
  /// program order are jointly acyclic; empty skips the rule.
  std::vector<sim::ResourceId> serial_programs;
  /// Cap on diagnostics emitted per rule. Tests that list every finding
  /// raise it.
  std::size_t max_diagnostics_per_rule = kMaxDiagnosticsPerRule;
};

/// Structural rules HV201..HV205.
LintReport lint_graph(const TaskSetRef& view, const GraphLintOptions& options = {});
LintReport lint_graph(const sim::TaskGraph& graph,
                      const GraphLintOptions& options = {});

/// Execution rules HV301..HV303 over a finished run.
LintReport lint_execution(const TaskSetRef& view, const sim::SimResult& result,
                          const GraphLintOptions& options = {});
LintReport lint_execution(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const GraphLintOptions& options = {});

}  // namespace holmes::verify
