#pragma once

/// \file flow_lints.h
/// Flow-family (HV4xx) lints: simulation-free bounds on a task graph.
///
/// analyze_flow derives, without simulating, the quantities a strategy
/// search wants for pruning (the AMP / H2 cost-model bounds): the longest
/// dependency chain's aggregate cost, every resource's aggregate declared
/// occupancy, and each endpoint's in-flight transfer high-water mark over
/// topological cuts. Both time figures are true makespan lower bounds — no
/// admissible schedule can beat the critical chain or squeeze a serial
/// resource's work into less wall-clock than its sum of costs.
///
/// lint_flow cross-checks those bounds against an executed sim::SimResult:
/// a static lower bound exceeding the simulated makespan proves the
/// analyzer or the executor wrong (HV401/HV402), the watermark is checked
/// against the device memory (model::kDeviceMemory, HV403), and closed
/// collective channels must move balanced byte volumes across every cluster
/// cut (HV404). The schedule-race rule HV405 needs whole training runs; it
/// lives in core/schedule_check.h.
///
/// Cost: analyze_flow and lint_flow are O(tasks + deps) plus an endpoint sort.

#include <string>
#include <vector>

#include "sim/executor.h"
#include "sim/task_graph.h"
#include "verify/diagnostics.h"
#include "verify/graph_lints.h"

namespace holmes::verify {

/// Everything analyze_flow derives from a task set. Only meaningful when
/// `valid` is true (dependencies well-formed and acyclic — HV201/HV202
/// report those; the flow bounds would be garbage on a broken graph).
struct FlowAnalysis {
  bool valid = false;

  /// Longest dependency chain through declared costs (compute duration,
  /// transfer serialization + latency), in seconds, and its task ids in
  /// dependency order.
  double chain_bound_s = 0;
  std::vector<sim::TaskId> chain;

  /// Aggregate declared occupancy per resource (exactly what the executor
  /// accounts as busy time), the busiest resource, and its load.
  std::vector<double> resource_load_s;
  sim::ResourceId busiest_resource = -1;
  double resource_bound_s = 0;

  /// max(chain_bound_s, resource_bound_s): the flow makespan lower bound.
  double makespan_bound_s = 0;

  /// Peak in-flight received bytes per destination endpoint: a transfer's
  /// bytes are live from the transfer's topological position until its last
  /// dependent's (the receive buffer cannot be released before every
  /// consumer ran). Sorted by endpoint name.
  struct EndpointWatermark {
    std::string endpoint;
    Bytes peak_bytes = 0;
  };
  std::vector<EndpointWatermark> watermarks;
};

/// Simulation-free flow analysis of a task set.
FlowAnalysis analyze_flow(const TaskSetRef& view);
FlowAnalysis analyze_flow(const sim::TaskGraph& graph);

struct FlowLintOptions {
  /// Resource id -> cluster id for HV404's cut balance (-1 = unknown,
  /// transfers touching unknown clusters are skipped); empty disables the
  /// rule. core/preflight.h derives this map from a net::Topology.
  std::vector<int> resource_cluster;
  /// The run executed under an active sim::RateTimeline (fault injection):
  /// degraded resources serve declared cost over a longer occupancy, so
  /// HV402 only requires accounted busy time >= static load instead of
  /// equality. HV401's chain bound stays exact — stretching never shrinks
  /// any task's span, so the fault-free chain is still a valid lower bound.
  bool allow_stretched = false;
};

/// Flow rules HV401..HV404. `result` may be null: the cross-check rules
/// HV401/HV402 need executed timings and are skipped (not marked checked)
/// without them; HV403/HV404 are purely static.
LintReport lint_flow(const TaskSetRef& view, const sim::SimResult* result,
                     const FlowLintOptions& options = {});
/// The same rules over `analysis`, which must be analyze_flow(view): for
/// callers that also report the analysis, so it is derived once.
LintReport lint_flow(const TaskSetRef& view, const FlowAnalysis& analysis,
                     const sim::SimResult* result,
                     const FlowLintOptions& options = {});
LintReport lint_flow(const sim::TaskGraph& graph, const sim::SimResult& result,
                     const FlowLintOptions& options = {});

}  // namespace holmes::verify
