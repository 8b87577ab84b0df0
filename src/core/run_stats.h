#pragma once

/// \file run_stats.h
/// Builds the stable obs::RunSummary from a simulated run's artifacts.
///
/// TrainingSimulator::run hands back a SimArtifacts (task graph + timings +
/// iteration markers); this module joins it with the plan's structure
/// (stage membership, layer partition) and the obs accounting to produce
/// per-device utilization, per-stage pipeline-bubble fractions, per-link
/// busy/contention time, per-communicator traffic, and the exposed-vs-
/// overlapped split of the gradient synchronization — everything the
/// `holmes_cli stats` subcommand and the JSON export surface report.

#include <optional>

#include "core/plan.h"
#include "core/training_sim.h"
#include "net/topology.h"
#include "obs/accounting.h"
#include "obs/critical_path.h"
#include "obs/summary.h"
#include "util/window_spec.h"

namespace holmes::core {

/// Clips a requested window to the run: [max(0, begin), end < 0 ? makespan
/// : min(end, makespan)). Every report's window goes through here, so
/// stats, explain and timeline share one semantics. Throws ConfigError
/// naming the window and the makespan when nothing of the run is left.
obs::Window clip_window(const WindowSpec& window, double makespan);

/// Workload identity string shared by every report surface, e.g.
/// "group 2 (175B params)".
std::string workload_label(const TrainingPlan& plan);

/// Options for build_run_summary (holmes_cli stats' knobs).
struct RunSummaryOptions {
  /// When set, accounting covers this window (clip_window) instead of the
  /// default steady-state window.
  std::optional<WindowSpec> window;
};

/// Derives the full run summary. `artifacts` must be populated (run with a
/// non-null artifacts pointer); throws otherwise. All breakdowns are
/// restricted to the steady-state window (warm-up excluded) unless
/// `options` overrides it; per-stage and overlap accounting use the final
/// measured iteration's tags.
obs::RunSummary build_run_summary(const net::Topology& topo,
                                  const TrainingPlan& plan,
                                  const IterationMetrics& metrics,
                                  const SimArtifacts& artifacts,
                                  const RunSummaryOptions& options = {});

/// Options for build_critical_path_summary (holmes_cli explain's knobs).
struct CriticalPathOptions {
  std::size_t top_segments = 16;  ///< cap on the reported longest segments
  WindowSpec window;  ///< attribution window (clip_window; default: the run)
};

/// Extracts the run's critical path and attributes it to plan-aware
/// buckets: per-stage compute ("compute/stage<k>"), per-NIC-class and
/// per-communicator-kind transfer serialization ("comm/<class>/<kind>"),
/// propagation latency ("latency/<class>") and queue wait
/// ("wait/compute" | "wait/<class>"). Every class is the one
/// `artifacts.ports` gives the segment's resource (net::PortMap::
/// resource_class), as in the timeline and the recovery report's
/// occupancy curves. Bucket seconds sum exactly to the
/// attribution window (the full makespan by default). Also derives the
/// first-order what-if sensitivities ("compute/stage<k>", "link/<class>").
/// When `path_out` is non-null it receives the raw (unclipped) path, e.g.
/// for trace emphasis. Throws unless `artifacts` is populated.
obs::CriticalPathSummary build_critical_path_summary(
    const net::Topology& topo, const TrainingPlan& plan,
    const IterationMetrics& metrics, const SimArtifacts& artifacts,
    const CriticalPathOptions& options = {},
    obs::CriticalPath* path_out = nullptr);

}  // namespace holmes::core
