#pragma once

/// \file timeline_report.h
/// Builds the stable `holmes.timeline.v1` document from a simulated run.
///
/// obs/timeline.h extracts the exact time-resolved telemetry; this module
/// joins it with the plan's identity strings and each resource's class
/// (the run's net::PortMap), runs the HV406 fallback-fabric saturation lint
/// over the class occupancy curves, and serializes the result as
/// fingerprint-stamped, byte-stable JSON plus a terminal report with ASCII
/// sparklines — everything `holmes_cli timeline` surfaces.
///
/// Exactness and determinism contract: every scalar aggregate in the
/// document is bit-identical to the accounting layer's (obs/accounting.h)
/// for the same window, the bucketed curves are pure deterministic
/// functions of the executed timings, and the document is byte-identical
/// across resource-disjoint tie-break seeds (the schedule-stability the
/// HV405 checker proves).

#include <iosfwd>
#include <string>

#include "core/plan.h"
#include "core/training_sim.h"
#include "net/topology.h"
#include "obs/timeline.h"
#include "util/window_spec.h"
#include "verify/diagnostics.h"

namespace holmes::core {

inline constexpr const char* kTimelineSchema = "holmes.timeline.v1";

/// Options for build_timeline_summary (holmes_cli timeline's knobs).
struct TimelineReportOptions {
  /// Observed window (core::clip_window; default: the full run).
  WindowSpec window;
  /// Resolution of the bucketed curves in the JSON and the sparklines.
  int buckets = 48;
  /// Keep only resources whose name contains this substring (classes,
  /// channels, and aggregates always cover every resource).
  std::string resource_filter;
  /// Cap on the reported top-talker ranking.
  int top_talkers = 8;
  /// An instant saturates a NIC class when at least this fraction of the
  /// class's ports is simultaneously busy.
  double saturation_threshold = 1.0;
  /// HV406 fires when the Ethernet fallback is saturated for more than
  /// this share of the observed window.
  double saturation_warn_share = 0.25;
};

struct TimelineSummary {
  std::string topology;
  std::string framework;
  std::string workload;
  double iteration_s = 0;
  obs::Timeline timeline;
  TimelineReportOptions options;  ///< as resolved by the builder
  verify::LintReport lint;        ///< HV406 saturation diagnosis
  /// The run the summary was built from. write_timeline_json builds each
  /// resource's curves from its graph and timings as it writes them.
  const SimArtifacts* artifacts = nullptr;
};

/// Extracts the timeline of `artifacts` (which must be populated) and runs
/// the saturation lint. The artifacts' persisted rate timeline feeds the
/// effective-rate overlays. The summary keeps a pointer to `artifacts`, so
/// they must outlive it: write_timeline_json reads them.
TimelineSummary build_timeline_summary(
    const net::Topology& topo, const TrainingPlan& plan,
    const IterationMetrics& metrics, const SimArtifacts& artifacts,
    const TimelineReportOptions& options = {});

/// Stable holmes.timeline.v1 JSON, fingerprint-stamped, fixed key order,
/// no trailing newline: byte-identical for identical runs. Each written
/// resource's occupancy and queue-depth buckets are built from the
/// summary's artifacts one resource at a time.
void write_timeline_json(std::ostream& out, const TimelineSummary& summary);

/// Terminal report: per-class occupancy sparklines with saturation totals,
/// top talkers, per-channel peaks, rate overlays, and the lint verdict.
void print_timeline(std::ostream& out, const TimelineSummary& summary);

}  // namespace holmes::core
