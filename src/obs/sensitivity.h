#pragma once

/// \file sensitivity.h
/// First-order what-if analysis over a critical path.
///
/// Slack analysis: time the critical path spends inside a class of work
/// (one stage's compute, one NIC class's serialization) is exactly the
/// first-order derivative of the makespan with respect to that class's
/// *relative speed*. Speeding the class up by a factor (1+eps) shrinks
/// every one of its critical segments by the factor, so
///
///     d(makespan) / d(speedup) |_{speedup=1}  =  -seconds_on_path
///     makespan(1+eps) ~ makespan - seconds_on_path * (1 - 1/(1+eps)).
///
/// The prediction is first-order: once a class stops dominating, the path
/// re-routes through other work and the true saving flattens. Tests
/// validate the prediction against brute-force re-simulation for small
/// speedups (tests/core/test_critical_path_e2e.cpp).
///
/// Queue-wait time is credited to the *blocking occupant's* class: the wait
/// ends exactly when the occupant releases the resource, so speeding the
/// occupant up shrinks the wait one-for-one (busy part + wait tail together
/// span the occupant's full serial occupancy). Propagation-latency segments
/// have no speedup-addressable owner and are excluded from every total.

#include <functional>
#include <string>
#include <vector>

#include "obs/critical_path.h"

namespace holmes::obs {

/// Sensitivity of the makespan to speeding up one class of work.
struct WhatIf {
  std::string target;         ///< class name, e.g. "link/Ethernet"
  SimTime critical_s = 0;     ///< path seconds attributable to the class
  double dmakespan_ds = 0;    ///< = -critical_s (per unit relative speedup)

  /// Predicted saving for a speedup `factor` (exact within the first-order
  /// model: every critical segment of the class scales by 1/factor).
  SimTime predicted_savings(double factor) const {
    return critical_s * (1.0 - 1.0 / factor);
  }
};

/// Maps a segment to the name of its speedup-addressable class, or "" to
/// exclude it, given the kind of the segment's controlling task: for busy
/// segments the segment's own task, for kQueueWait the blocking occupant
/// (PathSegment::holder). Latency segments are never offered.
using SegmentClassifier =
    std::function<std::string(const PathSegment&, sim::TaskKind)>;

/// Aggregates the path's busy segments into per-class sensitivities,
/// descending by critical_s (ties by name). Classes whose path time is 0
/// are dropped.
std::vector<WhatIf> what_if_sensitivities(const sim::TaskGraph& graph,
                                          const CriticalPath& path,
                                          const SegmentClassifier& classify);

}  // namespace holmes::obs
