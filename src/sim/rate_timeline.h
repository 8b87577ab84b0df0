#pragma once

/// \file rate_timeline.h
/// Time-varying resource service rates for the executor.
///
/// A RateTimeline scales the service rate of individual resources inside
/// piecewise-constant time windows: a window (resource, [begin, end),
/// factor) means one second of declared cost on `resource` takes 1/factor
/// wall-clock seconds while the window is active. This is the executor-side
/// half of fault injection (core/faults.h): transient NIC degradation — PFC
/// pause storms, congested uplinks — lowers a port's factor for a bounded
/// interval without touching the task graph, so the same graph can be
/// simulated fault-free and degraded and the results compared task by task.
///
/// Determinism: a timeline is immutable during a run and `stretched` is a
/// pure function of (resources, start, cost). Placement of resource-disjoint
/// tasks therefore still commutes, which preserves the TieBreak
/// determinism contract (`holmes_cli check` stays green with a timeline
/// active — tests lock this).
///
/// Tasks spanning two resources (transfers occupy a TX and an RX port) are
/// paced by the *slower* endpoint at every instant, matching how a paused
/// receiver back-pressures a sender.

#include <vector>

#include "sim/task_graph.h"
#include "util/units.h"

namespace holmes::sim {

class RateTimeline {
 public:
  /// Scales `resource`'s service rate by `factor` inside [begin, end).
  /// `factor` must be > 0 (0.25 = quarter speed; values > 1 model recovery
  /// bursts) and is clamped below at 1e-6 so progress is always possible.
  /// Overlapping windows on one resource compound multiplicatively;
  /// back-to-back adjacent windows ([a,b) then [b,c)) stretch continuously
  /// with no gap or double-count at the shared boundary. A zero-length
  /// window (end == begin) covers no time and is accepted as a no-op:
  /// nothing is recorded. Throws holmes::ConfigError on a degenerate window
  /// (end < begin, negative begin, non-positive factor, negative resource).
  void add_window(ResourceId resource, SimTime begin, SimTime end,
                  double factor);

  /// True when no window was added; the executor skips all stretching.
  bool empty() const { return window_count_ == 0; }

  /// Effective rate of `resource` at time `t`: the product of every active
  /// window's factor, 1.0 when none applies (including resources the
  /// timeline never heard of — e.g. the executor's scratch slot).
  double rate_at(ResourceId resource, SimTime t) const;

  /// Wall-clock occupancy needed to serve `cost` declared seconds of work
  /// starting at `start`, paced at every instant by the slower of the two
  /// resources (pass the same id twice for single-resource tasks). Exactly
  /// `cost` when no window intersects the occupancy interval.
  SimTime stretched(ResourceId a, ResourceId b, SimTime start,
                    SimTime cost) const;

  /// One recorded window with its resource, for consumers that need the
  /// breakpoint structure itself (trace counter tracks, timeline overlays).
  struct AppliedWindow {
    ResourceId resource = 0;
    SimTime begin = 0;
    SimTime end = 0;
    double factor = 1.0;
  };

  /// Every recorded window, sorted by (resource, begin, end, factor) — the
  /// same deterministic order regardless of insertion order.
  std::vector<AppliedWindow> windows() const;

  /// A resource's effective rate from `at` on: min(1, product of the
  /// windows active at `at`), the pacing `stretched` integrates through
  /// (modulo its 1e-6 floor).
  struct Step {
    SimTime at = 0;
    double rate = 1.0;
  };
  struct Staircase {
    ResourceId resource = 0;
    std::vector<Step> steps;  ///< one per distinct window edge; 1 before
  };
  /// One staircase per resource with a window, ascending by id, as the
  /// trace's rate tracks and the timeline's overlays chart it.
  std::vector<Staircase> staircases() const;

 private:
  struct Window {
    SimTime begin = 0;
    SimTime end = 0;
    double factor = 1.0;
  };

  const std::vector<Window>* windows_of(ResourceId resource) const;

  /// Indexed by resource id; most entries stay empty.
  std::vector<std::vector<Window>> per_resource_;
  std::size_t window_count_ = 0;
};

}  // namespace holmes::sim
