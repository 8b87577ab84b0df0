#pragma once

/// \file perturbation.h
/// Runtime perturbations: stragglers and transient NIC degradation windows.
///
/// The paper assumes "communication between devices is stable and all
/// devices are consistently online" and names fault handling as future
/// work. This module is the runtime half of that story: deterministic
/// perturbation of the simulated execution — per-rank compute slowdowns
/// and time-windowed bandwidth degradation — so the sensitivity of each
/// scheduling policy to slow devices and flaky fabrics can be measured.
/// bench_straggler covers the static slowdowns; core/faults.h builds full
/// fault schedules (holmes.fault_plan.v1) on top and docs/robustness.md
/// describes the model.

#include <map>
#include <vector>

namespace holmes::core {

/// Transient NIC degradation: a time-windowed bandwidth multiplier scoped
/// to a cluster (or one node within it). Models PFC pause storms and
/// congested uplinks — the affected devices' RDMA ports serve traffic at
/// `bandwidth_factor` of nominal inside [begin_s, end_s). Lowered by
/// TrainingSimulator into a sim::RateTimeline on the ports of every rank in
/// scope (the node-shared Ethernet ports degrade instead when the scoped
/// cluster has Ethernet-only NICs).
struct NicDegradation {
  int cluster = -1;          ///< cluster index; -1 = every cluster
  int node_in_cluster = -1;  ///< 0-based node within the cluster; -1 = all
  double begin_s = 0;        ///< window start, simulated seconds
  double end_s = 0;          ///< window end (exclusive), simulated seconds
  double bandwidth_factor = 1.0;  ///< achievable fraction inside the window
};

struct Perturbations {
  /// Per-rank compute slowdown multipliers (> 1 = straggler). Ranks not
  /// listed run at nominal speed.
  std::map<int, double> device_slowdown;

  /// Transient NIC degradation windows (fault injection; see
  /// core/faults.h). TrainingSimulator::lower turns them into the lowered
  /// run's rate timeline; they leave the task graph itself unchanged.
  std::vector<NicDegradation> nic_degradation;

  bool empty() const {
    return device_slowdown.empty() && nic_degradation.empty();
  }

  /// Effective multiplier for one compute task on `rank`.
  double factor(int rank) const {
    const auto it = device_slowdown.find(rank);
    return it == device_slowdown.end() ? 1.0 : it->second;
  }
};

}  // namespace holmes::core
