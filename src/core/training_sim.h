#pragma once

/// \file training_sim.h
/// Lowers a TrainingPlan into per-iteration task graphs and simulates them.
///
/// Several iterations are chained (default 3) and the metrics are read from
/// the *last* one, so steady-state effects — the overlapped optimizer's
/// parameter all-gather hiding under the next iteration's forward pass,
/// warm pipelines — emerge from the dependency structure rather than being
/// modeled analytically.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "core/cost_model.h"
#include "core/perturbation.h"
#include "core/plan.h"
#include "net/ports.h"
#include "obs/self_profile.h"
#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "sim/task_graph.h"
#include "util/units.h"

namespace holmes::core {

struct IterationMetrics {
  SimTime iteration_time = 0;   ///< steady-state seconds per iteration
  double tflops_per_gpu = 0;    ///< Eq. (6) FLOPs / (time * N), in TFLOP/s
  double throughput = 0;        ///< samples (sequences) per second, aggregate

  /// Wall-span of the gradient reduce-scatter (or all-reduce, for the
  /// classic DDP strategy) in the measured iteration — Fig. 3's metric.
  SimTime grad_sync_span = 0;
  /// The part of the measured iteration's grad-sync wall time not hidden
  /// under forward/backward compute (Table 5's overlapped-optimizer
  /// ablation metric).
  SimTime grad_sync_exposed = 0;
  /// Wall-span of the parameter all-gather (distributed optimizers only).
  SimTime param_allgather_span = 0;
  /// Wall-span of the optimizer step compute.
  SimTime optimizer_span = 0;

  std::size_t task_count = 0;   ///< simulated tasks across all iterations
};

/// Everything a run leaves behind beyond the scalar metrics: the lowered
/// task graph, its timings, and enough structure (iteration markers, the
/// port map that says what each resource is) for the observability layer
/// to derive utilization, bubble, contention, and overlap accounting.
/// TrainingSimulator::lower fills every field but `result` and
/// `self_profile`; TrainingSimulator::execute produces the `result`, and
/// TrainingSimulator::run hands back all of it through its `artifacts`
/// parameter (see core/run_stats.h).
struct SimArtifacts {
  /// The lowered graph, its adjacency compiled, so executions on several
  /// threads may share it read-only.
  sim::TaskGraph graph;
  std::optional<sim::SimResult> result;
  /// One marker noop per simulated iteration; marker i finishes when every
  /// device's optimizer state for iteration i is final.
  std::vector<sim::TaskId> iteration_markers;
  /// The map `graph`'s resources were registered with: every report asks
  /// it what a resource is (its class, owning rank or node) by id.
  net::PortMap ports;
  /// Global rank -> compute resource id in `graph`.
  std::vector<sim::ResourceId> compute_resource;
  int iterations = 0;

  /// Engine self-profile of this run (holmes.self_profile.v3), populated
  /// only by TrainingSimulator::run when an obs::SelfProfiler was active on
  /// the calling thread.
  std::optional<obs::SelfProfile> self_profile;

  /// The rate timeline the graph executes under — empty unless a
  /// perturbation carried NIC degradation windows. Persisted so post-hoc
  /// consumers (timeline overlays, trace rate tracks) can chart
  /// effective-vs-nominal rates without re-lowering the fault plan.
  sim::RateTimeline rates;

  /// Steady-state observation window [first marker finish, last marker
  /// finish) — the warm-up iteration is excluded.
  SimTime window_begin() const;
  SimTime window_end() const;
};

/// Size budget of one lowered run, all iterations together: 2^24 tasks,
/// about 2.7 GiB at the ~174 bytes of peak memory a lowered task costs
/// (`simulate 64x8:ib+64x8:roce 7`: 1.65M tasks, 274 MiB peak RSS), and
/// 20x the 800k tasks of the largest 256-GPU parameter groups. Dependencies
/// get four per task (lowered graphs carry fewer than two). Both stay well
/// inside TaskId's int32 range and the uint32 CSR offsets;
/// TrainingSimulator::lower rejects a run projected past either.
inline constexpr std::uint64_t kTaskBudget = std::uint64_t{1} << 24;
inline constexpr std::uint64_t kDepBudget = 4 * kTaskBudget;

/// Lowers a plan once and executes it as often as the caller needs:
/// `lower` builds the graph, `execute` runs it under one set of executor
/// options, `account` reads the steady-state metrics, and `run` is the
/// three in sequence.
class TrainingSimulator {
 public:
  explicit TrainingSimulator(CostModel cost = {}) : cost_(cost) {}

  /// Overrides how `run` breaks equal-ready-time ties. The default is the
  /// canonical deterministic discipline; the permuting policies are the
  /// determinism checker's probes (see sim::TieBreak and
  /// core/schedule_check.h).
  void set_executor_options(const sim::ExecutorOptions& options) {
    exec_options_ = options;
  }

  /// Lowers `iterations` chained training iterations of `plan` on `topo`
  /// into artifacts with an empty `result`; it never lints `plan`.
  /// `iterations` must be >= 2 (one warm-up minimum), and the chained graph
  /// must fit kTaskBudget and kDepBudget (else ConfigError).
  /// `perturbations` optionally slows individual devices or degrades NICs
  /// through the artifacts' rate timeline (see core/perturbation.h).
  /// `storage`, typically an earlier run's artifacts, lends its graph's
  /// arrays to the new graph; its contents are discarded.
  SimArtifacts lower(const net::Topology& topo, const TrainingPlan& plan,
                     int iterations = 3,
                     const Perturbations& perturbations = {},
                     SimArtifacts storage = {}) const;

  /// One executor run of `lowered.graph` under `options`' tie-break and
  /// `lowered.rates` (which replace `options.rates`). Only reads `lowered`,
  /// so several threads may execute one lowered graph at once.
  static sim::SimResult execute(const SimArtifacts& lowered,
                                sim::ExecutorOptions options);

  /// Steady-state metrics, read from the last iteration of executed
  /// artifacts (`result` set) of `plan`.
  static IterationMetrics account(const TrainingPlan& plan,
                                  const SimArtifacts& executed);

  /// Lowers, executes under set_executor_options() and accounts one run of
  /// `plan` on `topo` (arguments as for `lower`). `chrome_trace`, when
  /// non-null, receives the run as a Chrome trace. `artifacts`, when
  /// non-null, receives the task graph and timings for post-hoc accounting,
  /// and the run's self-profile when a profiler is active; the run it held
  /// before is replaced and its storage reused (see `lower`), and it is
  /// left empty if this run throws.
  IterationMetrics run(const net::Topology& topo, const TrainingPlan& plan,
                       int iterations = 3,
                       const Perturbations& perturbations = {},
                       std::ostream* chrome_trace = nullptr,
                       SimArtifacts* artifacts = nullptr) const;

  const CostModel& cost_model() const { return cost_; }

 private:
  CostModel cost_;
  sim::ExecutorOptions exec_options_;
};

}  // namespace holmes::core
