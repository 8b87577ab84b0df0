#pragma once

/// \file faults.h
/// First-class fault injection and elastic recovery.
///
/// A FaultPlan is a deterministic fault schedule for one simulated
/// training job: transient NIC degradation windows (time-scoped bandwidth
/// multipliers lowered onto the affected ports as a sim::RateTimeline),
/// persistent compute stragglers, an optional permanent node loss at a
/// simulated timestamp, and the checkpoint/restart cost model that governs
/// how much work a failure destroys. Plans round-trip through the stable
/// `holmes.fault_plan.v1` JSON schema so benches, the CLI and CI fixtures
/// share one format.
///
/// run_fault_injection is the elastic-recovery experiment built on top
/// (`holmes_cli inject`): it simulates the job fault-free, then under the
/// plan's faults with the static partition, measures per-stage effective
/// speeds from the executed graph (compute busy plus NIC-port occupancy, so
/// both stragglers and degraded fabrics register), re-runs the partitioner
/// with the measured speeds (Eq. (2) generalized beyond NIC classes), and
/// reports how much of the lost throughput the re-plan recovers. A node
/// loss additionally rebuilds the topology without the dead node, re-plans
/// on the survivors, and accounts the checkpoint-replay downtime. Each
/// simulated leg is reduced to what the report reads as soon as it has run
/// (its RecoveryRun, critical-path buckets, class occupancy curves and
/// HV504 bound) and the next leg is lowered into the same artifacts,
/// reusing their storage: one lowered graph is alive at a time, a re-plan
/// round included, so the request's footprint does not depend on how many
/// legs the fault plan calls for. The result serializes as
/// `holmes.recovery_report.v1` — deliberately *unstamped* (no build
/// fingerprint), so a committed golden report is byte-stable across
/// machines like the engine goldens.
///
/// Fault sanity is the HV5xx verifier family (see verify/rules.h): HV501
/// window sanity, HV502 scope resolution, HV503 checkpoint-model sanity —
/// all checked by lint_fault_plan before any simulation — and HV504, the
/// post-hoc invariant that no recovered run beats its own fault-free flow
/// lower bound. docs/robustness.md describes the model end to end.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/perturbation.h"
#include "core/plan.h"
#include "core/training_sim.h"
#include "net/topology.h"
#include "verify/diagnostics.h"

namespace holmes::core {

inline constexpr const char* kFaultPlanSchema = "holmes.fault_plan.v1";
inline constexpr const char* kRecoveryReportSchema = "holmes.recovery_report.v1";

/// Largest compute slowdown HV501 admits, for one straggler and for the
/// running product of the stragglers on one rank, in plan order
/// (lower_fault_plan multiplies them). A million-fold slowdown is far past
/// any real straggler (the fixtures use 1.5 and 2.0); past it, simulated
/// times lose their precision and two 1e200 factors overflow to infinity.
inline constexpr double kMaxSlowdown = 1e6;

/// Largest checkpoint `save_s` and `restart_s` HV503 admits, in simulated
/// seconds. Like kMaxSlowdown it sits far past any real cost (the fixtures
/// use 0.5 and 2 s; 1e6 s is 11.6 days), so downtime and the recovered
/// makespan stay finite and precise.
inline constexpr double kMaxCheckpointCost = 1e6;

/// Largest fault-plan `seed`: 2^53, past which a JSON number loses digits.
inline constexpr std::int64_t kMaxSeed = std::int64_t{1} << 53;

/// Persistent compute straggler. Scope is either one explicit rank
/// (`rank >= 0`) or every rank matching the cluster/node filters
/// (-1 = wildcard), mirroring NicDegradation's scoping.
struct ComputeStraggler {
  int rank = -1;             ///< exact global rank; -1 = use cluster/node scope
  int cluster = -1;          ///< cluster filter when rank < 0; -1 = all
  int node_in_cluster = -1;  ///< node filter when rank < 0; -1 = all
  double slowdown = 1.0;     ///< compute duration multiplier (> 1 is slower)
};

/// Permanent loss of one node at a simulated instant.
struct NodeFailure {
  double at_s = -1;          ///< failure time in simulated seconds; < 0 = none
  int cluster = 0;
  int node_in_cluster = 0;
};

/// Checkpoint/restart cost model: training state is saved every
/// `period_iterations` iterations at `save_s` cost; recovering from a
/// failure costs `restart_s` plus replaying everything since the last
/// completed checkpoint.
struct CheckpointModel {
  int period_iterations = 0;  ///< 0 = never checkpoint
  double save_s = 0;
  double restart_s = 0;
};

struct FaultPlan {
  std::vector<NicDegradation> nic_degradation;
  std::vector<ComputeStraggler> stragglers;
  NodeFailure node_failure;
  CheckpointModel checkpoint;
  /// Parsed, range-checked (kMaxSeed) and echoed, but nothing draws from
  /// it: every fault the schema describes is deterministic, so the seed
  /// changes no simulated number.
  std::uint64_t seed = 0x5EED;

  bool has_node_failure() const { return node_failure.at_s >= 0; }
  bool empty() const {
    return nic_degradation.empty() && stragglers.empty() && !has_node_failure();
  }
};

/// Parses a `holmes.fault_plan.v1` document. Unknown keys are rejected;
/// missing optional sections default. Throws holmes::ConfigError on
/// malformed JSON, a wrong schema tag, or ill-typed fields, naming the key
/// path of a scope or period that is not a whole int (scopes >= -1) or a
/// seed outside [0, kMaxSeed]. (Semantic sanity — finite times, window
/// ordering, scope resolution, cost bounds — is lint_fault_plan's job, so
/// a CLI can report every problem instead of dying on the first.)
FaultPlan parse_fault_plan(const std::string& json);

/// Serializes the plan back to its stable JSON document (no trailing
/// newline, fixed key order); parse + serialize round-trips byte-exactly.
/// Each number is written with json_number's 12 significant digits when
/// they re-parse to the same double, and in its shortest exact form
/// otherwise, so re-parsing the document yields exactly the plan.
std::string fault_plan_json(const FaultPlan& plan);

/// HV501/HV502/HV503 against a concrete topology. `horizon_s`, when > 0,
/// additionally warns about degradation windows and failures that open
/// after the simulated horizon and thus can never take effect.
verify::LintReport lint_fault_plan(const FaultPlan& plan,
                                   const net::Topology& topo,
                                   double horizon_s = -1);

/// Lowers the plan's runtime faults (degradation windows, stragglers) to
/// the Perturbations TrainingSimulator executes. Node failure and the
/// checkpoint model are orchestration-level (run_fault_injection) and do
/// not lower. Scopes that resolve to no rank lower to nothing — run
/// lint_fault_plan first to catch them.
Perturbations lower_fault_plan(const FaultPlan& plan,
                               const net::Topology& topo);

struct RecoveryOptions {
  FrameworkConfig framework = FrameworkConfig::holmes();
  int group_id = 1;  ///< parameter group (model/gpt_zoo.h Table 2)
  int iterations = 3;
};

/// One simulated leg of the experiment.
struct RecoveryRun {
  double iteration_s = 0;  ///< steady-state seconds per iteration
  double throughput = 0;   ///< samples/s aggregate
  double makespan_s = 0;   ///< full simulated span (all iterations)
};

struct RecoveryReport {
  /// HV501-503 pre-flight plus HV504 post-hoc. `valid` is false when the
  /// pre-flight failed and no simulation ran.
  verify::LintReport lint;
  bool valid = false;

  std::string topology;
  std::string framework;
  std::string workload;
  int iterations = 0;

  FaultPlan plan;  ///< echoed into the report for self-containment

  RecoveryRun fault_free;  ///< static plan, no faults
  RecoveryRun faulted;     ///< static plan under the fault schedule
  RecoveryRun replanned;   ///< measured-speed re-partition under the faults

  std::vector<int> static_partition;
  std::vector<int> replanned_partition;
  /// Per-virtual-stage measured speed weights fed to
  /// pipeline::proportional_partition (normalized so the fastest stage is
  /// 1); derived from the faulted run's executed graph.
  std::vector<double> measured_weights;

  /// (replanned - faulted) / (fault_free - faulted) throughput; 1 when the
  /// faults cost nothing. The acceptance bar for a 2x straggler is >= 0.5:
  /// re-planning must recover at least half the loss.
  double recovery_ratio = 0;

  /// The headline recovered makespan: the replanned faulted run, or — when
  /// a node was lost — the composed timeline (run to the failure, pay
  /// checkpoint overhead and restart, replay the remaining iterations on
  /// the surviving topology).
  double recovered_makespan_s = 0;

  // ---- node loss & checkpoint accounting (all 0/false when no failure) --
  bool node_lost = false;
  bool recoverable = false;   ///< survivors could be re-planned
  std::string unrecoverable_reason;
  int failed_ranks = 0;
  int checkpointed_iterations = 0;  ///< completed checkpoints before failure
  double checkpoint_overhead_s = 0; ///< save_s * checkpoints taken
  double lost_work_s = 0;     ///< simulated progress destroyed by the failure
  double restart_s = 0;
  double downtime_s = 0;      ///< lost_work_s + restart_s
  double elastic_throughput = 0;    ///< survivors' steady-state samples/s

  /// Critical-path attribution delta, faulted vs fault-free, joined by
  /// bucket name (ascending; absent buckets contribute 0), plus synthetic
  /// "recovery/*" buckets (lost work, restart, checkpoint saves) so the
  /// downtime is attributed alongside compute/comm/wait.
  struct BucketDelta {
    std::string name;
    double fault_free_s = 0;
    double faulted_s = 0;
    double delta_s = 0;
  };
  std::vector<BucketDelta> bucket_deltas;

  /// Per-NIC-class occupancy timelines (busy ports / class ports) of the
  /// faulted vs fault-free legs, each bucketed over its own [0, makespan)
  /// so the *shapes* compare even though faults stretch the run (see
  /// obs/timeline.h). Joined by class name; a class absent from one leg
  /// contributes zeros. The fallback fabric filling up while grad-sync is
  /// degraded — the paper's Fig. 3 — shows here as a positive Ethernet
  /// delta hump.
  static constexpr int kTimelineBuckets = 16;
  struct ClassOccupancyDelta {
    std::string nic_class;
    std::vector<double> fault_free;  ///< kTimelineBuckets occupancy means
    std::vector<double> faulted;
    std::vector<double> delta;       ///< faulted - fault_free, per bucket
  };
  std::vector<ClassOccupancyDelta> timeline_deltas;
};

/// Runs the full injection experiment described in the file comment.
/// Deterministic: identical inputs produce a byte-identical report.
RecoveryReport run_fault_injection(const net::Topology& topo,
                                   const FaultPlan& plan,
                                   const RecoveryOptions& options = {});

/// Writes the report as a single stable, *unstamped* JSON object (no
/// trailing newline) — `holmes.recovery_report.v1`.
void write_recovery_report_json(std::ostream& out,
                                const RecoveryReport& report);

/// Human-readable rendering for the CLI.
void print_recovery_report(std::ostream& out, const RecoveryReport& report);

}  // namespace holmes::core
