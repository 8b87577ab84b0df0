#pragma once

/// \file schedule_check.h
/// End-to-end schedule-race determinism check over a full training run.
///
/// HV405 re-executes a task graph under tie permutations; this module drives
/// the same probe through the whole pipeline the CLI exercises: plan ->
/// TrainingSimulator -> run summary + critical path JSON. The plan is
/// lowered once and executed canonically; then every seeded tie
/// permutation re-executes the same compiled graph. A permuted result that
/// is bit-identical to the canonical one (sim::SimResult::bit_identical)
/// cannot change either document, since both are a pure function of the
/// shared lowered artifacts and the result, so nothing is serialized for
/// it. For a result that differs, the run summary and critical path of both
/// runs are serialized and byte-compared. Any differing byte is a schedule
/// race (HV405): either the executor's outcome depends on how
/// equal-ready-time ties happen to be ordered, or downstream accounting is
/// order-sensitive. The HV4xx flow cross-checks (static lower bound vs
/// simulated makespan) ride along on the canonical artifacts, so a single
/// `holmes_cli check` invocation validates both the bounds and the
/// determinism story for a configuration.
///
/// The result serializes as `holmes.check_report.v1` — fingerprint-stamped,
/// byte-stable for fixed inputs.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/plan.h"
#include "core/training_sim.h"
#include "net/topology.h"
#include "sim/executor.h"
#include "util/build_info.h"
#include "verify/flow_lints.h"

namespace holmes::core {

struct ScheduleCheckOptions {
  /// Seeded tie-permutation re-runs compared against the canonical run.
  int permutations = 5;
  /// Base seed; permutation k runs with tie_seed = base_seed + k.
  std::uint64_t base_seed = 0x484F4C4D4553ull;  // "HOLMES"
  /// Permutation policy (see sim::TieBreak). The resource-disjoint default
  /// must never diverge; `kPermuteAll` additionally flags schedules whose
  /// outcome depends on tie order among resource-sharing tasks.
  sim::TieBreak tie_break = sim::TieBreak::kPermuteDisjoint;
  /// Simulated training iterations (TrainingSimulator::lower).
  int iterations = 3;
  /// Worker threads for the permutation fan-out (1 = serial in the calling
  /// thread, 0 = hardware concurrency). The permuted executions share the
  /// one lowered graph read-only, and the documents of those that differ
  /// are built and compared in seed order on the calling thread, so the
  /// report is byte-identical at any thread count.
  std::size_t threads = 1;
  /// Perturbations applied identically to the canonical run and every tie
  /// permutation — a fault plan's degradation windows and stragglers lower
  /// to these (core/faults.h), so `holmes_cli check --fault-plan` proves the
  /// determinism contract holds *with the faults active*. When NIC windows
  /// are present the HV402 cross-check tolerates stretched busy time
  /// (verify::FlowLintOptions::allow_stretched).
  Perturbations perturbations;
};

/// Everything one check run produces: the merged lint report (HV4xx flow
/// rules on the canonical artifacts plus any HV405 divergences), the flow
/// analysis itself, and the comparison bookkeeping the report serializes.
struct ScheduleCheckResult {
  verify::LintReport report;
  verify::FlowAnalysis flow;
  double makespan_s = 0;      ///< canonical run's makespan
  int permutations = 0;       ///< re-runs actually compared
  /// Re-runs whose JSON differed. A re-run bit-identical to the canonical
  /// run never counts; one that differs counts only if a document does.
  int diverged = 0;
  sim::TieBreak tie_break = sim::TieBreak::kPermuteDisjoint;
  std::uint64_t base_seed = 0;
};

/// Human-readable policy name for CLI flags and reports ("canonical",
/// "disjoint", "all").
std::string to_string(sim::TieBreak tie_break);

/// Lowers `plan` on `topo` once, executes it canonically, then re-executes
/// the same graph under `options.permutations` seeded tie permutations and
/// compares each result with the canonical one bit for bit. Only for a
/// result that differs are the `holmes.run_summary.v1` and
/// `holmes.critical_path.v1` documents of both runs serialized (the
/// canonical pair once, on the first difference) and byte-compared.
/// Divergences are reported as HV405 errors naming the first task whose
/// timing differs; the HV4xx flow lints on the canonical artifacts are
/// merged in.
ScheduleCheckResult check_schedule_determinism(
    const net::Topology& topo, const TrainingPlan& plan,
    const ScheduleCheckOptions& options = {});

inline constexpr const char* kCheckReportSchema = "holmes.check_report.v1";

/// Writes the check result as a single stable JSON object (no trailing
/// newline): schema, build fingerprint, verdict, the permutation setup and
/// divergence count, the flow bounds next to the simulated makespan, and
/// the nested (unstamped) lint report.
void write_check_report_json(std::ostream& out,
                             const ScheduleCheckResult& result,
                             const BuildInfo& fingerprint);

}  // namespace holmes::core
