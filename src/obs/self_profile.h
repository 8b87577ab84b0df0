#pragma once

/// \file self_profile.h
/// Engine self-profiling: where does the *simulator's* wall time go?
///
/// The telemetry layer observes the simulated workload; this layer observes
/// the DES engine itself, so perf work has a measurement substrate. It
/// collects
///
///  - **counters** over the hot path: task/dependency/resource/channel
///    allocations in TaskGraph, ready-queue pushes/pops and peak depth in
///    TaskGraphExecutor, and cost-model evaluations — all driven by
///    deterministic code, so two identical runs produce byte-identical
///    counter JSON (tests lock this);
///  - **phase timers**: wall seconds of TrainingSimulator's lower (graph
///    build), execute (event-loop dispatch) and account steps (plus the
///    total of a TrainingSimulator::run), measured with
///    std::chrono::steady_clock;
///  - **peak RSS** of the process at snapshot time.
///
/// Everything is off unless a SelfProfiler is alive on the *current thread*:
/// the hooks test one thread-local pointer and return, so an unprofiled
/// simulation pays a predictable branch per (already expensive) allocation
/// or queue operation and nothing in the executor's inner loop, which
/// batches its counts locally and flushes once per run. Thread-locality
/// also keeps the hooks race-free under the thread pool (a profiler only
/// sees work executed on its own thread) and clean under tsan.
///
/// The stable JSON schema is `holmes.self_profile.v3`; TrainingSimulator
/// attaches a per-run delta to SimArtifacts so `holmes_cli stats`/`explain
/// --self-profile` and the `holmes_cli bench` trajectory can surface it
/// (docs/observability.md).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace holmes::obs {

inline constexpr const char* kSelfProfileSchema = "holmes.self_profile.v3";

/// Deterministic engine counters. Every field is driven purely by the
/// structure of the simulated work, never by wall time, so identical runs
/// produce identical values.
struct SelfProfileCounters {
  // TaskGraph allocations.
  std::uint64_t tasks_created = 0;
  std::uint64_t compute_tasks = 0;
  std::uint64_t transfer_tasks = 0;
  std::uint64_t noop_tasks = 0;
  std::uint64_t deps_added = 0;
  std::uint64_t resources_created = 0;
  std::uint64_t channels_created = 0;
  // TaskGraphExecutor ready queue (the DES hot loop).
  std::uint64_t executor_runs = 0;
  std::uint64_t ready_pushes = 0;
  std::uint64_t ready_pops = 0;
  std::uint64_t max_ready_queue = 0;  ///< peak ready-queue depth (gauge)
  // core::CostModel evaluations during lowering.
  std::uint64_t cost_model_evals = 0;
};

/// Wall seconds per engine phase (steady clock). Non-deterministic by
/// nature; the schema keeps them separate from the counters so tests and
/// baselines can require byte-stability of the latter only.
struct SelfProfilePhases {
  double graph_build_s = 0;  ///< lowering into the compiled TaskGraph
  double event_loop_s = 0;   ///< TaskGraphExecutor::run dispatch loop
  double accounting_s = 0;   ///< post-run metric derivation
  double total_s = 0;        ///< whole TrainingSimulator::run
};

struct SelfProfile {
  SelfProfileCounters counters;
  SelfProfilePhases phases;
  std::int64_t peak_rss_bytes = 0;  ///< process peak RSS at snapshot time
};

namespace self_profile {

/// The profile collecting on this thread; nullptr disables every hook.
inline thread_local SelfProfile* tl_active = nullptr;

inline bool enabled() { return tl_active != nullptr; }

/// Adds `n` to a counter field of the active profile, if any.
inline void count(std::uint64_t SelfProfileCounters::*field,
                  std::uint64_t n = 1) {
  if (tl_active != nullptr) tl_active->counters.*field += n;
}

/// Raises a gauge field to `value` if the active profile's is lower.
inline void raise(std::uint64_t SelfProfileCounters::*field,
                  std::uint64_t value) {
  if (tl_active != nullptr && tl_active->counters.*field < value) {
    tl_active->counters.*field = value;
  }
}

/// Adds wall seconds to a phase field of the active profile, if any.
inline void add_phase(double SelfProfilePhases::*field, double seconds) {
  if (tl_active != nullptr) tl_active->phases.*field += seconds;
}

/// RAII phase timer: measures from construction to stop()/destruction and
/// adds the elapsed wall seconds to `field`. Costs one branch when no
/// profiler is active (the clock is never read).
class PhaseTimer {
 public:
  explicit PhaseTimer(double SelfProfilePhases::*field)
      : field_(field), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { stop(); }

  /// Flushes the elapsed time once; later calls (and the destructor) no-op.
  void stop() {
    if (!armed_) return;
    armed_ = false;
    add_phase(field_, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
  }

 private:
  double SelfProfilePhases::*field_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace self_profile

/// Scoped enablement: installs a fresh profile as this thread's collector
/// for its lifetime (restoring any outer profiler on destruction, so
/// profilers nest). Read results with snapshot().
class SelfProfiler {
 public:
  SelfProfiler()
      : previous_(self_profile::tl_active) {
    self_profile::tl_active = &profile_;
  }
  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;
  ~SelfProfiler() { self_profile::tl_active = previous_; }

  /// Copy of everything collected so far, stamped with the current peak RSS.
  SelfProfile snapshot() const;

 private:
  SelfProfile profile_;
  SelfProfile* previous_;
};

/// Field-wise `after - before` over counters and phases (peak RSS is taken
/// from `after`): the profile of the work between two snapshots.
SelfProfile delta(const SelfProfile& before, const SelfProfile& after);

/// Process peak resident set size in bytes (0 where unsupported).
std::int64_t current_peak_rss_bytes();

/// The counters object alone (`{"tasks_created":…}`), byte-stable — the
/// piece determinism tests and trajectory baselines compare exactly.
std::string counters_json(const SelfProfileCounters& counters);

/// Writes the full stable holmes.self_profile.v3 document (no trailing
/// newline): schema, counters, phases, peak_rss_bytes.
void write_json(std::ostream& out, const SelfProfile& profile);

/// Human-readable rendering for `--self-profile` text reports.
void print_text(std::ostream& out, const SelfProfile& profile);

}  // namespace holmes::obs
