/// holmes_cli — consolidated command-line interface over the library.
///
/// Every subcommand that takes <topology> <group> resolves them and its run
/// options one way, then plans, simulates and emits through one path.
/// Run options (each subcommand reads the subset listed for it):
///   --framework F    holmes | megatron-lm | megatron-deepspeed |
///                    megatron-llama            (default holmes)
///   --iterations N   simulated iterations      (default 3); all of them
///                    together must fit the 2^24-task budget
///   --straggler R:F  rank R computes F times slower (repeatable). Each
///                    is one fault-plan straggler, linted by HV501-503:
///                    R is a rank of the topology, F a positive finite
///                    factor, and repeats on one rank compound
///   --fault-plan FILE  a holmes.fault_plan.v1 schedule, active for the
///                    whole run; --straggler adds to its stragglers. A
///                    plan failing HV501-503 is a config error
///   --window A:B     report on [A, B] seconds (see Windows below)
///   --trace FILE     Chrome trace of the finished run, with a "rate
///                    <resource>" counter track per degraded resource
///   --json[=FILE]    the subcommand's stable JSON document (see JSON
///                    output below)
///   --self-profile[=FILE]  engine self-profile of the run: bare, an
///                    extra text section; =FILE, holmes.self_profile.v3
///
///   holmes_cli simulate <topology> <group> [options]
///       Plan + simulate one scenario; print metrics.
///       --framework --iterations --straggler --trace
///
///   holmes_cli plan <topology> <group> [--framework F]
///       Print the resolved plan: degrees, stage placement, partition,
///       per-DP-group transport.
///
///   holmes_cli tune <topology> <group> [--framework F] [--top N]
///                   [--max-pipeline N]
///       Auto-tune the (tensor, pipeline) layout; print the top N (default
///       10) with at most --max-pipeline stages (default 8).
///
///   holmes_cli sweep <topology> <group...> [--markdown|--csv]
///       All four frameworks x the given groups on one topology.
///
///   holmes_cli analytic <topology> <group> [--framework F]
///       Closed-form iteration-time breakdown (see core/analytic.h).
///
///   holmes_cli stats <topology> <group> [options]
///       Simulate one scenario and print the observability breakdown:
///       per-device utilization, per-stage pipeline-bubble fraction,
///       per-link busy/contention time, per-communicator traffic, and the
///       exposed-vs-overlapped grad-sync split (docs/observability.md),
///       over the steady-state window unless --window gives one.
///       --framework --iterations --straggler --window --json
///       (holmes.run_summary.v1) --self-profile
///
///   holmes_cli explain <topology> <group> [options]
///       Simulate one scenario, extract the critical path, and print the
///       makespan attribution: per-stage compute, per-NIC-class and
///       per-communicator serialization, propagation latency, queue wait —
///       plus first-order what-if sensitivities (docs/observability.md).
///       Segment durations sum to the window (default the full run)
///       exactly; --trace adds an emphasized critical-path lane.
///       --top N          longest segments / what-ifs shown (default 16)
///       --framework --iterations --straggler --window --trace --json
///       (holmes.critical_path.v1) --self-profile
///
///   holmes_cli timeline <topology> <group> [options]
///       Simulate one scenario and print its exact time-resolved fabric
///       telemetry (docs/observability.md): per-NIC-class occupancy
///       sparklines with saturation intervals, per-link top talkers,
///       per-channel in-flight byte peaks, and effective-rate overlays for
///       degraded resources (a --fault-plan's degradation windows). The
///       JSON document (holmes.timeline.v1) depends only on the run, which
///       `check` proves bit-identical under disjoint tie permutations.
///       Fires HV406 when the Ethernet fallback fabric is saturated beyond
///       --warn-share of the window (default the full run); exit codes as
///       for lint.
///       --buckets N      curve resolution         (default 48, at most
///                        10000)
///       --resource S     keep only resources whose name contains S
///       --top N          top talkers shown        (default 8)
///       --saturation F   busy-port fraction that counts as saturated
///                        (default 1.0 = every port)
///       --warn-share F   saturated share of the window above which HV406
///                        fires                    (default 0.25)
///       --framework --iterations --straggler --fault-plan --window --trace
///       --json
///
///   holmes_cli diff <before.json> <after.json> [options]
///       Compare two JSON documents emitted by this tool (run summaries,
///       critical-path summaries, bench results): numeric leaves are
///       paired structurally — arrays of named objects align by name — and
///       the largest relative changes are reported.
///       --fail-over P    exit 2 when any |relative change| exceeds P
///                        (percent; "5" or "5%"), or on structure changes
///       --top N          rows shown                (default 16)
///       --json[=FILE]    machine-readable delta report
///
///   holmes_cli lint <topology> <group> [options]
///       Static verifier: plan-family (HV1xx) lints over the resolved plan,
///       then graph/execution/flow-family (HV2xx/HV3xx/HV4xx) lints over a
///       simulated run. Exit codes are graded (docs/static-analysis.md):
///       0 clean, 1 warnings only, 2 errors.
///       --strict         promote warnings to errors
///       --no-graph       plan lints only (skip the simulation)
///       --rules          print the rule catalog and exit
///       --rules --markdown  emit the catalog as the markdown table
///                        docs/static-analysis.md embeds (CI drift check)
///       --framework --iterations --json (fingerprint-stamped)
///
///   holmes_cli check <topology> <group> [options]
///       Schedule-race determinism check (rule HV405): simulate the
///       scenario canonically, then re-run it under N seeded permutations
///       of equal-ready-time ties and compare each result with the
///       canonical one bit for bit. Only for a result that differs are the
///       run-summary and critical-path JSON documents of both runs built
///       and byte-compared. Any divergence is an error naming the first
///       task that moved. The HV4xx flow bounds (static lower bound vs
///       simulated makespan) are checked on the same run, with a
///       --fault-plan's faults active in every permutation. Exit codes as
///       for lint.
///       --permutations N as described             (default 5, at most
///                        1000)
///       --seed S         base tie seed            (default 0x484F4C4D4553)
///       --policy P       disjoint | all           (default disjoint;
///                        disjoint must never diverge, all also flags
///                        legitimately tie-order-sensitive schedules)
///       --threads N      permutation fan-out workers (default 1 = serial,
///                        0 = hardware concurrency; the report is
///                        byte-identical at any thread count)
///       --strict         promote warnings to errors
///       --framework --iterations --fault-plan --json
///       (holmes.check_report.v1)
///
///   holmes_cli inject <topology> <group> --fault-plan FILE [options]
///       Fault injection + elastic recovery (docs/robustness.md): simulate
///       the job three ways — fault-free, faulted with the static
///       partition, and faulted with a partition re-planned from per-stage
///       speeds measured on the executed graph. Reports the recovered
///       throughput fraction, the checkpoint-replay downtime of a node
///       loss, and the critical-path attribution delta. Exit codes as for
///       lint; a plan failing HV501-503 is a config error, as in check and
///       timeline.
///       --framework --iterations --fault-plan (required) --json (the
///       unstamped, byte-stable holmes.recovery_report.v1)
///
///   holmes_cli bench [binaries...] [options]
///       Perf-trajectory harness (docs/observability.md): runs bench
///       binaries (explicit paths and/or --bin-dir discovery of
///       bench_*/micro_* executables) `--repeat` times after `--warmup`
///       discarded passes, folds the per-bench holmes.bench.v1 documents
///       plus an in-process deterministic engine probe into one
///       holmes.bench_suite.v1 trajectory stamped with the build
///       fingerprint, and optionally gates against a stored baseline.
///       --bin-dir DIR    discover bench_*/micro_* binaries in DIR
///       --filter S       keep only binaries whose name contains S
///       --repeat N       timed passes per bench        (default 3)
///       --warmup N       discarded passes per bench    (default 1)
///       --no-probe       skip the in-process engine probe
///       --json[=FILE]    write the trajectory document
///       --baseline FILE  diff the fresh trajectory against FILE
///       --fail-over P    with --baseline: exit 2 when a metric regresses
///                        by more than P percent. Timing leaves (wall_s,
///                        time_s/*, phases) must also move more than the
///                        noise floor; counters and simulated seconds gate
///                        exactly. Fingerprint drift never gates.
///       --noise-floor S  absolute seconds below which timing deltas are
///                        noise                         (default 0.05)
///       HOLMES_BENCH_DELIBERATE_DELAY_MS=<ms> in the environment slows
///       every timed pass — the CI gate rehearsal.
///
///   holmes_cli envs
///       List the named environments and their topology specs.
///
/// Global options:
///   --version        print the build fingerprint and exit
///   --log-level L    debug | info | warning | error  (default warning);
///                    it changes only what is logged to stderr, never a
///                    result, a report or an exit code
///
/// Each subcommand accepts exactly the positional arguments and flags
/// listed for it above (plus --log-level; the table at the end of this
/// file is the record); anything else is a config error, as is a number
/// with trailing characters ("1abc", "3x") or a count below its minimum
/// ("tune --top 0").
///
/// Windows: `--window A:B` takes finite seconds; an empty B ("5:") means
/// "to the end of the run" and a B past the makespan stops there. A
/// negative A or B is a config error naming the spec, and so is a window
/// that leaves nothing of the run (A >= B, or A past the makespan), which
/// also names the makespan.
///
/// Exit codes: 0 clean, 1 warnings (lint, timeline, check, inject), 2
/// errors or a tripped diff/bench --fail-over gate, 3 config error (bad
/// input: the message names it), 4 internal error (a bug).
///
/// JSON output: every subcommand that emits JSON takes `--json[=FILE]`.
/// A bare `--json` or `--json=-` writes the JSON to stdout *instead of*
/// the text report; `--json=FILE` writes the file alongside the report.
///
/// <topology> is either a named environment (ib, roce, eth, hybrid —
/// 4 nodes by default, or e.g. hybrid:8 for 8 nodes) or a spec like
/// "2x8:ib+2x8:roce" (see net/topology_parse.h).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/analytic.h"
#include "core/autotune.h"
#include "core/preflight.h"
#include "core/experiment.h"
#include "core/faults.h"
#include "core/schedule_check.h"
#include "core/report.h"
#include "core/run_stats.h"
#include "core/timeline_report.h"
#include "model/memory.h"
#include "net/topology_parse.h"
#include "obs/critical_path.h"
#include "obs/self_profile.h"
#include "obs/summary.h"
#include "sim/trace.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/json.h"
#include "util/json_diff.h"
#include "util/logging.h"
#include "util/sample_stats.h"
#include "util/table.h"
#include "util/units.h"
#include "util/window_spec.h"
#include "verify/rules.h"

using namespace holmes;
using namespace holmes::core;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key value (or "" for flags)
  std::vector<std::string> stragglers;
};

/// Parses all of `token` as a T: "1abc", "3x" and "2.5" are errors for an
/// integer, never 1, 3 and 2. `what` names the input in the error.
template <typename T>
T parse_strict(const std::string& token, const std::string& what) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    throw ConfigError(what + " expects " +
                      (std::is_integral_v<T> ? "a whole number" : "a number") +
                      ", got '" + token + "'");
  }
  return value;
}

net::Topology resolve_topology(const std::string& name) {
  if (name.find('x') != std::string::npos &&
      name.find(':') != std::string::npos) {
    return net::parse_topology(name);
  }
  std::string env = name;
  int nodes = 4;
  const std::size_t colon = name.find(':');
  if (colon != std::string::npos) {
    env = name.substr(0, colon);
    nodes = parse_strict<int>(name.substr(colon + 1),
                              "node count of '" + name + "'");
    if (nodes < 1) {
      throw ConfigError("topology '" + name + "' needs at least one node");
    }
  }
  if (env == "ib") return make_environment(NicEnv::kInfiniBand, nodes);
  if (env == "roce") return make_environment(NicEnv::kRoCE, nodes);
  if (env == "eth") return make_environment(NicEnv::kEthernet, nodes);
  if (env == "hybrid") return make_environment(NicEnv::kHybrid, nodes);
  if (env == "split-ib") return make_environment(NicEnv::kSplitIB, nodes);
  if (env == "split-roce") return make_environment(NicEnv::kSplitRoCE, nodes);
  throw ConfigError("unknown topology '" + name +
                    "' (named env or spec like 2x8:ib+2x8:roce)");
}

FrameworkConfig resolve_framework(const Args& args) {
  const auto it = args.options.find("framework");
  const std::string name = it == args.options.end() ? "holmes" : it->second;
  if (name == "holmes") return FrameworkConfig::holmes();
  if (name == "megatron-lm") return FrameworkConfig::megatron_lm();
  if (name == "megatron-deepspeed") return FrameworkConfig::megatron_deepspeed();
  if (name == "megatron-llama") return FrameworkConfig::megatron_llama();
  throw ConfigError("unknown framework '" + name + "'");
}

/// `--key VALUE` parsed whole as a T; `fallback` when absent.
template <typename T>
T option(const Args& args, const std::string& key, T fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback
                                  : parse_strict<T>(it->second, "--" + key);
}

/// `--key N` as a count in [min, max]: "--top 0" is an error where a top-N
/// needs one row, never an empty table or a lifted cap, and a count past
/// `max` is an error where cost grows with it.
int option_count(const Args& args, const std::string& key, int fallback,
                 int min, int max = std::numeric_limits<int>::max()) {
  const int count = option(args, key, fallback);
  if (count < min) {
    throw ConfigError("--" + key + " expects a count of at least " +
                      std::to_string(min) + ", got " + std::to_string(count));
  }
  if (count > max) {
    throw ConfigError("--" + key + " expects a count of at most " +
                      std::to_string(max) + ", got " + std::to_string(count));
  }
  return count;
}

/// `--seed S`: decimal or 0x-prefixed hex.
std::uint64_t option_seed(const Args& args, std::uint64_t fallback) {
  const auto it = args.options.find("seed");
  if (it == args.options.end()) return fallback;
  const std::string& token = it->second;
  const bool hex = token.rfind("0x", 0) == 0 || token.rfind("0X", 0) == 0;
  std::uint64_t seed = 0;
  const char* begin = token.data() + (hex ? 2 : 0);
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, seed, hex ? 16 : 10);
  if (begin == end || ec != std::errc{} || ptr != end) {
    throw ConfigError("--seed expects an integer, got '" + token + "'");
  }
  return seed;
}

/// `--window A:B`, when given.
std::optional<WindowSpec> option_window(const Args& args) {
  const auto it = args.options.find("window");
  if (it == args.options.end()) return std::nullopt;
  return parse_window_spec(it->second);
}

/// `--fail-over P` as a fraction ("5" or "5%" -> 0.05); -1 when absent.
double option_fail_over(const Args& args) {
  const auto it = args.options.find("fail-over");
  if (it == args.options.end()) return -1;
  std::string spec = it->second;
  if (!spec.empty() && spec.back() == '%') spec.pop_back();
  const double percent = parse_strict<double>(spec, "--fail-over");
  if (!(percent >= 0)) throw ConfigError("--fail-over expects a percentage");
  return percent / 100.0;
}

void apply_log_level(const Args& args) {
  const auto it = args.options.find("log-level");
  if (it == args.options.end()) return;
  const std::string& level = it->second;
  if (level == "debug") {
    set_log_level(LogLevel::kDebug);
  } else if (level == "info") {
    set_log_level(LogLevel::kInfo);
  } else if (level == "warning") {
    set_log_level(LogLevel::kWarning);
  } else if (level == "error") {
    set_log_level(LogLevel::kError);
  } else {
    throw ConfigError("unknown log level '" + level +
                      "' (debug|info|warning|error)");
  }
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Rethrows an error met while reading `source` as a config error that
/// names `source` first (without repeating the "config error: " prefix).
[[noreturn]] void rethrow_naming(const std::string& source, const Error& e) {
  std::string why = e.what();
  const std::string prefix = "config error: ";
  if (why.rfind(prefix, 0) == 0) why.erase(0, prefix.size());
  throw ConfigError(source + ": " + why);
}

/// Parses `text` as JSON; a syntax error is a config error naming `source`.
JsonValue parse_json(const std::string& text, const std::string& source) {
  try {
    return json_parse(text);
  } catch (const Error& e) {
    rethrow_naming(source, e);
  }
}

JsonValue read_json_file(const std::string& path) {
  return parse_json(read_text_file(path), path);
}

/// `--straggler R:F` as a fault-plan straggler: rank R computes F times
/// slower. R must be a whole non-negative number, because rank -1 in a
/// plan means every device.
ComputeStraggler parse_straggler(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    throw ConfigError("--straggler expects RANK:FACTOR, got '" + spec + "'");
  }
  const std::string what = "--straggler " + spec;
  ComputeStraggler straggler;
  straggler.rank = parse_strict<int>(spec.substr(0, colon), what + " rank");
  if (straggler.rank < 0) {
    throw ConfigError(what + ": rank must not be negative");
  }
  straggler.slowdown =
      parse_strict<double>(spec.substr(colon + 1), what + " factor");
  return straggler;
}

/// The inputs every `<topology> <group>` subcommand shares, resolved and
/// validated before anything is planned or simulated.
struct Run {
  net::Topology topo;
  int group = 0;
  FrameworkConfig framework;
  int iterations = 3;
  /// The --fault-plan document, if any, plus one straggler per --straggler
  /// (stragglers on one rank compound); clean under HV501-HV503.
  FaultPlan faults;
  Perturbations perturbations;  ///< `faults` lowered for the simulator

  TrainingPlan plan() const {
    return Planner(framework).plan(topo, model::parameter_group(group));
  }
};

Run resolve_run(const Args& args) {
  Run run{resolve_topology(args.positional[0]),
          parse_strict<int>(args.positional[1], "group"),
          resolve_framework(args), option(args, "iterations", 3), {}, {}};
  std::string source;
  const auto file = args.options.find("fault-plan");
  if (file != args.options.end()) {
    source = "fault plan " + file->second;
    const std::string text = read_text_file(file->second);
    try {
      run.faults = parse_fault_plan(text);
    } catch (const ConfigError& e) {
      rethrow_naming(source, e);
    }
  }
  for (const std::string& spec : args.stragglers) {
    run.faults.stragglers.push_back(parse_straggler(spec));
    source += (source.empty() ? "--straggler " : ", --straggler ") + spec;
  }
  const verify::LintReport lint = lint_fault_plan(run.faults, run.topo);
  if (!lint.ok()) {
    std::string problems;
    for (const verify::Diagnostic& d : lint.diagnostics()) {
      if (d.severity != verify::Severity::kError) continue;
      problems += (problems.empty() ? "" : "; ") + d.rule + " " + d.subject +
                  ": " + d.message;
    }
    throw ConfigError(source + " is rejected: " + problems);
  }
  run.perturbations = lower_fault_plan(run.faults, run.topo);
  return run;
}

/// A finished simulation of a resolved run.
struct Simulation {
  IterationMetrics metrics;
  SimArtifacts artifacts;
};

/// Simulates `plan` under `run`'s iterations and faults, keeping the
/// artifacts; --self-profile records the engine's own profile into them.
Simulation simulate(const Args& args, const Run& run,
                    const TrainingPlan& plan) {
  // SelfProfiler is in-place only (the thread-local points at its member).
  std::optional<obs::SelfProfiler> profiler;
  if (args.options.count("self-profile")) profiler.emplace();
  Simulation done;
  done.metrics = TrainingSimulator{}.run(run.topo, plan, run.iterations,
                                         run.perturbations,
                                         /*chrome_trace=*/nullptr,
                                         &done.artifacts);
  return done;
}

/// `--trace FILE`: the finished run as a Chrome trace, with a rate counter
/// track per degraded resource and `critical` copied onto an emphasized
/// lane. Returns the file written, or nullptr without --trace.
const std::string* write_trace(const Args& args, const SimArtifacts& artifacts,
                               std::vector<sim::TaskId> critical = {}) {
  const auto file = args.options.find("trace");
  if (file == args.options.end()) return nullptr;
  std::ofstream out(file->second);
  if (!out) throw ConfigError("cannot open " + file->second);
  sim::TraceOptions options;
  options.critical_tasks = std::move(critical);
  options.rates = &artifacts.rates;
  sim::write_chrome_trace(out, artifacts.graph, *artifacts.result, options);
  return &file->second;
}

using Writer = std::function<void(std::ostream&)>;

/// Writes a subcommand's outputs. A bare `--json` (or `--json=-`) puts the
/// JSON document on stdout in place of the text report. Otherwise the
/// report is followed by a note for each file written beside it: the
/// --trace file, a --self-profile=FILE (a bare --self-profile appends its
/// text section instead) and the `--json=FILE` document named `what`.
/// `json` must not emit the trailing newline.
void emit(const Args& args, const char* what, const Writer& text,
          const Writer& json, const SimArtifacts* artifacts = nullptr) {
  const auto option = [&](const char* key) -> const std::string* {
    const auto it = args.options.find(key);
    return it == args.options.end() ? nullptr : &it->second;
  };
  const std::string* json_file = option("json");
  const bool json_stdout =
      json_file != nullptr && (json_file->empty() || *json_file == "-");
  const auto write = [&](const char* name, const std::string& file,
                         const Writer& document) {
    std::ofstream out(file);
    if (!out) throw ConfigError("cannot open " + file);
    document(out);
    out << "\n";
    if (!json_stdout) {
      std::cout << "\n" << name << " written to " << file << "\n";
    }
  };

  if (json_stdout) {
    json(std::cout);
    std::cout << "\n";
  } else {
    text(std::cout);
  }
  const std::string* trace = option("trace");
  if (trace != nullptr && !json_stdout) {
    std::cout << "\ntrace written to " << *trace << "\n";
  }
  const std::string* profile = option("self-profile");
  if (profile != nullptr && artifacts != nullptr &&
      artifacts->self_profile.has_value()) {
    const obs::SelfProfile& self = *artifacts->self_profile;
    if (!profile->empty() && *profile != "-") {
      write("self-profile", *profile,
            [&](std::ostream& out) { obs::write_json(out, self); });
    } else if (!json_stdout) {
      std::cout << "\n";
      obs::print_text(std::cout, self);
    }
  }
  if (json_file != nullptr && !json_stdout) write(what, *json_file, json);
}

/// Graded verdict exit code shared by `lint`, `check`, `timeline` and
/// `inject`: 0 clean (notes never gate), 1 warnings only, 2 errors. Config
/// errors exit 3 and internal failures 4, via main()'s catch.
int verdict_exit_code(const verify::LintReport& report) {
  if (report.count(verify::Severity::kError) > 0) return 2;
  if (report.count(verify::Severity::kWarning) > 0) return 1;
  return 0;
}

/// One line naming the scenario, as simulate, lint and check head their
/// reports.
std::string scenario_line(const Run& run, const TrainingPlan& plan) {
  return run.framework.name + " / group " + std::to_string(run.group) +
         " on " + net::format_topology(run.topo) + " (" +
         plan.degrees.to_string() + ")\n";
}

int cmd_simulate(const Args& args) {
  const Run run = resolve_run(args);
  const TrainingPlan plan = run.plan();
  const Simulation sim = simulate(args, run, plan);
  if (const std::string* trace = write_trace(args, sim.artifacts)) {
    std::cout << "trace written to " << *trace << "\n";
  }

  const IterationMetrics& m = sim.metrics;
  std::cout << scenario_line(run, plan)
            << "  iteration      " << format_time(m.iteration_time) << "\n"
            << "  TFLOPS/GPU     " << TextTable::num(m.tflops_per_gpu, 1) << "\n"
            << "  throughput     " << TextTable::num(m.throughput, 2)
            << " samples/s\n"
            << "  grad sync      " << format_time(m.grad_sync_span) << "\n"
            << "  param gather   " << format_time(m.param_allgather_span) << "\n"
            << "  optimizer      " << format_time(m.optimizer_span) << "\n"
            << "  simulated tasks " << m.task_count << "\n";
  return 0;
}

int cmd_plan(const Args& args) {
  const Run run = resolve_run(args);
  const net::Topology& topo = run.topo;
  const TrainingPlan plan = run.plan();

  std::cout << run.framework.name << " plan for group " << run.group << " on "
            << net::format_topology(topo) << "\n"
            << "  degrees        " << plan.degrees.to_string() << "\n"
            << "  micro-batches  " << plan.micro_batches << " per replica\n"
            << "  fallback       " << (plan.ethernet_fallback ? "yes" : "no")
            << "\n  stages:\n";
  const auto clusters = parallel::stage_clusters(plan.groups, topo);
  for (std::size_t s = 0; s < clusters.size(); ++s) {
    std::cout << "    stage " << s << ": "
              << plan.partition[static_cast<std::size_t>(s)] << " layers on "
              << (clusters[s] >= 0 ? topo.cluster(clusters[s]).name : "MIXED")
              << " (" << net::to_string(plan.stage_nics[s]) << ")\n";
  }
  std::cout << "  NIC-homogeneous DP groups: "
            << parallel::rdma_dp_group_fraction(plan.groups, topo) * 100
            << "%\n";

  // Worst-stage per-device memory estimate (first stage holds the most
  // layers under the uniform split; self-adapting may shift the peak, so
  // take the max over stages).
  Bytes peak = 0;
  for (int s = 0; s < plan.degrees.pipeline; ++s) {
    int layers = 0;
    for (int v = s; v < plan.virtual_stages(); v += plan.degrees.pipeline) {
      layers += plan.partition[static_cast<std::size_t>(v)];
    }
    const auto est = model::estimate_device_memory(
        plan.workload.config, layers, plan.degrees.tensor,
        plan.workload.micro_batch_size,
        std::min(plan.degrees.pipeline, 8),
        plan.framework.dp_sync.shards_optimizer() ? plan.degrees.data : 1,
        plan.framework.dp_sync.shards_weights() ? plan.degrees.data : 1);
    peak = std::max(peak, est.total());
  }
  std::cout << "  est. memory/GPU (worst stage): " << format_bytes(peak)
            << "\n";
  return 0;
}

int cmd_tune(const Args& args) {
  const Run run = resolve_run(args);
  TuneOptions options;
  options.max_pipeline = option_count(args, "max-pipeline", 8, 1);
  const auto top = static_cast<std::size_t>(option_count(args, "top", 10, 1));
  const auto ranked = autotune(run.framework, run.topo,
                               model::parameter_group(run.group), options);

  TextTable table({"Rank", "t", "p", "d", "TFLOPS", "Throughput", "Mem/GPU"});
  for (std::size_t i = 0; i < std::min(ranked.size(), top); ++i) {
    const TuneCandidate& c = ranked[i];
    table.add_row({TextTable::num(static_cast<std::int64_t>(i + 1)),
                   TextTable::num(static_cast<std::int64_t>(c.tensor)),
                   TextTable::num(static_cast<std::int64_t>(c.pipeline)),
                   TextTable::num(static_cast<std::int64_t>(c.data)),
                   TextTable::num(c.metrics.tflops_per_gpu, 0),
                   TextTable::num(c.metrics.throughput, 2),
                   format_bytes(c.estimated_memory)});
  }
  table.print();
  return 0;
}

int cmd_sweep(const Args& args) {
  const net::Topology topo = resolve_topology(args.positional[0]);
  ExperimentGrid grid("Framework sweep on " + net::format_topology(topo),
                      "Framework");
  for (const FrameworkConfig& framework :
       {FrameworkConfig::megatron_lm(), FrameworkConfig::megatron_deepspeed(),
        FrameworkConfig::megatron_llama(), FrameworkConfig::holmes()}) {
    for (std::size_t g = 1; g < args.positional.size(); ++g) {
      const int group = parse_strict<int>(args.positional[g], "group");
      grid.set(framework.name, "group " + std::to_string(group),
               run_experiment(framework, topo, group));
    }
  }
  if (args.options.count("csv")) {
    std::cout << grid.to_csv();
  } else if (args.options.count("markdown")) {
    std::cout << grid.to_markdown();
  } else {
    std::cout << grid.to_text();
  }
  return 0;
}

int cmd_analytic(const Args& args) {
  const Run run = resolve_run(args);
  const TrainingPlan plan = run.plan();
  const AnalyticBreakdown b = analytic_iteration(run.topo, plan);
  const IterationMetrics simulated = simulate(args, run, plan).metrics;
  std::cout << "closed-form breakdown (seconds):\n"
            << "  overhead         " << b.overhead << "\n"
            << "  steady compute   " << b.steady_compute << "\n"
            << "  pipeline bubble  " << b.pipeline_bubble << "\n"
            << "  grad sync        " << b.grad_reduce_scatter << "\n"
            << "  optimizer        " << b.optimizer << "\n"
            << "  param all-gather " << b.param_allgather << "\n"
            << "  total            " << b.total() << "\n"
            << "simulated          " << simulated.iteration_time << "\n"
            << "agreement          "
            << TextTable::num(b.total() / simulated.iteration_time * 100, 1)
            << "%\n";
  return 0;
}

void print_stats(std::ostream& out, const obs::RunSummary& summary,
                 const TrainingPlan& plan, const IterationMetrics& m) {
  out << summary.framework << " / " << summary.workload << " on "
      << summary.topology << " (" << plan.degrees.to_string() << ")\n"
      << "  iteration   " << format_time(m.iteration_time)
      << "   TFLOPS/GPU " << TextTable::num(m.tflops_per_gpu, 1)
      << "   throughput " << TextTable::num(m.throughput, 2) << " samples/s\n"
      << "  window      [" << TextTable::num(summary.window_begin_s, 3)
      << "s, " << TextTable::num(summary.window_end_s, 3) << "s)\n\n";

  TextTable devices({"Device", "Busy", "Waiting", "Util %", "Tasks"});
  for (const auto& d : summary.devices) {
    devices.add_row({d.name, format_time(d.busy_s), format_time(d.waiting_s),
                     TextTable::num(d.utilization * 100, 1),
                     TextTable::num(static_cast<std::int64_t>(d.tasks))});
  }
  out << "device utilization (steady-state window)\n" << devices.to_string();

  TextTable stages(
      {"Stage", "Devices", "Layers", "Compute busy", "Span", "Bubble %"});
  for (const auto& st : summary.stages) {
    stages.add_row({TextTable::num(static_cast<std::int64_t>(st.stage)),
                    TextTable::num(static_cast<std::int64_t>(st.devices)),
                    TextTable::num(static_cast<std::int64_t>(st.layers)),
                    format_time(st.compute_busy_s), format_time(st.span_s),
                    TextTable::num(st.bubble_fraction * 100, 1)});
  }
  out << "\npipeline bubble (measured iteration)\n" << stages.to_string();

  // Links, busiest first; everything idle is dropped by the summary already.
  std::vector<obs::RunSummary::Link> links = summary.links;
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) { return a.busy_s > b.busy_s; });
  constexpr std::size_t kMaxLinks = 16;
  TextTable link_table(
      {"Link", "Busy", "Waiting", "Util %", "Bytes", "Eff Gbit/s"});
  for (std::size_t i = 0; i < std::min(links.size(), kMaxLinks); ++i) {
    const auto& l = links[i];
    link_table.add_row({l.name, format_time(l.busy_s), format_time(l.waiting_s),
                        TextTable::num(l.utilization * 100, 1),
                        format_bytes(l.bytes),
                        TextTable::num(l.effective_gbps, 1)});
  }
  out << "\nbusiest links (" << std::min(links.size(), kMaxLinks) << " of "
      << links.size() << " active)\n"
      << link_table.to_string();

  TextTable comms({"Comm", "Bytes", "Transfers", "Busy", "Span", "Bus Gbit/s"});
  for (const auto& c : summary.comms) {
    comms.add_row({c.name, format_bytes(c.bytes),
                   TextTable::num(static_cast<std::int64_t>(c.transfers)),
                   format_time(c.busy_s), format_time(c.span_s),
                   TextTable::num(c.bus_gbps, 1)});
  }
  out << "\ncommunicator traffic (steady-state window)\n" << comms.to_string();

  out << "\ngrad sync      total " << format_time(summary.grad_sync.total_s)
      << "  overlapped " << format_time(summary.grad_sync.overlapped_s)
      << "  exposed " << format_time(summary.grad_sync.exposed_s) << "\n"
      << "param gather   total " << format_time(summary.param_allgather.total_s)
      << "  overlapped " << format_time(summary.param_allgather.overlapped_s)
      << "  exposed " << format_time(summary.param_allgather.exposed_s)
      << "\n";
}

int cmd_stats(const Args& args) {
  const Run run = resolve_run(args);
  RunSummaryOptions options;
  options.window = option_window(args);

  const TrainingPlan plan = run.plan();
  const Simulation sim = simulate(args, run, plan);
  const obs::RunSummary summary =
      build_run_summary(run.topo, plan, sim.metrics, sim.artifacts, options);
  emit(
      args, "JSON summary",
      [&](std::ostream& out) { print_stats(out, summary, plan, sim.metrics); },
      [&](std::ostream& out) { obs::write_json(out, summary); },
      &sim.artifacts);
  return 0;
}

int cmd_explain(const Args& args) {
  const Run run = resolve_run(args);
  CriticalPathOptions options;
  options.top_segments =
      static_cast<std::size_t>(option_count(args, "top", 16, 1));
  options.window = option_window(args).value_or(WindowSpec{});

  const TrainingPlan plan = run.plan();
  const Simulation sim = simulate(args, run, plan);
  obs::CriticalPath path;
  const obs::CriticalPathSummary summary = build_critical_path_summary(
      run.topo, plan, sim.metrics, sim.artifacts, options, &path);
  write_trace(args, sim.artifacts, path.tasks);
  emit(
      args, "JSON summary",
      [&](std::ostream& out) {
        obs::print_text(out, summary, options.top_segments);
      },
      [&](std::ostream& out) { obs::write_json(out, summary); },
      &sim.artifacts);
  return 0;
}

/// Upper bound on `timeline --buckets`: time and output grow linearly with
/// the count (10,000 buckets already write ~3.7 MB of JSON for 16 GPUs).
constexpr int kMaxTimelineBuckets = 10000;

int cmd_timeline(const Args& args) {
  const Run run = resolve_run(args);
  TimelineReportOptions options;
  options.window = option_window(args).value_or(WindowSpec{});
  options.buckets =
      option_count(args, "buckets", 48, 1, kMaxTimelineBuckets);
  options.top_talkers = option_count(args, "top", 8, 0);
  const auto resource = args.options.find("resource");
  if (resource != args.options.end()) options.resource_filter = resource->second;
  options.saturation_threshold =
      option(args, "saturation", options.saturation_threshold);
  if (!(options.saturation_threshold > 0 &&
        options.saturation_threshold <= 1)) {
    throw ConfigError("--saturation expects a fraction in (0, 1]");
  }
  options.saturation_warn_share =
      option(args, "warn-share", options.saturation_warn_share);
  if (!(options.saturation_warn_share >= 0)) {
    throw ConfigError("--warn-share expects a non-negative fraction");
  }

  const TrainingPlan plan = run.plan();
  const Simulation sim = simulate(args, run, plan);
  write_trace(args, sim.artifacts);
  const TimelineSummary summary = build_timeline_summary(
      run.topo, plan, sim.metrics, sim.artifacts, options);
  emit(
      args, "timeline",
      [&](std::ostream& out) { print_timeline(out, summary); },
      [&](std::ostream& out) { write_timeline_json(out, summary); });
  return verdict_exit_code(summary.lint);
}

/// Fingerprint drift (new commit, other host, fresh flags) is reported but
/// never gates: stamped documents exist to catch result changes, not
/// metadata changes. Shared by `diff --fail-over` and the bench gate.
bool fingerprint_leaf(const std::string& path) {
  return path.rfind("fingerprint", 0) == 0;
}

/// The structure changes of `diff` outside the fingerprint, one
/// "removed: path" / "added: path" / "changed: path" line each.
std::vector<std::string> structure_changes(const JsonDiffResult& diff) {
  std::vector<std::string> lines;
  for (const auto& [what, paths] : {std::pair{"removed: ", &diff.removed},
                                    std::pair{"added: ", &diff.added},
                                    std::pair{"changed: ", &diff.changed}}) {
    for (const std::string& path : *paths) {
      if (!fingerprint_leaf(path)) lines.push_back(what + path);
    }
  }
  return lines;
}

int cmd_diff(const Args& args) {
  const JsonValue before = read_json_file(args.positional[0]);
  const JsonValue after = read_json_file(args.positional[1]);
  const JsonDiffResult diff = diff_json(before, after);
  const double threshold = option_fail_over(args);  // < 0: report only

  const auto top = static_cast<std::size_t>(option_count(args, "top", 16, 1));
  std::vector<JsonDelta> changed;
  for (const JsonDelta& delta : diff.deltas) {
    if (delta.before != delta.after) changed.push_back(delta);
  }
  const std::size_t shown = std::min(top, changed.size());

  emit(
      args, "JSON delta report",
      [&](std::ostream& out) {
        out << args.positional[0] << " -> " << args.positional[1] << ": "
            << diff.compared << " numeric leaves compared, " << changed.size()
            << " changed, max relative change "
            << TextTable::num(diff.max_rel_change() * 100, 3) << "%\n";
        for (const std::string& path : diff.removed) {
          out << "  removed: " << path << "\n";
        }
        for (const std::string& path : diff.added) {
          out << "  added:   " << path << "\n";
        }
        for (const std::string& path : diff.changed) {
          out << "  changed: " << path << "\n";
        }
        if (changed.empty()) return;
        TextTable table({"Path", "Before", "After", "Change %"});
        for (std::size_t i = 0; i < shown; ++i) {
          const JsonDelta& delta = changed[i];
          table.add_row({delta.path, TextTable::num(delta.before, 6),
                         TextTable::num(delta.after, 6),
                         TextTable::num(delta.rel_change() * 100, 3)});
        }
        out << "largest relative changes (" << shown << " of "
            << changed.size() << ")\n"
            << table.to_string();
      },
      [&](std::ostream& out) {
        out << "{\"schema\":\"holmes.json_diff.v1\",\"compared\":"
            << diff.compared
            << ",\"max_rel_change\":" << json_number(diff.max_rel_change())
            << ",\"added\":" << diff.added.size()
            << ",\"removed\":" << diff.removed.size()
            << ",\"changed_non_numeric\":" << diff.changed.size()
            << ",\"deltas\":[";
        for (std::size_t i = 0; i < shown; ++i) {
          const JsonDelta& delta = changed[i];
          if (i > 0) out << ",";
          out << "{\"path\":\"" << json_escape(delta.path)
              << "\",\"before\":" << json_number(delta.before)
              << ",\"after\":" << json_number(delta.after)
              << ",\"rel_change\":" << json_number(delta.rel_change()) << "}";
        }
        out << "]}";
      });

  if (threshold >= 0) {
    // over_threshold minus the fingerprint subtree: a golden re-stamped by
    // a different build must not trip a result gate.
    const bool structure = !structure_changes(diff).empty();
    double max_rel = 0;
    for (const JsonDelta& delta : diff.deltas) {
      if (fingerprint_leaf(delta.path)) continue;
      if (std::fabs(delta.abs_change()) <= 1e-12) continue;
      max_rel = std::max(max_rel, std::fabs(delta.rel_change()));
    }
    if (structure || max_rel > threshold) {
      std::cerr << "diff exceeds --fail-over threshold ("
                << TextTable::num(max_rel * 100, 3) << "% > "
                << TextTable::num(threshold * 100, 3) << "% or structure "
                << "changed)\n";
      return 2;
    }
  }
  return 0;
}

int cmd_lint(const Args& args) {
  if (args.options.count("rules")) {
    if (!args.positional.empty()) {
      throw ConfigError("lint --rules takes no <topology> <group>");
    }
    if (args.options.count("markdown")) {
      // The exact table docs/static-analysis.md embeds between its
      // rule-catalog markers; CI diffs the two to catch drift.
      verify::write_rule_catalog_markdown(std::cout);
      return 0;
    }
    TextTable table({"Rule", "Family", "Severity", "Title"});
    for (const verify::RuleInfo& rule : verify::rule_catalog()) {
      table.add_row({rule.id, verify::to_string(rule.family),
                     verify::to_string(rule.default_severity), rule.title});
    }
    table.print();
    std::cout << "\nSee docs/static-analysis.md for the full catalog.\n";
    return 0;
  }
  if (args.positional.size() < 2) {
    throw ConfigError("usage: holmes_cli lint <topology> <group> [options] "
                      "(or lint --rules [--markdown])");
  }
  const Run run = resolve_run(args);
  const TrainingPlan plan = run.plan();
  verify::LintReport report = lint_training_plan(run.topo, plan);

  if (!args.options.count("no-graph")) {
    // Lower + simulate the plan and audit the task graph and its timings.
    const Simulation sim = simulate(args, run, plan);
    report.merge(lint_artifacts(sim.artifacts, &run.topo));
  }
  if (args.options.count("strict")) report.promote_warnings();

  emit(
      args, "JSON report",
      [&](std::ostream& out) {
        out << scenario_line(run, plan);
        verify::print_text(out, report);
      },
      [&](std::ostream& out) {
        verify::write_json(out, report, current_build_info());
      });
  return verdict_exit_code(report);
}

/// Upper bound on `check --permutations`: time grows linearly with the count
/// (one permuted run of a 256-GPU group-7 plan takes ~35 ms on a 4-core
/// x86-64 host, so 1,000 take ~35 s).
constexpr int kMaxCheckPermutations = 1000;

int cmd_check(const Args& args) {
  // A fault plan's runtime faults (degradation windows, stragglers) are
  // active in the canonical run and every permutation alike — the check
  // then proves byte-determinism *with the faults injected*.
  const Run run = resolve_run(args);
  ScheduleCheckOptions options;
  options.permutations =
      option_count(args, "permutations", 5, 1, kMaxCheckPermutations);
  options.iterations = run.iterations;
  options.threads =
      static_cast<std::size_t>(option_count(args, "threads", 1, 0));
  options.base_seed = option_seed(args, options.base_seed);
  const auto policy = args.options.find("policy");
  if (policy != args.options.end()) {
    if (policy->second == "disjoint") {
      options.tie_break = sim::TieBreak::kPermuteDisjoint;
    } else if (policy->second == "all") {
      options.tie_break = sim::TieBreak::kPermuteAll;
    } else {
      throw ConfigError("unknown --policy '" + policy->second +
                        "' (disjoint|all)");
    }
  }
  options.perturbations = run.perturbations;

  const TrainingPlan plan = run.plan();
  ScheduleCheckResult result =
      check_schedule_determinism(run.topo, plan, options);
  if (args.options.count("strict")) result.report.promote_warnings();

  emit(
      args, "JSON check report",
      [&](std::ostream& out) {
        out << scenario_line(run, plan) << "determinism: "
            << result.permutations << " '"
            << core::to_string(result.tie_break)
            << "' tie permutations (base seed " << result.base_seed << "), ";
        if (result.diverged == 0) {
          out << "all byte-identical\n";
        } else {
          out << result.diverged << " diverged\n";
        }
        const double tight =
            result.makespan_s > 0
                ? result.flow.makespan_bound_s / result.makespan_s * 100
                : 0.0;
        out << "flow bound:  " << format_time(result.flow.makespan_bound_s)
            << " <= makespan " << format_time(result.makespan_s) << " ("
            << TextTable::num(tight, 1) << "% tight)\n";
        verify::print_text(out, result.report);
      },
      [&](std::ostream& out) {
        write_check_report_json(out, result, current_build_info());
      });
  return verdict_exit_code(result.report);
}

int cmd_inject(const Args& args) {
  if (!args.options.count("fault-plan")) {
    throw ConfigError("usage: holmes_cli inject <topology> <group> "
                      "--fault-plan FILE [options]");
  }
  const Run run = resolve_run(args);
  RecoveryOptions options;
  options.group_id = run.group;
  options.framework = run.framework;
  options.iterations = run.iterations;
  const RecoveryReport report =
      run_fault_injection(run.topo, run.faults, options);
  emit(
      args, "recovery report",
      [&](std::ostream& out) { print_recovery_report(out, report); },
      [&](std::ostream& out) { write_recovery_report_json(out, report); });
  return verdict_exit_code(report.lint);
}

/// Timing leaves get the noise floor; everything else (self-profile
/// counters, simulated seconds) is deterministic and gates exactly.
bool bench_timing_leaf(const std::string& path) {
  return path.find("wall_s") != std::string::npos ||
         path.find("time_s/") != std::string::npos ||
         path.find("phases") != std::string::npos;
}

/// Spread and max are noise statistics — over a handful of repeats their
/// relative change carries no signal (a lucky min makes spread swing by
/// orders of magnitude). They stay in the report but never gate; the gate
/// watches the robust statistics (min, median) instead.
bool bench_noise_only_leaf(const std::string& path) {
  const auto ends_with = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".spread") || ends_with(".max");
}

int cmd_bench(const Args& args) {
  namespace fs = std::filesystem;
  const int repeat = option_count(args, "repeat", 3, 1);
  const int warmup = option_count(args, "warmup", 1, 0);

  const double noise_floor = option(args, "noise-floor", 0.05);
  if (!(noise_floor >= 0)) {
    throw ConfigError("--noise-floor expects non-negative seconds");
  }
  const double threshold = option_fail_over(args);  // < 0: report only
  if (threshold >= 0 && !args.options.count("baseline")) {
    throw ConfigError("--fail-over needs --baseline to compare against");
  }

  // Binary list: explicit paths plus --bin-dir discovery, optionally
  // narrowed by --filter.
  std::vector<std::string> bins = args.positional;
  const auto dir = args.options.find("bin-dir");
  if (dir != args.options.end()) {
    if (!fs::is_directory(dir->second)) {
      throw ConfigError("--bin-dir is not a directory: " + dir->second);
    }
    std::vector<std::string> found;
    for (const auto& entry : fs::directory_iterator(dir->second)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.find('.') != std::string::npos) continue;  // JSON leftovers
      if (name.rfind("bench_", 0) == 0 || name.rfind("micro_", 0) == 0) {
        found.push_back(entry.path().string());
      }
    }
    std::sort(found.begin(), found.end());
    bins.insert(bins.end(), found.begin(), found.end());
  }
  const auto filter = args.options.find("filter");
  if (filter != args.options.end()) {
    bins.erase(std::remove_if(bins.begin(), bins.end(),
                              [&](const std::string& bin) {
                                return fs::path(bin).filename().string().find(
                                           filter->second) ==
                                       std::string::npos;
                              }),
               bins.end());
  }
  const bool run_probe = !args.options.count("no-probe");
  if (bins.empty() && !run_probe) {
    throw ConfigError("nothing to run: no bench binaries and --no-probe");
  }
  // Read the baseline before any bench runs, so a bad file fails at once.
  const auto baseline = args.options.find("baseline");
  const std::optional<JsonValue> before =
      baseline == args.options.end()
          ? std::nullopt
          : std::optional<JsonValue>(read_json_file(baseline->second));

  // Each binary runs as a subprocess with the shared BenchReport flags and
  // writes one holmes.bench.v1 document to a temp file; "bench" becomes
  // "name" so json_diff aligns trajectory entries by it.
  std::vector<JsonValue> benches;
  for (const std::string& bin : bins) {
    const std::string base = fs::path(bin).filename().string();
    const std::string tmp = base + ".bench_tmp.json";
    std::ostringstream cmd;
    cmd << "\"" << bin << "\" --json=\"" << tmp << "\" --repeat " << repeat
        << " --warmup " << warmup << " >/dev/null 2>&1";
    std::cerr << "bench: " << base << " (repeat " << repeat << ", warmup "
              << warmup << ")\n";
    const int rc = std::system(cmd.str().c_str());
    if (rc != 0) {
      std::remove(tmp.c_str());
      throw ConfigError("bench binary failed: " + bin);
    }
    const std::string text = read_text_file(tmp);
    std::remove(tmp.c_str());
    const JsonValue doc = parse_json(text, bin);
    std::vector<std::pair<std::string, JsonValue>> members;
    members.emplace_back("name", JsonValue::string(doc.at("bench").as_string()));
    for (const auto& [key, value] : doc.as_object()) {
      if (key == "schema" || key == "bench") continue;
      members.emplace_back(key, value);
    }
    benches.push_back(JsonValue::object(std::move(members)));
  }

  // In-process deterministic probe: a fixed hybrid:2 group-1 simulation
  // under a SelfProfiler. Its counters anchor the trajectory (zero noise)
  // and fill the suite-level self_profile section.
  std::optional<obs::SelfProfile> suite_profile;
  if (run_probe) {
    std::cerr << "bench: engine probe (hybrid:2, group 1, repeat " << repeat
              << ")\n";
    const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
    const TrainingPlan plan =
        Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
    obs::SelfProfiler profiler;
    std::vector<double> wall;
    IterationMetrics last_metrics;
    for (int i = 0; i < warmup + repeat; ++i) {
      SimArtifacts artifacts;
      const auto t0 = std::chrono::steady_clock::now();
      last_metrics = TrainingSimulator{}.run(topo, plan, 3, {},
                                             /*chrome_trace=*/nullptr,
                                             &artifacts);
      // Same CI gate rehearsal hook the BenchReport harness honors.
      const char* delay = std::getenv("HOLMES_BENCH_DELIBERATE_DELAY_MS");
      if (delay != nullptr && std::atoi(delay) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(std::atoi(delay)));
      }
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      if (i >= warmup) wall.push_back(seconds);
      suite_profile = artifacts.self_profile;
    }
    const SampleStats stats = summarize_samples(std::move(wall));
    std::vector<JsonValue> metrics;
    const auto metric = [&metrics](const std::string& name, double value) {
      metrics.push_back(
          JsonValue::object({{"name", JsonValue::string(name)},
                             {"value", JsonValue::number(value)}}));
    };
    // Every self-profile counter, named as in holmes.self_profile.v3.
    const JsonValue counters =
        json_parse(obs::counters_json(suite_profile->counters));
    for (const auto& [name, value] : counters.as_object()) {
      metric("counters/" + name, value.as_number());
    }
    metric("iteration_time_s", last_metrics.iteration_time);
    metric("task_count", static_cast<double>(last_metrics.task_count));
    benches.insert(
        benches.begin(),
        JsonValue::object(
            {{"name", JsonValue::string("cli_probe")},
             {"repeat", JsonValue::number(repeat)},
             {"warmup", JsonValue::number(warmup)},
             {"wall_s",
              JsonValue::object({{"min", JsonValue::number(stats.min)},
                                 {"median", JsonValue::number(stats.median)},
                                 {"max", JsonValue::number(stats.max)},
                                 {"spread", JsonValue::number(stats.spread())}})},
             {"metrics", JsonValue::array(std::move(metrics))}}));
  }

  // One holmes.bench_suite.v1 document: fingerprint, suite self-profile
  // (counters + phases; peak RSS deliberately excluded — it is neither a
  // perf metric nor stable enough to gate), then the bench entries.
  std::ostringstream doc;
  doc << "{\"schema\":\"holmes.bench_suite.v1\",\"fingerprint\":";
  write_build_info_json(doc, current_build_info());
  doc << ",\"repeat\":" << repeat << ",\"warmup\":" << warmup;
  if (suite_profile.has_value()) {
    const obs::SelfProfilePhases& p = suite_profile->phases;
    doc << ",\"self_profile\":{\"counters\":"
        << obs::counters_json(suite_profile->counters)
        << ",\"phases\":{\"graph_build_s\":" << json_number(p.graph_build_s)
        << ",\"event_loop_s\":" << json_number(p.event_loop_s)
        << ",\"accounting_s\":" << json_number(p.accounting_s)
        << ",\"total_s\":" << json_number(p.total_s) << "}}";
  }
  doc << ",\"benches\":[";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    if (i > 0) doc << ",";
    doc << json_serialize(benches[i]);
  }
  doc << "]}";
  const std::string trajectory = doc.str();

  // Baseline comparison: structure changes and moved leaves, fingerprint
  // drift excluded (both empty without --baseline).
  JsonDiffResult diff;
  if (before) diff = diff_json(*before, json_parse(trajectory));
  const std::vector<std::string> structural = structure_changes(diff);
  std::vector<JsonDelta> moved;  // descending |rel_change|, like diff.deltas
  for (const JsonDelta& delta : diff.deltas) {
    if (!fingerprint_leaf(delta.path) && delta.before != delta.after) {
      moved.push_back(delta);
    }
  }

  emit(
      args, "trajectory",
      [&](std::ostream& out) {
        out << "bench suite: " << benches.size() << " benches, repeat "
            << repeat << ", warmup " << warmup << "\n"
            << "fingerprint: " << fingerprint_line(current_build_info())
            << "\n";
        TextTable table({"Bench", "Wall median", "Spread", "Metrics"});
        for (const JsonValue& bench : benches) {
          const JsonValue* wall_s = bench.find("wall_s");
          table.add_row(
              {bench.at("name").as_string(),
               wall_s != nullptr
                   ? format_time(wall_s->at("median").as_number())
                   : "-",
               wall_s != nullptr
                   ? format_time(wall_s->at("spread").as_number())
                   : "-",
               TextTable::num(static_cast<std::int64_t>(
                   bench.at("metrics").as_array().size()))});
        }
        out << table.to_string();
        if (baseline == args.options.end()) return;
        out << "\nbaseline " << baseline->second << ": " << diff.compared
            << " numeric leaves compared, " << moved.size() << " moved\n";
        for (const std::string& line : structural) {
          out << "  " << line << "\n";
        }
        if (moved.empty()) return;
        TextTable deltas({"Path", "Before", "After", "Change %"});
        for (std::size_t i = 0; i < std::min<std::size_t>(moved.size(), 10);
             ++i) {
          deltas.add_row({moved[i].path, TextTable::num(moved[i].before, 6),
                          TextTable::num(moved[i].after, 6),
                          TextTable::num(moved[i].rel_change() * 100, 3)});
        }
        out << deltas.to_string();
      },
      [&](std::ostream& out) { out << trajectory; });

  if (threshold < 0) return 0;
  std::vector<std::string> trips = structural;
  for (const JsonDelta& delta : moved) {
    if (bench_noise_only_leaf(delta.path)) continue;
    const bool timing = bench_timing_leaf(delta.path);
    const double floor = timing ? noise_floor : 1e-12;
    if (std::fabs(delta.rel_change()) > threshold &&
        std::fabs(delta.abs_change()) > floor) {
      trips.push_back((timing ? "timing: " : "metric: ") + delta.path + " " +
                      TextTable::num(delta.rel_change() * 100, 1) + "%");
    }
  }
  if (trips.empty()) return 0;
  std::cerr << "bench gate tripped (--fail-over "
            << TextTable::num(threshold * 100, 1) << "%, noise floor "
            << TextTable::num(noise_floor, 3) << "s):\n";
  for (const std::string& line : trips) std::cerr << "  " << line << "\n";
  return 2;
}

int cmd_envs(const Args&) {
  TextTable table({"Name", "Spec (4 nodes)", "Description"});
  table.add_row({"ib", "4x8:ib", "one InfiniBand cluster"});
  table.add_row({"roce", "4x8:roce", "one RoCE cluster"});
  table.add_row({"eth", "4x8:eth", "one Ethernet-only cluster"});
  table.add_row({"hybrid", "2x8:ib+2x8:roce",
                 "two clusters, incompatible RDMA NICs (paper Hybrid)"});
  table.add_row({"split-ib", "2x8:ib+2x8:ib",
                 "two IB clusters, Ethernet between (Fig. 4)"});
  table.add_row({"split-roce", "2x8:roce+2x8:roce",
                 "two RoCE clusters, Ethernet between (Fig. 4)"});
  table.print();
  std::cout << "\nAny spec of the form <nodes>x<gpus>:<nic>[@gbps] joined by "
               "'+' is accepted; named envs take ':<nodes>'.\n";
  return 0;
}

/// What one subcommand reads: its positional arguments, the --keys that
/// take a value, and the bare --flags (which also accept --flag=VALUE);
/// --log-level is read everywhere. parse_args checks every invocation
/// against this table before it runs, so an argument or flag the
/// subcommand would not read is a config error instead of a silent no-op,
/// and the usage text is generated from it.
struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* synopsis;  ///< the positional arguments
  const char* summary;   ///< the usage text's one-line description
  std::size_t min_positional;
  std::size_t max_positional;
  std::vector<std::string> keys;
  std::vector<std::string> flags;
};

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"simulate", cmd_simulate, "<topology> <group>",
       "plan + simulate one scenario", 2, 2,
       {"framework", "iterations", "trace", "straggler"}, {}},
      {"plan", cmd_plan, "<topology> <group>", "print the resolved plan", 2, 2,
       {"framework"}, {}},
      {"tune", cmd_tune, "<topology> <group>",
       "auto-tune the (tensor, pipeline) layout", 2, 2,
       {"framework", "top", "max-pipeline"}, {}},
      {"sweep", cmd_sweep, "<topology> <group...>",
       "all frameworks x groups grid", 2, kUnbounded, {}, {"markdown", "csv"}},
      {"analytic", cmd_analytic, "<topology> <group>",
       "closed-form iteration breakdown", 2, 2, {"framework"}, {}},
      {"stats", cmd_stats, "<topology> <group>",
       "observability breakdown of one run", 2, 2,
       {"framework", "iterations", "window", "straggler"},
       {"json", "self-profile"}},
      {"explain", cmd_explain, "<topology> <group>",
       "critical-path makespan attribution", 2, 2,
       {"framework", "iterations", "top", "window", "trace", "straggler"},
       {"json", "self-profile"}},
      {"timeline", cmd_timeline, "<topology> <group>",
       "time-resolved fabric telemetry of one run", 2, 2,
       {"framework", "iterations", "window", "buckets", "resource", "top",
        "saturation", "warn-share", "fault-plan", "trace", "straggler"},
       {"json"}},
      {"diff", cmd_diff, "<before.json> <after.json>",
       "compare two emitted JSON documents", 2, 2, {"fail-over", "top"},
       {"json"}},
      {"lint", cmd_lint, "<topology> <group>",
       "static verifier (or lint --rules)", 0, 2, {"framework", "iterations"},
       {"json", "strict", "no-graph", "rules", "markdown"}},
      {"check", cmd_check, "<topology> <group>",
       "schedule-race determinism check", 2, 2,
       {"permutations", "seed", "policy", "framework", "iterations",
        "threads", "fault-plan"},
       {"json", "strict"}},
      {"inject", cmd_inject, "<topology> <group>",
       "fault injection + elastic recovery", 2, 2,
       {"fault-plan", "framework", "iterations"}, {"json"}},
      {"bench", cmd_bench, "[binaries...]",
       "perf-trajectory harness over the bench binaries", 0, kUnbounded,
       {"bin-dir", "filter", "repeat", "warmup", "baseline", "fail-over",
        "noise-floor"},
       {"no-probe", "json"}},
      {"envs", cmd_envs, "", "list named environments", 0, 0, {}, {}},
  };
  return table;
}

std::string usage_text() {
  std::string text = "usage: holmes_cli <command> [args]\n\n";
  for (const Command& command : commands()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-8s %-26s  %s\n", command.name,
                  command.synopsis, command.summary);
    text += line;
  }
  return text +
         "\nglobal options: --version, --log-level debug|info|warning|error\n"
         "see the holmes_cli source header for per-command options";
}

bool listed(const std::vector<std::string>& names, const std::string& key) {
  return std::find(names.begin(), names.end(), key) != names.end();
}

/// Splits argv by `command`'s table entry: `--key VALUE` or `--key=VALUE`
/// for its keys and --log-level, bare `--flag` for its flags, the rest
/// positional. Anything the command does not read is a config error.
Args parse_args(const Command& command, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    std::string key = token.substr(2);
    std::optional<std::string> value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    const bool flag = listed(command.flags, key);
    if (!flag && key != "log-level" && !listed(command.keys, key)) {
      std::string known;
      for (const std::string& k : command.keys) known += "--" + k + " ";
      for (const std::string& k : command.flags) known += "--" + k + " ";
      throw ConfigError(std::string(command.name) + " does not read --" +
                        key + " (it reads " + known + "--log-level)");
    }
    if (!value.has_value() && !flag && i + 1 >= argc) {
      throw ConfigError("missing value for --" + key);
    }
    if (!value.has_value()) value = flag ? "" : argv[++i];
    if (key == "straggler") {
      args.stragglers.push_back(*value);
    } else {
      args.options[key] = *value;
    }
  }

  const std::size_t given = args.positional.size();
  if (given > command.max_positional) {
    throw ConfigError(
        "unexpected argument '" + args.positional[command.max_positional] +
        "': " + command.name + " takes " +
        (command.max_positional > 0 ? command.synopsis : "no arguments") +
        (listed(command.flags, "json")
             ? " (--json takes its file as --json=FILE)"
             : ""));
  }
  if (given < command.min_positional) {
    throw ConfigError(std::string("usage: holmes_cli ") + command.name + " " +
                      command.synopsis + " [options]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw ConfigError(usage_text());
    const std::string name = argv[1];
    if (name == "--version") {
      std::cout << "holmes_cli " << fingerprint_line(current_build_info())
                << "\n";
      return 0;
    }
    const auto& table = commands();
    const auto command =
        std::find_if(table.begin(), table.end(),
                     [&](const Command& c) { return name == c.name; });
    if (command == table.end()) {
      throw ConfigError("unknown command '" + name + "'\n" + usage_text());
    }
    const Args args = parse_args(*command, argc, argv);
    apply_log_level(args);
    return command->run(args);
  } catch (const ConfigError& e) {
    // 3 = bad input (the message names it), distinct from the graded
    // verdicts (0 clean, 1 warnings, 2 errors / tripped gates).
    std::cerr << e.what() << "\n";
    return 3;
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";  // 4 = internal error: a bug
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 4;
  }
}
