/// holmes_replay — the benchmark's traced mode.
///
///   holmes_replay <requests.tsv> <spans.tsv> <docs-dir> <seconds>
///
/// Replays holmes_cli requests in-process and records one span per call
/// into a layer. Each line of <requests.tsv> is "<id>\t<round>\t<argv>",
/// where <argv> is the space-separated holmes_cli command line (simulate,
/// stats, explain, timeline, lint, check or inject). Whole rounds are
/// replayed until <seconds> have passed; a round that has started always
/// finishes.
///
/// For each request the replay first makes the calls the subcommand makes
/// (the "primary" spans), in its order. Then it re-runs the child layers
/// of those calls on the same inputs: the executor and the adjacency
/// compile under TrainingSimulator::run, the HV2xx/HV3xx/HV4xx passes
/// under lint_artifacts, and the simulations, summaries and writers that
/// check_schedule_determinism and run_fault_injection make. Those
/// "replay" spans name the primary span they explain as their parent, so
/// a parent's self time is its duration minus its children's.
///
/// Outputs: <spans.tsv> holds "span" and "count" records (see
/// write_records); <docs-dir>/<id>.out holds the JSON document the request prints,
/// byte-for-byte as holmes_cli writes it, so the caller can prove the
/// replay did the same work as the CLI.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "core/faults.h"
#include "core/preflight.h"
#include "core/run_stats.h"
#include "core/schedule_check.h"
#include "core/timeline_report.h"
#include "model/gpt_zoo.h"
#include "net/topology_parse.h"
#include "obs/critical_path.h"
#include "obs/self_profile.h"
#include "obs/summary.h"
#include "sim/executor.h"
#include "util/build_info.h"
#include "util/error.h"
#include "verify/diagnostics.h"
#include "verify/flow_lints.h"
#include "verify/graph_lints.h"

using namespace holmes;
using namespace holmes::core;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  int request = 0;
  int parent = -1;  ///< index into Tracer::spans, -1 for a request root
  std::string name;
  bool replay = false;  ///< a child layer re-run, not a call the CLI makes
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store; written out once the run ends.
struct Tracer {
  Clock::time_point epoch = Clock::now();
  int request = 0;
  std::vector<Span> spans;
  /// Exact per-request counts: (request, name, value).
  std::vector<std::tuple<int, std::string, std::uint64_t>> counts;

  int begin(std::string name, int parent, bool replay) {
    spans.push_back({request, parent, std::move(name), replay, Clock::now(), {}});
    return static_cast<int>(spans.size()) - 1;
  }
  void end(int id) { spans[static_cast<std::size_t>(id)].end = Clock::now(); }
  void count(const char* name, std::uint64_t value) {
    counts.emplace_back(request, name, value);
  }
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent, bool replay = false)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, replay)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { tracer_.end(id_); }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

struct Request {
  int id = 0;
  int round = 0;
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // "" for bare flags
};

Request parse_request(const std::string& line) {
  Request req;
  std::istringstream in(line);
  std::string argv;
  in >> req.id >> req.round;
  std::getline(in >> std::ws, argv);
  std::istringstream tokens(argv);
  tokens >> req.command;
  std::vector<std::string> words{std::istream_iterator<std::string>(tokens),
                                 std::istream_iterator<std::string>()};
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i].rfind("--", 0) != 0) {
      req.positional.push_back(words[i]);
    } else if (words[i] == "--json") {
      req.options["json"] = "";
    } else if (i + 1 < words.size()) {
      req.options[words[i].substr(2)] = words[i + 1];
      ++i;
    }
  }
  if (req.positional.size() != 2) {
    throw ConfigError("request " + std::to_string(req.id) +
                      ": expected <topology> <group>");
  }
  return req;
}

/// holmes_cli's topology argument: a named environment (optionally ":N"
/// nodes, default 4) or an explicit spec such as "2x8:ib+2x8:roce".
net::Topology resolve_topology(const std::string& name) {
  if (name.find('x') != std::string::npos &&
      name.find(':') != std::string::npos) {
    return net::parse_topology(name);
  }
  const std::size_t colon = name.find(':');
  const std::string env = name.substr(0, colon);
  const int nodes =
      colon == std::string::npos ? 4 : std::stoi(name.substr(colon + 1));
  static const std::map<std::string, NicEnv> kEnvs = {
      {"ib", NicEnv::kInfiniBand},   {"roce", NicEnv::kRoCE},
      {"eth", NicEnv::kEthernet},    {"hybrid", NicEnv::kHybrid},
      {"split-ib", NicEnv::kSplitIB}, {"split-roce", NicEnv::kSplitRoCE}};
  const auto it = kEnvs.find(env);
  if (it == kEnvs.end()) throw ConfigError("unknown topology '" + name + "'");
  return make_environment(it->second, nodes);
}

FrameworkConfig resolve_framework(const Request& req) {
  const auto it = req.options.find("framework");
  const std::string name = it == req.options.end() ? "holmes" : it->second;
  if (name == "holmes") return FrameworkConfig::holmes();
  if (name == "megatron-lm") return FrameworkConfig::megatron_lm();
  if (name == "megatron-deepspeed") return FrameworkConfig::megatron_deepspeed();
  if (name == "megatron-llama") return FrameworkConfig::megatron_llama();
  throw ConfigError("unknown framework '" + name + "'");
}

FaultPlan read_fault_plan(const Request& req) {
  const std::string& path = req.options.at("fault-plan");
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  return parse_fault_plan(std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()));
}

/// Times `fn` as one span and returns its result.
template <typename Fn>
auto timed(Tracer& tr, const char* name, int parent, bool replay, Fn&& fn) {
  Scope span(tr, name, parent, replay);
  return fn();
}

/// Wraps one JSON writer call in an obs.serialize span and counts its bytes.
template <typename WriteFn>
std::string serialize(Tracer& tr, int parent, bool replay, WriteFn&& write) {
  std::ostringstream out;
  {
    Scope span(tr, "obs.serialize", parent, replay);
    write(out);
  }
  std::string doc = out.str();
  tr.count("obs.json_bytes", doc.size());
  return doc;
}

/// Child layers of one TrainingSimulator::run: the adjacency compile (on a
/// copy whose adjacency is invalidated by one extra isolated noop task) and
/// the executor with the run's options. Making and freeing the copy is the
/// benchmark's own work, so it is spanned as "bench.*" and left out of the
/// replay's wall time.
void replay_sim_layers(Tracer& tr, int parent, const SimArtifacts& artifacts,
                       sim::ExecutorOptions exec) {
  std::optional<sim::TaskGraph> fresh;
  {
    Scope span(tr, "bench.copy_graph", parent, true);
    fresh.emplace(artifacts.graph);
    fresh->add_noop();
  }
  {
    Scope span(tr, "sim.compile_adjacency", parent, true);
    fresh->build_adjacency();
  }
  {
    Scope span(tr, "bench.copy_graph", parent, true);
    fresh.reset();
  }
  if (!artifacts.rates.empty()) exec.rates = &artifacts.rates;
  const char* name = exec.tie_break != sim::TieBreak::kCanonical
                         ? "sim.execute_permuted"
                     : exec.rates != nullptr ? "sim.execute_faulted"
                                             : "sim.execute";
  Scope span(tr, name, parent, true);
  sim::TaskGraphExecutor{exec}.run(artifacts.graph);
}

/// Exact engine counts of a primary call, read from the self-profile
/// counters the engine keeps while a SelfProfiler is alive.
void count_engine(Tracer& tr, const obs::SelfProfileCounters& c) {
  tr.count("sim.tasks", c.tasks_created);
  tr.count("sim.deps", c.deps_added);
  tr.count("sim.executor_runs", c.executor_runs);
}

/// One TrainingSimulator::run with its child layers re-run after it. A
/// primary run (one the CLI makes itself) also reports its engine counts.
IterationMetrics simulate(Tracer& tr, int parent, bool primary,
                          const net::Topology& topo, const TrainingPlan& plan,
                          const Perturbations& perturb,
                          const sim::ExecutorOptions& exec,
                          SimArtifacts& artifacts) {
  TrainingSimulator simulator;
  simulator.set_executor_options(exec);
  IterationMetrics metrics;
  obs::SelfProfileCounters counters;
  int id = -1;
  {
    Scope span(tr, "core.simulate", parent, !primary);
    id = span.id();
    if (primary) {
      const obs::SelfProfiler profiler;
      metrics = simulator.run(topo, plan, 3, perturb, nullptr, &artifacts);
      counters = profiler.snapshot().counters;
    } else {
      metrics = simulator.run(topo, plan, 3, perturb, nullptr, &artifacts);
    }
  }
  if (primary) count_engine(tr, counters);
  replay_sim_layers(tr, id, artifacts, exec);
  return metrics;
}

/// The HV2xx, HV3xx and HV4xx passes lint_artifacts makes, re-run one by
/// one on the same artifacts.
void replay_verify_layers(Tracer& tr, int parent, const SimArtifacts& artifacts,
                          const net::Topology& topo) {
  verify::GraphLintOptions options;
  options.serial_programs = artifacts.compute_resource;
  {
    Scope span(tr, "verify.lint_graph", parent, true);
    verify::lint_graph(artifacts.graph, options);
  }
  {
    Scope span(tr, "verify.lint_execution", parent, true);
    verify::lint_execution(artifacts.graph, *artifacts.result, options);
  }
  Scope span(tr, "verify.flow", parent, true);
  verify::lint_flow(verify::as_ref(artifacts.graph), &*artifacts.result,
                    make_flow_options(artifacts, topo));
}

std::string replay_simple(Tracer& tr, int root, const Request& req) {
  const net::Topology topo = timed(tr, "core.plan", root, false, [&] {
    return resolve_topology(req.positional[0]);
  });
  const TrainingPlan plan = timed(tr, "core.plan", root, false, [&] {
    return Planner(resolve_framework(req))
        .plan(topo, model::parameter_group(std::stoi(req.positional[1])));
  });
  const std::string& cmd = req.command;
  verify::LintReport report;
  if (cmd == "lint") {
    report = timed(tr, "core.lint_artifacts", root, false,
                   [&] { return lint_training_plan(topo, plan); });
  }
  SimArtifacts artifacts;
  const IterationMetrics m =
      simulate(tr, root, true, topo, plan, {}, {}, artifacts);
  if (cmd == "simulate") return {};
  if (cmd == "stats") {
    const obs::RunSummary summary = timed(tr, "obs.run_summary", root, false, [&] {
      return build_run_summary(topo, plan, m, artifacts);
    });
    return serialize(tr, root, false,
                     [&](std::ostream& out) { obs::write_json(out, summary); });
  }
  if (cmd == "explain") {
    obs::CriticalPath path;
    const obs::CriticalPathSummary summary =
        timed(tr, "obs.critical_path", root, false, [&] {
          return build_critical_path_summary(topo, plan, m, artifacts, {}, &path);
        });
    return serialize(tr, root, false,
                     [&](std::ostream& out) { obs::write_json(out, summary); });
  }
  if (cmd == "timeline") {
    const TimelineSummary summary = timed(tr, "obs.timeline", root, false, [&] {
      return build_timeline_summary(topo, plan, m, artifacts, {});
    });
    tr.count("verify.findings", summary.lint.diagnostics().size());
    return serialize(tr, root, false, [&](std::ostream& out) {
      write_timeline_json(out, summary);
    });
  }
  if (cmd == "lint") {
    int lint_id = -1;
    {
      Scope span(tr, "core.lint_artifacts", root);
      lint_id = span.id();
      report.merge(lint_artifacts(artifacts, &topo));
    }
    replay_verify_layers(tr, lint_id, artifacts, topo);
    tr.count("verify.findings", report.diagnostics().size());
    return serialize(tr, root, false, [&](std::ostream& out) {
      verify::write_json(out, report, current_build_info());
    });
  }
  throw ConfigError("unsupported subcommand '" + cmd + "'");
}

std::string replay_check(Tracer& tr, int root, const Request& req) {
  ScheduleCheckOptions options;
  options.permutations = std::stoi(req.options.at("permutations"));
  const net::Topology topo = timed(tr, "core.plan", root, false, [&] {
    return resolve_topology(req.positional[0]);
  });
  options.perturbations = timed(tr, "core.plan", root, false, [&] {
    const FaultPlan faults = read_fault_plan(req);
    if (!lint_fault_plan(faults, topo).ok()) {
      throw ConfigError("fault plan fails HV501-HV503");
    }
    return lower_fault_plan(faults, topo);
  });
  const TrainingPlan plan = timed(tr, "core.plan", root, false, [&] {
    return Planner(resolve_framework(req))
        .plan(topo, model::parameter_group(std::stoi(req.positional[1])));
  });
  ScheduleCheckResult result;
  int check_id = -1;
  obs::SelfProfileCounters counters;
  {
    const obs::SelfProfiler profiler;
    Scope span(tr, "core.check", root);
    check_id = span.id();
    result = check_schedule_determinism(topo, plan, options);
    counters = profiler.snapshot().counters;
  }
  count_engine(tr, counters);
  // The check's children, in its order: the canonical run and every tie
  // permutation, each serialized as run summary + critical path, then the
  // flow analysis and lints on the canonical run.
  SimArtifacts canonical;
  for (int k = 0; k <= options.permutations; ++k) {
    sim::ExecutorOptions exec;
    if (k > 0) {
      exec.tie_break = options.tie_break;
      exec.tie_seed = options.base_seed + static_cast<std::uint64_t>(k - 1);
    }
    SimArtifacts artifacts;
    const IterationMetrics m = simulate(tr, check_id, false, topo, plan,
                                        options.perturbations, exec, artifacts);
    const obs::RunSummary summary = timed(tr, "obs.run_summary", check_id, true, [&] {
      return build_run_summary(topo, plan, m, artifacts);
    });
    serialize(tr, check_id, true,
              [&](std::ostream& out) { obs::write_json(out, summary); });
    const obs::CriticalPathSummary path =
        timed(tr, "obs.critical_path", check_id, true, [&] {
          return build_critical_path_summary(topo, plan, m, artifacts);
        });
    serialize(tr, check_id, true,
              [&](std::ostream& out) { obs::write_json(out, path); });
    if (k == 0) canonical = std::move(artifacts);
  }
  {
    Scope span(tr, "verify.flow", check_id, true);
    verify::analyze_flow(canonical.graph);
    verify::FlowLintOptions flow = make_flow_options(canonical, topo);
    flow.allow_stretched = !options.perturbations.nic_degradation.empty();
    verify::lint_flow(verify::as_ref(canonical.graph), &*canonical.result, flow);
  }
  tr.count("core.check_divergences", static_cast<std::uint64_t>(result.diverged));
  tr.count("verify.findings", result.report.diagnostics().size());
  return serialize(tr, root, false, [&](std::ostream& out) {
    write_check_report_json(out, result, current_build_info());
  });
}

std::string replay_inject(Tracer& tr, int root, const Request& req) {
  RecoveryOptions options;
  options.group_id = std::stoi(req.positional[1]);
  options.framework = resolve_framework(req);
  const net::Topology topo = timed(tr, "core.plan", root, false, [&] {
    return resolve_topology(req.positional[0]);
  });
  const FaultPlan faults = timed(tr, "core.plan", root, false,
                                 [&] { return read_fault_plan(req); });
  RecoveryReport report;
  int inject_id = -1;
  obs::SelfProfileCounters counters;
  {
    const obs::SelfProfiler profiler;
    Scope span(tr, "core.inject", root);
    inject_id = span.id();
    report = run_fault_injection(topo, faults, options);
    counters = profiler.snapshot().counters;
  }
  count_engine(tr, counters);
  // The plan, the fault-free and faulted legs, their summaries and one
  // HV504 flow analysis. The re-plan rounds, the elastic leg and the
  // occupancy curves use helpers internal to run_fault_injection, so they
  // stay in core.inject's self time.
  const TrainingPlan plan = timed(tr, "core.plan", inject_id, true, [&] {
    return Planner(options.framework)
        .plan(topo, model::parameter_group(options.group_id));
  });
  SimArtifacts free_run;
  const IterationMetrics free_m =
      simulate(tr, inject_id, false, topo, plan, {}, {}, free_run);
  timed(tr, "obs.run_summary", inject_id, true,
        [&] { return build_run_summary(topo, plan, free_m, free_run); });
  SimArtifacts faulted_run;
  const IterationMetrics faulted_m =
      simulate(tr, inject_id, false, topo, plan, lower_fault_plan(faults, topo),
               {}, faulted_run);
  {
    Scope span(tr, "verify.flow", inject_id, true);
    verify::analyze_flow(faulted_run.graph);
  }
  {
    Scope span(tr, "obs.critical_path", inject_id, true);
    build_critical_path_summary(topo, plan, free_m, free_run);
    build_critical_path_summary(topo, plan, faulted_m, faulted_run);
  }
  tr.count("verify.findings", report.lint.diagnostics().size());
  return serialize(tr, root, false, [&](std::ostream& out) {
    write_recovery_report_json(out, report);
  });
}

std::string replay(Tracer& tr, const Request& req) {
  Scope root(tr, "request " + req.command, -1);
  if (req.command == "check") return replay_check(tr, root.id(), req);
  if (req.command == "inject") return replay_inject(tr, root.id(), req);
  return replay_simple(tr, root.id(), req);
}

double since(const Tracer& tr, Clock::time_point t) {
  return std::chrono::duration<double, std::nano>(t - tr.epoch).count();
}

/// "span\t<request>\t<id>\t<parent>\t<replay>\t<start_ns>\t<end_ns>\t<name>"
/// then "count\t<request>\t<name>\t<value>" records.
void write_records(std::ostream& out, const Tracer& tr) {
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const Span& s = tr.spans[i];
    out << "span\t" << s.request << "\t" << i << "\t" << s.parent << "\t"
        << (s.replay ? 1 : 0) << "\t" << static_cast<std::int64_t>(since(tr, s.start))
        << "\t" << static_cast<std::int64_t>(since(tr, s.end)) << "\t" << s.name
        << "\n";
  }
  for (const auto& [request, name, value] : tr.counts) {
    out << "count\t" << request << "\t" << name << "\t" << value << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::cerr << "usage: holmes_replay <requests.tsv> <spans.tsv> <docs-dir> "
                 "<seconds>\n";
    return 3;
  }
  try {
    std::ifstream in(argv[1]);
    if (!in) throw ConfigError(std::string("cannot open ") + argv[1]);
    std::vector<Request> requests;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) requests.push_back(parse_request(line));
    }
    const std::string docs = argv[3];
    const double budget_s = std::stod(argv[4]);

    Tracer tr;
    const Clock::time_point start = Clock::now();
    int round = requests.empty() ? 0 : requests.front().round;
    for (const Request& req : requests) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (req.round != round && elapsed >= budget_s) break;
      round = req.round;
      tr.request = req.id;
      const std::string doc = replay(tr, req);
      std::ofstream out(docs + "/" + std::to_string(req.id) + ".out");
      if (!doc.empty()) out << doc << "\n";
      if (!out) throw ConfigError("cannot write " + docs);
    }
    std::ofstream out(argv[2]);
    write_records(out, tr);
    if (!out) throw ConfigError(std::string("cannot write ") + argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "holmes_replay: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
