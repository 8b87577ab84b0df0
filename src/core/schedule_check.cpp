#include "core/schedule_check.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/preflight.h"
#include "core/run_stats.h"
#include "obs/critical_path.h"
#include "obs/summary.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

/// The two byte-stable documents the check compares across tie
/// permutations.
struct Documents {
  std::string run_summary;
  std::string critical_path;
  bool operator==(const Documents&) const = default;
};

/// Accounts executed artifacts and serializes their run summary and
/// critical path.
Documents serialize(const net::Topology& topo, const TrainingPlan& plan,
                    const SimArtifacts& executed) {
  const IterationMetrics metrics = TrainingSimulator::account(plan, executed);
  Documents docs;
  {
    std::ostringstream oss;
    obs::write_json(oss, build_run_summary(topo, plan, metrics, executed));
    docs.run_summary = oss.str();
  }
  {
    std::ostringstream oss;
    obs::write_json(oss,
                    build_critical_path_summary(topo, plan, metrics, executed));
    docs.critical_path = oss.str();
  }
  return docs;
}

std::string task_subject(const sim::TaskGraph& graph, sim::TaskId id) {
  std::string subject = "task " + std::to_string(id);
  const std::string& label = graph.label(id);
  if (!label.empty()) subject += " '" + label + "'";
  return subject;
}

std::string format_seconds(double s) {
  std::ostringstream os;
  os.precision(12);
  os << s;
  return os.str();
}

/// Names the first task whose timing differs bitwise between the canonical
/// and a permuted run, or falls back to the coarser signals (makespan,
/// serialized accounting) when every timing matched.
std::pair<std::string, std::string> describe_divergence(
    const sim::TaskGraph& graph, const sim::SimResult& base,
    const Documents& base_docs, const sim::SimResult& perm,
    const Documents& perm_docs, std::uint64_t seed) {
  std::ostringstream os;
  os << "tie permutation (seed " << seed << ") ";
  const std::size_t n = graph.task_count();
  if (perm.timings().size() == n) {
    for (std::size_t i = 0; i < n; ++i) {
      const sim::TaskTiming& a = base.timings()[i];
      const sim::TaskTiming& b = perm.timings()[i];
      if (a.start != b.start || a.finish != b.finish) {
        os << "moved it from start " << format_seconds(a.start) << " s to "
           << format_seconds(b.start) << " s (finish "
           << format_seconds(a.finish) << " s -> " << format_seconds(b.finish)
           << " s)";
        return {task_subject(graph, static_cast<sim::TaskId>(i)), os.str()};
      }
    }
  }
  if (base.makespan() != perm.makespan()) {
    os << "changed the makespan from " << format_seconds(base.makespan())
       << " s to " << format_seconds(perm.makespan()) << " s";
    return {"run", os.str()};
  }
  os << "changed the serialized "
     << (base_docs.run_summary != perm_docs.run_summary ? "run summary"
                                                        : "critical path")
     << " without moving any task timing (order-sensitive accounting)";
  return {"run", os.str()};
}

}  // namespace

std::string to_string(sim::TieBreak tie_break) {
  switch (tie_break) {
    case sim::TieBreak::kCanonical:
      return "canonical";
    case sim::TieBreak::kPermuteDisjoint:
      return "disjoint";
    case sim::TieBreak::kPermuteAll:
      return "all";
  }
  return "unknown";
}

ScheduleCheckResult check_schedule_determinism(
    const net::Topology& topo, const TrainingPlan& plan,
    const ScheduleCheckOptions& options) {
  ScheduleCheckResult result;
  result.tie_break = options.tie_break;
  result.base_seed = options.base_seed;

  // Lower once; the canonical run and every permutation execute the one
  // compiled graph.
  SimArtifacts artifacts = TrainingSimulator{}.lower(
      topo, plan, options.iterations, options.perturbations);
  artifacts.result = TrainingSimulator::execute(artifacts, {});
  result.makespan_s = artifacts.result->makespan();
  result.flow = verify::analyze_flow(artifacts.graph);

  // The flow bounds ride along on the canonical run: static lower bound vs
  // simulated makespan (HV401/HV402), buffer watermark (HV403), cluster-cut
  // balance (HV404). Active NIC degradation windows stretch occupancy, so
  // HV402 must tolerate busy time above the static load.
  verify::FlowLintOptions flow_options = make_flow_options(artifacts, topo);
  flow_options.allow_stretched = !options.perturbations.nic_degradation.empty();
  result.report.merge(verify::lint_flow(verify::as_ref(artifacts.graph),
                                        result.flow, &*artifacts.result,
                                        flow_options));

  result.report.mark_checked(verify::kRuleScheduleRace);
  // Permuted executions only read the shared graph; fan them across a pool
  // when asked. The documents are a pure function of the shared artifacts
  // and the result, so a permutation bit-identical to the canonical run
  // cannot diverge and is dropped at once. Only a differing result is kept;
  // its documents are built and compared in seed order on this thread
  // afterwards, so the report bytes do not depend on the thread count.
  std::vector<std::optional<sim::SimResult>> differing(
      static_cast<std::size_t>(std::max(options.permutations, 0)));
  auto seed_of = [&](std::size_t k) {
    return options.base_seed + static_cast<std::uint64_t>(k);
  };
  auto execute_permutation = [&](std::size_t k) {
    sim::ExecutorOptions exec;
    exec.tie_break = options.tie_break;
    exec.tie_seed = seed_of(k);
    sim::SimResult permuted = TrainingSimulator::execute(artifacts, exec);
    if (!permuted.bit_identical(*artifacts.result)) {
      differing[k] = std::move(permuted);
    }
  };
  if (options.threads == 1 || differing.size() <= 1) {
    for (std::size_t k = 0; k < differing.size(); ++k) execute_permutation(k);
  } else {
    ThreadPool(options.threads).parallel_for(differing.size(),
                                             execute_permutation);
  }
  result.permutations = static_cast<int>(differing.size());
  std::optional<Documents> canonical;  // built for the first that differs
  for (std::size_t k = 0; k < differing.size(); ++k) {
    if (!differing[k]) continue;
    if (!canonical) canonical = serialize(topo, plan, artifacts);
    std::swap(artifacts.result, differing[k]);
    const Documents docs = serialize(topo, plan, artifacts);
    std::swap(artifacts.result, differing[k]);
    if (docs == *canonical) continue;
    result.diverged += 1;
    auto [subject, message] =
        describe_divergence(artifacts.graph, *artifacts.result, *canonical,
                            *differing[k], docs, seed_of(k));
    result.report.add(verify::kRuleScheduleRace, verify::Severity::kError,
                      std::move(subject), std::move(message));
  }
  return result;
}

void write_check_report_json(std::ostream& out,
                             const ScheduleCheckResult& result,
                             const BuildInfo& fingerprint) {
  out << "{\"schema\":\"" << kCheckReportSchema << "\",\"fingerprint\":";
  write_build_info_json(out, fingerprint);
  out << ",\"verdict\":\"" << (result.report.ok() ? "pass" : "fail") << "\""
      << ",\"policy\":\"" << to_string(result.tie_break) << "\""
      << ",\"permutations\":" << result.permutations
      << ",\"diverged\":" << result.diverged
      << ",\"base_seed\":" << result.base_seed
      << ",\"makespan_s\":" << json_number(result.makespan_s)
      << ",\"flow\":{\"chain_bound_s\":" << json_number(result.flow.chain_bound_s)
      << ",\"resource_bound_s\":" << json_number(result.flow.resource_bound_s)
      << ",\"makespan_bound_s\":" << json_number(result.flow.makespan_bound_s)
      << ",\"bound_fraction\":"
      << json_number(result.makespan_s > 0
                         ? result.flow.makespan_bound_s / result.makespan_s
                         : 0.0);
  Bytes peak = 0;
  std::string peak_endpoint;
  for (const verify::FlowAnalysis::EndpointWatermark& w :
       result.flow.watermarks) {
    if (w.peak_bytes > peak) {
      peak = w.peak_bytes;
      peak_endpoint = w.endpoint;
    }
  }
  out << ",\"peak_inflight_bytes\":" << peak << ",\"peak_inflight_endpoint\":\""
      << json_escape(peak_endpoint) << "\"}";
  out << ",\"lint\":";
  verify::write_json(out, result.report);
  out << "}";
}

}  // namespace holmes::core
