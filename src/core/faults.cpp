#include "core/faults.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "core/run_stats.h"
#include "model/gpt_zoo.h"
#include "net/nic.h"
#include "net/topology_parse.h"
#include "obs/timeline.h"
#include "pipeline/partition.h"
#include "util/error.h"
#include "util/json.h"
#include "verify/flow_lints.h"
#include "verify/rules.h"

namespace holmes::core {

namespace {

std::string format_seconds(double s) {
  std::ostringstream os;
  os.precision(12);
  os << s;
  return os.str();
}

/// A plan number as fault_plan_json writes it: json_number's 12 significant
/// digits when they re-parse to `value` (every fixture and golden plan),
/// else the shortest form that does, so an echoed plan is the plan that
/// ran.
std::string plan_number(double value) {
  std::string text = json_number(value);
  double reparsed = 0;
  std::from_chars(text.data(), text.data() + text.size(), reparsed);
  if (!std::isfinite(value) || reparsed == value) return text;
  char buf[32];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end.ptr);
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

[[noreturn]] void bad_field(const std::string& where, const std::string& key) {
  throw ConfigError("fault plan: unknown key '" + key + "' in " + where);
}

/// The number at `key` of `obj`, `fallback` when absent (HV501-503 lint it).
double num_or(const JsonValue& obj, const std::string& key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->as_number();
}

/// The whole number at `key` of `obj` within [lo, hi], `fallback` when
/// absent. A fraction, infinity or a value out of range is a ConfigError
/// naming the key path (`path` + `key`, e.g. "stragglers[0].rank").
std::int64_t whole_or(const JsonValue& obj, const std::string& path,
                      const char* key, std::int64_t lo, std::int64_t hi,
                      std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  const double x = v == nullptr ? fallback : v->as_number();
  if (x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
      x == std::trunc(x)) {
    return static_cast<std::int64_t>(x);
  }
  throw ConfigError("fault plan: " + path + key +
                    " must be a whole number from " + std::to_string(lo) +
                    " to " + std::to_string(hi) + ", got " + format_seconds(x));
}

/// A scope field: a whole int, -1 (the wildcard) or above.
int scope_or(const JsonValue& obj, const std::string& path, const char* key,
             int fallback) {
  return static_cast<int>(whole_or(obj, path, key, -1,
                                   std::numeric_limits<int>::max(), fallback));
}

void check_keys(const JsonValue& obj, const std::string& where,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.as_object()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      bad_field(where, key);
    }
  }
}

NicDegradation parse_window(const JsonValue& obj, const std::string& path) {
  check_keys(obj, "nic_degradation[]",
             {"cluster", "node_in_cluster", "begin_s", "end_s",
              "bandwidth_factor"});
  NicDegradation w;
  w.cluster = scope_or(obj, path, "cluster", -1);
  w.node_in_cluster = scope_or(obj, path, "node_in_cluster", -1);
  w.begin_s = num_or(obj, "begin_s", 0);
  w.end_s = num_or(obj, "end_s", 0);
  w.bandwidth_factor = num_or(obj, "bandwidth_factor", 1.0);
  return w;
}

ComputeStraggler parse_straggler(const JsonValue& obj,
                                 const std::string& path) {
  check_keys(obj, "stragglers[]",
             {"rank", "cluster", "node_in_cluster", "slowdown"});
  ComputeStraggler s;
  s.rank = scope_or(obj, path, "rank", -1);
  s.cluster = scope_or(obj, path, "cluster", -1);
  s.node_in_cluster = scope_or(obj, path, "node_in_cluster", -1);
  s.slowdown = num_or(obj, "slowdown", 1.0);
  return s;
}

// ---------------------------------------------------------------------------
// Scope resolution shared by the lints and the lowering
// ---------------------------------------------------------------------------

std::vector<int> straggler_ranks(const net::Topology& topo,
                                 const ComputeStraggler& s) {
  if (s.rank >= 0) {
    if (s.rank >= topo.world_size()) return {};
    return {s.rank};
  }
  return topo.ranks_in_scope(s.cluster, s.node_in_cluster);
}

std::string window_subject(const NicDegradation& w, std::size_t index) {
  std::ostringstream os;
  os << "nic_degradation[" << index << "]";
  if (w.cluster >= 0) os << " cluster " << w.cluster;
  if (w.node_in_cluster >= 0) os << " node " << w.node_in_cluster;
  return os.str();
}

// ---------------------------------------------------------------------------
// Measured stage speeds from an executed run
// ---------------------------------------------------------------------------

/// Effective busy seconds of `rank` in the executed graph: compute
/// occupancy plus the heavier direction of its primary NIC's port occupancy
/// (stretched occupancy under an active fault timeline, so degraded fabrics
/// register just like slow devices).
double effective_busy(const net::Topology& topo, const SimArtifacts& artifacts,
                      int rank) {
  const sim::SimResult& result = *artifacts.result;
  const net::PortMap& ports = artifacts.ports;
  const double busy = result.resource_busy(ports.compute(rank));

  const net::DeviceInfo& device = topo.device(rank);
  double nic = 0;
  if (device.nic == net::NicType::kEthernet) {
    // Node-shared ports: take the busiest Ethernet port of the rank's node.
    for (sim::ResourceId port : ports.node_ethernet_ports(device.global_node)) {
      nic = std::max(nic, result.resource_busy(port));
    }
  } else {
    const net::FabricKind fabric = net::rdma_fabric(device.nic);
    nic = std::max(result.resource_busy(ports.tx(rank, fabric)),
                   result.resource_busy(ports.rx(rank, fabric)));
  }
  return busy + nic;
}

/// Per-virtual-stage speed weights measured from the faulted run: a stage's
/// speed is its hosted layer count over the slowest member device's
/// effective busy time — exactly the generalization of
/// bench_straggler's NIC-class speeds to *measured* speeds. Normalized so
/// the fastest stage weighs 1.
std::vector<double> measure_stage_weights(const net::Topology& topo,
                                          const TrainingPlan& plan,
                                          const SimArtifacts& artifacts) {
  const int p = plan.degrees.pipeline;
  const std::size_t stages = plan.partition.size();
  // Layers hosted per *physical* stage (virtual stages fold onto p).
  std::vector<int> phys_layers(static_cast<std::size_t>(p), 0);
  for (std::size_t v = 0; v < stages; ++v) {
    phys_layers[v % static_cast<std::size_t>(p)] += plan.partition[v];
  }
  std::vector<double> phys_busy(static_cast<std::size_t>(p), 0.0);
  for (int s = 0; s < p; ++s) {
    for (int rank : plan.groups.stage_ranks(s)) {
      phys_busy[static_cast<std::size_t>(s)] =
          std::max(phys_busy[static_cast<std::size_t>(s)],
                   effective_busy(topo, artifacts, rank));
    }
  }
  std::vector<double> weights(stages, 1.0);
  for (std::size_t v = 0; v < stages; ++v) {
    const std::size_t s = v % static_cast<std::size_t>(p);
    if (phys_busy[s] > 0 && phys_layers[s] > 0) {
      weights[v] = static_cast<double>(phys_layers[s]) / phys_busy[s];
    }
  }
  const double top = *std::max_element(weights.begin(), weights.end());
  if (top > 0) {
    for (double& w : weights) w /= top;
  }
  return weights;
}

RecoveryRun summarize(const IterationMetrics& metrics,
                      const SimArtifacts& artifacts) {
  RecoveryRun run;
  run.iteration_s = metrics.iteration_time;
  run.throughput = metrics.throughput;
  run.makespan_s = artifacts.result->makespan();
  return run;
}

/// HV504's inputs for one executed leg: its makespan and its own graph's
/// fault-free flow chain bound (declared costs; NIC stretching only ever
/// grows spans, so the bound stays valid under any fault timeline).
struct LegBound {
  const char* leg = "";
  double makespan_s = 0;
  double chain_bound_s = 0;
  bool valid = false;  ///< the flow analysis produced a bound
};

LegBound leg_bound(const char* leg, const SimArtifacts& artifacts) {
  const verify::FlowAnalysis flow = verify::analyze_flow(artifacts.graph);
  return {leg, artifacts.result->makespan(), flow.chain_bound_s, flow.valid};
}

/// HV504 for one executed leg: its makespan must dominate its chain bound.
void check_recovery_invariant(verify::LintReport& report,
                              const LegBound& bound) {
  if (!bound.valid) return;
  // Exact comparison is too strict across the stretching arithmetic; allow
  // the same relative tolerance the flow lints use.
  const double eps = 1e-9 * std::max(1.0, bound.chain_bound_s);
  if (bound.makespan_s < bound.chain_bound_s - eps) {
    report.add(verify::kRuleRecoveryInvariant, verify::Severity::kError,
               bound.leg,
               "recovered makespan " + format_seconds(bound.makespan_s) +
                   " s beats the fault-free chain bound " +
                   format_seconds(bound.chain_bound_s) +
                   " s — recovery accounting is wrong");
  }
}

using ClassCurves = std::map<std::string, std::vector<double>>;

/// Per-NIC-class occupancy of one executed leg (busy ports / class ports),
/// kTimelineBuckets time-weighted means over the leg's own [0, makespan).
ClassCurves class_occupancy(const SimArtifacts& artifacts) {
  const double makespan = artifacts.result->makespan();
  ClassCurves curves;
  const net::PortMap& ports = artifacts.ports;
  for (const obs::ClassTimeline& cls : obs::extract_class_timelines(
           artifacts.graph, *artifacts.result,
           [&ports](sim::ResourceId resource) {
             return ports.resource_class(resource);
           })) {
    std::vector<double> values = cls.busy_ports.bucketize(
        0.0, makespan, RecoveryReport::kTimelineBuckets);
    if (cls.ports > 0) {
      for (double& v : values) v /= static_cast<double>(cls.ports);
    }
    curves[cls.nic_class] = std::move(values);
  }
  return curves;
}

/// What the report reads of the fault-free or the faulted leg, taken while
/// its graph is alive.
struct LegDigest {
  RecoveryRun run;
  std::vector<obs::CriticalPathSummary::Bucket> buckets;
  ClassCurves curves;
};

LegDigest digest_leg(const net::Topology& topo, const TrainingPlan& plan,
                     const IterationMetrics& metrics,
                     const SimArtifacts& artifacts) {
  LegDigest leg;
  leg.run = summarize(metrics, artifacts);
  leg.buckets =
      build_critical_path_summary(topo, plan, metrics, artifacts).buckets;
  leg.curves = class_occupancy(artifacts);
  return leg;
}

std::string json_int_array(const std::vector<int>& values) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    os << values[i];
  }
  os << "]";
  return os.str();
}

std::string json_num_array(const std::vector<double>& values) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    os << json_number(values[i]);
  }
  os << "]";
  return os.str();
}

void write_run_json(std::ostream& out, const RecoveryRun& run) {
  out << "{\"iteration_s\":" << json_number(run.iteration_s)
      << ",\"throughput\":" << json_number(run.throughput)
      << ",\"makespan_s\":" << json_number(run.makespan_s) << "}";
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& json) {
  const JsonValue doc = json_parse(json);
  if (!doc.is_object()) {
    throw ConfigError("fault plan: document must be a JSON object");
  }
  check_keys(doc, "fault plan",
             {"schema", "seed", "nic_degradation", "stragglers",
              "node_failure", "checkpoint"});
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != kFaultPlanSchema) {
    throw ConfigError(std::string("fault plan: expected schema \"") +
                      kFaultPlanSchema + "\"");
  }
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(
      whole_or(doc, "", "seed", 0, kMaxSeed, 0x5EED));
  if (const JsonValue* windows = doc.find("nic_degradation")) {
    for (const JsonValue& w : windows->as_array()) {
      plan.nic_degradation.push_back(parse_window(
          w, "nic_degradation[" +
                 std::to_string(plan.nic_degradation.size()) + "]."));
    }
  }
  if (const JsonValue* stragglers = doc.find("stragglers")) {
    for (const JsonValue& s : stragglers->as_array()) {
      plan.stragglers.push_back(parse_straggler(
          s, "stragglers[" + std::to_string(plan.stragglers.size()) + "]."));
    }
  }
  if (const JsonValue* failure = doc.find("node_failure")) {
    check_keys(*failure, "node_failure", {"at_s", "cluster", "node_in_cluster"});
    plan.node_failure.at_s = num_or(*failure, "at_s", -1);
    plan.node_failure.cluster =
        scope_or(*failure, "node_failure.", "cluster", 0);
    plan.node_failure.node_in_cluster =
        scope_or(*failure, "node_failure.", "node_in_cluster", 0);
  }
  if (const JsonValue* ckpt = doc.find("checkpoint")) {
    check_keys(*ckpt, "checkpoint",
               {"period_iterations", "save_s", "restart_s"});
    plan.checkpoint.period_iterations = static_cast<int>(
        whole_or(*ckpt, "checkpoint.", "period_iterations",
                 std::numeric_limits<int>::min(),
                 std::numeric_limits<int>::max(), 0));
    plan.checkpoint.save_s = num_or(*ckpt, "save_s", 0);
    plan.checkpoint.restart_s = num_or(*ckpt, "restart_s", 0);
  }
  return plan;
}

std::string fault_plan_json(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kFaultPlanSchema << "\",\"seed\":" << plan.seed
      << ",\"nic_degradation\":[";
  for (std::size_t i = 0; i < plan.nic_degradation.size(); ++i) {
    const NicDegradation& w = plan.nic_degradation[i];
    if (i > 0) out << ",";
    out << "{\"cluster\":" << w.cluster
        << ",\"node_in_cluster\":" << w.node_in_cluster
        << ",\"begin_s\":" << plan_number(w.begin_s)
        << ",\"end_s\":" << plan_number(w.end_s)
        << ",\"bandwidth_factor\":" << plan_number(w.bandwidth_factor) << "}";
  }
  out << "],\"stragglers\":[";
  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const ComputeStraggler& s = plan.stragglers[i];
    if (i > 0) out << ",";
    out << "{\"rank\":" << s.rank << ",\"cluster\":" << s.cluster
        << ",\"node_in_cluster\":" << s.node_in_cluster
        << ",\"slowdown\":" << plan_number(s.slowdown) << "}";
  }
  out << "],\"node_failure\":{\"at_s\":" << plan_number(plan.node_failure.at_s)
      << ",\"cluster\":" << plan.node_failure.cluster
      << ",\"node_in_cluster\":" << plan.node_failure.node_in_cluster
      << "},\"checkpoint\":{\"period_iterations\":"
      << plan.checkpoint.period_iterations
      << ",\"save_s\":" << plan_number(plan.checkpoint.save_s)
      << ",\"restart_s\":" << plan_number(plan.checkpoint.restart_s) << "}}";
  return out.str();
}

verify::LintReport lint_fault_plan(const FaultPlan& plan,
                                   const net::Topology& topo,
                                   double horizon_s) {
  verify::LintReport report;
  report.mark_checked(verify::kRuleFaultWindowSane);
  report.mark_checked(verify::kRuleFaultScopeValid);
  report.mark_checked(verify::kRuleCheckpointModelSane);

  // HV501: window and parameter sanity.
  for (std::size_t i = 0; i < plan.nic_degradation.size(); ++i) {
    const NicDegradation& w = plan.nic_degradation[i];
    const std::string subject = window_subject(w, i);
    if (!std::isfinite(w.begin_s) || !std::isfinite(w.end_s)) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
                 subject, "window bounds begin_s " + format_seconds(w.begin_s) +
                              " s and end_s " + format_seconds(w.end_s) +
                              " s must be finite");
    }
    if (w.begin_s < 0) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
                 subject, "window begins at negative simulated time " +
                              format_seconds(w.begin_s) + " s");
    }
    if (w.end_s <= w.begin_s) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
                 subject, "window end " + format_seconds(w.end_s) +
                              " s does not lie after its begin " +
                              format_seconds(w.begin_s) + " s");
    }
    if (!(std::isfinite(w.bandwidth_factor) && w.bandwidth_factor > 0)) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
                 subject,
                 "bandwidth factor " + format_seconds(w.bandwidth_factor) +
                     " must be positive and finite (use a small factor for "
                     "a near-dead link, node_failure for a dead one)");
    }
    if (horizon_s > 0 && w.begin_s >= horizon_s) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kWarning,
                 subject, "window opens at " + format_seconds(w.begin_s) +
                              " s, after the simulated horizon " +
                              format_seconds(horizon_s) +
                              " s — it can never take effect");
    }
  }
  // Each rank's slowdown compounds in plan order, as lower_fault_plan
  // multiplies it; an entry already rejected on its own is left out.
  std::map<int, double> compounded;
  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const ComputeStraggler& s = plan.stragglers[i];
    auto reject = [&](const std::string& message) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
                 "stragglers[" + std::to_string(i) + "]", message);
    };
    const std::string slowdown = "slowdown " + format_seconds(s.slowdown);
    const std::string bound = "the bound of " + format_seconds(kMaxSlowdown);
    if (!(std::isfinite(s.slowdown) && s.slowdown > 0)) {
      reject(slowdown + " must be positive and finite");
    } else if (s.slowdown > kMaxSlowdown) {
      reject(slowdown + " exceeds " + bound);
    } else {
      std::string crossed;  // names the first rank this entry pushes past
      for (int rank : straggler_ranks(topo, s)) {
        double& product = compounded.try_emplace(rank, 1.0).first->second;
        if (product <= kMaxSlowdown && product * s.slowdown > kMaxSlowdown &&
            crossed.empty()) {
          crossed = "compounds rank " + std::to_string(rank) +
                    "'s slowdown to " +
                    format_seconds(product * s.slowdown) +
                    " with the stragglers before it, past " + bound;
        }
        product *= s.slowdown;
      }
      if (!crossed.empty()) reject(crossed);
    }
  }

  if (!std::isfinite(plan.node_failure.at_s)) {
    report.add(verify::kRuleFaultWindowSane, verify::Severity::kError,
               "node_failure",
               "failure time at_s " + format_seconds(plan.node_failure.at_s) +
                   " s must be finite (negative for no failure)");
  }

  // HV502: every scope must resolve to at least one device.
  for (std::size_t i = 0; i < plan.nic_degradation.size(); ++i) {
    const NicDegradation& w = plan.nic_degradation[i];
    if (topo.ranks_in_scope(w.cluster, w.node_in_cluster).empty()) {
      report.add(verify::kRuleFaultScopeValid, verify::Severity::kError,
                 window_subject(w, i),
                 "scope resolves to no device in the topology");
    }
  }
  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const ComputeStraggler& s = plan.stragglers[i];
    if (straggler_ranks(topo, s).empty()) {
      report.add(verify::kRuleFaultScopeValid, verify::Severity::kError,
                 "stragglers[" + std::to_string(i) + "]",
                 s.rank >= 0 ? "rank " + std::to_string(s.rank) +
                                   " is outside the " +
                                   std::to_string(topo.world_size()) +
                                   "-device world"
                             : "scope resolves to no device in the topology");
    }
  }
  if (plan.has_node_failure()) {
    const NodeFailure& f = plan.node_failure;
    const bool cluster_ok =
        f.cluster >= 0 && f.cluster < topo.cluster_count();
    const bool node_ok =
        cluster_ok && f.node_in_cluster >= 0 &&
        f.node_in_cluster < topo.cluster(f.cluster).nodes;
    if (!node_ok) {
      report.add(verify::kRuleFaultScopeValid, verify::Severity::kError,
                 "node_failure",
                 "names node " + std::to_string(f.node_in_cluster) +
                     " of cluster " + std::to_string(f.cluster) +
                     ", which does not exist in the topology");
    }
    if (horizon_s > 0 && f.at_s >= horizon_s) {
      report.add(verify::kRuleFaultWindowSane, verify::Severity::kWarning,
                 "node_failure",
                 "failure at " + format_seconds(f.at_s) +
                     " s lies after the simulated horizon " +
                     format_seconds(horizon_s) + " s");
    }
  }

  // HV503: the checkpoint model must be usable.
  if (plan.checkpoint.period_iterations < 0) {
    report.add(verify::kRuleCheckpointModelSane, verify::Severity::kError,
               "checkpoint", "period_iterations must be >= 0");
  }
  for (const auto& [field, cost] :
       {std::pair{"save_s", plan.checkpoint.save_s},
        std::pair{"restart_s", plan.checkpoint.restart_s}}) {
    if (!(cost >= 0 && cost <= kMaxCheckpointCost)) {
      report.add(verify::kRuleCheckpointModelSane, verify::Severity::kError,
                 "checkpoint",
                 std::string(field) + " " + format_seconds(cost) +
                     " s must be non-negative and at most the bound of " +
                     format_seconds(kMaxCheckpointCost) + " s");
    }
  }
  if (plan.has_node_failure() && plan.checkpoint.period_iterations <= 0) {
    report.add(verify::kRuleCheckpointModelSane, verify::Severity::kError,
               "checkpoint",
               "a node failure is scheduled but no checkpoint model exists "
               "to recover from (period_iterations must be > 0)");
  }
  return report;
}

Perturbations lower_fault_plan(const FaultPlan& plan,
                               const net::Topology& topo) {
  Perturbations perturb;
  perturb.nic_degradation = plan.nic_degradation;
  for (const ComputeStraggler& s : plan.stragglers) {
    for (int rank : straggler_ranks(topo, s)) {
      auto [it, inserted] = perturb.device_slowdown.try_emplace(rank, 1.0);
      it->second *= s.slowdown;
    }
  }
  // Drop identity slowdowns so an all-1.0 plan still counts as empty.
  for (auto it = perturb.device_slowdown.begin();
       it != perturb.device_slowdown.end();) {
    it = it->second == 1.0 ? perturb.device_slowdown.erase(it) : ++it;
  }
  return perturb;
}

RecoveryReport run_fault_injection(const net::Topology& topo,
                                   const FaultPlan& plan,
                                   const RecoveryOptions& options) {
  RecoveryReport report;
  report.plan = plan;
  report.iterations = options.iterations;
  report.lint = lint_fault_plan(plan, topo);
  if (!report.lint.ok()) return report;  // valid stays false: nothing ran
  report.valid = true;

  const model::ParameterGroup& workload =
      model::parameter_group(options.group_id);
  const TrainingPlan static_plan =
      Planner(options.framework).plan(topo, workload);
  report.static_partition = static_plan.partition;
  const Perturbations perturb = lower_fault_plan(plan, topo);

  TrainingSimulator simulator;
  // Each leg is reduced to what the report reads right after it runs, and
  // the next leg is lowered into the same artifacts: one lowered graph is
  // alive at a time, and every leg reuses the arrays the first one
  // allocated, so what a request keeps resident does not depend on how
  // many legs its fault plan calls for.
  SimArtifacts leg;

  // Leg 1: fault-free baseline.
  LegDigest fault_free;
  {
    const IterationMetrics metrics = simulator.run(
        topo, static_plan, options.iterations, {}, nullptr, &leg);
    fault_free = digest_leg(topo, static_plan, metrics, leg);
  }
  report.fault_free = fault_free.run;

  // Identity strings as every run summary spells them.
  report.topology = net::format_topology(topo);
  report.framework = static_plan.framework.name;
  report.workload = workload_label(static_plan);

  // Leg 2: the static plan under the fault schedule. Besides its digest it
  // keeps the measured weights, its HV504 bound and the iteration markers'
  // finish times (the checkpoint accounting below).
  LegDigest faulted;
  LegBound faulted_bound;
  std::vector<double> marker_finish;
  {
    const IterationMetrics metrics = simulator.run(
        topo, static_plan, options.iterations, perturb, nullptr, &leg);
    faulted = digest_leg(topo, static_plan, metrics, leg);
    faulted_bound = leg_bound("faulted", leg);
    report.measured_weights = measure_stage_weights(topo, static_plan, leg);
    marker_finish.reserve(leg.iteration_markers.size());
    for (const sim::TaskId marker : leg.iteration_markers) {
      marker_finish.push_back(leg.result->timing(marker).finish);
    }
  }
  report.faulted = faulted.run;

  // Leg 3: measured-speed re-partition, simulated under the same faults.
  // A single measurement under-corrects: effective busy time folds in
  // communication that does not shrink when layers move off a slow stage,
  // so the first re-plan lands short of the balance point. Iterate
  // measure -> re-partition -> simulate until the partition stops changing
  // (bounded rounds; oscillation is broken by keeping the best-throughput
  // round). Each round is one deterministic simulation, so the loop — and
  // therefore the report — stays byte-stable.
  std::vector<double> weights = report.measured_weights;
  TrainingPlan tuned = static_plan;
  LegBound replanned_bound;
  {
    std::vector<int> last_partition;  // last candidate actually simulated
    bool have_best = false;
    for (int round = 0; round < 4; ++round) {
      TrainingPlan candidate = static_plan;
      // Alpha 1.05 is the paper's Eq. (2) over-allocation: measured busy
      // time folds in communication and thus *over*estimates a slow stage's
      // speed, so fast stages deliberately get a little more than
      // proportional.
      candidate.partition = pipeline::proportional_partition(
          workload.config.layers, weights, 1.05);
      if (candidate.partition == last_partition) break;  // fixed point
      last_partition = candidate.partition;
      const IterationMetrics metrics = simulator.run(
          topo, candidate, options.iterations, perturb, nullptr, &leg);
      weights = measure_stage_weights(topo, candidate, leg);
      // A new best round is reduced at once, like every other leg, so the
      // next round can be lowered into its artifacts.
      if (!have_best || metrics.throughput > report.replanned.throughput) {
        have_best = true;
        tuned = candidate;
        report.replanned = summarize(metrics, leg);
        replanned_bound = leg_bound("replanned", leg);
      }
    }
  }
  report.replanned_partition = tuned.partition;
  report.recovered_makespan_s = report.replanned.makespan_s;

  const double lost = report.fault_free.throughput - report.faulted.throughput;
  const double regained =
      report.replanned.throughput - report.faulted.throughput;
  report.recovery_ratio =
      lost > 1e-12 ? regained / lost : (regained >= 0 ? 1.0 : 0.0);

  // Node loss: checkpoint-replay accounting plus an elastic re-plan on the
  // surviving topology.
  std::optional<LegBound> elastic_bound;
  if (plan.has_node_failure()) {
    report.node_lost = true;
    report.restart_s = plan.checkpoint.restart_s;
    const NodeFailure& failure = plan.node_failure;
    report.failed_ranks = topo.cluster(failure.cluster).gpus_per_node;

    // A checkpoint taken at iteration i (1-based, every `period`) becomes
    // durable save_s after the iteration's marker finishes. The failure
    // destroys all progress since the last durable checkpoint.
    const double horizon = report.faulted.makespan_s;
    const double at = std::min(failure.at_s, horizon);
    const int period = plan.checkpoint.period_iterations;
    double last_durable = 0;
    for (int i = period; i <= options.iterations && period > 0; i += period) {
      const double durable = marker_finish[static_cast<std::size_t>(i - 1)] +
                             plan.checkpoint.save_s;
      if (durable <= at) {
        report.checkpointed_iterations = i;
        last_durable = durable;
      }
    }
    report.checkpoint_overhead_s =
        period > 0 ? plan.checkpoint.save_s *
                         (report.checkpointed_iterations / period)
                   : 0;
    report.lost_work_s = std::max(0.0, at - last_durable);
    report.downtime_s = report.lost_work_s + report.restart_s;

    // Shrink the topology by the dead node and re-plan on the survivors.
    std::vector<net::ClusterSpec> specs = topo.clusters();
    specs[static_cast<std::size_t>(failure.cluster)].nodes -= 1;
    std::erase_if(specs, [](const net::ClusterSpec& c) { return c.nodes == 0; });
    if (specs.empty()) {
      report.recoverable = false;
      report.unrecoverable_reason = "every node in the topology failed";
    } else {
      try {
        const net::Topology survivors(specs, topo.catalog());
        const TrainingPlan elastic_plan =
            Planner(options.framework).plan(survivors, workload);
        const Perturbations elastic_perturb =
            lower_fault_plan(plan, survivors);
        const IterationMetrics el_metrics =
            simulator.run(survivors, elastic_plan, options.iterations,
                          elastic_perturb, nullptr, &leg);
        report.recoverable = true;
        report.elastic_throughput = el_metrics.throughput;
        const int remaining =
            options.iterations - report.checkpointed_iterations;
        report.recovered_makespan_s =
            at + report.checkpoint_overhead_s + report.restart_s +
            static_cast<double>(remaining) * el_metrics.iteration_time;
        elastic_bound = leg_bound("elastic", leg);
      } catch (const ConfigError& e) {
        report.recoverable = false;
        report.unrecoverable_reason = e.what();
      }
    }
  }

  // HV504 on every executed leg.
  report.lint.mark_checked(verify::kRuleRecoveryInvariant);
  if (elastic_bound) check_recovery_invariant(report.lint, *elastic_bound);
  check_recovery_invariant(report.lint, faulted_bound);
  check_recovery_invariant(report.lint, replanned_bound);

  // Critical-path attribution delta (faulted vs fault-free), joined by
  // bucket name, plus the synthetic recovery buckets.
  std::map<std::string, RecoveryReport::BucketDelta> joined;
  for (const obs::CriticalPathSummary::Bucket& b : fault_free.buckets) {
    joined[b.name].name = b.name;
    joined[b.name].fault_free_s = b.seconds;
  }
  for (const obs::CriticalPathSummary::Bucket& b : faulted.buckets) {
    joined[b.name].name = b.name;
    joined[b.name].faulted_s = b.seconds;
  }
  if (report.node_lost) {
    joined["recovery/lost_work"] = {"recovery/lost_work", 0,
                                    report.lost_work_s, 0};
    joined["recovery/restart"] = {"recovery/restart", 0, report.restart_s, 0};
    joined["recovery/checkpoint_save"] = {"recovery/checkpoint_save", 0,
                                          report.checkpoint_overhead_s, 0};
  }
  for (auto& [name, delta] : joined) {
    delta.delta_s = delta.faulted_s - delta.fault_free_s;
    report.bucket_deltas.push_back(delta);
  }

  // Per-NIC-class occupancy shape delta, each leg bucketed over its own
  // full run so the curves compare even though faults stretch the span.
  std::map<std::string, RecoveryReport::ClassOccupancyDelta> shapes;
  for (auto& [name, curve] : fault_free.curves) {
    shapes[name].nic_class = name;
    shapes[name].fault_free = std::move(curve);
  }
  for (auto& [name, curve] : faulted.curves) {
    shapes[name].nic_class = name;
    shapes[name].faulted = std::move(curve);
  }
  for (auto& [name, shape] : shapes) {
    const std::vector<double> zeros(RecoveryReport::kTimelineBuckets, 0.0);
    if (shape.fault_free.empty()) shape.fault_free = zeros;
    if (shape.faulted.empty()) shape.faulted = zeros;
    shape.delta.resize(RecoveryReport::kTimelineBuckets);
    for (int b = 0; b < RecoveryReport::kTimelineBuckets; ++b) {
      shape.delta[static_cast<std::size_t>(b)] =
          shape.faulted[static_cast<std::size_t>(b)] -
          shape.fault_free[static_cast<std::size_t>(b)];
    }
    report.timeline_deltas.push_back(shape);
  }
  return report;
}

void write_recovery_report_json(std::ostream& out,
                                const RecoveryReport& report) {
  out << "{\"schema\":\"" << kRecoveryReportSchema << "\",\"verdict\":\""
      << (report.valid && report.lint.ok() ? "pass" : "fail")
      << "\",\"valid\":" << (report.valid ? "true" : "false")
      << ",\"topology\":\"" << json_escape(report.topology)
      << "\",\"framework\":\"" << json_escape(report.framework)
      << "\",\"workload\":\"" << json_escape(report.workload)
      << "\",\"iterations\":" << report.iterations
      << ",\"fault_plan\":" << fault_plan_json(report.plan);
  out << ",\"fault_free\":";
  write_run_json(out, report.fault_free);
  out << ",\"faulted\":";
  write_run_json(out, report.faulted);
  out << ",\"replanned\":";
  write_run_json(out, report.replanned);
  out << ",\"static_partition\":" << json_int_array(report.static_partition)
      << ",\"replanned_partition\":"
      << json_int_array(report.replanned_partition)
      << ",\"measured_weights\":" << json_num_array(report.measured_weights)
      << ",\"recovery_ratio\":" << json_number(report.recovery_ratio)
      << ",\"recovered_makespan_s\":"
      << json_number(report.recovered_makespan_s);
  out << ",\"node_failure\":{\"occurred\":"
      << (report.node_lost ? "true" : "false")
      << ",\"recoverable\":" << (report.recoverable ? "true" : "false")
      << ",\"reason\":\"" << json_escape(report.unrecoverable_reason)
      << "\",\"failed_ranks\":" << report.failed_ranks
      << ",\"checkpointed_iterations\":" << report.checkpointed_iterations
      << ",\"checkpoint_overhead_s\":"
      << json_number(report.checkpoint_overhead_s)
      << ",\"lost_work_s\":" << json_number(report.lost_work_s)
      << ",\"restart_s\":" << json_number(report.restart_s)
      << ",\"downtime_s\":" << json_number(report.downtime_s)
      << ",\"elastic_throughput\":" << json_number(report.elastic_throughput)
      << "}";
  out << ",\"critical_path_delta\":[";
  for (std::size_t i = 0; i < report.bucket_deltas.size(); ++i) {
    const RecoveryReport::BucketDelta& d = report.bucket_deltas[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << json_escape(d.name)
        << "\",\"fault_free_s\":" << json_number(d.fault_free_s)
        << ",\"faulted_s\":" << json_number(d.faulted_s)
        << ",\"delta_s\":" << json_number(d.delta_s) << "}";
  }
  out << "],\"timeline_delta\":[";
  for (std::size_t i = 0; i < report.timeline_deltas.size(); ++i) {
    const RecoveryReport::ClassOccupancyDelta& d = report.timeline_deltas[i];
    if (i > 0) out << ",";
    out << "{\"class\":\"" << json_escape(d.nic_class)
        << "\",\"fault_free\":" << json_num_array(d.fault_free)
        << ",\"faulted\":" << json_num_array(d.faulted)
        << ",\"delta\":" << json_num_array(d.delta) << "}";
  }
  out << "],\"lint\":";
  verify::write_json(out, report.lint);
  out << "}";
}

void print_recovery_report(std::ostream& out, const RecoveryReport& report) {
  out << "fault injection: " << report.framework << " on " << report.topology
      << ", " << report.workload << "\n";
  if (!report.valid) {
    out << "  fault plan rejected by pre-flight lints:\n";
    verify::print_text(out, report.lint);
    return;
  }
  auto line = [&](const char* label, const RecoveryRun& run) {
    out << "  " << label << "iteration " << format_seconds(run.iteration_s)
        << " s, throughput " << format_seconds(run.throughput)
        << " samples/s\n";
  };
  line("fault-free  ", report.fault_free);
  line("faulted     ", report.faulted);
  line("re-planned  ", report.replanned);
  out << "  recovery ratio " << format_seconds(report.recovery_ratio)
      << " (share of lost throughput regained by the measured-speed "
         "re-partition)\n";
  if (report.node_lost) {
    out << "  node failure at " << format_seconds(report.plan.node_failure.at_s)
        << " s: " << report.failed_ranks << " ranks lost, "
        << report.checkpointed_iterations
        << " iterations checkpointed, lost work "
        << format_seconds(report.lost_work_s) << " s, downtime "
        << format_seconds(report.downtime_s) << " s\n";
    if (report.recoverable) {
      out << "  elastic re-plan on survivors: throughput "
          << format_seconds(report.elastic_throughput)
          << " samples/s, recovered makespan "
          << format_seconds(report.recovered_makespan_s) << " s\n";
    } else {
      out << "  unrecoverable: " << report.unrecoverable_reason << "\n";
    }
  }
  for (const RecoveryReport::ClassOccupancyDelta& d : report.timeline_deltas) {
    double ff = 0;
    double fs = 0;
    for (double v : d.fault_free) ff += v;
    for (double v : d.faulted) fs += v;
    ff /= RecoveryReport::kTimelineBuckets;
    fs /= RecoveryReport::kTimelineBuckets;
    out << "  " << d.nic_class << " occupancy: fault-free "
        << format_seconds(ff * 100) << "%, faulted "
        << format_seconds(fs * 100)
        << "% (shape curves in the JSON timeline_delta)\n";
  }
  verify::print_text(out, report.lint);
}

}  // namespace holmes::core
