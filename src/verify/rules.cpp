#include "verify/rules.h"

#include <ostream>

namespace holmes::verify {

std::string to_string(RuleFamily family) {
  switch (family) {
    case RuleFamily::kPlan:
      return "plan";
    case RuleFamily::kGraph:
      return "graph";
    case RuleFamily::kExecution:
      return "execution";
    case RuleFamily::kFlow:
      return "flow";
    case RuleFamily::kFault:
      return "fault";
  }
  return "unknown";
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {kRuleDpGroupTransport, RuleFamily::kPlan, Severity::kError,
       "dp-group-transport",
       "A data-parallel group with RDMA-capable members cannot establish a "
       "common RDMA fabric (mixed NICs or cluster-crossing membership); its "
       "high-volume gradient traffic degrades to Ethernet."},
      {kRuleTpGroupLocality, RuleFamily::kPlan, Severity::kError,
       "tp-group-locality",
       "A tensor-parallel group leaves a single node; TP traffic must stay "
       "on NVLink/PCIe."},
      {kRuleDpClusterCrossing, RuleFamily::kPlan, Severity::kWarning,
       "dp-cluster-crossing",
       "A data-parallel group spans clusters: cluster-crossing traffic is "
       "only tolerable on the low-volume pipeline dimension."},
      {kRulePartitionStructure, RuleFamily::kPlan, Severity::kError,
       "partition-structure",
       "The stage partition is malformed: not a positive multiple of the "
       "pipeline degree, a stage with < 1 layer, or layers not summing to "
       "the model's layer count."},
      {kRulePartitionSpeedOrder, RuleFamily::kPlan, Severity::kWarning,
       "partition-speed-order",
       "Layer counts invert the Eq. (2) NIC speed order: a stage on a "
       "strictly faster NIC received fewer layers than a stage on a "
       "strictly slower one."},
      {kRuleMemoryFit, RuleFamily::kPlan, Severity::kError,
       "memory-fit",
       "The worst stage's estimated per-device memory footprint exceeds the "
       "device memory budget."},
      {kRuleDegreesConsistent, RuleFamily::kPlan, Severity::kError,
       "degrees-consistent",
       "Parallelism degrees are inconsistent with the topology: t*p*d does "
       "not equal the world size, t does not divide a node's GPU count, or "
       "the plan has no micro-batches."},
      {kRuleNeedlessFallback, RuleFamily::kPlan, Severity::kWarning,
       "needless-fallback",
       "The global Ethernet fallback is engaged on a single homogeneous "
       "RDMA cluster, forfeiting RDMA for no compatibility reason."},
      {kRuleGraphAcyclic, RuleFamily::kGraph, Severity::kError,
       "graph-acyclic",
       "The task dependency graph contains a cycle; the affected tasks can "
       "never become ready."},
      {kRuleDepsValid, RuleFamily::kGraph, Severity::kError,
       "deps-valid",
       "A dependency references a task id that does not exist (dangling "
       "edge) or the task itself."},
      {kRuleTaskFields, RuleFamily::kGraph, Severity::kError,
       "task-fields",
       "A task's fields are inconsistent: compute without a valid resource, "
       "claiming a second one, or with negative duration; transfer with "
       "invalid/identical ports, negative bytes/latency, or missing "
       "bandwidth; unknown channel."},
      {kRuleSerialOrder, RuleFamily::kGraph, Severity::kError,
       "serial-order",
       "A device's declared program order (task creation order on a serial "
       "resource) conflicts with the dependency structure — an in-order "
       "issue engine (1F1B) would deadlock."},
      {kRuleChannelConservation, RuleFamily::kGraph, Severity::kWarning,
       "channel-conservation",
       "On a closed collective channel (every endpoint both sends and "
       "receives) an endpoint's bytes-in does not equal its bytes-out."},
      {kRuleTimingMonotone, RuleFamily::kExecution, Severity::kError,
       "timing-monotone",
       "A simulated task has a negative span, starts before a dependency "
       "finished, or its span disagrees with its declared cost."},
      {kRuleResourceExclusive, RuleFamily::kExecution, Severity::kError,
       "resource-exclusive",
       "Two tasks occupy the same serial resource at overlapping times."},
      {kRuleResultComplete, RuleFamily::kExecution, Severity::kError,
       "result-complete",
       "The simulation result does not cover every task, or its makespan "
       "disagrees with the latest task finish."},
      {kRuleFlowChainBound, RuleFamily::kFlow, Severity::kError,
       "flow-chain-bound",
       "The longest dependency chain's aggregate cost — a simulation-free "
       "makespan lower bound — exceeds the simulated makespan, proving the "
       "static analyzer or the executor wrong."},
      {kRuleFlowResourceBound, RuleFamily::kFlow, Severity::kError,
       "flow-resource-bound",
       "A resource's aggregate declared occupancy exceeds the simulated "
       "makespan, or disagrees with the busy time the executor accounted to "
       "it — the serial resource cannot have fit its work."},
      {kRuleFlowMemoryWatermark, RuleFamily::kFlow, Severity::kWarning,
       "flow-memory-watermark",
       "An endpoint's in-flight transfer high-water mark over topological "
       "cuts exceeds the per-device buffer budget; receive buffers would "
       "overflow under any admissible schedule."},
      {kRuleChannelCutBalance, RuleFamily::kFlow, Severity::kWarning,
       "channel-cut-balance",
       "A closed collective channel moves unequal byte volumes across a "
       "cluster cut (a->b vs b->a), so the cross-cluster links cannot be "
       "load-balanced."},
      {kRuleScheduleRace, RuleFamily::kFlow, Severity::kError,
       "schedule-race",
       "Simulated results changed when equal-ready-time ties were reordered "
       "under a seeded permutation: the schedule depends on tie order, which "
       "the determinism contract forbids."},
      {kRuleFabricSaturation, RuleFamily::kFlow, Severity::kWarning,
       "fallback-fabric-saturation",
       "The cross-cluster fallback fabric (Ethernet-class ports) sits at or "
       "above the saturation threshold for more than the configured share "
       "of the observed window: the fallback NIC, not compute, bounds the "
       "iteration (the paper's Fig. 3 diagnosis, machine-checked from the "
       "executed occupancy timeline)."},
      {kRuleFaultWindowSane, RuleFamily::kFault, Severity::kError,
       "fault-window-sane",
       "A NIC degradation window is malformed (a non-finite or negative "
       "start, a non-finite end or one not after begin, or a non-positive or "
       "non-finite bandwidth factor), a straggler's slowdown is "
       "non-positive, non-finite or above 1e6 (alone or compounded with the "
       "stragglers before it on one rank), a node failure's time is "
       "non-finite, or a window opens after the simulation horizon and can "
       "never take effect."},
      {kRuleFaultScopeValid, RuleFamily::kFault, Severity::kError,
       "fault-scope-valid",
       "A fault's scope resolves to no device in the topology: unknown "
       "cluster, node index outside the cluster, straggler rank outside the "
       "world, or a node-loss event naming a non-existent node."},
      {kRuleCheckpointModelSane, RuleFamily::kFault, Severity::kError,
       "checkpoint-model-sane",
       "The checkpoint/restart cost model is unusable: checkpoint period "
       "negative, a save or restart cost that is negative, non-finite or "
       "above 1e6 s, or a node-loss event scheduled without a checkpoint "
       "model (a positive period) to recover from."},
      {kRuleRecoveryInvariant, RuleFamily::kFault, Severity::kError,
       "recovery-invariant",
       "The recovered run finished faster than its own fault-free flow "
       "lower bound (HV401's critical chain): elastic re-planning cannot "
       "beat physics, so the recovery accounting is wrong."},
  };
  return catalog;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : rule_catalog()) {
    if (id == rule.id) return &rule;
  }
  return nullptr;
}

void write_rule_catalog_markdown(std::ostream& out) {
  out << "| Rule | Family | Severity | Name | Checks |\n"
      << "|------|--------|----------|------|--------|\n";
  for (const RuleInfo& rule : rule_catalog()) {
    out << "| " << rule.id << " | " << to_string(rule.family) << " | "
        << to_string(rule.default_severity) << " | `" << rule.title << "` | "
        << rule.detail << " |\n";
  }
}

}  // namespace holmes::verify
