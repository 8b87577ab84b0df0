#include "core/preflight.h"

namespace holmes::core {

verify::PlanView make_plan_view(const TrainingPlan& plan) {
  verify::PlanView view;
  view.groups = &plan.groups;
  view.partition = &plan.partition;
  view.stage_nics = &plan.stage_nics;
  view.model = &plan.workload.config;
  view.micro_batch_size = plan.workload.micro_batch_size;
  view.micro_batches = plan.micro_batches;
  view.ethernet_fallback = plan.ethernet_fallback;
  view.per_group_transport =
      plan.framework.transport == TransportPolicy::kPerGroupBest;
  const int d = plan.degrees.data;
  view.optimizer_shards = plan.framework.dp_sync.shards_optimizer() ? d : 1;
  view.weight_shards = plan.framework.dp_sync.shards_weights() ? d : 1;
  return view;
}

verify::LintReport lint_training_plan(const net::Topology& topo,
                                      const TrainingPlan& plan) {
  return verify::lint_plan(topo, make_plan_view(plan));
}

verify::LintReport lint_artifacts(const SimArtifacts& artifacts,
                                  const net::Topology* topo) {
  verify::GraphLintOptions options;
  options.serial_programs = artifacts.compute_resource;
  verify::LintReport report = verify::lint_graph(artifacts.graph, options);
  if (artifacts.result.has_value()) {
    report.merge(
        verify::lint_execution(artifacts.graph, *artifacts.result, options));
  }
  verify::FlowLintOptions flow = topo != nullptr
                                     ? make_flow_options(artifacts, *topo)
                                     : verify::FlowLintOptions{};
  const sim::SimResult* result =
      artifacts.result.has_value() ? &*artifacts.result : nullptr;
  report.merge(verify::lint_flow(verify::as_ref(artifacts.graph), result, flow));
  return report;
}

verify::FlowLintOptions make_flow_options(const SimArtifacts& artifacts,
                                          const net::Topology& topo) {
  verify::FlowLintOptions options;
  options.resource_cluster.assign(artifacts.graph.resource_count(), -1);
  for (std::size_t r = 0; r < options.resource_cluster.size(); ++r) {
    const int node =
        artifacts.ports.owner(static_cast<sim::ResourceId>(r)).node;
    if (node >= 0) options.resource_cluster[r] = topo.cluster_of_node(node);
  }
  return options;
}

}  // namespace holmes::core
