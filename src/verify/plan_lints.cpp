#include "verify/plan_lints.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "model/memory.h"
#include "util/error.h"
#include "verify/rules.h"

namespace holmes::verify {

namespace {

/// "cluster 'ib0' (InfiniBand, 8 ranks), cluster 'roce0' (RoCE, 8 ranks)"
std::string describe_membership(const net::Topology& topo,
                                const std::vector<int>& ranks) {
  // cluster index -> rank count, in ascending cluster order.
  std::set<int> clusters;
  for (int rank : ranks) clusters.insert(topo.cluster_of(rank));
  std::ostringstream os;
  bool first = true;
  for (int cluster : clusters) {
    const int count = static_cast<int>(
        std::count_if(ranks.begin(), ranks.end(), [&](int rank) {
          return topo.cluster_of(rank) == cluster;
        }));
    if (!first) os << ", ";
    first = false;
    os << "cluster '" << topo.cluster(cluster).name << "' ("
       << net::to_string(topo.cluster(cluster).nic) << ", " << count
       << (count == 1 ? " rank)" : " ranks)");
  }
  return os.str();
}

void lint_dp_transport(const net::Topology& topo, const PlanView& view,
                       LintReport& report) {
  report.mark_checked(kRuleDpGroupTransport);
  const Severity severity =
      view.per_group_transport && !view.ethernet_fallback ? Severity::kError
                                                          : Severity::kWarning;
  const auto& dp_groups = view.groups->dp_groups();
  for (std::size_t i = 0; i < dp_groups.size(); ++i) {
    const std::vector<int>& group = dp_groups[i];
    if (group.size() < 2) continue;
    if (topo.fastest_common_fabric(group) != net::FabricKind::kEthernet) {
      continue;
    }
    // If no member owns an RDMA-capable NIC, Ethernet *is* the best fabric
    // available — nothing was lost.
    const bool any_rdma = std::any_of(group.begin(), group.end(), [&](int r) {
      return topo.device(r).nic != net::NicType::kEthernet;
    });
    if (!any_rdma) continue;
    report.add(kRuleDpGroupTransport, severity, "dp" + std::to_string(i),
               "data-parallel group has no common RDMA fabric — gradient "
               "synchronization degrades to Ethernet; members: " +
                   describe_membership(topo, group));
  }
}

void lint_tp_locality(const net::Topology& topo, const PlanView& view,
                      LintReport& report) {
  report.mark_checked(kRuleTpGroupLocality);
  const auto& tp_groups = view.groups->tp_groups();
  for (std::size_t i = 0; i < tp_groups.size(); ++i) {
    const std::vector<int>& group = tp_groups[i];
    if (group.size() < 2) continue;
    std::set<int> nodes;
    for (int rank : group) nodes.insert(topo.node_of(rank));
    if (nodes.size() <= 1) continue;
    std::ostringstream os;
    os << "tensor-parallel group spans " << nodes.size()
       << " nodes; TP traffic must stay on NVLink/PCIe inside one node";
    report.add(kRuleTpGroupLocality, Severity::kError,
               "tp" + std::to_string(i), os.str());
  }
}

void lint_dp_cluster_crossing(const net::Topology& topo, const PlanView& view,
                              LintReport& report) {
  report.mark_checked(kRuleDpClusterCrossing);
  const auto& dp_groups = view.groups->dp_groups();
  for (std::size_t i = 0; i < dp_groups.size(); ++i) {
    const std::vector<int>& group = dp_groups[i];
    if (group.size() < 2) continue;
    std::set<int> clusters;
    for (int rank : group) clusters.insert(topo.cluster_of(rank));
    if (clusters.size() <= 1) continue;
    report.add(kRuleDpClusterCrossing, Severity::kWarning,
               "dp" + std::to_string(i),
               "data-parallel group crosses cluster boundaries — "
               "cluster-crossing traffic belongs to the pipeline dimension "
               "only; members: " +
                   describe_membership(topo, group));
  }
}

void lint_degrees(const net::Topology& topo, const PlanView& view,
                  LintReport& report) {
  report.mark_checked(kRuleDegreesConsistent);
  const parallel::ParallelConfig& config = view.groups->config();
  if (config.tensor < 1 || config.pipeline < 1 || config.data < 1) {
    report.add(kRuleDegreesConsistent, Severity::kError, config.to_string(),
               "parallelism degrees must all be >= 1");
    return;
  }
  if (config.world() != topo.world_size()) {
    std::ostringstream os;
    os << "t*p*d = " << config.world() << " does not equal the topology's "
       << topo.world_size() << " devices";
    report.add(kRuleDegreesConsistent, Severity::kError, config.to_string(),
               os.str());
  }
  for (int c = 0; c < topo.cluster_count(); ++c) {
    const int gpus = topo.cluster(c).gpus_per_node;
    if (config.tensor > gpus || gpus % config.tensor != 0) {
      std::ostringstream os;
      os << "tensor degree " << config.tensor
         << " does not divide the " << gpus << " GPUs per node of cluster '"
         << topo.cluster(c).name << "'";
      report.add(kRuleDegreesConsistent, Severity::kError, config.to_string(),
                 os.str());
    }
  }
  if (view.micro_batches.has_value() && *view.micro_batches < 1) {
    report.add(kRuleDegreesConsistent, Severity::kError, config.to_string(),
               "plan has " + std::to_string(*view.micro_batches) +
                   " micro-batches per replica; need at least 1");
  }
}

/// Aggregate layers per *physical* stage (virtual stage v runs on v % p).
/// Empty when the partition shape is broken (HV104 reports that).
std::vector<int> physical_layers(const PlanView& view) {
  const int p = view.groups->config().pipeline;
  const std::size_t size = view.partition->size();
  if (size == 0 || size % static_cast<std::size_t>(p) != 0) return {};
  std::vector<int> layers(static_cast<std::size_t>(p), 0);
  for (std::size_t v = 0; v < size; ++v) {
    layers[v % static_cast<std::size_t>(p)] += (*view.partition)[v];
  }
  return layers;
}

void lint_partition_structure(const PlanView& view, LintReport& report) {
  report.mark_checked(kRulePartitionStructure);
  const int p = view.groups->config().pipeline;
  const pipeline::StagePartition& partition = *view.partition;
  if (partition.empty() || partition.size() % static_cast<std::size_t>(p) != 0) {
    std::ostringstream os;
    os << "partition has " << partition.size()
       << " virtual stages, not a positive multiple of the pipeline degree "
       << p;
    report.add(kRulePartitionStructure, Severity::kError, "partition",
               os.str());
    return;
  }
  int sum = 0;
  for (std::size_t v = 0; v < partition.size(); ++v) {
    sum += partition[v];
    if (partition[v] < 1) {
      report.add(kRulePartitionStructure, Severity::kError,
                 "stage" + std::to_string(v),
                 "virtual stage holds " + std::to_string(partition[v]) +
                     " layers; every stage needs at least 1");
    }
  }
  if (view.model != nullptr && sum != view.model->layers) {
    std::ostringstream os;
    os << "partition assigns " << sum << " layers but the model has "
       << view.model->layers;
    report.add(kRulePartitionStructure, Severity::kError, "partition",
               os.str());
  }
}

void lint_partition_speed_order(const PlanView& view, LintReport& report) {
  report.mark_checked(kRulePartitionSpeedOrder);
  const std::vector<int> layers = physical_layers(view);
  if (layers.empty()) return;  // shape broken; HV104 already fired
  const std::vector<net::NicType>& nics = *view.stage_nics;
  constexpr int kMaxFindings = 4;
  int findings = 0;
  for (std::size_t a = 0; a < layers.size() && findings < kMaxFindings; ++a) {
    for (std::size_t b = 0; b < layers.size() && findings < kMaxFindings;
         ++b) {
      const double speed_a = view.speeds.of(nics[a]);
      const double speed_b = view.speeds.of(nics[b]);
      if (speed_a > speed_b && layers[a] < layers[b]) {
        std::ostringstream os;
        os << "stage " << a << " (" << net::to_string(nics[a]) << ", "
           << layers[a] << " layers) received fewer layers than stage " << b
           << " (" << net::to_string(nics[b]) << ", " << layers[b]
           << " layers) although its NIC trains faster — inverts Eq. (2)";
        report.add(kRulePartitionSpeedOrder, Severity::kWarning,
                   "stage" + std::to_string(a), os.str());
        ++findings;
      }
    }
  }
}

void lint_memory_fit(const PlanView& view, LintReport& report) {
  report.mark_checked(kRuleMemoryFit);
  const std::vector<int> layers = physical_layers(view);
  if (layers.empty()) return;
  const parallel::ParallelConfig& config = view.groups->config();
  for (std::size_t s = 0; s < layers.size(); ++s) {
    const model::MemoryEstimate est = model::estimate_device_memory(
        *view.model, layers[s], config.tensor, view.micro_batch_size,
        std::min(config.pipeline, 8), view.optimizer_shards,
        view.weight_shards);
    if (est.total() <= model::kDeviceMemory) continue;
    std::ostringstream os;
    os << "estimated " << format_bytes(est.total()) << " per device ("
       << layers[s] << " layers) exceeds the "
       << format_bytes(model::kDeviceMemory) << " budget";
    report.add(kRuleMemoryFit, Severity::kError, "stage" + std::to_string(s),
               os.str());
  }
}

void lint_needless_fallback(const net::Topology& topo, const PlanView& view,
                            LintReport& report) {
  report.mark_checked(kRuleNeedlessFallback);
  if (!view.ethernet_fallback) return;
  if (topo.cluster_count() != 1) return;
  const net::NicType nic = topo.cluster(0).nic;
  if (nic == net::NicType::kEthernet) return;
  report.add(kRuleNeedlessFallback, Severity::kWarning, "transport",
             "global Ethernet fallback engaged on a single homogeneous " +
                 net::to_string(nic) +
                 " cluster — RDMA is forfeited for no compatibility reason");
}

}  // namespace

LintReport lint_plan(const net::Topology& topo, const PlanView& view) {
  HOLMES_CHECK_MSG(view.groups != nullptr, "PlanView needs groups");
  LintReport report;
  lint_dp_transport(topo, view, report);
  lint_tp_locality(topo, view, report);
  lint_dp_cluster_crossing(topo, view, report);
  lint_degrees(topo, view, report);
  if (view.partition != nullptr) {
    lint_partition_structure(view, report);
    if (view.stage_nics != nullptr &&
        view.stage_nics->size() ==
            static_cast<std::size_t>(view.groups->config().pipeline) &&
        !view.ethernet_fallback) {
      lint_partition_speed_order(view, report);
    }
    if (view.model != nullptr && view.micro_batch_size > 0) {
      lint_memory_fit(view, report);
    }
  }
  lint_needless_fallback(topo, view, report);
  return report;
}

}  // namespace holmes::verify
