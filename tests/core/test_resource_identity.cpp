/// net::PortMap is the one owner of resource identity. This suite keeps a
/// test-only copy of how reports used to work it out from resource names
/// (a substring classifier, a "gpu<N>" / "node<N>" parse with a walk over
/// the clusters' node counts, and a sorted name index searched for a rank's
/// NIC ports) and holds PortMap's answers to it for every resource of
/// lowered graphs, the node-shared Ethernet ports and the unused per-GPU
/// port pairs included.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/faults.h"
#include "core/framework.h"
#include "core/plan.h"
#include "core/preflight.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/ports.h"
#include "net/topology.h"
#include "net/topology_parse.h"

namespace holmes::core {
namespace {

// ---------------------------------------------------------------------------
// Reference: what the names say
// ---------------------------------------------------------------------------

/// The class a resource name spells: "compute" for a compute engine, else
/// the first fabric name it contains, else "unknown".
std::string class_from_name(const std::string& name) {
  if (name.find(".compute") != std::string::npos) return "compute";
  for (const char* cls : {"NVLink", "PCIe", "InfiniBand", "RoCE", "Ethernet"}) {
    if (name.find(cls) != std::string::npos) return cls;
  }
  return "unknown";
}

/// The number after `prefix` at the start of `name`, or -1.
int index_after(const std::string& name, std::string_view prefix) {
  if (!name.starts_with(prefix) || name.size() == prefix.size()) return -1;
  int value = 0;
  std::size_t i = prefix.size();
  if (name[i] < '0' || name[i] > '9') return -1;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i) {
    value = value * 10 + (name[i] - '0');
  }
  return value;
}

/// The cluster a resource name places it in: "gpu<rank>" through the
/// rank's device, "node<n>" by walking the clusters' node counts.
int cluster_from_name(const std::string& name, const net::Topology& topo) {
  if (const int rank = index_after(name, "gpu"); rank >= 0) {
    return rank < topo.world_size() ? topo.cluster_of(rank) : -1;
  }
  if (const int node = index_after(name, "node"); node >= 0) {
    int first = 0;
    for (int c = 0; c < topo.cluster_count(); ++c) {
      if (node < first + topo.cluster(c).nodes) return c;
      first += topo.cluster(c).nodes;
    }
  }
  return -1;
}

/// A graph's resource names in sorted order.
using NameIndex = std::vector<std::pair<std::string_view, sim::ResourceId>>;

NameIndex index_names(const sim::TaskGraph& graph) {
  NameIndex index;
  for (std::size_t r = 0; r < graph.resource_count(); ++r) {
    const auto id = static_cast<sim::ResourceId>(r);
    index.emplace_back(graph.resource_name(id), id);
  }
  std::sort(index.begin(), index.end());
  return index;
}

/// Every resource named exactly `name` or, with `prefix`, starting with it.
std::set<sim::ResourceId> named(const NameIndex& index, std::string_view name,
                                bool prefix) {
  std::set<sim::ResourceId> ids;
  auto it = std::lower_bound(
      index.begin(), index.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  for (; it != index.end() &&
         (prefix ? it->first.starts_with(name) : it->first == name);
       ++it) {
    ids.insert(it->second);
  }
  return ids;
}

/// The ports a rank's primary NIC occupies, found by name: its node's
/// shared Ethernet ports, or its RDMA fabric's TX and RX port.
std::set<sim::ResourceId> nic_ports_by_name(const NameIndex& index,
                                            const net::Topology& topo,
                                            int rank) {
  const net::DeviceInfo& device = topo.device(rank);
  if (device.nic == net::NicType::kEthernet) {
    return named(index, "node" + std::to_string(device.global_node) +
                            ".Ethernet",
                 /*prefix=*/true);
  }
  const std::string base = "gpu" + std::to_string(rank) + "." +
                           net::to_string(net::rdma_fabric(device.nic));
  std::set<sim::ResourceId> ids = named(index, base + ".tx", false);
  ids.merge(named(index, base + ".rx", false));
  return ids;
}

/// The per-stage speed weights `inject` measured from the faulted leg when
/// it found a rank's NIC ports by name: layers over the slowest member's
/// compute plus busiest-NIC-port busy time, normalized to the fastest.
std::vector<double> weights_by_name(const net::Topology& topo,
                                    const TrainingPlan& plan,
                                    const SimArtifacts& artifacts) {
  const sim::SimResult& result = *artifacts.result;
  const NameIndex index = index_names(artifacts.graph);
  const auto p = static_cast<std::size_t>(plan.degrees.pipeline);
  std::vector<int> layers(p, 0);
  for (std::size_t v = 0; v < plan.partition.size(); ++v) {
    layers[v % p] += plan.partition[v];
  }
  std::vector<double> slowest(p, 0.0);
  for (std::size_t s = 0; s < p; ++s) {
    for (int rank : plan.groups.stage_ranks(static_cast<int>(s))) {
      double nic = 0;
      for (sim::ResourceId port : nic_ports_by_name(index, topo, rank)) {
        nic = std::max(nic, result.resource_busy(port));
      }
      const double busy =
          result.resource_busy(artifacts.compute_resource[
              static_cast<std::size_t>(rank)]) +
          nic;
      slowest[s] = std::max(slowest[s], busy);
    }
  }
  std::vector<double> weights(plan.partition.size(), 1.0);
  for (std::size_t v = 0; v < weights.size(); ++v) {
    if (slowest[v % p] > 0 && layers[v % p] > 0) {
      weights[v] = static_cast<double>(layers[v % p]) / slowest[v % p];
    }
  }
  const double top = *std::max_element(weights.begin(), weights.end());
  for (double& w : weights) w /= top;
  return weights;
}

// ---------------------------------------------------------------------------
// PortMap against the names
// ---------------------------------------------------------------------------

SimArtifacts lowered(const net::Topology& topo, int group = 1) {
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(group));
  return TrainingSimulator().lower(topo, plan);
}

/// A topology of the comparison and a parameter group that plans on it.
struct Case {
  std::string spec;
  net::Topology topo;
  int group = 1;
};

/// Ethernet-only, two RDMA kinds, two clusters of one kind, and three
/// clusters of three NIC kinds at 256 GPUs.
std::vector<Case> cases() {
  return {
      {"eth:2", make_environment(NicEnv::kEthernet, 2)},
      {"hybrid", make_environment(NicEnv::kHybrid, 4)},
      {"split-roce:4", make_environment(NicEnv::kSplitRoCE, 4)},
      {"8x8:ib+8x8:roce+16x8:eth",
       net::parse_topology("8x8:ib+8x8:roce+16x8:eth"), 7},
  };
}

TEST(ResourceIdentity, PortMapAnswersWhatEveryNameSays) {
  for (const auto& [spec, topo, group] : cases()) {
    SCOPED_TRACE(spec);
    const SimArtifacts artifacts = lowered(topo, group);
    const sim::TaskGraph& graph = artifacts.graph;
    const net::PortMap& ports = artifacts.ports;
    const verify::FlowLintOptions flow = make_flow_options(artifacts, topo);
    ASSERT_EQ(flow.resource_cluster.size(), graph.resource_count());
    std::size_t shared = 0;
    std::size_t unused_pairs = 0;
    for (std::size_t r = 0; r < graph.resource_count(); ++r) {
      const auto id = static_cast<sim::ResourceId>(r);
      const std::string& name = graph.resource_name(id);
      SCOPED_TRACE(name);
      EXPECT_EQ(ports.resource_class(id), class_from_name(name));
      EXPECT_EQ(flow.resource_cluster[r], cluster_from_name(name, topo));
      const net::PortMap::Owner owner = ports.owner(id);
      if (const int rank = index_after(name, "gpu"); rank >= 0) {
        EXPECT_EQ(owner.rank, rank);
        EXPECT_EQ(owner.node, topo.node_of(rank));
        unused_pairs += name.find(".Ethernet.") != std::string::npos;
      } else {
        EXPECT_EQ(owner.rank, -1);
        EXPECT_EQ(owner.node, index_after(name, "node"));
        ++shared;
      }
    }
    // Every node's four shared pairs and every GPU's own Ethernet pair,
    // which transfers never use, were compared.
    EXPECT_EQ(shared, static_cast<std::size_t>(topo.total_nodes()) * 2 *
                          net::kEthernetPortsPerNode);
    EXPECT_EQ(unused_pairs, static_cast<std::size_t>(topo.world_size()) * 2);
  }
}

TEST(ResourceIdentity, NicPortsMatchTheNameLookup) {
  for (const auto& [spec, topo, group] : cases()) {
    SCOPED_TRACE(spec);
    const SimArtifacts artifacts = lowered(topo, group);
    const net::PortMap& ports = artifacts.ports;
    const NameIndex index = index_names(artifacts.graph);
    for (int rank = 0; rank < topo.world_size(); ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank));
      const net::DeviceInfo& device = topo.device(rank);
      std::set<sim::ResourceId> found;
      if (device.nic == net::NicType::kEthernet) {
        for (sim::ResourceId port :
             ports.node_ethernet_ports(device.global_node)) {
          found.insert(port);
        }
      } else {
        const net::FabricKind fabric = net::rdma_fabric(device.nic);
        found = {ports.tx(rank, fabric), ports.rx(rank, fabric)};
      }
      EXPECT_EQ(found, nic_ports_by_name(index, topo, rank));
    }
  }
}

TEST(ResourceIdentity, MeasuredWeightsMatchTheNameLookup) {
  // A straggler on one rank of stage 0 skews the measured speeds on an
  // Ethernet-only topology (node-shared ports) and on an RDMA one.
  FaultPlan faults;
  faults.stragglers.push_back({1, -1, -1, 2.0});
  for (const auto& [spec, topo] :
       std::vector<std::pair<std::string, net::Topology>>{
           {"eth:2", make_environment(NicEnv::kEthernet, 2)},
           {"hybrid:2", make_environment(NicEnv::kHybrid, 2)}}) {
    SCOPED_TRACE(spec);
    const RecoveryOptions options;
    const RecoveryReport report = run_fault_injection(topo, faults, options);
    ASSERT_TRUE(report.valid);
    const TrainingPlan plan =
        Planner(options.framework)
            .plan(topo, model::parameter_group(options.group_id));
    ASSERT_GT(plan.degrees.pipeline, 1);
    SimArtifacts faulted;
    TrainingSimulator().run(topo, plan, options.iterations,
                            lower_fault_plan(faults, topo), nullptr,
                            &faulted);
    EXPECT_EQ(report.measured_weights, weights_by_name(topo, plan, faulted));
  }
}

// ---------------------------------------------------------------------------
// PortMap on its own
// ---------------------------------------------------------------------------

TEST(ResourceIdentity, AnEmptyMapKnowsNoResource) {
  const net::PortMap empty;
  EXPECT_EQ(empty.resource_class(0), "unknown");
  EXPECT_EQ(empty.owner(0).rank, -1);
  EXPECT_EQ(empty.owner(0).node, -1);
  const SimArtifacts artifacts = lowered(make_environment(NicEnv::kHybrid, 2));
  const auto past = static_cast<sim::ResourceId>(
      artifacts.graph.resource_count());
  EXPECT_EQ(artifacts.ports.resource_class(past), "unknown");
  EXPECT_EQ(artifacts.ports.resource_class(-1), "unknown");
  EXPECT_EQ(artifacts.ports.owner(past).node, -1);
}

}  // namespace
}  // namespace holmes::core
