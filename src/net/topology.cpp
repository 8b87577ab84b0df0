#include "net/topology.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "net/topology_parse.h"
#include "util/error.h"

namespace holmes::net {

static_assert(kDeviceBudget <= std::numeric_limits<int>::max(),
              "ranks are ints");

Topology::Topology(std::vector<ClusterSpec> clusters, FabricCatalog catalog)
    : clusters_(std::move(clusters)), catalog_(catalog) {
  if (clusters_.empty()) throw ConfigError("topology needs at least one cluster");
  // Count the world in 64 bits and refuse one past the device budget before
  // allocating a device for it.
  std::int64_t world = 0;
  for (const ClusterSpec& c : clusters_) {
    if (c.nodes <= 0) {
      throw ConfigError("cluster '" + c.name + "' has no nodes");
    }
    if (c.gpus_per_node <= 0) {
      throw ConfigError("cluster '" + c.name + "' has no GPUs per node");
    }
    world += std::int64_t{c.nodes} * c.gpus_per_node;
    if (world > kDeviceBudget) {
      throw ConfigError("cluster '" + c.name + "' (" + format_cluster(c) +
                        ") brings the world size to " + std::to_string(world) +
                        " GPUs, past the device budget of " +
                        std::to_string(kDeviceBudget) + " GPUs");
    }
  }
  int rank = 0;
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    const auto& c = clusters_[ci];
    for (int k = 0; k < c.nodes; ++k) {
      node_cluster_.push_back(static_cast<int>(ci));
      for (int j = 0; j < c.gpus_per_node; ++j, ++rank) {
        devices_.push_back(DeviceInfo{rank, static_cast<int>(ci), k,
                                      total_nodes() - 1, j, c.nic});
      }
    }
  }
}

Topology Topology::homogeneous(int nodes, NicType nic, int gpus_per_node) {
  return Topology({ClusterSpec{to_string(nic) + "-cluster", nodes,
                               gpus_per_node, nic}});
}

Topology Topology::hybrid_two_clusters(int nodes_per_cluster,
                                       int gpus_per_node) {
  return Topology({
      ClusterSpec{"IB-cluster", nodes_per_cluster, gpus_per_node,
                  NicType::kInfiniBand},
      ClusterSpec{"RoCE-cluster", nodes_per_cluster, gpus_per_node,
                  NicType::kRoCE},
  });
}

Topology Topology::split_clusters(int nodes_per_cluster, NicType nic,
                                  int gpus_per_node) {
  return Topology({
      ClusterSpec{to_string(nic) + "-cluster-A", nodes_per_cluster,
                  gpus_per_node, nic},
      ClusterSpec{to_string(nic) + "-cluster-B", nodes_per_cluster,
                  gpus_per_node, nic},
  });
}

int Topology::gpus_per_node() const {
  const int g = clusters_.front().gpus_per_node;
  for (const auto& c : clusters_) {
    HOLMES_CHECK_MSG(c.gpus_per_node == g,
                     "clusters disagree on GPUs per node");
  }
  return g;
}

const ClusterSpec& Topology::cluster(int index) const {
  HOLMES_CHECK(index >= 0 && index < cluster_count());
  return clusters_[static_cast<std::size_t>(index)];
}

const DeviceInfo& Topology::device(int rank) const {
  HOLMES_CHECK_MSG(rank >= 0 && rank < world_size(), "rank out of range");
  return devices_[static_cast<std::size_t>(rank)];
}

int Topology::cluster_of_node(int node) const {
  HOLMES_CHECK_MSG(node >= 0 && node < total_nodes(), "node out of range");
  return node_cluster_[static_cast<std::size_t>(node)];
}

std::vector<int> Topology::ranks_in_scope(int cluster,
                                          int node_in_cluster) const {
  std::vector<int> ranks;
  for (const auto& d : devices_) {
    if (cluster >= 0 && d.cluster != cluster) continue;
    if (node_in_cluster >= 0 && d.node_in_cluster != node_in_cluster) continue;
    ranks.push_back(d.rank);
  }
  return ranks;
}

FabricKind Topology::fabric_between(int rank_a, int rank_b) const {
  const DeviceInfo& a = device(rank_a);
  const DeviceInfo& b = device(rank_b);
  HOLMES_CHECK_MSG(rank_a != rank_b, "no fabric between a device and itself");

  if (a.global_node == b.global_node) {
    return clusters_[static_cast<std::size_t>(a.cluster)].has_nvlink
               ? FabricKind::kNVLink
               : FabricKind::kPCIe;
  }
  // Cross-cluster pairs and any IB<->RoCE pair fall back to Ethernet: the
  // two RDMA implementations are mutually incompatible and clusters never
  // share a high-speed switch (paper §2.2 case 2).
  if (a.cluster != b.cluster) return FabricKind::kEthernet;
  if (!rdma_compatible(a.nic, b.nic)) return FabricKind::kEthernet;
  return rdma_fabric(a.nic);
}

PathInfo Topology::path(int rank_a, int rank_b) const {
  return path_on(rank_a, rank_b, fabric_between(rank_a, rank_b));
}

PathInfo Topology::path_on(int rank_a, int rank_b, FabricKind fabric) const {
  // Each endpoint's port caps the achievable bandwidth.
  const PathInfo from_a = fabric_path_from(rank_a, fabric);
  const PathInfo from_b = fabric_path_from(rank_b, fabric);
  PathInfo path{fabric, std::min(from_a.bandwidth, from_b.bandwidth),
                std::max(from_a.latency, from_b.latency)};
  if (fabric == FabricKind::kEthernet &&
      cluster_of(rank_a) != cluster_of(rank_b)) {
    path.bandwidth *= kInterClusterBandwidthFactor;
    path.latency += kInterClusterExtraLatency;
  }
  return path;
}

FabricKind Topology::fastest_common_fabric(const std::vector<int>& ranks) const {
  HOLMES_CHECK_MSG(ranks.size() >= 2, "need at least two ranks");
  bool same_node = true;
  bool same_cluster = true;
  const DeviceInfo& first = device(ranks.front());
  for (int r : ranks) {
    const DeviceInfo& d = device(r);
    same_node &= d.global_node == first.global_node;
    same_cluster &= d.cluster == first.cluster;
  }
  if (same_node) {
    return clusters_[static_cast<std::size_t>(first.cluster)].has_nvlink
               ? FabricKind::kNVLink
               : FabricKind::kPCIe;
  }
  if (same_cluster && first.nic != NicType::kEthernet) {
    return rdma_fabric(first.nic);
  }
  return FabricKind::kEthernet;
}

PathInfo Topology::fabric_path_from(int rank, FabricKind fabric) const {
  const DeviceInfo& d = device(rank);
  const ClusterSpec& c = clusters_[static_cast<std::size_t>(d.cluster)];
  FabricSpec spec = catalog_.spec(fabric);
  // A cluster may override its RDMA NIC port speed (e.g. 100 Gbps IB).
  const bool is_rdma = fabric == FabricKind::kInfiniBand ||
                       fabric == FabricKind::kRoCE;
  if (is_rdma && c.nic_gbps > 0) spec.bandwidth_gbps = c.nic_gbps;
  return PathInfo{fabric, spec.effective_bandwidth(), spec.latency};
}

}  // namespace holmes::net
