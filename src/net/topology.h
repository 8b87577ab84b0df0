#pragma once

/// \file topology.h
/// Multi-cluster GPU topology with global rank numbering (paper §2.4).
///
/// A topology is a list of clusters; cluster i has f_i nodes of G devices
/// each. Devices are numbered rank 0..N-1 in (cluster, node, gpu) order,
/// matching the paper's rank_{G·((Σ f_a)+k−1)+j} convention (we use 0-based
/// indices throughout).
///
/// Connectivity rules (§2.2):
///  - same node                  -> NVLink (or PCIe when NVLink is absent)
///  - same cluster, RDMA NICs    -> that cluster's RDMA fabric (IB or RoCE)
///  - same cluster, Ethernet NICs-> Ethernet
///  - different clusters         -> Ethernet (clusters never share a
///                                  high-speed switch; IB and RoCE are
///                                  mutually incompatible anyway)

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/nic.h"
#include "util/units.h"

namespace holmes::net {

/// Describes one homogeneous cluster.
struct ClusterSpec {
  std::string name;
  int nodes = 0;          ///< f_i
  int gpus_per_node = 8;  ///< G
  NicType nic = NicType::kInfiniBand;
  /// Per-GPU NIC bandwidth override in Gbit/s; <= 0 means "use the fabric
  /// catalog default for this NIC type".
  double nic_gbps = 0;
  /// Whether GPUs inside one node are linked by NVLink (else PCIe).
  bool has_nvlink = true;
};

struct DeviceInfo {
  int rank = -1;
  int cluster = -1;          ///< index into clusters()
  int node_in_cluster = -1;  ///< 0-based k within the cluster
  int global_node = -1;      ///< node index across the whole topology
  int gpu_in_node = -1;      ///< 0-based j within the node
  NicType nic = NicType::kEthernet;
};

/// Resolved characteristics of the path between two devices.
struct PathInfo {
  FabricKind fabric = FabricKind::kEthernet;
  double bandwidth = 0;  ///< achievable bytes/second
  SimTime latency = 0;   ///< one-way seconds
};

/// Degradation applied to Ethernet paths that leave a cluster: clusters
/// share no high-speed interconnect (paper §2.2 case 2), so cross-cluster
/// traffic crosses routed, oversubscribed aggregation links instead of the
/// cluster's own switched network. The path keeps this fraction of its
/// bandwidth and pays this much extra latency.
inline constexpr double kInterClusterBandwidthFactor = 0.40;
inline constexpr SimTime kInterClusterExtraLatency = units::microseconds(500);

/// Largest world a Topology accepts: 2^21 devices. Every device lowers at
/// least four compute tasks per iteration (overhead, forward, backward,
/// optimizer) over at least two iterations, so a larger world passes
/// core::kTaskBudget (2^24 tasks) under any plan and can never be
/// simulated; core/training_sim.cpp asserts the relation.
inline constexpr std::int64_t kDeviceBudget = std::int64_t{1} << 21;

class Topology {
 public:
  /// Builds a topology from cluster specs. Throws ConfigError when a spec is
  /// degenerate (no nodes, no GPUs) or the world passes kDeviceBudget.
  Topology(std::vector<ClusterSpec> clusters, FabricCatalog catalog = {});

  // ---- Convenience factories used across tests and benches ----

  /// One cluster of `nodes` nodes, all on `nic` — the paper's homogeneous
  /// environments (InfiniBand / RoCE / Ethernet rows).
  static Topology homogeneous(int nodes, NicType nic, int gpus_per_node = 8);

  /// Two equal clusters, IB + RoCE, no shared high-speed switch — the
  /// paper's *Hybrid* environment.
  static Topology hybrid_two_clusters(int nodes_per_cluster,
                                      int gpus_per_node = 8);

  /// Two equal clusters with the *same* NIC type but no shared high-speed
  /// switch (Fig. 4's "InfiniBand & Ethernet" / "RoCE & Ethernet" cases).
  static Topology split_clusters(int nodes_per_cluster, NicType nic,
                                 int gpus_per_node = 8);

  // ---- Structure queries ----

  int world_size() const { return static_cast<int>(devices_.size()); }
  int cluster_count() const { return static_cast<int>(clusters_.size()); }
  int total_nodes() const { return static_cast<int>(node_cluster_.size()); }
  int gpus_per_node() const;  ///< requires all clusters to share G

  const std::vector<ClusterSpec>& clusters() const { return clusters_; }
  const ClusterSpec& cluster(int index) const;
  const DeviceInfo& device(int rank) const;
  const FabricCatalog& catalog() const { return catalog_; }

  int cluster_of(int rank) const { return device(rank).cluster; }
  int node_of(int rank) const { return device(rank).global_node; }
  /// Cluster of global node `node`.
  int cluster_of_node(int node) const;

  /// Ranks of every device in node `node_in_cluster` of `cluster`,
  /// ascending; -1 in either position matches every cluster or node (the
  /// fault plan's scope).
  std::vector<int> ranks_in_scope(int cluster, int node_in_cluster) const;

  // ---- Connectivity ----

  /// The fabric a pair of distinct devices communicates over.
  FabricKind fabric_between(int rank_a, int rank_b) const;

  /// Fully resolved path between two distinct devices.
  PathInfo path(int rank_a, int rank_b) const;

  /// Path between two distinct devices over an explicitly chosen fabric
  /// (the transport a NIC-oblivious stack forces). Applies the
  /// inter-cluster degradation when the pair spans clusters over Ethernet.
  PathInfo path_on(int rank_a, int rank_b, FabricKind fabric) const;

  /// The fastest fabric available between *every* pair in `ranks`. This is
  /// the transport a communicator spanning `ranks` ends up on, and is the
  /// single choke-point implementing the paper's NIC-compatibility rules.
  /// Requires at least 2 ranks.
  FabricKind fastest_common_fabric(const std::vector<int>& ranks) const;

  /// Path characteristics of `fabric` as seen from device `rank` (its port
  /// speed may be capped by the cluster's nic_gbps override).
  PathInfo fabric_path_from(int rank, FabricKind fabric) const;

 private:
  std::vector<ClusterSpec> clusters_;
  std::vector<DeviceInfo> devices_;
  FabricCatalog catalog_;
  std::vector<int> node_cluster_;  ///< global node -> cluster
};

}  // namespace holmes::net
