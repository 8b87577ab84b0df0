#pragma once

/// \file ports.h
/// Binding between a Topology and a sim::TaskGraph: registers one compute
/// resource plus per-fabric TX/RX port resources for every device, and
/// emits point-to-point transfer tasks over the resolved path.
///
/// Separate TX/RX resources per fabric are what let computation overlap
/// with communication, and NVLink traffic overlap with NIC traffic, exactly
/// as on real hardware.
///
/// Port granularity mirrors the paper's testbed: every GPU owns a dedicated
/// RDMA NIC (and its NVLink/PCIe endpoints), but commodity *Ethernet* is
/// one NIC per node shared by all of its GPUs — the physical reason
/// Ethernet training is so much slower than its 25 Gbps nominal rate
/// suggests, and why a global Ethernet fallback is catastrophic.

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology.h"
#include "sim/task_graph.h"

namespace holmes::net {

/// Ethernet NIC port pairs every node exposes; its GPUs share them
/// round-robin (gpu_in_node % kEthernetPortsPerNode), so an 8-GPU node
/// puts two GPUs on each pair.
inline constexpr int kEthernetPortsPerNode = 4;

/// The one owner of resource identity: it registers every resource of a
/// topology, names it ("gpu3.compute", "gpu3.InfiniBand.tx",
/// "node1.Ethernet0.rx") and answers what each one is by id, from the
/// fixed order it registers them in. Reports never parse those names back.
class PortMap {
 public:
  /// A map that registered nothing: every resource is "unknown" to it.
  PortMap() = default;

  /// Registers resources for every device of `topo` in `graph`: first each
  /// node's kEthernetPortsPerNode Ethernet pairs (TX then RX), then per
  /// rank its compute engine and a TX/RX pair per fabric, in FabricKind
  /// order. PortMap only stores ids, so neither object needs to outlive it.
  PortMap(const Topology& topo, sim::TaskGraph& graph);

  /// The device's compute engine (forward/backward kernels run here).
  sim::ResourceId compute(int rank) const;

  /// The device's transmit port on `fabric`. For Ethernet this is the
  /// node-shared port.
  sim::ResourceId tx(int rank, FabricKind fabric) const;

  /// The device's receive port on `fabric`. For Ethernet this is the
  /// node-shared port.
  sim::ResourceId rx(int rank, FabricKind fabric) const;

  /// The class reports print for `resource`: "compute" for a compute
  /// engine, the port's fabric (net::to_string) for a port, and "unknown"
  /// for a resource this map did not register.
  std::string resource_class(sim::ResourceId resource) const;

  /// Who owns a registered resource. Both fields are -1 for a resource
  /// this map did not register.
  struct Owner {
    int rank = -1;  ///< the owning rank; -1 for a node-shared Ethernet port
    int node = -1;  ///< the owning global node
  };
  Owner owner(sim::ResourceId resource) const;

  /// Global node `node`'s shared Ethernet ports: the TX and RX port of
  /// each of its kEthernetPortsPerNode pairs.
  std::array<sim::ResourceId, 2 * kEthernetPortsPerNode> node_ethernet_ports(
      int node) const;

 private:
  static constexpr int kFabricCount = 5;
  static constexpr int kPerNode = 2 * kEthernetPortsPerNode;
  /// A rank's compute engine, then its TX/RX pair per fabric.
  static constexpr int kPerRank = 1 + 2 * kFabricCount;

  /// Rank 0's compute engine, and one past the last resource registered.
  sim::ResourceId rank_base() const { return first_ + nodes_ * kPerNode; }
  sim::ResourceId end() const {
    return rank_base() + static_cast<int>(eth_pair_.size()) * kPerRank;
  }

  sim::ResourceId first_ = 0;  ///< id of the first resource registered
  int nodes_ = 0;
  /// rank -> its shared Ethernet pair, counted over all nodes:
  /// node * kEthernetPortsPerNode + gpu_in_node % kEthernetPortsPerNode.
  std::vector<int> eth_pair_;
};

/// Emits a transfer task moving `bytes` from `src` to `dst` over the fabric
/// the topology resolves for that pair, and returns its id. A zero-byte
/// transfer still models one message latency (control traffic). `channel`
/// optionally attributes the traffic to a communicator for accounting.
sim::TaskId emit_transfer(sim::TaskGraph& graph, const PortMap& ports,
                          const Topology& topo, int src, int dst, Bytes bytes,
                          std::string_view label = {},
                          sim::TaskTag tag = sim::kUntagged,
                          sim::ChannelId channel = sim::kInvalidChannel);

/// Same, but forces the traffic onto `fabric` (used by communicators whose
/// transport was already selected for the whole group). The fabric must be
/// reachable between the pair — callers are expected to have consulted
/// fastest_common_fabric; this function checks only that endpoints exist.
sim::TaskId emit_transfer_on(sim::TaskGraph& graph, const PortMap& ports,
                             const Topology& topo, FabricKind fabric, int src,
                             int dst, Bytes bytes, std::string_view label = {},
                             sim::TaskTag tag = sim::kUntagged,
                             sim::ChannelId channel = sim::kInvalidChannel);

}  // namespace holmes::net
