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

#include <string_view>
#include <vector>

#include "net/topology.h"
#include "sim/task_graph.h"

namespace holmes::net {

class PortMap {
 public:
  /// Registers resources for every device of `topo` in `graph`. The graph
  /// must outlive neither object; PortMap only stores ids.
  /// `ethernet_ports_per_node` controls how many Ethernet NIC port pairs a
  /// node exposes; GPUs share them round-robin (gpu % ports). 1 models a
  /// single management NIC; gpus_per_node models a fully provisioned pod.
  PortMap(const Topology& topo, sim::TaskGraph& graph,
          int ethernet_ports_per_node = 4);

  /// The device's compute engine (forward/backward kernels run here).
  sim::ResourceId compute(int rank) const;

  /// The device's transmit port on `fabric`. For Ethernet this is the
  /// node-shared port.
  sim::ResourceId tx(int rank, FabricKind fabric) const;

  /// The device's receive port on `fabric`. For Ethernet this is the
  /// node-shared port.
  sim::ResourceId rx(int rank, FabricKind fabric) const;

 private:
  static constexpr int kFabricCount = 5;
  int world_size_;
  std::vector<sim::ResourceId> compute_;
  std::vector<sim::ResourceId> tx_;  ///< rank * kFabricCount + fabric
  std::vector<sim::ResourceId> rx_;
  int eth_ports_per_node_;
  std::vector<sim::ResourceId> node_eth_tx_;  ///< node * ports + port
  std::vector<sim::ResourceId> node_eth_rx_;
  std::vector<int> node_of_;                  ///< rank -> global node
  std::vector<int> gpu_in_node_;              ///< rank -> index within node
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
