#include "net/ports.h"

#include <numeric>

#include "util/error.h"

namespace holmes::net {

PortMap::PortMap(const Topology& topo, sim::TaskGraph& graph)
    : first_(static_cast<sim::ResourceId>(graph.resource_count())),
      nodes_(topo.total_nodes()) {
  // Registered in the order the lookups below compute ids from.
  for (int node = 0; node < nodes_; ++node) {
    for (int port = 0; port < kEthernetPortsPerNode; ++port) {
      const std::string base = "node" + std::to_string(node) + ".Ethernet" +
                               std::to_string(port);
      graph.add_resource(base + ".tx");
      graph.add_resource(base + ".rx");
    }
  }
  eth_pair_.reserve(static_cast<std::size_t>(topo.world_size()));
  for (int rank = 0; rank < topo.world_size(); ++rank) {
    const DeviceInfo& device = topo.device(rank);
    eth_pair_.push_back(device.global_node * kEthernetPortsPerNode +
                        device.gpu_in_node % kEthernetPortsPerNode);
    const std::string base = "gpu" + std::to_string(rank);
    graph.add_resource(base + ".compute");
    for (int f = 0; f < kFabricCount; ++f) {
      const std::string fname = to_string(static_cast<FabricKind>(f));
      graph.add_resource(base + "." + fname + ".tx");
      graph.add_resource(base + "." + fname + ".rx");
    }
  }
  HOLMES_CHECK(static_cast<sim::ResourceId>(graph.resource_count()) == end());
}

sim::ResourceId PortMap::compute(int rank) const {
  HOLMES_CHECK(rank >= 0 && rank < static_cast<int>(eth_pair_.size()));
  return rank_base() + rank * kPerRank;
}

sim::ResourceId PortMap::tx(int rank, FabricKind fabric) const {
  const sim::ResourceId engine = compute(rank);
  if (fabric == FabricKind::kEthernet) {
    return first_ + eth_pair_[static_cast<std::size_t>(rank)] * 2;
  }
  return engine + 1 + 2 * static_cast<int>(fabric);
}

sim::ResourceId PortMap::rx(int rank, FabricKind fabric) const {
  return tx(rank, fabric) + 1;
}

std::string PortMap::resource_class(sim::ResourceId resource) const {
  if (resource < first_ || resource >= end()) return "unknown";
  if (resource < rank_base()) return to_string(FabricKind::kEthernet);
  // A rank's slot 0 is its compute engine, slot 1 + 2f its fabric f's TX.
  const int slot = (resource - rank_base()) % kPerRank;
  return slot == 0 ? "compute"
                   : to_string(static_cast<FabricKind>((slot - 1) / 2));
}

PortMap::Owner PortMap::owner(sim::ResourceId resource) const {
  if (resource < first_ || resource >= end()) return {};
  if (resource < rank_base()) return {-1, (resource - first_) / kPerNode};
  const int rank = (resource - rank_base()) / kPerRank;
  return {rank,
          eth_pair_[static_cast<std::size_t>(rank)] / kEthernetPortsPerNode};
}

std::array<sim::ResourceId, 2 * kEthernetPortsPerNode>
PortMap::node_ethernet_ports(int node) const {
  HOLMES_CHECK(node >= 0 && node < nodes_);
  std::array<sim::ResourceId, kPerNode> ports{};
  std::iota(ports.begin(), ports.end(), first_ + node * kPerNode);
  return ports;
}

sim::TaskId emit_transfer(sim::TaskGraph& graph, const PortMap& ports,
                          const Topology& topo, int src, int dst, Bytes bytes,
                          std::string_view label, sim::TaskTag tag,
                          sim::ChannelId channel) {
  return emit_transfer_on(graph, ports, topo, topo.fabric_between(src, dst),
                          src, dst, bytes, label, tag, channel);
}

sim::TaskId emit_transfer_on(sim::TaskGraph& graph, const PortMap& ports,
                             const Topology& topo, FabricKind fabric, int src,
                             int dst, Bytes bytes, std::string_view label,
                             sim::TaskTag tag, sim::ChannelId channel) {
  HOLMES_CHECK_MSG(src != dst, "transfer endpoints must differ");
  const PathInfo path = topo.path_on(src, dst, fabric);
  return graph.add_transfer(ports.tx(src, fabric), ports.rx(dst, fabric),
                            bytes, path.bandwidth, path.latency, label, tag,
                            channel);
}

}  // namespace holmes::net
