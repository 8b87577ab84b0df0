#include "net/ports.h"

#include "util/error.h"

namespace holmes::net {

namespace {
std::size_t fabric_index(FabricKind fabric) {
  const auto i = static_cast<std::size_t>(fabric);
  HOLMES_CHECK(i < 5);
  return i;
}
}  // namespace

PortMap::PortMap(const Topology& topo, sim::TaskGraph& graph,
                 int ethernet_ports_per_node)
    : world_size_(topo.world_size()),
      eth_ports_per_node_(ethernet_ports_per_node) {
  HOLMES_CHECK_MSG(ethernet_ports_per_node >= 1,
                   "need at least one Ethernet port per node");
  compute_.reserve(static_cast<std::size_t>(world_size_));
  tx_.reserve(static_cast<std::size_t>(world_size_) * kFabricCount);
  rx_.reserve(static_cast<std::size_t>(world_size_) * kFabricCount);
  node_of_.reserve(static_cast<std::size_t>(world_size_));
  gpu_in_node_.reserve(static_cast<std::size_t>(world_size_));
  // Node-shared Ethernet port pairs.
  for (int node = 0; node < topo.total_nodes(); ++node) {
    for (int port = 0; port < eth_ports_per_node_; ++port) {
      const std::string base = "node" + std::to_string(node) + ".Ethernet" +
                               std::to_string(port);
      node_eth_tx_.push_back(graph.add_resource(base + ".tx"));
      node_eth_rx_.push_back(graph.add_resource(base + ".rx"));
    }
  }
  for (int rank = 0; rank < world_size_; ++rank) {
    const std::string base = "gpu" + std::to_string(rank);
    compute_.push_back(graph.add_resource(base + ".compute"));
    node_of_.push_back(topo.node_of(rank));
    gpu_in_node_.push_back(topo.device(rank).gpu_in_node);
    for (int f = 0; f < kFabricCount; ++f) {
      const std::string fname = to_string(static_cast<FabricKind>(f));
      tx_.push_back(graph.add_resource(base + "." + fname + ".tx"));
      rx_.push_back(graph.add_resource(base + "." + fname + ".rx"));
    }
  }
}

sim::ResourceId PortMap::compute(int rank) const {
  HOLMES_CHECK(rank >= 0 && rank < world_size_);
  return compute_[static_cast<std::size_t>(rank)];
}

sim::ResourceId PortMap::tx(int rank, FabricKind fabric) const {
  HOLMES_CHECK(rank >= 0 && rank < world_size_);
  if (fabric == FabricKind::kEthernet) {
    const auto node = node_of_[static_cast<std::size_t>(rank)];
    const auto port = gpu_in_node_[static_cast<std::size_t>(rank)] %
                      eth_ports_per_node_;
    return node_eth_tx_[static_cast<std::size_t>(node * eth_ports_per_node_ +
                                                 port)];
  }
  return tx_[static_cast<std::size_t>(rank) * kFabricCount +
             fabric_index(fabric)];
}

sim::ResourceId PortMap::rx(int rank, FabricKind fabric) const {
  HOLMES_CHECK(rank >= 0 && rank < world_size_);
  if (fabric == FabricKind::kEthernet) {
    const auto node = node_of_[static_cast<std::size_t>(rank)];
    const auto port = gpu_in_node_[static_cast<std::size_t>(rank)] %
                      eth_ports_per_node_;
    return node_eth_rx_[static_cast<std::size_t>(node * eth_ports_per_node_ +
                                                 port)];
  }
  return rx_[static_cast<std::size_t>(rank) * kFabricCount +
             fabric_index(fabric)];
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
