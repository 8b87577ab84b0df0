#include "net/ports.h"

#include <gtest/gtest.h>

#include "sim/executor.h"
#include "util/error.h"

namespace holmes::net {
namespace {

TEST(PortMap, ResourcesAreDistinct) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 2);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  EXPECT_NE(ports.compute(0), ports.compute(1));
  EXPECT_NE(ports.tx(0, FabricKind::kEthernet), ports.rx(0, FabricKind::kEthernet));
  EXPECT_NE(ports.tx(0, FabricKind::kEthernet), ports.tx(0, FabricKind::kInfiniBand));
  EXPECT_NE(ports.tx(0, FabricKind::kInfiniBand), ports.tx(1, FabricKind::kInfiniBand));
  // RDMA ports are per GPU even within one node.
  EXPECT_NE(ports.tx(2, FabricKind::kInfiniBand), ports.tx(3, FabricKind::kInfiniBand));
}

TEST(PortMap, EthernetPortsAreSharedPerNode) {
  // Commodity Ethernet NICs belong to the node: its 8 GPUs share the 4
  // port pairs round-robin. RDMA NICs are per GPU.
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 8);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  // GPU g and GPU g + 4 share port g; the four ports differ.
  for (int gpu = 0; gpu < kEthernetPortsPerNode; ++gpu) {
    EXPECT_EQ(ports.tx(gpu, FabricKind::kEthernet),
              ports.tx(gpu + 4, FabricKind::kEthernet));
    EXPECT_EQ(ports.rx(gpu, FabricKind::kEthernet),
              ports.rx(gpu + 4, FabricKind::kEthernet));
    for (int other = gpu + 1; other < kEthernetPortsPerNode; ++other) {
      EXPECT_NE(ports.tx(gpu, FabricKind::kEthernet),
                ports.tx(other, FabricKind::kEthernet));
    }
  }
  // Different nodes never share ports.
  EXPECT_NE(ports.tx(0, FabricKind::kEthernet),
            ports.tx(8, FabricKind::kEthernet));
}

TEST(PortMap, OutOfRangeRankRejected) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand, 2);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  EXPECT_THROW(ports.compute(2), InternalError);
  EXPECT_THROW(ports.tx(-1, FabricKind::kNVLink), InternalError);
}

TEST(EmitTransfer, ResolvesFabricFromTopology) {
  Topology topo = Topology::hybrid_two_clusters(1, 4);  // ranks 0-3 IB, 4-7 RoCE
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const auto intra = emit_transfer(graph, ports, topo, 0, 1, 1000);
  const auto cross = emit_transfer(graph, ports, topo, 0, 4, 1000);
  // Intra-node transfer uses the fat NVLink pipe; the cross-cluster one the
  // thin Ethernet pipe.
  EXPECT_GT(graph.info(intra).bandwidth, graph.info(cross).bandwidth);
  EXPECT_LT(graph.task(intra).latency, graph.task(cross).latency);
}

TEST(EmitTransfer, TimingMatchesPathModel) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 1);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const Bytes bytes = 100'000'000;
  const auto t = emit_transfer(graph, ports, topo, 0, 1, bytes);
  const PathInfo path = topo.path(0, 1);
  sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
  const SimTime expected = path.latency + static_cast<double>(bytes) / path.bandwidth;
  EXPECT_NEAR(result.timing(t).finish, expected, 1e-12);
}

TEST(EmitTransfer, ForcedFabricOverridesResolution) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 1);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  // Force onto Ethernet even though IB is available (what a NIC-oblivious
  // framework ends up doing with mixed groups).
  const auto t = emit_transfer_on(graph, ports, topo, FabricKind::kEthernet,
                                  0, 1, 1000);
  const auto spec = topo.catalog().spec(FabricKind::kEthernet);
  EXPECT_DOUBLE_EQ(graph.info(t).bandwidth, spec.effective_bandwidth());
}

TEST(EmitTransfer, SelfTransferRejected) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand, 2);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  EXPECT_THROW(emit_transfer(graph, ports, topo, 1, 1, 10), InternalError);
}

TEST(EmitTransfer, ConcurrentDisjointPairsDoNotSerialize) {
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand, 1);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const Bytes bytes = 250'000'000;  // 10ms at IB speed
  const auto a = emit_transfer(graph, ports, topo, 0, 1, bytes);
  const auto b = emit_transfer(graph, ports, topo, 2, 3, bytes);
  sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
  // Disjoint port pairs -> identical start times.
  EXPECT_DOUBLE_EQ(result.timing(a).start, result.timing(b).start);
}

TEST(EmitTransfer, SharedSenderPortSerializes) {
  Topology topo = Topology::homogeneous(3, NicType::kInfiniBand, 1);
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const Bytes bytes = 250'000'000;
  const auto a = emit_transfer(graph, ports, topo, 0, 1, bytes);
  const auto b = emit_transfer(graph, ports, topo, 0, 2, bytes);
  sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
  // Same TX port on rank 0 -> second transfer starts after the first's
  // serialization completes.
  EXPECT_GT(result.timing(b).start, result.timing(a).start);
}

}  // namespace
}  // namespace holmes::net
