#include "net/topology.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace holmes::net {
namespace {

TEST(Topology, HomogeneousRankNumbering) {
  // 4 nodes x 8 GPUs: rank = 8*node + gpu (paper §2.4, 0-based).
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  EXPECT_EQ(topo.world_size(), 32);
  EXPECT_EQ(topo.cluster_count(), 1);
  EXPECT_EQ(topo.total_nodes(), 4);
  const DeviceInfo& d = topo.device(19);
  EXPECT_EQ(d.rank, 19);
  EXPECT_EQ(d.global_node, 2);
  EXPECT_EQ(d.gpu_in_node, 3);
  EXPECT_EQ(d.nic, NicType::kInfiniBand);
}

TEST(Topology, MultiClusterRankNumberingIsContiguous) {
  // Paper Fig. 2: 2 clusters x 2 nodes x 4 GPUs.
  Topology topo({
      ClusterSpec{"c1", 2, 4, NicType::kInfiniBand},
      ClusterSpec{"c2", 2, 4, NicType::kRoCE},
  });
  EXPECT_EQ(topo.world_size(), 16);
  // Rank 8 is the first device of cluster 2 (node 3 globally, node 0 local).
  const DeviceInfo& d = topo.device(8);
  EXPECT_EQ(d.cluster, 1);
  EXPECT_EQ(d.node_in_cluster, 0);
  EXPECT_EQ(d.global_node, 2);
  EXPECT_EQ(d.gpu_in_node, 0);
  EXPECT_EQ(d.nic, NicType::kRoCE);
}

TEST(Topology, RanksInCluster) {
  Topology topo = Topology::hybrid_two_clusters(2, 4);
  const auto c0 = topo.ranks_in_scope(0, -1);
  const auto c1 = topo.ranks_in_scope(1, -1);
  ASSERT_EQ(c0.size(), 8u);
  ASSERT_EQ(c1.size(), 8u);
  EXPECT_EQ(c0.front(), 0);
  EXPECT_EQ(c0.back(), 7);
  EXPECT_EQ(c1.front(), 8);
  EXPECT_EQ(c1.back(), 15);
}

TEST(Topology, DegenerateSpecsRejected) {
  EXPECT_THROW(Topology({}), ConfigError);
  EXPECT_THROW(Topology({ClusterSpec{"c", 0, 8, NicType::kRoCE}}), ConfigError);
  EXPECT_THROW(Topology({ClusterSpec{"c", 2, 0, NicType::kRoCE}}), ConfigError);
}

/// Message of the ConfigError building `clusters` throws ("" if none).
std::string config_error(std::vector<ClusterSpec> clusters) {
  try {
    Topology topo(std::move(clusters));
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(Topology, WorldSizePastIntIsRejectedBeforeAllocating) {
  // 2^31 GPUs is one past int's range: a config error naming the cluster
  // spec and the limit, not a wrapped rank or a multi-gigabyte allocation.
  const std::string message =
      config_error({ClusterSpec{"big", 2, 1073741824, NicType::kInfiniBand}});
  EXPECT_NE(message.find("'big' (2x1073741824:ib)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("2147483648 GPUs"), std::string::npos) << message;
  EXPECT_NE(message.find("device budget of 2097152 GPUs"), std::string::npos)
      << message;
  // 65536 x 65536 overflows a 32-bit product on its own.
  EXPECT_NE(config_error({ClusterSpec{"square", 65536, 65536,
                                      NicType::kRoCE}})
                .find("(65536x65536:roce)"),
            std::string::npos);
  EXPECT_THROW(Topology::homogeneous(300000000, NicType::kInfiniBand),
               ConfigError);
}

TEST(Topology, WorldSizeLimitCountsEveryCluster) {
  // Each cluster fits on its own; the second one takes the sum past the
  // device budget.
  const std::string message = config_error(
      {ClusterSpec{"first", 262144, 8, NicType::kInfiniBand},
       ClusterSpec{"second", 1, 1, NicType::kRoCE}});
  EXPECT_NE(message.find("'second' (1x1:roce)"), std::string::npos) << message;
  EXPECT_NE(message.find("2097153 GPUs"), std::string::npos) << message;
}

TEST(Topology, DeviceBudgetBoundsAWorldThatFitsInt) {
  // 1.6 billion GPUs fit in int but could never be simulated: rejected
  // before a device is allocated, naming the cluster spec and the budget.
  const std::string message = config_error(
      {ClusterSpec{"ib-cluster", 200000000, 8, NicType::kInfiniBand}});
  EXPECT_NE(message.find("'ib-cluster' (200000000x8:ib)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("device budget of 2097152 GPUs"), std::string::npos)
      << message;
  // A world of exactly the budget is still accepted.
  const Topology edge = Topology::homogeneous(262144, NicType::kInfiniBand);
  EXPECT_EQ(edge.world_size(), kDeviceBudget);
}

TEST(Topology, SameNodeUsesNVLink) {
  Topology topo = Topology::homogeneous(2, NicType::kRoCE);
  EXPECT_EQ(topo.fabric_between(0, 7), FabricKind::kNVLink);
}

TEST(Topology, SameNodeWithoutNVLinkUsesPCIe) {
  Topology topo({ClusterSpec{"c", 1, 8, NicType::kInfiniBand, 0, false}});
  EXPECT_EQ(topo.fabric_between(0, 1), FabricKind::kPCIe);
}

TEST(Topology, SameClusterCrossNodeUsesRdma) {
  Topology ib = Topology::homogeneous(2, NicType::kInfiniBand);
  EXPECT_EQ(ib.fabric_between(0, 8), FabricKind::kInfiniBand);
  Topology roce = Topology::homogeneous(2, NicType::kRoCE);
  EXPECT_EQ(roce.fabric_between(0, 8), FabricKind::kRoCE);
}

TEST(Topology, EthernetClusterHasNoRdma) {
  Topology topo = Topology::homogeneous(2, NicType::kEthernet);
  EXPECT_EQ(topo.fabric_between(0, 8), FabricKind::kEthernet);
}

TEST(Topology, CrossClusterAlwaysEthernet) {
  // Even when both clusters run the same RDMA NIC type, there is no shared
  // high-speed switch between clusters (paper §2.2 case 2).
  Topology same = Topology::split_clusters(2, NicType::kInfiniBand, 4);
  EXPECT_EQ(same.fabric_between(0, 8), FabricKind::kEthernet);
  Topology hybrid = Topology::hybrid_two_clusters(2, 4);
  EXPECT_EQ(hybrid.fabric_between(0, 8), FabricKind::kEthernet);
}

TEST(Topology, SelfFabricRejected) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand);
  EXPECT_THROW(topo.fabric_between(3, 3), InternalError);
}

TEST(Topology, PathBandwidthOrdering) {
  Topology hybrid = Topology::hybrid_two_clusters(2, 4);
  const PathInfo nvlink = hybrid.path(0, 1);
  const PathInfo ib = hybrid.path(0, 4);
  const PathInfo eth = hybrid.path(0, 8);
  EXPECT_GT(nvlink.bandwidth, ib.bandwidth);
  EXPECT_GT(ib.bandwidth, eth.bandwidth);
  EXPECT_LT(ib.latency, eth.latency);
}

TEST(Topology, NicGbpsOverrideCapsRdmaBandwidth) {
  Topology topo({ClusterSpec{"slow-ib", 2, 8, NicType::kInfiniBand, 100.0}});
  const PathInfo p = topo.path(0, 8);
  EXPECT_EQ(p.fabric, FabricKind::kInfiniBand);
  const double expected =
      units::gbps_to_bytes_per_sec(100.0) *
      topo.catalog().spec(FabricKind::kInfiniBand).efficiency;
  EXPECT_DOUBLE_EQ(p.bandwidth, expected);
}

TEST(Topology, FastestCommonFabricSameNode) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  EXPECT_EQ(topo.fastest_common_fabric({0, 1, 2, 3}), FabricKind::kNVLink);
}

TEST(Topology, FastestCommonFabricSameCluster) {
  Topology topo = Topology::homogeneous(2, NicType::kRoCE);
  EXPECT_EQ(topo.fastest_common_fabric({0, 8}), FabricKind::kRoCE);
}

TEST(Topology, FastestCommonFabricMixedClustersFallsToEthernet) {
  Topology topo = Topology::hybrid_two_clusters(2, 4);
  // A group straddling IB and RoCE clusters can only use Ethernet — this is
  // exactly the degradation Automatic NIC Selection avoids.
  EXPECT_EQ(topo.fastest_common_fabric({0, 8}), FabricKind::kEthernet);
  EXPECT_EQ(topo.fastest_common_fabric({0, 4, 8, 12}), FabricKind::kEthernet);
}

TEST(Topology, FastestCommonFabricNeedsTwoRanks) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand);
  EXPECT_THROW(topo.fastest_common_fabric({0}), InternalError);
}

TEST(Topology, GpusPerNodeConsistencyCheck) {
  Topology ok = Topology::hybrid_two_clusters(2, 4);
  EXPECT_EQ(ok.gpus_per_node(), 4);
  Topology bad({
      ClusterSpec{"a", 1, 4, NicType::kInfiniBand},
      ClusterSpec{"b", 1, 8, NicType::kRoCE},
  });
  EXPECT_THROW(bad.gpus_per_node(), InternalError);
}

}  // namespace
}  // namespace holmes::net
