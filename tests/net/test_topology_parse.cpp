#include "net/topology_parse.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace holmes::net {
namespace {

TEST(TopologyParse, SingleCluster) {
  const Topology topo = parse_topology("4x8:ib");
  EXPECT_EQ(topo.cluster_count(), 1);
  EXPECT_EQ(topo.total_nodes(), 4);
  EXPECT_EQ(topo.gpus_per_node(), 8);
  EXPECT_EQ(topo.cluster(0).nic, NicType::kInfiniBand);
  EXPECT_EQ(topo.world_size(), 32);
}

TEST(TopologyParse, HybridSpec) {
  const Topology topo = parse_topology("2x8:ib+2x8:roce");
  EXPECT_EQ(topo.cluster_count(), 2);
  EXPECT_EQ(topo.cluster(0).nic, NicType::kInfiniBand);
  EXPECT_EQ(topo.cluster(1).nic, NicType::kRoCE);
  // Equivalent to the built-in factory.
  const Topology factory = Topology::hybrid_two_clusters(2);
  EXPECT_EQ(topo.world_size(), factory.world_size());
  EXPECT_EQ(topo.fabric_between(0, 16), factory.fabric_between(0, 16));
}

TEST(TopologyParse, WhitespaceAndAliases) {
  const Topology topo = parse_topology(" 1x4 : InfiniBand + 2x4 : ETHERNET ");
  EXPECT_EQ(topo.cluster_count(), 2);
  EXPECT_EQ(topo.cluster(0).nic, NicType::kInfiniBand);
  EXPECT_EQ(topo.cluster(1).nic, NicType::kEthernet);
  EXPECT_EQ(topo.gpus_per_node(), 4);
}

TEST(TopologyParse, BandwidthOverride) {
  const Topology topo = parse_topology("2x8:ib@100");
  EXPECT_DOUBLE_EQ(topo.cluster(0).nic_gbps, 100.0);
  // The override caps the RDMA path.
  const Topology full = parse_topology("2x8:ib");
  EXPECT_LT(topo.path(0, 8).bandwidth, full.path(0, 8).bandwidth);
}

TEST(TopologyParse, ThreeClusterTableFourSpec) {
  const Topology topo = parse_topology("2x8:roce + 2x8:roce + 2x8:ib");
  EXPECT_EQ(topo.cluster_count(), 3);
  EXPECT_EQ(topo.world_size(), 48);
  EXPECT_EQ(topo.cluster(2).nic, NicType::kInfiniBand);
}

TEST(TopologyParse, MalformedSpecsRejected) {
  EXPECT_THROW(parse_topology(""), ConfigError);
  EXPECT_THROW(parse_topology("8:ib"), ConfigError);        // missing x
  EXPECT_THROW(parse_topology("2x8"), ConfigError);         // missing nic
  EXPECT_THROW(parse_topology("2x8:omnipath"), ConfigError);
  EXPECT_THROW(parse_topology("0x8:ib"), ConfigError);      // zero nodes
  EXPECT_THROW(parse_topology("2x-8:ib"), ConfigError);
  EXPECT_THROW(parse_topology("2x8:ib@"), ConfigError);
  EXPECT_THROW(parse_topology("2x8:ib++2x8:roce"), ConfigError);
  EXPECT_THROW(parse_topology("2x8:ib+"), ConfigError);     // trailing '+'
  EXPECT_THROW(parse_topology("2x8:ib + "), ConfigError);
  EXPECT_THROW(parse_topology("+2x8:ib"), ConfigError);
  EXPECT_THROW(parse_topology("ax8:ib"), ConfigError);
  EXPECT_THROW(parse_topology("2x8:ib@fast"), ConfigError);
}

TEST(TopologyParse, WorldSizePastIntIsAConfigErrorNamingTheSpec) {
  try {
    parse_topology("1x8:ib+2x1073741824:roce");
    FAIL() << "2^31 + 8 GPUs must not parse";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("(2x1073741824:roce)"), std::string::npos)
        << message;
    EXPECT_NE(message.find("device budget of 2097152"), std::string::npos)
        << message;
  }
}

TEST(TopologyParse, FormatRoundTrips) {
  for (const char* spec :
       {"4x8:ib", "2x8:ib+2x8:roce", "2x4:eth", "1x8:ib@100+3x8:roce"}) {
    const Topology topo = parse_topology(spec);
    EXPECT_EQ(format_topology(topo), spec);
    // And re-parsing the formatted form yields the same structure.
    const Topology again = parse_topology(format_topology(topo));
    EXPECT_EQ(again.world_size(), topo.world_size());
    EXPECT_EQ(again.cluster_count(), topo.cluster_count());
  }
}

}  // namespace
}  // namespace holmes::net
