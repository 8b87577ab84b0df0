#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/executor.h"
#include "util/error.h"

namespace holmes::comm {
namespace {

using net::FabricKind;
using net::NicType;
using net::PortMap;
using net::Topology;

SimTime finish_of(const sim::SimResult& result, const TaskHandles& done) {
  SimTime latest = 0;
  for (sim::TaskId t : done) {
    if (t != sim::kInvalidTask) latest = std::max(latest, result.timing(t).finish);
  }
  return latest;
}

/// The fabrics the graph's transfers ride, by their TX ports' classes.
std::set<std::string> transfer_fabrics(const sim::TaskGraph& graph,
                                       const PortMap& ports) {
  std::set<std::string> fabrics;
  for (const sim::Task& task : graph.tasks()) {
    if (task.kind == sim::TaskKind::kTransfer) {
      fabrics.insert(ports.resource_class(task.resource));
    }
  }
  return fabrics;
}

TEST(Communicator, ConstructionValidatesRanks) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand, 4);
  EXPECT_THROW(Communicator(topo, {}), ConfigError);
  EXPECT_THROW(Communicator(topo, {0, 0}), ConfigError);
  EXPECT_THROW(Communicator(topo, {0, 99}), ConfigError);
  EXPECT_NO_THROW(Communicator(topo, {0, 1, 2, 3}));
}

TEST(Communicator, TransportSelection) {
  // Each hop rides the fabric its device pair resolves: NVLink inside a
  // node, the cluster's RDMA NIC between its nodes, Ethernet between
  // clusters.
  Topology hybrid = Topology::hybrid_two_clusters(2, 4);  // 0-7 IB, 8-15 RoCE
  auto fabrics = [&](std::vector<int> ranks) {
    sim::TaskGraph graph;
    const PortMap ports(hybrid, graph);
    Communicator(hybrid, std::move(ranks))
        .lower_all_reduce(graph, ports, 1000, {});
    return transfer_fabrics(graph, ports);
  };
  using Fabrics = std::set<std::string>;
  EXPECT_EQ(fabrics({0, 1}), Fabrics{net::to_string(FabricKind::kNVLink)});
  EXPECT_EQ(fabrics({0, 4}), Fabrics{net::to_string(FabricKind::kInfiniBand)});
  EXPECT_EQ(fabrics({8, 12}), Fabrics{net::to_string(FabricKind::kRoCE)});
  EXPECT_EQ(fabrics({0, 8}), Fabrics{net::to_string(FabricKind::kEthernet)});
}

TEST(CommunicatorLowering, AllReduceTimeMatchesRingCostModel) {
  // 4 single-GPU nodes on IB; ring all-reduce of V bytes should take about
  // 2*(n-1)/n * V / bw (plus small latency terms).
  const int n = 4;
  Topology topo = Topology::homogeneous(n, NicType::kInfiniBand, 1);
  Communicator comm(topo, {0, 1, 2, 3});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const Bytes bytes = 1'000'000'000;  // 1 GB
  const auto done = comm.lower_all_reduce(graph, ports, bytes, {});
  const auto result = sim::TaskGraphExecutor{}.run(graph);
  const double bw = topo.path(0, 1).bandwidth;
  const double ideal = 2.0 * (n - 1) / n * static_cast<double>(bytes) / bw;
  const SimTime simulated = finish_of(result, done);
  EXPECT_GT(simulated, ideal);              // latency makes it strictly slower
  EXPECT_LT(simulated, ideal * 1.05);       // but within 5% for a 1GB buffer
}

TEST(CommunicatorLowering, ReduceScatterIsHalfOfAllReduce) {
  const int n = 8;
  Topology topo = Topology::homogeneous(n, NicType::kRoCE, 1);
  std::vector<int> ranks;
  for (int i = 0; i < n; ++i) ranks.push_back(i);
  const Bytes bytes = 500'000'000;

  sim::TaskGraph g1;
  PortMap p1(topo, g1);
  Communicator comm(topo, ranks);
  const auto rs_done = comm.lower_reduce_scatter(g1, p1, bytes, {});
  const SimTime rs = finish_of(sim::TaskGraphExecutor{}.run(g1), rs_done);

  sim::TaskGraph g2;
  PortMap p2(topo, g2);
  const auto ar_done = comm.lower_all_reduce(g2, p2, bytes, {});
  const SimTime ar = finish_of(sim::TaskGraphExecutor{}.run(g2), ar_done);

  EXPECT_NEAR(ar / rs, 2.0, 0.05);
}

TEST(CommunicatorLowering, MixedNicGroupIsGatedByEthernet) {
  // Same group size and payload; one group inside the IB cluster, one
  // straddling IB and RoCE clusters. The straddling group's ring contains
  // Ethernet hops and must be dramatically slower.
  Topology topo = Topology::hybrid_two_clusters(2, 4);  // 0-7 IB, 8-15 RoCE
  const Bytes bytes = 100'000'000;

  sim::TaskGraph g1;
  PortMap p1(topo, g1);
  Communicator within(topo, {0, 4});  // two IB nodes
  const auto d1 = within.lower_all_reduce(g1, p1, bytes, {});
  const SimTime fast = finish_of(sim::TaskGraphExecutor{}.run(g1), d1);

  sim::TaskGraph g2;
  PortMap p2(topo, g2);
  Communicator across(topo, {0, 8});  // IB device + RoCE device
  const auto d2 = across.lower_all_reduce(g2, p2, bytes, {});
  const SimTime slow = finish_of(sim::TaskGraphExecutor{}.run(g2), d2);

  EXPECT_GT(slow / fast, 5.0);
}

TEST(CommunicatorLowering, ReadyHandlesDelayStart) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 1);
  Communicator comm(topo, {0, 1});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  // A 1-second compute on rank 0 gates its participation.
  const auto pre = graph.add_compute(ports.compute(0), 1.0);
  const auto done =
      comm.lower_all_reduce(graph, ports, 1000, {pre, sim::kInvalidTask});
  const auto result = sim::TaskGraphExecutor{}.run(graph);
  EXPECT_GE(finish_of(result, done), 1.0);
}

TEST(CommunicatorLowering, SingleMemberGroupIsFree) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand, 2);
  Communicator comm(topo, {0});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const auto done = comm.lower_all_reduce(graph, ports, 1'000'000, {});
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front(), sim::kInvalidTask);  // nothing to wait for
  EXPECT_DOUBLE_EQ(sim::TaskGraphExecutor{}.run(graph).makespan(), 0.0);
}

TEST(CommunicatorLowering, BroadcastScalesWithPayloadNotGroupSize) {
  // Pipelined broadcast: doubling the group adds rounds but the dominant
  // term stays V/bw, so time grows mildly, not proportionally.
  const Bytes bytes = 1'000'000'000;
  auto run = [&](int n) {
    Topology topo = Topology::homogeneous(n, NicType::kInfiniBand, 1);
    std::vector<int> ranks;
    for (int i = 0; i < n; ++i) ranks.push_back(i);
    Communicator comm(topo, ranks);
    sim::TaskGraph graph;
    PortMap ports(topo, graph);
    const auto done = comm.lower_broadcast(graph, ports, bytes, 0, {});
    return finish_of(sim::TaskGraphExecutor{}.run(graph), done);
  };
  const SimTime t4 = run(4);
  const SimTime t8 = run(8);
  EXPECT_LT(t8 / t4, 1.5);
}

TEST(CommunicatorLowering, ForcedInternodeFabricSlowsRdmaGroup) {
  // The NCCL global-fallback model: forcing inter-node hops onto Ethernet
  // must slow an IB group's all-reduce dramatically, while leaving
  // intra-node (NVLink) hops untouched.
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 2);
  std::vector<int> ranks = {0, 1, 2, 3};
  const Bytes bytes = 200'000'000;

  Communicator rdma(topo, ranks);
  sim::TaskGraph g1;
  PortMap p1(topo, g1);
  const SimTime fast = finish_of(sim::TaskGraphExecutor{}.run(g1),
                                 rdma.lower_all_reduce(g1, p1, bytes, {}));

  Communicator fallback(topo, ranks);
  fallback.force_internode_fabric(FabricKind::kEthernet);
  sim::TaskGraph g2;
  PortMap p2(topo, g2);
  const SimTime slow = finish_of(sim::TaskGraphExecutor{}.run(g2),
                                 fallback.lower_all_reduce(g2, p2, bytes, {}));
  EXPECT_GT(slow, fast * 3);
  // Only the inter-node hops moved onto Ethernet.
  EXPECT_EQ(transfer_fabrics(g1, p1),
            (std::set<std::string>{net::to_string(FabricKind::kNVLink),
                                   net::to_string(FabricKind::kInfiniBand)}));
  EXPECT_EQ(transfer_fabrics(g2, p2),
            (std::set<std::string>{net::to_string(FabricKind::kNVLink),
                                   net::to_string(FabricKind::kEthernet)}));
}

TEST(CommunicatorLowering, AllToAllUsesAllPortPairs) {
  // 4 single-GPU IB nodes: all-to-all's rounds pair distinct port sets, so
  // total time stays near (n-1) * block / bw instead of serializing.
  const int n = 4;
  Topology topo = Topology::homogeneous(n, NicType::kInfiniBand, 1);
  Communicator comm(topo, {0, 1, 2, 3});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  const Bytes block = 250'000'000;
  const auto done = comm.lower_all_to_all(graph, ports, block, {});
  const SimTime t = finish_of(sim::TaskGraphExecutor{}.run(graph), done);
  const double bw = topo.path(0, 1).bandwidth;
  const double ideal = (n - 1) * static_cast<double>(block) / bw;
  EXPECT_GT(t, ideal * 0.99);
  EXPECT_LT(t, ideal * 1.3);
}

TEST(CommunicatorLowering, BroadcastFromEveryRootCompletes) {
  Topology topo = Topology::hybrid_two_clusters(1, 2);  // 4 GPUs, 2 clusters
  Communicator comm(topo, {0, 1, 2, 3});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  comm::TaskHandles prev;
  for (int root = 0; root < 4; ++root) {
    prev = comm.lower_broadcast(graph, ports, 1'000'000, root, prev);
  }
  const auto result = sim::TaskGraphExecutor{}.run(graph);
  EXPECT_GT(finish_of(result, prev), 0.0);
}

TEST(CommunicatorLowering, TagPropagatesToTasks) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand, 1);
  Communicator comm(topo, {0, 1});
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  constexpr sim::TaskTag kTag = 77;
  comm.lower_all_reduce(graph, ports, 1'000'000, {}, kTag);
  const auto result = sim::TaskGraphExecutor{}.run(graph);
  EXPECT_GT(result.tag_span(graph, kTag), 0.0);
}

TEST(CommunicatorLowering, TransfersCarryTheCommunicatorChannel) {
  // Every transfer a collective emits is attributed to a channel named
  // after the communicator, so the observability layer can report
  // per-communicator bytes without parsing labels.
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand, 1);
  Communicator comm(topo, {0, 1, 2, 3}, "dp0");
  sim::TaskGraph graph;
  PortMap ports(topo, graph);
  comm.lower_all_reduce(graph, ports, 1'000'000, {});
  ASSERT_EQ(graph.channel_count(), 1u);
  const sim::ChannelId dp0 = graph.channel("dp0");
  std::size_t transfers = 0;
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    if (graph.tasks()[i].kind != sim::TaskKind::kTransfer) continue;
    EXPECT_EQ(graph.infos()[i].channel, dp0);
    ++transfers;
  }
  // Ring all-reduce over 4 members: 2*(n-1) rounds of n transfers.
  EXPECT_EQ(transfers, 24u);
}

}  // namespace
}  // namespace holmes::comm
