#include "comm/hierarchical.h"

#include <gtest/gtest.h>

#include <vector>

#include "comm/communicator.h"
#include "comm/inprocess.h"
#include "sim/executor.h"
#include "util/error.h"
#include "util/rng.h"

namespace holmes::comm {
namespace {

using net::NicType;
using net::PortMap;
using net::Topology;

std::vector<int> node_layout(int nodes, int locals) {
  std::vector<int> layout;
  for (int k = 0; k < nodes; ++k) {
    for (int i = 0; i < locals; ++i) layout.push_back(k);
  }
  return layout;
}

struct Shape {
  int nodes;
  int locals;
  std::int64_t elems;
};

class HierarchicalSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(HierarchicalSweep, ProgramValidates) {
  const auto [nodes, locals, elems] = GetParam();
  const auto steps =
      hierarchical_all_reduce_steps(node_layout(nodes, locals), elems);
  validate_steps(steps, nodes * locals, elems);
}

TEST_P(HierarchicalSweep, ComputesGlobalSum) {
  const auto [nodes, locals, elems] = GetParam();
  const int n = nodes * locals;
  Rng rng(91);
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(n));
  std::vector<float> expected(static_cast<std::size_t>(elems), 0.0f);
  for (auto& buf : bufs) {
    buf.resize(static_cast<std::size_t>(elems));
    for (std::int64_t k = 0; k < elems; ++k) {
      buf[static_cast<std::size_t>(k)] =
          static_cast<float>(rng.uniform_int(-6, 6));
      expected[static_cast<std::size_t>(k)] += buf[static_cast<std::size_t>(k)];
    }
  }
  BufferSet spans;
  for (auto& b : bufs) spans.emplace_back(b);
  apply_steps(hierarchical_all_reduce_steps(node_layout(nodes, locals), elems),
              spans, spans);
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalSweep,
    ::testing::Values(Shape{2, 2, 16}, Shape{2, 4, 64}, Shape{4, 2, 64},
                      Shape{4, 8, 256}, Shape{3, 3, 27}, Shape{2, 8, 7},
                      Shape{1, 4, 32}, Shape{4, 1, 32}),
    [](const ::testing::TestParamInfo<Shape>& param_info) {
      return "n" + std::to_string(param_info.param.nodes) + "x" +
             std::to_string(param_info.param.locals) + "_e" +
             std::to_string(param_info.param.elems);
    });

TEST(Hierarchical, DegeneratesToFlatRing) {
  EXPECT_EQ(hierarchical_all_reduce_steps(node_layout(1, 4), 64),
            ring_all_reduce_steps(4, 64));
  EXPECT_EQ(hierarchical_all_reduce_steps(node_layout(4, 1), 64),
            ring_all_reduce_steps(4, 64));
}

TEST(Hierarchical, RejectsIrregularLayouts) {
  EXPECT_THROW(hierarchical_all_reduce_steps({}, 8), ConfigError);
  EXPECT_THROW(hierarchical_all_reduce_steps({0, 0, 1}, 8), ConfigError);
  EXPECT_THROW(hierarchical_all_reduce_steps({0, 1, 0, 1}, 8), ConfigError);
  EXPECT_THROW(hierarchical_all_reduce_steps({0, 0}, -1), ConfigError);
}

TEST(Hierarchical, TimedLoweringBeatsFlatRingAcrossNodes) {
  // 4 nodes x 4 GPUs on InfiniBand: the hierarchical algorithm pushes the
  // inter-node volume through 4 NICs per node instead of 1, so the large
  // all-reduce must finish substantially faster.
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand, 4);
  std::vector<int> ranks;
  for (int r = 0; r < 16; ++r) ranks.push_back(r);
  const Communicator comm(topo, ranks);
  const Bytes bytes = 4'000'000'000;

  auto finish = [&](bool hierarchical) {
    sim::TaskGraph graph;
    const PortMap ports(topo, graph);
    const TaskHandles done =
        hierarchical
            ? comm.lower_hierarchical_all_reduce(graph, ports, bytes, {})
            : comm.lower_all_reduce(graph, ports, bytes, {});
    const auto result = sim::TaskGraphExecutor{}.run(graph);
    SimTime latest = 0;
    for (sim::TaskId t : done) {
      latest = std::max(latest, result.timing(t).finish);
    }
    return latest;
  };

  const SimTime flat = finish(false);
  const SimTime hier = finish(true);
  EXPECT_LT(hier, flat * 0.5);
}

}  // namespace
}  // namespace holmes::comm
