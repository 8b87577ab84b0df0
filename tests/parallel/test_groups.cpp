#include "parallel/groups.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace holmes::parallel {
namespace {

using net::NicType;
using net::Topology;

// The worked example of paper Fig. 2: 16 GPUs, d=2, t=2, p=4.
const ParallelConfig kFig2{2, 4, 2};

TEST(Groups, Eq1TensorGroupsAreContiguousPairs) {
  ParallelGroups g(kFig2);
  ASSERT_EQ(g.tp_groups().size(), 8u);  // p*d
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(g.tp_groups()[static_cast<std::size_t>(i)],
              (std::vector<int>{2 * i, 2 * i + 1}));
  }
}

TEST(Groups, Eq3PipelineGroupsStrideByTd) {
  ParallelGroups g(kFig2);
  ASSERT_EQ(g.pp_groups().size(), 4u);  // t*d
  EXPECT_EQ(g.pp_groups()[0], (std::vector<int>{0, 4, 8, 12}));
  EXPECT_EQ(g.pp_groups()[1], (std::vector<int>{1, 5, 9, 13}));
  EXPECT_EQ(g.pp_groups()[2], (std::vector<int>{2, 6, 10, 14}));
  EXPECT_EQ(g.pp_groups()[3], (std::vector<int>{3, 7, 11, 15}));
}

TEST(Groups, Eq4DataGroupsWithinStageBlocks) {
  ParallelGroups g(kFig2);
  ASSERT_EQ(g.dp_groups().size(), 8u);  // p*t
  EXPECT_EQ(g.dp_groups()[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(g.dp_groups()[1], (std::vector<int>{1, 3}));
  EXPECT_EQ(g.dp_groups()[2], (std::vector<int>{4, 6}));  // stage 1
  EXPECT_EQ(g.dp_groups()[7], (std::vector<int>{13, 15}));
}

TEST(Groups, CoordRoundTrip) {
  ParallelGroups g(kFig2);
  for (int rank = 0; rank < 16; ++rank) {
    const RankCoord c = g.coord_of(rank);
    EXPECT_EQ(g.rank_at(c), rank);
  }
  // Spot values: rank 7 = slot 7 -> tp=1, dp=1, stage=1.
  EXPECT_EQ(g.coord_of(7), (RankCoord{1, 1, 1}));
  EXPECT_EQ(g.coord_of(0), (RankCoord{0, 0, 0}));
  EXPECT_EQ(g.coord_of(15), (RankCoord{1, 1, 3}));
}

TEST(Groups, StageRanksAreBlocks) {
  ParallelGroups g(kFig2);
  EXPECT_EQ(g.stage_ranks(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(g.stage_ranks(3), (std::vector<int>{12, 13, 14, 15}));
  EXPECT_THROW(g.stage_ranks(4), InternalError);
}

TEST(Groups, PermutationRemapsRanks) {
  // Reverse order: slot s -> rank 15-s.
  std::vector<int> order;
  for (int s = 0; s < 16; ++s) order.push_back(15 - s);
  ParallelGroups g(kFig2, order);
  EXPECT_EQ(g.tp_groups()[0], (std::vector<int>{15, 14}));
  EXPECT_EQ(g.coord_of(15), (RankCoord{0, 0, 0}));
}

TEST(Groups, BadPermutationsRejected) {
  EXPECT_THROW(ParallelGroups(kFig2, {0, 1, 2}), ConfigError);
  std::vector<int> dup(16, 0);
  EXPECT_THROW(ParallelGroups(kFig2, dup), ConfigError);
  std::vector<int> oob;
  for (int s = 0; s < 16; ++s) oob.push_back(s + 1);
  EXPECT_THROW(ParallelGroups(kFig2, oob), ConfigError);
}

TEST(Groups, ValidateAcceptsWellFormed) {
  // Fig. 2's topology: 2 clusters x 2 nodes x 4 GPUs.
  Topology topo({
      net::ClusterSpec{"c1", 2, 4, NicType::kInfiniBand},
      net::ClusterSpec{"c2", 2, 4, NicType::kRoCE},
  });
  ParallelGroups g(kFig2);
  EXPECT_NO_THROW(validate_groups(g, topo));
}

TEST(Groups, ValidateRejectsTensorGroupsAcrossNodes) {
  // t=4 with only 2 GPUs per node: TP groups would span nodes.
  Topology topo = Topology::homogeneous(8, NicType::kInfiniBand, 2);
  ParallelGroups g(ParallelConfig{4, 2, 2});
  EXPECT_THROW(validate_groups(g, topo), ConfigError);
}

TEST(Groups, ValidateRejectsWorldMismatch) {
  Topology topo = Topology::homogeneous(1, NicType::kInfiniBand, 8);
  ParallelGroups g(kFig2);  // world 16 != 8
  EXPECT_THROW(validate_groups(g, topo), ConfigError);
}

TEST(Groups, RdmaDpFractionHybridDefaultOrder) {
  // 2 clusters x 2 nodes x 4 GPUs, t=1, p=2, d=8: stage blocks have 8
  // devices = 2 nodes = exactly one cluster -> all DP groups homogeneous.
  Topology topo({
      net::ClusterSpec{"c1", 2, 4, NicType::kInfiniBand},
      net::ClusterSpec{"c2", 2, 4, NicType::kRoCE},
  });
  ParallelGroups aligned(ParallelConfig{1, 2, 8});
  EXPECT_DOUBLE_EQ(rdma_dp_group_fraction(aligned, topo), 1.0);
  // p=4: each stage is one node; DP groups stay within a node's cluster.
  ParallelGroups p4(ParallelConfig{1, 4, 4});
  EXPECT_DOUBLE_EQ(rdma_dp_group_fraction(p4, topo), 1.0);
  // p=1: every DP group spans both clusters -> 0.
  ParallelGroups p1(ParallelConfig{1, 1, 16});
  EXPECT_DOUBLE_EQ(rdma_dp_group_fraction(p1, topo), 0.0);
}

}  // namespace
}  // namespace holmes::parallel
