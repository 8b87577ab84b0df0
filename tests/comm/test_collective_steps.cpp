#include "comm/collective_steps.h"

#include <gtest/gtest.h>

#include <set>

#include "util/error.h"

namespace holmes::comm {
namespace {

TEST(ChunkLayout, EvenSplit) {
  ChunkLayout layout(12, 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(layout.count(c), 3);
    EXPECT_EQ(layout.offset(c), 3 * c);
  }
}

TEST(ChunkLayout, RemainderGoesToFirstChunks) {
  ChunkLayout layout(10, 4);  // 3,3,2,2
  EXPECT_EQ(layout.count(0), 3);
  EXPECT_EQ(layout.count(1), 3);
  EXPECT_EQ(layout.count(2), 2);
  EXPECT_EQ(layout.count(3), 2);
  EXPECT_EQ(layout.offset(0), 0);
  EXPECT_EQ(layout.offset(1), 3);
  EXPECT_EQ(layout.offset(2), 6);
  EXPECT_EQ(layout.offset(3), 8);
}

TEST(ChunkLayout, ChunksCoverBufferExactly) {
  for (std::int64_t elems : {0, 1, 7, 64, 1000}) {
    for (int chunks : {1, 2, 3, 8}) {
      ChunkLayout layout(elems, chunks);
      std::int64_t total = 0;
      for (int c = 0; c < chunks; ++c) {
        EXPECT_EQ(layout.offset(c), total);
        total += layout.count(c);
      }
      EXPECT_EQ(total, elems);
    }
  }
}

TEST(ChunkLayout, MoreChunksThanElems) {
  ChunkLayout layout(2, 5);  // 1,1,0,0,0
  EXPECT_EQ(layout.count(0), 1);
  EXPECT_EQ(layout.count(1), 1);
  EXPECT_EQ(layout.count(2), 0);
}

class RingStepsTest : public ::testing::TestWithParam<int> {};

TEST_P(RingStepsTest, ReduceScatterShape) {
  const int n = GetParam();
  const std::int64_t elems = 64;
  const auto steps = ring_reduce_scatter_steps(n, elems);
  validate_steps(steps, n, elems);
  if (n == 1) {
    EXPECT_TRUE(steps.empty());
    return;
  }
  // n*(n-1) steps (each rank sends once per round) when no chunk is empty.
  EXPECT_EQ(steps.size(), static_cast<std::size_t>(n) * (n - 1));
  for (const auto& s : steps) {
    EXPECT_TRUE(s.reduce);
    EXPECT_EQ(s.dst, (s.src + 1) % n);          // ring neighbours only
    EXPECT_EQ(s.src_offset, s.dst_offset);      // in-place convention
  }
}

TEST_P(RingStepsTest, AllGatherShape) {
  const int n = GetParam();
  const auto steps = ring_all_gather_steps(n, 64);
  validate_steps(steps, n, 64);
  for (const auto& s : steps) {
    EXPECT_FALSE(s.reduce);
    EXPECT_EQ(s.dst, (s.src + 1) % n);
  }
}

TEST_P(RingStepsTest, AllReduceBytesSentIsBandwidthOptimal) {
  const int n = GetParam();
  if (n == 1) return;
  const std::int64_t elems = 64 * n;  // divisible: exact factor
  const auto steps = ring_all_reduce_steps(n, elems);
  // Each rank transmits exactly 2*(n-1)/n of the buffer.
  const Bytes expected = 2 * (n - 1) * (elems / n);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bytes_sent_by(steps, r, 1), expected) << "rank " << r;
  }
}

TEST_P(RingStepsTest, ReduceScatterBytesSent) {
  const int n = GetParam();
  if (n == 1) return;
  const std::int64_t elems = 16 * n;
  const auto steps = ring_reduce_scatter_steps(n, elems);
  const Bytes expected = (n - 1) * (elems / n);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bytes_sent_by(steps, r, 1), expected);
  }
}

TEST_P(RingStepsTest, BroadcastValidatesForEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; ++root) {
    const auto steps = broadcast_steps(n, root, 37);
    validate_steps(steps, n, 37);
  }
}

TEST_P(RingStepsTest, AllToAllCoversAllPairs) {
  const int n = GetParam();
  const auto steps = all_to_all_steps(n, 8);
  validate_steps(steps, n, -1, /*in_place=*/false);
  std::set<std::pair<int, int>> pairs;
  for (const auto& s : steps) pairs.insert({s.src, s.dst});
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n) * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, RingStepsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(RingSteps, OwnedChunkConvention) {
  EXPECT_EQ(ring_owned_chunk(4, 0), 1);
  EXPECT_EQ(ring_owned_chunk(4, 3), 0);
  EXPECT_EQ(ring_owned_chunk(1, 0), 0);
  // Ownership is a bijection.
  std::set<int> owned;
  for (int r = 0; r < 7; ++r) owned.insert(ring_owned_chunk(7, r));
  EXPECT_EQ(owned.size(), 7u);
}

TEST(RingSteps, TinyBufferSkipsEmptyChunks) {
  // 2 elements across 5 ranks: 3 chunks are empty; steps must skip them.
  const auto steps = ring_reduce_scatter_steps(5, 2);
  validate_steps(steps, 5, 2);
  for (const auto& s : steps) EXPECT_GT(s.count, 0);
}

TEST(RingSteps, ZeroElemsYieldNoSteps) {
  EXPECT_TRUE(ring_all_reduce_steps(4, 0).empty());
  EXPECT_TRUE(broadcast_steps(4, 0, 0).empty());
  EXPECT_TRUE(all_to_all_steps(4, 0).empty());
}

TEST(RingSteps, InvalidArgsRejected) {
  EXPECT_THROW(ring_reduce_scatter_steps(0, 8), InternalError);
  EXPECT_THROW(broadcast_steps(4, 4, 8), InternalError);
  EXPECT_THROW(broadcast_steps(4, -1, 8), InternalError);
}

TEST(ValidateSteps, CatchesHazards) {
  // A step that reads what another same-round step writes on its rank.
  std::vector<CollectiveStep> bad = {
      {0, 0, 1, 0, 0, 4, false},  // writes rank1[0..4)
      {0, 1, 2, 2, 2, 4, false},  // reads rank1[2..6) -> hazard
  };
  EXPECT_THROW(validate_steps(bad, 3, 8), InternalError);
}

TEST(ValidateSteps, CatchesOutOfRange) {
  std::vector<CollectiveStep> bad = {{0, 0, 1, 0, 6, 4, false}};
  EXPECT_THROW(validate_steps(bad, 2, 8), InternalError);  // 6+4 > 8
  std::vector<CollectiveStep> self = {{0, 1, 1, 0, 0, 4, false}};
  EXPECT_THROW(validate_steps(self, 2, 8), InternalError);
}

}  // namespace
}  // namespace holmes::comm
