#include "optimizer/dp_strategy.h"

#include <gtest/gtest.h>

#include <numeric>

#include "util/error.h"

namespace holmes::optimizer {
namespace {

TEST(DpStrategy, FactoryProperties) {
  const DpSyncConfig ar = DpSyncConfig::all_reduce();
  EXPECT_EQ(ar.kind, DpSyncKind::kAllReduce);
  EXPECT_FALSE(ar.shards_optimizer());
  EXPECT_FALSE(ar.overlaps_backward());
  EXPECT_EQ(ar.effective_buckets(), 1);

  const DpSyncConfig dist = DpSyncConfig::distributed();
  EXPECT_TRUE(dist.shards_optimizer());
  EXPECT_FALSE(dist.overlaps_backward());

  const DpSyncConfig over = DpSyncConfig::overlapped(8);
  EXPECT_TRUE(over.shards_optimizer());
  EXPECT_TRUE(over.overlaps_backward());
  EXPECT_EQ(over.effective_buckets(), 8);
}

TEST(DpStrategy, FullyShardedProperties) {
  const DpSyncConfig fsdp = DpSyncConfig::fully_sharded();
  EXPECT_TRUE(fsdp.shards_optimizer());
  EXPECT_TRUE(fsdp.shards_weights());
  EXPECT_EQ(fsdp.allgather_passes(), 2);
  EXPECT_FALSE(fsdp.overlaps_backward());
  // The others never shard weights.
  EXPECT_FALSE(DpSyncConfig::all_reduce().shards_weights());
  EXPECT_FALSE(DpSyncConfig::distributed().shards_weights());
  EXPECT_FALSE(DpSyncConfig::overlapped().shards_weights());
  EXPECT_EQ(DpSyncConfig::distributed().allgather_passes(), 1);
}

TEST(BucketSizes, SumsToTotal) {
  for (Bytes total : {0LL, 1LL, 1000LL, 123456789LL}) {
    for (int buckets : {1, 2, 4, 7}) {
      const auto sizes = bucket_sizes(total, buckets);
      EXPECT_EQ(sizes.size(), static_cast<std::size_t>(buckets));
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), Bytes{0}), total);
    }
  }
}

TEST(BucketSizes, NearEqual) {
  const auto sizes = bucket_sizes(10, 4);
  EXPECT_EQ(sizes, (std::vector<Bytes>{3, 3, 2, 2}));
}

TEST(BucketSizes, MoreBucketsThanBytes) {
  const auto sizes = bucket_sizes(2, 5);
  EXPECT_EQ(sizes, (std::vector<Bytes>{1, 1, 0, 0, 0}));
}

TEST(BucketSizes, Validation) {
  EXPECT_THROW(bucket_sizes(100, 0), ConfigError);
  EXPECT_THROW(bucket_sizes(-1, 2), ConfigError);
}

}  // namespace
}  // namespace holmes::optimizer
