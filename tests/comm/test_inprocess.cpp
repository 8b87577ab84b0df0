#include "comm/inprocess.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace holmes::comm {
namespace {

/// Builds n buffers of `elems` deterministic pseudo-random floats and
/// returns them along with the expected element-wise sum.
struct Fixture {
  std::vector<std::vector<float>> storage;
  std::vector<float> expected_sum;

  Fixture(int n, std::int64_t elems, std::uint64_t seed = 42) {
    Rng rng(seed);
    storage.resize(static_cast<std::size_t>(n));
    expected_sum.assign(static_cast<std::size_t>(elems), 0.0f);
    for (auto& buf : storage) {
      buf.resize(static_cast<std::size_t>(elems));
      for (std::int64_t k = 0; k < elems; ++k) {
        buf[static_cast<std::size_t>(k)] =
            static_cast<float>(rng.uniform_int(-8, 8));  // exact in fp32
        expected_sum[static_cast<std::size_t>(k)] += buf[static_cast<std::size_t>(k)];
      }
    }
  }

  BufferSet spans() {
    BufferSet s;
    for (auto& buf : storage) s.emplace_back(buf);
    return s;
  }
};

struct Shape {
  int n;
  std::int64_t elems;
};

// gtest names each case after a byte dump of its Shape, padding included.
// Static storage zero-fills that padding, so the names are the same on every
// build; Shape temporaries would leave stray stack bytes in it.
constexpr Shape kShapes[] = {{1, 16}, {2, 16}, {3, 16},   {4, 64}, {5, 17},
                             {8, 64}, {8, 3},  {16, 256}, {7, 1}};

class InProcessSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(InProcessSweep, AllReduceComputesGlobalSum) {
  const auto [n, elems] = GetParam();
  Fixture fx(n, elems);
  all_reduce_inplace(fx.spans());
  for (int r = 0; r < n; ++r) {
    for (std::int64_t k = 0; k < elems; ++k) {
      ASSERT_EQ(fx.storage[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)],
                fx.expected_sum[static_cast<std::size_t>(k)])
          << "rank " << r << " elem " << k;
    }
  }
}

TEST_P(InProcessSweep, ReduceScatterOwnedChunksHoldFullSum) {
  const auto [n, elems] = GetParam();
  Fixture fx(n, elems);
  reduce_scatter_inplace(fx.spans());
  const ChunkLayout layout(elems, n);
  for (int r = 0; r < n; ++r) {
    const int chunk = ring_owned_chunk(n, r);
    const std::int64_t off = layout.offset(chunk);
    for (std::int64_t k = 0; k < layout.count(chunk); ++k) {
      ASSERT_EQ(
          fx.storage[static_cast<std::size_t>(r)][static_cast<std::size_t>(off + k)],
          fx.expected_sum[static_cast<std::size_t>(off + k)])
          << "rank " << r << " chunk " << chunk;
    }
  }
}

TEST_P(InProcessSweep, ReduceScatterThenAllGatherEqualsAllReduce) {
  const auto [n, elems] = GetParam();
  Fixture fx(n, elems);
  reduce_scatter_inplace(fx.spans());
  all_gather_inplace(fx.spans());
  for (int r = 0; r < n; ++r) {
    for (std::int64_t k = 0; k < elems; ++k) {
      ASSERT_EQ(fx.storage[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)],
                fx.expected_sum[static_cast<std::size_t>(k)]);
    }
  }
}

TEST_P(InProcessSweep, BroadcastReplicatesRootFromEveryRoot) {
  const auto [n, elems] = GetParam();
  for (int root = 0; root < n; ++root) {
    Fixture fx(n, elems, 7 + static_cast<std::uint64_t>(root));
    const std::vector<float> root_copy = fx.storage[static_cast<std::size_t>(root)];
    broadcast_inplace(fx.spans(), root);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(fx.storage[static_cast<std::size_t>(r)], root_copy)
          << "root " << root << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InProcessSweep, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_e" +
             std::to_string(param_info.param.elems);
    });

TEST(InProcessAllToAll, ExchangesBlocksBySourceAndDestination) {
  const int n = 4;
  const std::int64_t block = 3;
  std::vector<std::vector<float>> send(n), recv(n);
  for (int i = 0; i < n; ++i) {
    send[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n * block));
    recv[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(n * block), -1.0f);
    for (int d = 0; d < n; ++d) {
      for (std::int64_t k = 0; k < block; ++k) {
        // Value encodes (source, destination, position).
        send[static_cast<std::size_t>(i)][static_cast<std::size_t>(d * block + k)] =
            static_cast<float>(100 * i + 10 * d + k);
      }
    }
  }
  BufferSet send_spans, recv_spans;
  for (auto& b : send) send_spans.emplace_back(b);
  for (auto& b : recv) recv_spans.emplace_back(b);
  all_to_all(send_spans, recv_spans);
  for (int d = 0; d < n; ++d) {
    for (int s = 0; s < n; ++s) {
      for (std::int64_t k = 0; k < block; ++k) {
        ASSERT_EQ(recv[static_cast<std::size_t>(d)][static_cast<std::size_t>(s * block + k)],
                  static_cast<float>(100 * s + 10 * d + k));
      }
    }
  }
}

TEST(InProcess, MismatchedBufferLengthsRejected) {
  std::vector<float> a(8), b(4);
  EXPECT_THROW(all_reduce_inplace({std::span<float>(a), std::span<float>(b)}),
               InternalError);
}

TEST(InProcess, EmptyBufferSetRejected) {
  EXPECT_THROW(all_reduce_inplace({}), InternalError);
}

TEST(InProcess, AllToAllRequiresDivisibleBuffer) {
  std::vector<float> a(7), b(7), c(7), d(7);
  BufferSet send = {std::span<float>(a), std::span<float>(b)};
  BufferSet recv = {std::span<float>(c), std::span<float>(d)};
  EXPECT_THROW(all_to_all(send, recv), InternalError);  // 7 % 2 != 0
}

TEST(InProcess, SingleRankCollectivesAreIdentity) {
  std::vector<float> buf = {1, 2, 3};
  const std::vector<float> orig = buf;
  BufferSet set = {std::span<float>(buf)};
  all_reduce_inplace(set);
  EXPECT_EQ(buf, orig);
  broadcast_inplace(set, 0);
  EXPECT_EQ(buf, orig);
}

}  // namespace
}  // namespace holmes::comm
