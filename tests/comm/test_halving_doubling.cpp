#include "comm/halving_doubling.h"

#include <gtest/gtest.h>

#include <set>

#include "comm/inprocess.h"
#include "net/ports.h"
#include "sim/executor.h"
#include "util/error.h"
#include "util/rng.h"

namespace holmes::comm {
namespace {

struct Shape {
  int n;
  std::int64_t elems;
};

// gtest names each case after a byte dump of its Shape, padding included.
// Static storage zero-fills that padding, so the names are the same on every
// build; Shape temporaries would leave stray stack bytes in it.
constexpr Shape kShapes[] = {{1, 8},    {2, 16}, {4, 64}, {8, 64},
                             {16, 256}, {8, 5},  {4, 1},  {32, 97}};

class HalvingDoublingSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(HalvingDoublingSweep, ProgramValidates) {
  const auto [n, elems] = GetParam();
  const auto steps = halving_doubling_all_reduce_steps(n, elems);
  validate_steps(steps, n, elems);
}

TEST_P(HalvingDoublingSweep, ComputesGlobalSum) {
  const auto [n, elems] = GetParam();
  Rng rng(17);
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(n));
  std::vector<float> expected(static_cast<std::size_t>(elems), 0.0f);
  for (auto& buf : bufs) {
    buf.resize(static_cast<std::size_t>(elems));
    for (std::int64_t k = 0; k < elems; ++k) {
      buf[static_cast<std::size_t>(k)] =
          static_cast<float>(rng.uniform_int(-5, 5));
      expected[static_cast<std::size_t>(k)] += buf[static_cast<std::size_t>(k)];
    }
  }
  BufferSet spans;
  for (auto& b : bufs) spans.emplace_back(b);
  apply_steps(halving_doubling_all_reduce_steps(n, elems), spans, spans);
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST_P(HalvingDoublingSweep, UsesLogarithmicRounds) {
  const auto [n, elems] = GetParam();
  if (n == 1) return;
  const auto steps = halving_doubling_all_reduce_steps(n, elems);
  std::set<int> rounds;
  for (const auto& s : steps) rounds.insert(s.round);
  int log2n = 0;
  for (int x = n; x > 1; x /= 2) ++log2n;
  EXPECT_LE(static_cast<int>(rounds.size()), 2 * log2n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HalvingDoublingSweep, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_e" +
             std::to_string(param_info.param.elems);
    });

TEST(HalvingDoubling, BandwidthMatchesRing) {
  // Same total bytes per rank as the bandwidth-optimal ring: 2(n-1)/n * E.
  const int n = 8;
  const std::int64_t elems = 64 * n;
  const auto steps = halving_doubling_all_reduce_steps(n, elems);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bytes_sent_by(steps, r, 1), 2 * (n - 1) * (elems / n));
  }
}

TEST(HalvingDoubling, RejectsNonPowerOfTwo) {
  EXPECT_THROW(halving_doubling_all_reduce_steps(3, 8), ConfigError);
  EXPECT_THROW(halving_doubling_all_reduce_steps(6, 8), ConfigError);
  EXPECT_THROW(halving_doubling_all_reduce_steps(0, 8), ConfigError);
}

TEST(HalvingDoubling, SuggestedSelectionSwitchesBySize) {
  // Small payload on a power-of-two group -> halving-doubling (few rounds).
  const auto small = suggested_all_reduce_steps(8, 1024);
  std::set<int> small_rounds;
  for (const auto& s : small) small_rounds.insert(s.round);
  EXPECT_EQ(small_rounds.size(), 6u);  // 2 * log2(8)

  // Large payload -> ring (2(n-1) rounds).
  const auto large = suggested_all_reduce_steps(8, 1 << 22);
  std::set<int> large_rounds;
  for (const auto& s : large) large_rounds.insert(s.round);
  EXPECT_EQ(large_rounds.size(), 14u);  // 2 * (8 - 1)

  // Non-power-of-two group -> ring regardless of size.
  EXPECT_EQ(suggested_all_reduce_steps(6, 1024), ring_all_reduce_steps(6, 1024));
}

TEST(HalvingDoubling, LatencyWinForSmallPayloads) {
  // 16 single-GPU nodes, 4 KB payload: 6 rounds of latency beat the ring's
  // 30 in simulated time.
  const int n = 16;
  const net::Topology topo =
      net::Topology::homogeneous(n, net::NicType::kInfiniBand, 1);

  auto simulate = [&](const std::vector<CollectiveStep>& steps) {
    sim::TaskGraph graph;
    const net::PortMap ports(topo, graph);
    std::vector<sim::TaskId> last(static_cast<std::size_t>(n),
                                  sim::kInvalidTask);
    for (const auto& s : steps) {
      const sim::TaskId x =
          net::emit_transfer(graph, ports, topo, s.src, s.dst, s.count);
      graph.add_deps(x, {last[static_cast<std::size_t>(s.src)]});
      last[static_cast<std::size_t>(s.dst)] = x;
    }
    return sim::TaskGraphExecutor{}.run(graph).makespan();
  };

  const SimTime hd = simulate(halving_doubling_all_reduce_steps(n, 4096));
  const SimTime ring = simulate(ring_all_reduce_steps(n, 4096));
  EXPECT_LT(hd, ring * 0.5);
}

}  // namespace
}  // namespace holmes::comm
