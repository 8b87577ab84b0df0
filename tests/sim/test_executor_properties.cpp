/// Property tests of the task-graph executor on randomized DAGs: for every
/// generated graph, the reported timings must satisfy the simulator's
/// defining invariants regardless of shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "reference_executor.h"
#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "util/rng.h"

namespace holmes::sim {
namespace {

struct RandomGraph {
  TaskGraph graph;
  int resources = 0;
};

/// Random DAG: tasks may only depend on lower-numbered tasks, so it is
/// acyclic by construction.
RandomGraph make_random_graph(Rng& rng) {
  RandomGraph out;
  const int resources = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<ResourceId> res;
  std::vector<ResourceId> ports;  // transfer ports, disjoint from compute
  for (int r = 0; r < resources; ++r) {
    res.push_back(out.graph.add_resource("r" + std::to_string(r)));
    ports.push_back(out.graph.add_resource("port" + std::to_string(r)));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 60));
  for (int i = 0; i < tasks; ++i) {
    const double kind = rng.uniform01();
    TaskId id;
    if (kind < 0.6) {
      id = out.graph.add_compute(res[static_cast<std::size_t>(
                                     rng.uniform_int(0, resources - 1))],
                                 rng.uniform(0.0, 2.0));
    } else if (kind < 0.9 && resources >= 2) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, resources - 1));
      auto b = static_cast<std::size_t>(rng.uniform_int(0, resources - 1));
      if (b == a) b = (b + 1) % static_cast<std::size_t>(resources);
      id = out.graph.add_transfer(ports[a], ports[b],
                                  rng.uniform_int(0, 1 << 20), 1e9,
                                  rng.uniform(0.0, 1e-3));
    } else {
      id = out.graph.add_noop();
    }
    // Random backward dependencies.
    const int deps = static_cast<int>(rng.uniform_int(0, std::min(i, 3)));
    for (int k = 0; k < deps; ++k) {
      out.graph.add_dep(id, static_cast<TaskId>(rng.uniform_int(0, i - 1)));
    }
  }
  out.resources = resources;
  return out;
}

/// Tie-heavy random DAG. Costs are small whole seconds, zero included, so
/// many tasks become ready at the same instant. Zero-duration computes,
/// zero-byte zero-latency transfers and noops finish the instant they start
/// and release same-time dependents into the tie. Dependencies follow a
/// seeded permutation of the ids, so a task may wait on a higher id.
RandomGraph make_tie_heavy_graph(Rng& rng) {
  RandomGraph out;
  const int resources = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<ResourceId> res;
  std::vector<ResourceId> ports;
  for (int r = 0; r < resources; ++r) {
    res.push_back(out.graph.add_resource("r" + std::to_string(r)));
    ports.push_back(out.graph.add_resource("port" + std::to_string(r)));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < tasks; ++i) {
    const double kind = rng.uniform01();
    if (kind < 0.5) {
      out.graph.add_compute(
          res[static_cast<std::size_t>(rng.uniform_int(0, resources - 1))],
          static_cast<double>(rng.uniform_int(0, 2)));
    } else if (kind < 0.8 && resources >= 2) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, resources - 1));
      auto b = static_cast<std::size_t>(rng.uniform_int(0, resources - 1));
      if (b == a) b = (b + 1) % static_cast<std::size_t>(resources);
      // 0 or 1 s of serialization, 0 or 0.5 s of latency.
      out.graph.add_transfer(ports[a], ports[b],
                             rng.uniform_int(0, 1) * 1'000'000'000, 1e9,
                             0.5 * static_cast<double>(rng.uniform_int(0, 1)));
    } else {
      out.graph.add_noop();
    }
  }
  std::vector<TaskId> order(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = tasks - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  for (int p = 1; p < tasks; ++p) {
    const int deps = static_cast<int>(rng.uniform_int(0, std::min(p, 3)));
    for (int k = 0; k < deps; ++k) {
      out.graph.add_dep(
          order[static_cast<std::size_t>(p)],
          order[static_cast<std::size_t>(rng.uniform_int(0, p - 1))]);
    }
  }
  out.resources = resources;
  return out;
}

/// Asserts that every kPermuteDisjoint seed in [0, seeds) reproduces the
/// canonical timings, makespan and busy time of `graph` bit for bit.
void expect_disjoint_matches_canonical(const TaskGraph& graph,
                                       std::uint64_t first_seed,
                                       std::uint64_t seeds) {
  const SimResult canonical = TaskGraphExecutor{}.run(graph);
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    ExecutorOptions options;
    options.tie_break = TieBreak::kPermuteDisjoint;
    options.tie_seed = seed;
    const SimResult permuted = TaskGraphExecutor{options}.run(graph);
    ASSERT_EQ(canonical.makespan(), permuted.makespan()) << "seed " << seed;
    for (std::size_t i = 0; i < graph.task_count(); ++i) {
      const auto id = static_cast<TaskId>(i);
      ASSERT_EQ(canonical.timing(id).start, permuted.timing(id).start)
          << "task " << i << " seed " << seed;
      ASSERT_EQ(canonical.timing(id).finish, permuted.timing(id).finish)
          << "task " << i << " seed " << seed;
    }
    for (std::size_t r = 0; r < graph.resource_count(); ++r) {
      const auto res = static_cast<ResourceId>(r);
      ASSERT_EQ(canonical.resource_busy(res), permuted.resource_busy(res));
    }
    // The raw bits match as well, ports_free included.
    ASSERT_TRUE(permuted.bit_identical(canonical)) << "seed " << seed;
  }
}

class ExecutorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorFuzz, InvariantsHoldOnRandomDags) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraph rg = make_random_graph(rng);
    const SimResult result = TaskGraphExecutor{}.run(rg.graph);
    const auto& tasks = rg.graph.tasks();

    SimTime max_finish = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskTiming& timing = result.timing(static_cast<TaskId>(i));
      // Time flows forward.
      ASSERT_GE(timing.finish, timing.start);
      ASSERT_GE(timing.start, 0);
      max_finish = std::max(max_finish, timing.finish);
      // No task starts before its dependencies finish.
      for (TaskId dep : rg.graph.deps(static_cast<TaskId>(i))) {
        ASSERT_GE(timing.start, result.timing(dep).finish - 1e-12)
            << "task " << i << " started before dep " << dep;
      }
      // Durations match the declared cost model.
      if (tasks[i].kind == TaskKind::kCompute) {
        ASSERT_NEAR(timing.finish - timing.start, tasks[i].cost, 1e-12);
      }
      if (tasks[i].kind == TaskKind::kNoop) {
        ASSERT_NEAR(timing.finish - timing.start, 0.0, 1e-12);
      }
    }
    // Makespan is the latest finish.
    ASSERT_NEAR(result.makespan(), max_finish, 1e-12);

    // Serial-resource exclusivity: compute tasks on one resource never
    // overlap.
    std::map<ResourceId, std::vector<std::pair<SimTime, SimTime>>> occupancy;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].kind != TaskKind::kCompute) continue;
      const TaskTiming& timing = result.timing(static_cast<TaskId>(i));
      occupancy[tasks[i].resource].emplace_back(timing.start, timing.finish);
    }
    for (auto& [resource, spans] : occupancy) {
      std::sort(spans.begin(), spans.end());
      SimTime busy = 0;
      for (std::size_t k = 0; k < spans.size(); ++k) {
        busy += spans[k].second - spans[k].first;
        if (k > 0) {
          ASSERT_GE(spans[k].first, spans[k - 1].second - 1e-12)
              << "overlap on resource " << resource;
        }
      }
      // Accounting matches: busy time equals the sum of durations.
      ASSERT_NEAR(result.resource_busy(resource), busy, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// The resource-disjoint tie permutation only reorders placements that
/// commute, so on ANY graph — including ones with noop joins and zero-cost
/// tasks releasing same-time dependents — its results must be bitwise
/// identical to the canonical discipline. This is the invariant `holmes_cli
/// check` relies on: a divergence under kPermuteDisjoint is an executor
/// bug, never a property of the graph.
TEST_P(ExecutorFuzz, DisjointPermutationIsOutcomePreserving) {
  Rng rng(GetParam() ^ 0x9E3779B97F4A7C15ull);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraph rg = make_random_graph(rng);
    expect_disjoint_matches_canonical(rg.graph, 1, 3);
    if (HasFatalFailure()) return;
  }
  for (int trial = 0; trial < 300; ++trial) {
    RandomGraph rg = make_tie_heavy_graph(rng);
    expect_disjoint_matches_canonical(rg.graph, 1, 3);
    if (HasFatalFailure()) return;
  }
}

/// Default-constructed options are the canonical policy: byte-identical to
/// the no-options executor on the same graphs.
TEST_P(ExecutorFuzz, DefaultOptionsMatchCanonical) {
  Rng rng(GetParam() ^ 0x5DEECE66Dull);
  RandomGraph rg = make_random_graph(rng);
  const SimResult a = TaskGraphExecutor{}.run(rg.graph);
  const SimResult b = TaskGraphExecutor{ExecutorOptions{}}.run(rg.graph);
  ASSERT_EQ(a.makespan(), b.makespan());
  for (std::size_t i = 0; i < rg.graph.task_count(); ++i) {
    const auto id = static_cast<TaskId>(i);
    ASSERT_EQ(a.timing(id).start, b.timing(id).start);
    ASSERT_EQ(a.timing(id).finish, b.timing(id).finish);
  }
}

/// The engine against the naive reference scheduler (reference_executor.h)
/// on the same random and tie-heavy DAGs: every timing, busy total and the
/// makespan agree bit for bit.
TEST_P(ExecutorFuzz, MatchesReferenceExecutor) {
  Rng rng(GetParam() ^ 0x2545F4914F6CDD1Dull);
  for (int trial = 0; trial < 20; ++trial) {
    const RandomGraph rg = make_random_graph(rng);
    EXPECT_TRUE(TaskGraphExecutor{}.run(rg.graph).bit_identical(
        testing::reference_run(rg.graph)))
        << "random trial " << trial;
  }
  for (int trial = 0; trial < 300; ++trial) {
    const RandomGraph rg = make_tie_heavy_graph(rng);
    EXPECT_TRUE(TaskGraphExecutor{}.run(rg.graph).bit_identical(
        testing::reference_run(rg.graph)))
        << "tie-heavy trial " << trial;
  }
}

/// The same comparison under a seeded rate timeline that degrades (or
/// speeds up) random resources, so occupancy is stretched on computes and
/// on either port of a transfer alone.
TEST_P(ExecutorFuzz, MatchesReferenceExecutorUnderRateWindows) {
  Rng rng(GetParam() ^ 0x9FB21C651E98DF25ull);
  for (int trial = 0; trial < 50; ++trial) {
    const RandomGraph rg = make_random_graph(rng);
    RateTimeline rates;
    const auto last = static_cast<std::int64_t>(rg.graph.resource_count()) - 1;
    for (std::int64_t w = rng.uniform_int(1, 4); w > 0; --w) {
      const double begin = rng.uniform(0.0, 3.0);
      rates.add_window(static_cast<ResourceId>(rng.uniform_int(0, last)),
                       begin, begin + rng.uniform(0.1, 2.0),
                       rng.uniform(0.2, 1.5));
    }
    ExecutorOptions options;
    options.rates = &rates;
    EXPECT_TRUE(TaskGraphExecutor{options}.run(rg.graph).bit_identical(
        testing::reference_run(rg.graph, &rates)))
        << "trial " << trial;
  }
}

/// kPermuteAll legitimately changes schedule-order-sensitive graphs: two
/// equal-ready computes of different durations on one resource, with a
/// dependent hanging off the first — some seed must swap them.
TEST(ExecutorTieBreak, PermuteAllSwapsContendingTies) {
  TaskGraph graph;
  const ResourceId gpu = graph.add_resource("gpu0.compute");
  const TaskId first = graph.add_compute(gpu, 1.0, "short");
  graph.add_compute(gpu, 2.0, "long");
  const TaskId dep = graph.add_compute(gpu, 0.5, "after-short");
  graph.add_dep(dep, first);
  const SimResult canonical = TaskGraphExecutor{}.run(graph);
  bool swapped = false;
  for (std::uint64_t seed = 0; seed < 8 && !swapped; ++seed) {
    ExecutorOptions options;
    options.tie_break = TieBreak::kPermuteAll;
    options.tie_seed = seed;
    const SimResult permuted = TaskGraphExecutor{options}.run(graph);
    if (permuted.timing(first).start != canonical.timing(first).start) {
      swapped = true;
      EXPECT_FALSE(permuted.bit_identical(canonical)) << "seed " << seed;
    }
  }
  EXPECT_TRUE(swapped);
}

/// The same tie-order-sensitive graph under the resource-disjoint policy:
/// the contending tie keeps id order, so no seed may change a bit.
TEST(ExecutorTieBreak, DisjointKeepsContendingTiesInIdOrder) {
  TaskGraph graph;
  const ResourceId gpu = graph.add_resource("gpu0.compute");
  const TaskId first = graph.add_compute(gpu, 1.0, "short");
  graph.add_compute(gpu, 2.0, "long");
  const TaskId dep = graph.add_compute(gpu, 0.5, "after-short");
  graph.add_dep(dep, first);
  const SimResult canonical = TaskGraphExecutor{}.run(graph);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ExecutorOptions options;
    options.tie_break = TieBreak::kPermuteDisjoint;
    options.tie_seed = seed;
    EXPECT_TRUE(TaskGraphExecutor{options}.run(graph).bit_identical(canonical))
        << "seed " << seed;
  }
}

/// bit_identical compares raw bits, so it is conservative: a difference in
/// one resource busy time, or +0.0 against -0.0 where values compare equal,
/// makes results unequal.
TEST(SimResultBits, AnyDifferingBitMakesResultsUnequal) {
  const std::vector<TaskTiming> timings = {{0.0, 1.0, 1.0}, {1.0, 2.5, 2.0}};
  const SimResult base(timings, {2.0, 0.5}, 2.5);
  EXPECT_TRUE(base.bit_identical(SimResult(timings, {2.0, 0.5}, 2.5)));
  EXPECT_FALSE(base.bit_identical(SimResult(timings, {2.0, 0.75}, 2.5)));
  std::vector<TaskTiming> negative_zero = timings;
  negative_zero[0].start = -0.0;
  ASSERT_EQ(negative_zero[0].start, timings[0].start);
  EXPECT_FALSE(base.bit_identical(SimResult(negative_zero, {2.0, 0.5}, 2.5)));
  EXPECT_FALSE(SimResult({}, {}, 0.0).bit_identical(SimResult({}, {}, -0.0)));
  EXPECT_TRUE(SimResult({}, {}, 0.0).bit_identical(SimResult({}, {}, 0.0)));
}

/// A zero-cost compute on r1 releases d at t = 0, where d ties on r2 with b,
/// whose id is higher: canonical order starts d at 0 s and b at 1 s, so no
/// seed may place b first.
TEST(ExecutorTieBreak, DisjointZeroCostReleaseJoinsItsTie) {
  TaskGraph graph;
  const ResourceId r1 = graph.add_resource("r1");
  const ResourceId r2 = graph.add_resource("r2");
  const TaskId a = graph.add_compute(r1, 0.0, "a");
  const TaskId d = graph.add_compute(r2, 1.0, "d");
  const TaskId b = graph.add_compute(r2, 1.0, "b");
  graph.add_dep(d, a);
  const SimResult canonical = TaskGraphExecutor{}.run(graph);
  ASSERT_EQ(canonical.timing(d).start, 0.0);
  ASSERT_EQ(canonical.timing(b).start, 1.0);
  expect_disjoint_matches_canonical(graph, 0, 8);
}

/// Canonical order places b (id 1) on r before the noop n (id 2); n then
/// releases d (id 0), which queues behind b and starts at 1 s. Placing the
/// noop first would release d early and let it take r at 0 s.
TEST(ExecutorTieBreak, DisjointNoopKeepsIdOrderInItsTie) {
  TaskGraph graph;
  const ResourceId r = graph.add_resource("r");
  const TaskId d = graph.add_compute(r, 1.0, "d");
  const TaskId b = graph.add_compute(r, 1.0, "b");
  const TaskId n = graph.add_noop("n");
  graph.add_dep(d, n);
  const SimResult canonical = TaskGraphExecutor{}.run(graph);
  ASSERT_EQ(canonical.timing(b).start, 0.0);
  ASSERT_EQ(canonical.timing(d).start, 1.0);
  expect_disjoint_matches_canonical(graph, 0, 8);
}

}  // namespace
}  // namespace holmes::sim
