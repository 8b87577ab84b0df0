/// Micro-benchmarks of the telemetry subsystem: post-hoc accounting over a
/// finished simulation, against the executor run it describes, and the
/// run-summary build behind `holmes_cli stats`.

#include <benchmark/benchmark.h>

#include "micro_bench_json.h"

#include "core/run_stats.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "obs/accounting.h"
#include "sim/executor.h"

using namespace holmes;
using namespace holmes::sim;

namespace {

/// A pipeline-ish graph: `width` serial resources, each running `depth`
/// compute tasks, with transfers handing off between neighbours.
TaskGraph make_grid_graph(int width, int depth) {
  TaskGraph g;
  std::vector<ResourceId> gpus;
  std::vector<ResourceId> tx;
  std::vector<ResourceId> rx;
  for (int i = 0; i < width; ++i) {
    gpus.push_back(g.add_resource("gpu" + std::to_string(i)));
    tx.push_back(g.add_resource("gpu" + std::to_string(i) + ".tx"));
    rx.push_back(g.add_resource("gpu" + std::to_string(i) + ".rx"));
  }
  const ChannelId pp = g.channel("pp");
  std::vector<TaskId> prev(static_cast<std::size_t>(width), kInvalidTask);
  for (int d = 0; d < depth; ++d) {
    for (int i = 0; i < width; ++i) {
      const TaskId c = g.add_compute(gpus[i], 1e-5, "fwd", 1);
      if (prev[i] != kInvalidTask) g.add_dep(c, prev[i]);
      prev[i] = c;
      if (i + 1 < width) {
        const TaskId t = g.add_transfer(tx[i], rx[i + 1], 1 << 16, 25e9,
                                        5e-6, "p2p", 3, pp);
        g.add_dep(t, c);
        prev[i + 1] = t;
      }
    }
  }
  return g;
}

}  // namespace

static void BM_ExecutorUnobserved(benchmark::State& state) {
  const TaskGraph g = make_grid_graph(8, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskGraphExecutor{}.run(g).makespan());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.task_count()));
}
BENCHMARK(BM_ExecutorUnobserved)->Arg(1 << 6)->Arg(1 << 9);

static void BM_AccountResources(benchmark::State& state) {
  const TaskGraph g = make_grid_graph(8, static_cast<int>(state.range(0)));
  const SimResult result = TaskGraphExecutor{}.run(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::account_resources(g, result));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.task_count()));
}
BENCHMARK(BM_AccountResources)->Arg(1 << 9);

static void BM_AccountOverlap(benchmark::State& state) {
  const TaskGraph g = make_grid_graph(8, static_cast<int>(state.range(0)));
  const SimResult result = TaskGraphExecutor{}.run(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::account_overlap(g, result, obs::tag_in(g, {3}),
                             obs::tag_in(g, {1})));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.task_count()));
}
BENCHMARK(BM_AccountOverlap)->Arg(1 << 9);

static void BM_BuildRunSummary(benchmark::State& state) {
  // End-to-end cost of the stats surface on a real training run.
  using namespace holmes::core;
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(1));
  SimArtifacts artifacts;
  const IterationMetrics metrics =
      TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &artifacts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_run_summary(topo, plan, metrics, artifacts));
  }
}
BENCHMARK(BM_BuildRunSummary);

int main(int argc, char** argv) {
  return holmes::bench::micro_bench_main("micro_obs", argc, argv);
}
