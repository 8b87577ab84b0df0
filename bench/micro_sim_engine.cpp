/// Micro-benchmarks of the discrete-event substrate: task-graph
/// construction cost and task-graph *execution* throughput —
/// the quantity that bounds how many training scenarios per second the
/// experiment benches and the autotune sweep can evaluate. The executor
/// benches build their graph once outside the timed region so the measured
/// loop is exactly the DES hot path (ready queue + placement + dependent
/// release); the Build benches track construction cost separately.

#include <benchmark/benchmark.h>

#include "micro_bench_json.h"
#include "synthetic_graph.h"

#include "sim/executor.h"

using namespace holmes;
using namespace holmes::sim;

namespace {

TaskGraph make_chain(int tasks) {
  TaskGraph g;
  const ResourceId r = g.add_resource("r");
  TaskId prev = kInvalidTask;
  for (int i = 0; i < tasks; ++i) {
    const TaskId t = g.add_compute(r, 1e-6);
    if (prev != kInvalidTask) g.add_dep(t, prev);
    prev = t;
  }
  return g;
}

TaskGraph make_wide(int width) {
  // Fan-out/fan-in: many independent tasks on many resources joining once.
  TaskGraph g;
  const TaskId join = g.add_noop("join");
  for (int i = 0; i < width; ++i) {
    const ResourceId r = g.add_resource("r");
    const TaskId t = g.add_compute(r, 1e-6);
    g.add_dep(join, t);
  }
  return g;
}

}  // namespace

static void BM_TaskGraphChainBuild(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TaskGraph g = make_chain(tasks);
    benchmark::DoNotOptimize(g.task_count());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_TaskGraphChainBuild)->Arg(1 << 16);

static void BM_TaskGraphChain(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  const TaskGraph g = make_chain(tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskGraphExecutor{}.run(g).makespan());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_TaskGraphChain)->Arg(1 << 12)->Arg(1 << 16);

static void BM_TaskGraphWide(benchmark::State& state) {
  const auto width = static_cast<int>(state.range(0));
  const TaskGraph g = make_wide(width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskGraphExecutor{}.run(g).makespan());
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_TaskGraphWide)->Arg(1 << 10)->Arg(1 << 14);

static void BM_Gpt3IterationGraph(benchmark::State& state) {
  // The ROADMAP item-3 headline: a ~110k-task GPT-3-scale training
  // iteration (16 pipeline stages x 8 DP replicas x 192 micro-batches with
  // per-stage ring reduce-scatter) must simulate in single-digit
  // milliseconds. Built once; the timed region is executor-only.
  TaskGraph g;
  const std::size_t tasks =
      holmes::bench::build_training_graph(g, holmes::bench::gpt3_scale_spec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskGraphExecutor{}.run(g).makespan());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks));
  state.counters["tasks"] = benchmark::Counter(static_cast<double>(tasks));
}
BENCHMARK(BM_Gpt3IterationGraph);

static void BM_Gpt3IterationGraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    TaskGraph g;
    benchmark::DoNotOptimize(
        holmes::bench::build_training_graph(g, holmes::bench::gpt3_scale_spec()));
  }
}
BENCHMARK(BM_Gpt3IterationGraphBuild);

int main(int argc, char** argv) {
  return holmes::bench::micro_bench_main("micro_sim_engine", argc, argv);
}
