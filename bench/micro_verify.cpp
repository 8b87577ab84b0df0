/// Micro-benchmarks of the static verifier: the graph-family structural
/// lints and the execution-family conservation lints over synthetic grid
/// graphs, plus the plan-family pass over a resolved training plan, and one
/// permutation of the schedule-race check. These bound what `holmes_cli
/// lint` and `holmes_cli check` cost — the passes are meant to be cheap
/// enough to run on every CI simulation.

#include <benchmark/benchmark.h>

#include "micro_bench_json.h"

#include <string>
#include <vector>

#include "core/plan.h"
#include "core/preflight.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "sim/executor.h"
#include "sim/task_graph.h"
#include "verify/flow_lints.h"
#include "verify/graph_lints.h"
#include "verify/plan_lints.h"

using namespace holmes;
using namespace holmes::sim;

namespace {

/// A pipeline-ish graph: `width` serial resources, each running `depth`
/// compute tasks, with transfers handing off between neighbours (same shape
/// as micro_obs's grid so the numbers are comparable).
TaskGraph make_grid_graph(int width, int depth,
                          std::vector<ResourceId>* compute = nullptr) {
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
        const TaskId t =
            g.add_transfer(tx[i], rx[i + 1], 1 << 16, 25e9, 5e-6, "p2p", 3, pp);
        g.add_dep(t, c);
        prev[i + 1] = t;
      }
    }
  }
  if (compute != nullptr) *compute = gpus;
  return g;
}

}  // namespace

static void BM_LintGraph(benchmark::State& state) {
  std::vector<ResourceId> gpus;
  const TaskGraph g =
      make_grid_graph(static_cast<int>(state.range(0)), 64, &gpus);
  verify::GraphLintOptions options;
  options.serial_programs = gpus;
  for (auto _ : state) {
    const verify::LintReport report = verify::lint_graph(g, options);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.task_count()));
}
BENCHMARK(BM_LintGraph)->Arg(4)->Arg(16)->Arg(64);

static void BM_LintExecution(benchmark::State& state) {
  std::vector<ResourceId> gpus;
  const TaskGraph g =
      make_grid_graph(static_cast<int>(state.range(0)), 64, &gpus);
  const SimResult result = TaskGraphExecutor{}.run(g);
  verify::GraphLintOptions options;
  options.serial_programs = gpus;
  for (auto _ : state) {
    const verify::LintReport report = verify::lint_execution(g, result, options);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.task_count()));
}
BENCHMARK(BM_LintExecution)->Arg(4)->Arg(16)->Arg(64);

static void BM_LintPlan(benchmark::State& state) {
  const net::Topology topo = net::Topology::hybrid_two_clusters(2);
  const core::TrainingPlan plan =
      core::Planner(core::FrameworkConfig::holmes())
          .plan(topo, model::parameter_group(1));
  for (auto _ : state) {
    const verify::LintReport report = core::lint_training_plan(topo, plan);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_LintPlan);

static void BM_PreflightFullRunAndAudit(benchmark::State& state) {
  // lint's post-run audit (core/preflight.h's lint_artifacts): simulate,
  // then audit graph + timings.
  const net::Topology topo = net::Topology::hybrid_two_clusters(1);
  const core::TrainingPlan plan =
      core::Planner(core::FrameworkConfig::holmes())
          .plan(topo, model::parameter_group(1));
  core::SimArtifacts artifacts;
  core::TrainingSimulator{}.run(topo, plan, 2, {}, nullptr, &artifacts);
  for (auto _ : state) {
    const verify::LintReport report = core::lint_artifacts(artifacts);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(artifacts.graph.task_count()));
}
BENCHMARK(BM_PreflightFullRunAndAudit);

static void BM_FlowAnalysis(benchmark::State& state) {
  // The simulation-free HV4xx bounds: longest chain, resource loads, and
  // the in-flight watermark sweep — the pruning pass a strategy search
  // would run per candidate, so it must stay near-linear in tasks.
  const TaskGraph g = make_grid_graph(static_cast<int>(state.range(0)), 64);
  for (auto _ : state) {
    const verify::FlowAnalysis flow = verify::analyze_flow(g);
    benchmark::DoNotOptimize(flow.makespan_bound_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.task_count()));
}
BENCHMARK(BM_FlowAnalysis)->Arg(4)->Arg(16)->Arg(64);

static void BM_LintFlow(benchmark::State& state) {
  const TaskGraph g = make_grid_graph(static_cast<int>(state.range(0)), 64);
  const SimResult result = TaskGraphExecutor{}.run(g);
  for (auto _ : state) {
    const verify::LintReport report = verify::lint_flow(g, result);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.task_count()));
}
BENCHMARK(BM_LintFlow)->Arg(4)->Arg(16)->Arg(64);

static void BM_DeterminismCheck(benchmark::State& state) {
  // One disjoint tie-permutation re-run + bitwise compare against the
  // canonical result per iteration — what each of `holmes_cli check`'s N
  // permutations costs at graph level (core/schedule_check.h).
  const TaskGraph g = make_grid_graph(static_cast<int>(state.range(0)), 64);
  const SimResult canonical = TaskGraphExecutor{}.run(g);
  ExecutorOptions permuted;
  permuted.tie_break = TieBreak::kPermuteDisjoint;
  permuted.tie_seed = 0x484F4C4D4553ull;  // check's base seed, "HOLMES"
  for (auto _ : state) {
    const SimResult result = TaskGraphExecutor{permuted}.run(g);
    benchmark::DoNotOptimize(result.bit_identical(canonical));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.task_count()));
}
BENCHMARK(BM_DeterminismCheck)->Arg(4)->Arg(16);

int main(int argc, char** argv) {
  return holmes::bench::micro_bench_main("micro_verify", argc, argv);
}
