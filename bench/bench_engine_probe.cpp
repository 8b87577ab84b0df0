/// Engine probe: fixed, fully deterministic engine scenarios whose
/// self-profile counters become bench metrics.
///
/// Unlike the experiment benches (whose metrics are simulated seconds) and
/// the micro benches (whose metrics are noisy wall times), the probe's
/// counter metrics — tasks created, ready-queue pops, cost-model calls —
/// are exact integers that change only when the engine's structure
/// changes. That makes it the anchor of the
/// `holmes_cli bench` trajectory: a diff on these metrics is a real
/// behavioral change, never noise, so the CI gate can hold them to zero
/// drift while the wall-time metrics get a noise floor.
///
/// Two sections, each under its own SelfProfiler so the counters do not
/// bleed into one another:
///   1. the paper's hybrid IB+RoCE environment (2 nodes, parameter group 1,
///      3 iterations) planned by the Holmes framework — the original probe;
///   2. the GPT-3-scale synthetic stress graph (bench/synthetic_graph.h,
///      ~110k tasks) through the raw TaskGraphExecutor — a 100k+-task
///      iteration measured directly.

#include <iostream>

#include "bench_json.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "model/gpt_zoo.h"
#include "obs/self_profile.h"
#include "synthetic_graph.h"
#include "util/units.h"

using namespace holmes;
using namespace holmes::core;

int main(int argc, char** argv) {
  bench::BenchReport report("engine_probe", argc, argv);
  report.run_timed([&] {
    const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
    const Planner planner(FrameworkConfig::holmes());
    const TrainingPlan plan = planner.plan(topo, model::parameter_group(1));

    obs::SelfProfiler profiler;
    SimArtifacts artifacts;
    const IterationMetrics metrics =
        TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &artifacts);

    const obs::SelfProfile& profile = *artifacts.self_profile;
    const obs::SelfProfileCounters& c = profile.counters;
    report.set("counters/tasks_created", static_cast<double>(c.tasks_created));
    report.set("counters/compute_tasks", static_cast<double>(c.compute_tasks));
    report.set("counters/transfer_tasks",
               static_cast<double>(c.transfer_tasks));
    report.set("counters/noop_tasks", static_cast<double>(c.noop_tasks));
    report.set("counters/deps_added", static_cast<double>(c.deps_added));
    report.set("counters/resources_created",
               static_cast<double>(c.resources_created));
    report.set("counters/channels_created",
               static_cast<double>(c.channels_created));
    report.set("counters/executor_runs", static_cast<double>(c.executor_runs));
    report.set("counters/ready_pushes", static_cast<double>(c.ready_pushes));
    report.set("counters/ready_pops", static_cast<double>(c.ready_pops));
    report.set("counters/max_ready_queue",
               static_cast<double>(c.max_ready_queue));
    report.set("counters/cost_model_evals",
               static_cast<double>(c.cost_model_evals));
    report.set("iteration_time_s", metrics.iteration_time);
    report.set("task_count", static_cast<double>(metrics.task_count));

    std::cout << "engine probe: hybrid:2 group 1, " << c.tasks_created
              << " tasks, " << c.ready_pops << " pops, "
              << c.cost_model_evals << " cost-model evals, iteration "
              << format_time(metrics.iteration_time) << "\n";
    obs::print_text(std::cout, profile);

    // GPT-3-scale stress: the synthetic ~110k-task iteration graph through
    // the raw executor. Its pop count and peak queue depth anchor the hot
    // path's structure; its makespan anchors the simulated semantics.
    {
      obs::SelfProfiler stress_profiler;
      sim::TaskGraph graph;
      const std::size_t tasks =
          bench::build_training_graph(graph, bench::gpt3_scale_spec());
      const sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
      const obs::SelfProfileCounters& g =
          stress_profiler.snapshot().counters;
      report.set("gpt3/task_count", static_cast<double>(tasks));
      report.set("gpt3/deps_added", static_cast<double>(g.deps_added));
      report.set("gpt3/ready_pops", static_cast<double>(g.ready_pops));
      report.set("gpt3/max_ready_queue",
                 static_cast<double>(g.max_ready_queue));
      report.set("gpt3/makespan_s", result.makespan());
      std::cout << "gpt3 stress: " << tasks << " tasks, " << g.ready_pops
                << " pops, peak queue " << g.max_ready_queue << ", makespan "
                << format_time(result.makespan()) << "\n";
    }
  });
  return report.write();
}
