/// Engine probe: the GPT-3-scale synthetic stress graph
/// (bench/synthetic_graph.h, ~110k tasks) through the raw TaskGraphExecutor
/// under a SelfProfiler, its self-profile counters exported as bench
/// metrics.
///
/// Unlike the experiment benches (whose metrics are simulated seconds) and
/// the micro benches (whose metrics are noisy wall times), the probe's
/// counter metrics — dependencies added, ready-queue pops, peak queue depth
/// — are exact integers that change only when the engine's structure
/// changes, and its makespan changes only when the simulated semantics do.
/// The paper's hybrid environment is probed in process by `holmes_cli
/// bench` (`cli_probe`), which feeds the committed baseline; this binary
/// covers the 100k+-task scale that probe does not reach.

#include <iostream>

#include "bench_json.h"
#include "obs/self_profile.h"
#include "sim/executor.h"
#include "synthetic_graph.h"
#include "util/units.h"

using namespace holmes;

int main(int argc, char** argv) {
  bench::BenchReport report("engine_probe", argc, argv);
  report.run_timed([&] {
    obs::SelfProfiler profiler;
    sim::TaskGraph graph;
    const std::size_t tasks =
        bench::build_training_graph(graph, bench::gpt3_scale_spec());
    const sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
    const obs::SelfProfileCounters& g = profiler.snapshot().counters;
    report.set("gpt3/task_count", static_cast<double>(tasks));
    report.set("gpt3/deps_added", static_cast<double>(g.deps_added));
    report.set("gpt3/ready_pops", static_cast<double>(g.ready_pops));
    report.set("gpt3/max_ready_queue", static_cast<double>(g.max_ready_queue));
    report.set("gpt3/makespan_s", result.makespan());
    std::cout << "gpt3 stress: " << tasks << " tasks, " << g.ready_pops
              << " pops, peak queue " << g.max_ready_queue << ", makespan "
              << format_time(result.makespan()) << "\n";
  });
  return report.write();
}
