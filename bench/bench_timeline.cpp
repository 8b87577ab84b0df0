/// Timeline extraction at production scale: the GPT-3-scale synthetic
/// stress graph (~110k tasks, bench/synthetic_graph.h) is simulated once,
/// then the bench derives everything `holmes_cli timeline --json` derives
/// from an executed run: obs::extract_timeline (accounting aggregates,
/// bucketed channel curves, class saturation intervals, top talkers) plus
/// every resource's occupancy and queue-depth series from an
/// obs::ResourceSeriesIndex, bucketed as the document writes them.
///
/// The acceptance bar from the observability roadmap: that work should
/// cost under 5% of the simulation wall it describes, so `holmes_cli
/// timeline` can be bolted onto any run without changing what is being
/// measured. The denominator is the simulation leg — graph build + event
/// loop. The bench records every leg, the ratio as `extract_vs_sim_ratio`,
/// and the budget verdict as `extract_within_5pct`; CI and `holmes_cli
/// bench` track them like any other holmes.bench.v1 metric.
/// `series_breakpoints` (every resource's busy and queue series plus the
/// class busy-port curves) anchors the extraction's structure: an exact
/// integer that moves only when the engine's schedule (or the extractor)
/// changes.

#include <chrono>
#include <cstddef>
#include <iostream>

#include "bench_json.h"
#include "obs/timeline.h"
#include "sim/executor.h"
#include "synthetic_graph.h"
#include "util/units.h"

using namespace holmes;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The CLI's default resolution.
constexpr int kBuckets = 48;

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("timeline", argc, argv);
  report.run_timed([&] {
    const auto build_t0 = std::chrono::steady_clock::now();
    sim::TaskGraph graph;
    const std::size_t tasks =
        bench::build_training_graph(graph, bench::gpt3_scale_spec());
    const double build_s = seconds_since(build_t0);

    const auto sim_t0 = std::chrono::steady_clock::now();
    const sim::SimResult result = sim::TaskGraphExecutor{}.run(graph);
    const double sim_s = seconds_since(sim_t0);

    obs::TimelineOptions options;
    options.buckets = kBuckets;
    const auto extract_t0 = std::chrono::steady_clock::now();
    const obs::Timeline timeline =
        obs::extract_timeline(graph, result, options);
    const double extract_s = seconds_since(extract_t0);

    const auto curves_t0 = std::chrono::steady_clock::now();
    std::size_t breakpoints = 0;
    {
      const obs::ResourceSeriesIndex index(graph, result);
      for (const obs::ResourceTimeline& res : timeline.resources) {
        const obs::ResourceSeries series = index.series(res.id);
        breakpoints += series.busy.breakpoints() + series.queue.breakpoints();
        for (const obs::StepSeries* s : {&series.busy, &series.queue}) {
          s->bucketize(timeline.window.begin, timeline.window.end, kBuckets);
        }
      }
    }
    const double curves_s = seconds_since(curves_t0);
    for (const obs::ClassTimeline& cls : timeline.classes) {
      breakpoints += cls.busy_ports.breakpoints();
    }

    const double sim_leg_s = build_s + sim_s;
    const double timeline_s = extract_s + curves_s;
    const double ratio = sim_leg_s > 0 ? timeline_s / sim_leg_s : 0.0;
    const bool within_budget = ratio < 0.05;

    report.set("task_count", static_cast<double>(tasks));
    report.set("makespan_s", result.makespan());
    report.set("resources", static_cast<double>(timeline.resources.size()));
    report.set("channels", static_cast<double>(timeline.channels.size()));
    report.set("classes", static_cast<double>(timeline.classes.size()));
    report.set("top_talkers", static_cast<double>(timeline.top_talkers.size()));
    report.set("series_breakpoints", static_cast<double>(breakpoints));
    report.set("graph_build_wall_s", build_s);
    report.set("sim_wall_s", sim_s);
    report.set("sim_leg_wall_s", sim_leg_s);
    report.set("extract_wall_s", extract_s);
    report.set("resource_curves_wall_s", curves_s);
    report.set("extract_vs_sim_ratio", ratio);
    report.set("extract_within_5pct", within_budget ? 1.0 : 0.0);

    std::cout << "timeline extraction: " << tasks << " tasks, makespan "
              << format_time(result.makespan()) << "\n"
              << "  graph build       " << format_time(build_s) << "\n"
              << "  sim (event loop)  " << format_time(sim_s) << "\n"
              << "  extract           " << format_time(extract_s) << "\n"
              << "  resource curves   " << format_time(curves_s) << "\n"
              << "  timeline total    " << format_time(timeline_s) << "  ("
              << static_cast<int>(ratio * 1000) / 10.0
              << "% of the sim leg)\n"
              << "  " << timeline.resources.size() << " resources, "
              << timeline.channels.size() << " channels, " << breakpoints
              << " breakpoints\n"
              << "  budget (<5% of sim): "
              << (within_budget ? "within" : "EXCEEDED") << "\n";
  });
  return report.write();
}
