/// Timeline extraction at production scale: the GPT-3-scale synthetic
/// stress graph (~110k tasks, bench/synthetic_graph.h) is simulated once,
/// then obs::extract_timeline pulls the full time-resolved telemetry —
/// every per-resource occupancy and queue series, per-channel byte curves,
/// class saturation intervals and the top-talker ranking.
///
/// The acceptance bar from the observability roadmap: extraction should
/// cost under 5% of the simulation wall it describes, so `holmes_cli
/// timeline` can be bolted onto any run without changing what is being
/// measured. The denominator is the self-profile's simulation leg — graph
/// build + event loop + accounting (the accounting pass is shared: its
/// aggregates are handed to extraction via TimelineOptions, exactly as the
/// CLI reuses them). The bench records every leg, the extraction ratio as
/// `extract_vs_sim_ratio`, and the budget verdict as `extract_within_5pct`;
/// CI and `holmes_cli bench` track them like any other holmes.bench.v1
/// metric. Breakpoint totals anchor the extraction's structure: they are
/// exact integers that move only when the engine's schedule (or the
/// extractor) changes.

#include <chrono>
#include <cstddef>
#include <iostream>

#include "bench_json.h"
#include "obs/accounting.h"
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

std::size_t total_breakpoints(const obs::Timeline& t) {
  std::size_t total = 0;
  for (const obs::ResourceTimeline& res : t.resources) {
    total += res.busy.breakpoints() + res.queue.breakpoints();
  }
  for (const obs::ChannelTimeline& chan : t.channels) {
    total += chan.in_flight.breakpoints() + chan.cumulative.breakpoints();
  }
  for (const obs::ClassTimeline& cls : t.classes) {
    total += cls.busy_ports.breakpoints();
  }
  return total;
}

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

    const obs::Window window{0.0, result.makespan()};
    const auto acct_t0 = std::chrono::steady_clock::now();
    const std::vector<obs::ResourceAccount> accounts =
        obs::account_resources(graph, result, window);
    const std::vector<obs::ChannelAccount> channels =
        obs::account_channels(graph, result, window);
    const double acct_s = seconds_since(acct_t0);

    obs::TimelineOptions options;
    options.resource_accounts = &accounts;
    options.channel_accounts = &channels;
    const auto extract_t0 = std::chrono::steady_clock::now();
    const obs::Timeline timeline =
        obs::extract_timeline(graph, result, options);
    const double extract_s = seconds_since(extract_t0);

    const double sim_leg_s = build_s + sim_s + acct_s;
    const double ratio = sim_leg_s > 0 ? extract_s / sim_leg_s : 0.0;
    const bool within_budget = ratio < 0.05;

    report.set("task_count", static_cast<double>(tasks));
    report.set("makespan_s", result.makespan());
    report.set("resources", static_cast<double>(timeline.resources.size()));
    report.set("channels", static_cast<double>(timeline.channels.size()));
    report.set("classes", static_cast<double>(timeline.classes.size()));
    report.set("top_talkers", static_cast<double>(timeline.top_talkers.size()));
    report.set("breakpoints", static_cast<double>(total_breakpoints(timeline)));
    report.set("graph_build_wall_s", build_s);
    report.set("sim_wall_s", sim_s);
    report.set("accounting_wall_s", acct_s);
    report.set("sim_leg_wall_s", sim_leg_s);
    report.set("extract_serial_wall_s", extract_s);
    report.set("extract_vs_sim_ratio", ratio);
    report.set("extract_within_5pct", within_budget ? 1.0 : 0.0);

    std::cout << "timeline extraction: " << tasks << " tasks, makespan "
              << format_time(result.makespan()) << "\n"
              << "  graph build       " << format_time(build_s) << "\n"
              << "  sim (event loop)  " << format_time(sim_s) << "\n"
              << "  accounting        " << format_time(acct_s) << "\n"
              << "  extract           " << format_time(extract_s) << "  ("
              << static_cast<int>(ratio * 1000) / 10.0
              << "% of the sim leg)\n"
              << "  " << timeline.resources.size() << " resources, "
              << timeline.channels.size() << " channels, "
              << total_breakpoints(timeline) << " breakpoints\n"
              << "  budget (<5% of sim): "
              << (within_budget ? "within" : "EXCEEDED") << "\n";
  });
  return report.write();
}
