#include "core/timeline_report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/faults.h"
#include "core/plan.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "sim/executor.h"
#include "util/error.h"
#include "verify/rules.h"

namespace holmes::core {
namespace {

using net::Topology;

struct SimRun {
  TrainingPlan plan;
  IterationMetrics metrics;
  SimArtifacts artifacts;
};

SimRun simulate(const Topology& topo, int group,
                const Perturbations& perturb = {},
                const sim::ExecutorOptions* exec = nullptr) {
  SimRun run{Planner(FrameworkConfig::holmes()).plan(topo,
                                                     model::parameter_group(group)),
             {},
             {}};
  TrainingSimulator simulator;
  if (exec != nullptr) simulator.set_executor_options(*exec);
  run.metrics =
      simulator.run(topo, run.plan, 2, perturb, nullptr, &run.artifacts);
  return run;
}

std::string timeline_json(const SimRun& run, const Topology& topo,
                          const TimelineReportOptions& options = {}) {
  const TimelineSummary summary = build_timeline_summary(
      topo, run.plan, run.metrics, run.artifacts, options);
  std::ostringstream out;
  write_timeline_json(out, summary);
  return out.str();
}

TEST(TimelineReport, DisjointTieSeedsAreByteIdentical) {
  // kPermuteDisjoint reorders only placement decisions that commute, so the
  // executed timings — and with them every timeline byte — must not move.
  const Topology topo = Topology::hybrid_two_clusters(2);
  sim::ExecutorOptions a_opts;
  a_opts.tie_break = sim::TieBreak::kPermuteDisjoint;
  a_opts.tie_seed = 0x11;
  sim::ExecutorOptions b_opts = a_opts;
  b_opts.tie_seed = 0x5EEDBEEF;
  const SimRun base = simulate(topo, 1);
  const SimRun a = simulate(topo, 1, {}, &a_opts);
  const SimRun b = simulate(topo, 1, {}, &b_opts);
  const std::string golden = timeline_json(base, topo);
  EXPECT_EQ(golden, timeline_json(a, topo));
  EXPECT_EQ(golden, timeline_json(b, topo));
}

TEST(TimelineReport, FabricSaturationLintFiresOnHybridOnly) {
  // hybrid: the Ethernet fallback fabric is >= 50% busy for ~21.7% of the
  // run — past the 20% warning bar. Homogeneous IB has no Ethernet class at
  // all, so HV406 stays silent (but checked) there.
  TimelineReportOptions options;
  options.saturation_threshold = 0.5;
  options.saturation_warn_share = 0.2;

  const Topology hybrid = Topology::hybrid_two_clusters(2);
  const SimRun hybrid_run = simulate(hybrid, 1);
  const TimelineSummary hot = build_timeline_summary(
      hybrid, hybrid_run.plan, hybrid_run.metrics, hybrid_run.artifacts,
      options);
  EXPECT_TRUE(hot.lint.fired(verify::kRuleFabricSaturation));

  const Topology ib = Topology::homogeneous(2, net::NicType::kInfiniBand);
  const SimRun ib_run = simulate(ib, 1);
  const TimelineSummary cold = build_timeline_summary(
      ib, ib_run.plan, ib_run.metrics, ib_run.artifacts, options);
  EXPECT_FALSE(cold.lint.fired(verify::kRuleFabricSaturation));
  EXPECT_TRUE(cold.lint.ok());
}

TEST(TimelineReport, WindowOverrideClipsTheObservation) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run = simulate(topo, 1);
  const double makespan = run.artifacts.result->makespan();
  TimelineReportOptions options;
  options.window = {0.0, makespan / 2};
  const TimelineSummary summary = build_timeline_summary(
      topo, run.plan, run.metrics, run.artifacts, options);
  EXPECT_DOUBLE_EQ(summary.timeline.window.begin, 0.0);
  EXPECT_DOUBLE_EQ(summary.timeline.window.end, makespan / 2);
  // An empty window is a configuration error, not a silent zero report.
  TimelineReportOptions empty;
  empty.window = {5.0, 5.0};
  EXPECT_THROW(build_timeline_summary(topo, run.plan, run.metrics,
                                      run.artifacts, empty),
               ConfigError);
}

TEST(TimelineReport, FaultPlanRatesProduceOverlays) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  FaultPlan plan;
  NicDegradation degraded;
  degraded.cluster = 1;
  degraded.begin_s = 1.0;
  degraded.end_s = 10.0;
  degraded.bandwidth_factor = 0.5;
  plan.nic_degradation.push_back(degraded);
  const Perturbations perturb = lower_fault_plan(plan, topo);
  const SimRun run = simulate(topo, 1, perturb);
  ASSERT_FALSE(run.artifacts.rates.empty());
  const TimelineSummary summary = build_timeline_summary(
      topo, run.plan, run.metrics, run.artifacts);
  EXPECT_FALSE(summary.timeline.overlays.empty());
  for (const obs::RateOverlay& overlay : summary.timeline.overlays) {
    EXPECT_GT(overlay.degraded_total, 0.0) << overlay.name;
    EXPECT_LT(overlay.effective.values()[1], 1.0);
  }
}

TEST(TimelineReport, JsonCarriesSchemaAndIdentity) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run = simulate(topo, 1);
  const std::string json = timeline_json(run, topo);
  EXPECT_NE(json.find("\"schema\":\"holmes.timeline.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"resources\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\""), std::string::npos);
  EXPECT_NE(json.find("\"top_talkers\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');  // no trailing newline
}

}  // namespace
}  // namespace holmes::core
