#include "core/run_stats.h"

#include <gtest/gtest.h>

#include <sstream>

#include "optimizer/dp_strategy.h"
#include "util/error.h"

namespace holmes::core {
namespace {

using net::NicType;
using net::Topology;

struct SimRun {
  TrainingPlan plan;
  IterationMetrics metrics;
  SimArtifacts artifacts;
};

SimRun simulate_with_artifacts(const FrameworkConfig& fw, const Topology& topo,
                            int group, int iterations = 3) {
  SimRun run{Planner(fw).plan(topo, model::parameter_group(group)), {}, {}};
  run.metrics = TrainingSimulator{}.run(topo, run.plan, iterations, {},
                                        nullptr, &run.artifacts);
  return run;
}

TEST(ClipWindow, ClipsToTheRunAndRejectsWhatLiesOutside) {
  const obs::Window all = clip_window({}, 40.0);
  EXPECT_DOUBLE_EQ(all.begin, 0.0);
  EXPECT_DOUBLE_EQ(all.end, 40.0);
  const obs::Window tail = clip_window({-5.0, 100.0}, 40.0);
  EXPECT_DOUBLE_EQ(tail.begin, 0.0);
  EXPECT_DOUBLE_EQ(tail.end, 40.0);
  EXPECT_THROW(clip_window({100.0, 200.0}, 40.0), ConfigError);
  EXPECT_THROW(clip_window({40.0, -1.0}, 40.0), ConfigError);
}

TEST(RunStats, RequiresPopulatedArtifacts) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(1));
  const SimArtifacts empty;
  EXPECT_THROW(build_run_summary(topo, plan, {}, empty), Error);
}

TEST(RunStats, SummaryIsPopulatedAndConsistent) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run =
      simulate_with_artifacts(FrameworkConfig::holmes(), topo, 1);
  const obs::RunSummary s =
      build_run_summary(topo, run.plan, run.metrics, run.artifacts);

  EXPECT_EQ(s.schema, std::string(obs::kRunSummarySchema));
  EXPECT_FALSE(s.topology.empty());
  EXPECT_EQ(s.framework, "Holmes");
  EXPECT_EQ(s.iterations, 3);
  EXPECT_GT(s.window_end_s, s.window_begin_s);
  EXPECT_DOUBLE_EQ(s.iteration_s, run.metrics.iteration_time);

  // One entry per device, all meaningfully utilized on this workload.
  ASSERT_EQ(s.devices.size(), static_cast<std::size_t>(topo.world_size()));
  for (const auto& d : s.devices) {
    EXPECT_GT(d.busy_s, 0.0) << d.name;
    EXPECT_GT(d.utilization, 0.0);
    EXPECT_LE(d.utilization, 1.0 + 1e-9);
    EXPECT_GT(d.tasks, 0u);
  }

  // One entry per physical stage; layers cover the whole partition.
  ASSERT_EQ(s.stages.size(),
            static_cast<std::size_t>(run.plan.degrees.pipeline));
  int layer_sum = 0;
  int partition_sum = 0;
  for (const auto& st : s.stages) {
    EXPECT_GT(st.compute_busy_s, 0.0);
    EXPECT_GT(st.span_s, 0.0);
    EXPECT_GE(st.bubble_fraction, 0.0);
    EXPECT_LT(st.bubble_fraction, 1.0);
    layer_sum += st.layers;
  }
  for (int layers : run.plan.partition) partition_sum += layers;
  EXPECT_EQ(layer_sum, partition_sum);

  // Only active links are reported; each carried real traffic.
  EXPECT_FALSE(s.links.empty());
  for (const auto& l : s.links) {
    EXPECT_TRUE(l.busy_s > 0 || l.bytes > 0) << l.name;
  }

  // The DP communicators and pipeline channel show up by name.
  bool saw_dp = false;
  bool saw_pp = false;
  for (const auto& c : s.comms) {
    EXPECT_GT(c.bytes, 0) << c.name;
    EXPECT_GT(c.transfers, 0u);
    if (c.name.rfind("dp", 0) == 0) saw_dp = true;
    if (c.name == "pp") saw_pp = true;
  }
  EXPECT_TRUE(saw_dp);
  EXPECT_EQ(saw_pp, run.plan.degrees.pipeline > 1);

  // Overlap split is an exact partition of the union span.
  EXPECT_NEAR(s.grad_sync.total_s,
              s.grad_sync.overlapped_s + s.grad_sync.exposed_s,
              1e-9 * std::max(1.0, s.grad_sync.total_s));
  EXPECT_GT(s.grad_sync.total_s, 0.0);
}

TEST(RunStats, WindowMatchesSteadyStateIterationTime) {
  const Topology topo = Topology::homogeneous(2, NicType::kRoCE);
  const int iterations = 4;
  const SimRun run = simulate_with_artifacts(FrameworkConfig::holmes(), topo, 1,
                                          iterations);
  const double window =
      run.artifacts.window_end() - run.artifacts.window_begin();
  EXPECT_NEAR(run.metrics.iteration_time, window / (iterations - 1),
              1e-9 * window);
}

TEST(RunStats, MetricsAndSummaryAgreeOnExposedGradSync) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run =
      simulate_with_artifacts(FrameworkConfig::holmes(), topo, 1);
  const obs::RunSummary s =
      build_run_summary(topo, run.plan, run.metrics, run.artifacts);
  EXPECT_NEAR(s.grad_sync.exposed_s, run.metrics.grad_sync_exposed,
              1e-9 * std::max(1.0, run.metrics.grad_sync_exposed));
}

// The paper's Table 5 ablation: with the overlapped distributed optimizer
// the gradient reduce-scatter hides under the backward pass, so its exposed
// wall time must be strictly below the non-overlapped baseline's on the
// hybrid (IB + RoCE) environment.
TEST(RunStats, OverlappedOptimizerExposesLessGradSyncOnHybrid) {
  const Topology topo = Topology::hybrid_two_clusters(2);

  FrameworkConfig overlapped = FrameworkConfig::holmes();
  overlapped.dp_sync = optimizer::DpSyncConfig::overlapped();
  FrameworkConfig sequential = FrameworkConfig::holmes();
  sequential.dp_sync = optimizer::DpSyncConfig::distributed();

  const SimRun with = simulate_with_artifacts(overlapped, topo, 1);
  const SimRun without = simulate_with_artifacts(sequential, topo, 1);

  EXPECT_LT(with.metrics.grad_sync_exposed, without.metrics.grad_sync_exposed);
  // And the hidden time is the dominant share for the overlapped run.
  const obs::RunSummary s =
      build_run_summary(topo, with.plan, with.metrics, with.artifacts);
  EXPECT_GT(s.grad_sync.overlapped_s, 0.0);
  EXPECT_GT(s.grad_sync.overlapped_s, s.grad_sync.exposed_s);
}

TEST(RunStats, SummaryJsonRoundTripIsStable) {
  const Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const SimRun run =
      simulate_with_artifacts(FrameworkConfig::holmes(), topo, 1);
  const obs::RunSummary s =
      build_run_summary(topo, run.plan, run.metrics, run.artifacts);
  std::ostringstream a;
  std::ostringstream b;
  obs::write_json(a, s);
  obs::write_json(b, s);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\":\"holmes.run_summary.v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace holmes::core
