#include "core/perturbation.h"

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace holmes::core {
namespace {

using net::NicType;
using net::Topology;

IterationMetrics simulate(const Topology& topo, const Perturbations& perturb,
                          int group = 1) {
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(group));
  return TrainingSimulator{}.run(topo, plan, 3, perturb);
}

TEST(Perturbation, EmptyPerturbationMatchesBaseline) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const IterationMetrics base = simulate(topo, {});
  Perturbations none;
  const IterationMetrics same = simulate(topo, none);
  EXPECT_DOUBLE_EQ(base.iteration_time, same.iteration_time);
}

TEST(Perturbation, StragglerSlowsTheWholePipeline) {
  // One straggler GPU gates its stage, whose cadence gates the iteration —
  // the synchronous-training pathology the paper's future work targets.
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const IterationMetrics base = simulate(topo, {});
  Perturbations straggler;
  straggler.device_slowdown[3] = 1.5;
  const IterationMetrics slow = simulate(topo, straggler);
  EXPECT_GT(slow.iteration_time, base.iteration_time * 1.15);
}

TEST(Perturbation, SlowdownFactorScalesImpact) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  Perturbations mild, severe;
  mild.device_slowdown[0] = 1.2;
  severe.device_slowdown[0] = 2.0;
  EXPECT_GT(simulate(topo, severe).iteration_time,
            simulate(topo, mild).iteration_time);
}

TEST(Perturbation, NicDegradationSlowsTheRunReproducibly) {
  // A quarter-speed window on the RoCE cluster's ports stretches its
  // transfers: the run slows, and re-running it reproduces the same time.
  const Topology topo = Topology::hybrid_two_clusters(2);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  Perturbations degraded;
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 0.0;
  window.end_s = 30.0;
  window.bandwidth_factor = 0.25;
  degraded.nic_degradation.push_back(window);
  const IterationMetrics clean = TrainingSimulator{}.run(topo, plan, 2);
  const IterationMetrics slow = TrainingSimulator{}.run(topo, plan, 2, degraded);
  EXPECT_GT(slow.iteration_time, clean.iteration_time);
  EXPECT_DOUBLE_EQ(
      TrainingSimulator{}.run(topo, plan, 2, degraded).iteration_time,
      slow.iteration_time);
}

TEST(Perturbation, FactorHelper) {
  Perturbations p;
  p.device_slowdown[7] = 2.0;
  EXPECT_EQ(p.factor(0), 1.0);
  EXPECT_EQ(p.factor(7), 2.0);
}

TEST(Perturbation, SpeedAwareRepartitionRecoversStragglerLoss) {
  // Future-work demo: when a whole stage is slow (e.g. thermally throttled
  // cluster), re-running the proportional partition with *measured* stage
  // speeds recovers part of the loss — the self-adapting machinery
  // generalizes beyond NIC classes.
  Topology topo = Topology::hybrid_two_clusters(2);
  const model::ParameterGroup& g = model::parameter_group(1);
  Perturbations straggler;
  for (int r = 16; r < 32; ++r) straggler.device_slowdown[r] = 2.0;

  const Planner planner(FrameworkConfig::holmes());
  TrainingPlan plan = planner.plan(topo, g);
  const IterationMetrics unaware = TrainingSimulator{}.run(topo, plan, 3, straggler);

  // Re-balance layers with the observed speeds (stage 1 runs 2x slower).
  TrainingPlan aware = plan;
  aware.partition = pipeline::proportional_partition(
      g.config.layers, {1.0, 1.0 / 2.0}, 1.0);
  const IterationMetrics tuned = TrainingSimulator{}.run(topo, aware, 3, straggler);
  EXPECT_GT(tuned.throughput, unaware.throughput * 1.05);
}

}  // namespace
}  // namespace holmes::core
