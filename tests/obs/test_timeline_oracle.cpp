/// The timeline library against the naive oracle (timeline_oracle.h) on
/// real lowered training graphs: every resource series, channel bucket,
/// cumulative sample, peak, class curve and rate overlay, at bucket counts
/// 1, 7, 48 and 10,000, over the whole run and a clipped window.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/experiment.h"
#include "core/faults.h"
#include "core/framework.h"
#include "core/plan.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"
#include "net/topology_parse.h"
#include "timeline_oracle.h"

namespace holmes::obs {
namespace {

using testing::expect_matches_naive;
using testing::naive_timeline;
using testing::NaiveTimeline;

/// Simulates `group` on `topo` under the Holmes plan, as `holmes_cli
/// timeline` does (three iterations), with `perturb` active.
core::SimArtifacts lowered_run(const net::Topology& topo, int group,
                               const core::Perturbations& perturb = {}) {
  const core::TrainingPlan plan =
      core::Planner(core::FrameworkConfig::holmes())
          .plan(topo, model::parameter_group(group));
  core::SimArtifacts artifacts;
  core::TrainingSimulator().run(topo, plan, 3, perturb, nullptr, &artifacts);
  return artifacts;
}

/// Compares the library with the oracle over the whole run and over the
/// run's middle [25%, 60%).
void expect_run_matches_naive(const core::SimArtifacts& artifacts) {
  const sim::RateTimeline* rates =
      artifacts.rates.empty() ? nullptr : &artifacts.rates;
  const sim::SimResult& result = *artifacts.result;
  const ResourceClassifier classify = [&](sim::ResourceId resource) {
    return artifacts.ports.resource_class(resource);
  };
  const NaiveTimeline naive =
      naive_timeline(artifacts.graph, result, classify, rates);
  {
    SCOPED_TRACE("whole run");
    expect_matches_naive(naive, artifacts.graph, result, {}, classify, rates);
  }
  {
    SCOPED_TRACE("clipped window");
    TimelineOptions clipped;
    clipped.window = Window{0.25 * result.makespan(), 0.6 * result.makespan()};
    expect_matches_naive(naive, artifacts.graph, result, clipped, classify,
                         rates);
  }
}

TEST(TimelineOracle, HybridTwoNodesGroup1) {
  expect_run_matches_naive(
      lowered_run(core::make_environment(core::NicEnv::kHybrid, 2), 1));
}

TEST(TimelineOracle, RoceFourNodesGroup4) {
  expect_run_matches_naive(
      lowered_run(core::make_environment(core::NicEnv::kRoCE, 4), 4));
}

TEST(TimelineOracle, TwoClusterSpecGroup7) {
  expect_run_matches_naive(
      lowered_run(net::parse_topology("2x8:ib+2x8:roce"), 7));
}

TEST(TimelineOracle, NodeLossFixtureOverlaysAndStretchedOccupancy) {
  // The fixture's NIC window halves cluster 0's bandwidth on [5, 9): each
  // degraded port gets a rate overlay, and the transfers it stretches
  // hold their ports longer.
  std::ifstream in(std::string(HOLMES_FAULT_FIXTURE_DIR) +
                   "/hybrid_node_loss.fault_plan.json");
  ASSERT_TRUE(in);
  const core::FaultPlan plan = core::parse_fault_plan(
      std::string(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()));
  const net::Topology topo = core::make_environment(core::NicEnv::kHybrid, 4);
  const core::SimArtifacts artifacts =
      lowered_run(topo, 1, core::lower_fault_plan(plan, topo));
  ASSERT_FALSE(artifacts.rates.empty());
  expect_run_matches_naive(artifacts);
}

}  // namespace
}  // namespace holmes::obs
