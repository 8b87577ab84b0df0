/// The engine against the naive reference scheduler
/// (tests/sim/reference_executor.h) on real lowered training graphs: the 36
/// engine-equivalence configs and two faulted runs, one of them with a NIC
/// window that stretches transfer occupancy. The goldens prove these runs
/// are stable; this proves each placement follows the documented formula.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "../sim/reference_executor.h"
#include "core/experiment.h"
#include "core/faults.h"
#include "core/framework.h"
#include "core/plan.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology.h"

#ifndef HOLMES_FAULT_FIXTURE_DIR
#error "tests/CMakeLists.txt must define HOLMES_FAULT_FIXTURE_DIR"
#endif

namespace holmes::core {
namespace {

/// Lowers `group` under `framework` on `topo` (three iterations, as the
/// CLI runs it) and expects the engine and the reference to agree.
void expect_engine_matches_reference(const net::Topology& topo, int group,
                                     const FrameworkConfig& framework,
                                     const Perturbations& perturb = {},
                                     bool expect_rates = false) {
  const TrainingPlan plan =
      Planner(framework).plan(topo, model::parameter_group(group));
  const SimArtifacts lowered =
      TrainingSimulator().lower(topo, plan, 3, perturb);
  ASSERT_EQ(lowered.rates.empty(), !expect_rates);
  const sim::RateTimeline* rates =
      lowered.rates.empty() ? nullptr : &lowered.rates;
  const sim::SimResult engine = TrainingSimulator::execute(lowered, {});
  EXPECT_TRUE(
      engine.bit_identical(sim::testing::reference_run(lowered.graph, rates)))
      << lowered.graph.task_count() << " tasks";
}

TEST(ReferenceExecutor, MatchesEngineOnTheEquivalenceConfigs) {
  for (NicEnv env : {NicEnv::kInfiniBand, NicEnv::kRoCE, NicEnv::kEthernet,
                     NicEnv::kHybrid}) {
    const net::Topology topo = make_environment(env, 2);
    for (int group : {1, 2, 3}) {
      for (const FrameworkConfig& framework :
           {FrameworkConfig::holmes(), FrameworkConfig::megatron_lm(),
            FrameworkConfig::megatron_deepspeed()}) {
        SCOPED_TRACE(to_string(env) + " group " + std::to_string(group) +
                     " " + framework.name);
        expect_engine_matches_reference(topo, group, framework);
      }
    }
  }
}

FaultPlan read_fixture(const std::string& name) {
  std::ifstream in(std::string(HOLMES_FAULT_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  return parse_fault_plan(std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()));
}

TEST(ReferenceExecutor, MatchesEngineUnderTheStragglerFixture) {
  // hybrid:2 group 1, the RoCE cluster's first node at half speed.
  const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
  expect_engine_matches_reference(
      topo, 1, FrameworkConfig::holmes(),
      lower_fault_plan(read_fixture("hybrid_straggler.fault_plan.json"), topo));
}

TEST(ReferenceExecutor, MatchesEngineUnderTheNodeLossFixture) {
  // hybrid group 1: its NIC window halves cluster 0's bandwidth on [5, 9),
  // so the rate timeline stretches the transfers it overlaps.
  const net::Topology topo = make_environment(NicEnv::kHybrid, 4);
  expect_engine_matches_reference(
      topo, 1, FrameworkConfig::holmes(),
      lower_fault_plan(read_fixture("hybrid_node_loss.fault_plan.json"), topo),
      /*expect_rates=*/true);
}

}  // namespace
}  // namespace holmes::core
