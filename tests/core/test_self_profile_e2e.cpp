/// End-to-end: TrainingSimulator attaches a holmes.self_profile.v3 delta to
/// SimArtifacts, the counters agree with the run's own metrics, and two
/// identical runs produce byte-identical counter JSON (the determinism the
/// `holmes_cli bench` trajectory gate relies on).

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "obs/self_profile.h"

namespace holmes::core {
namespace {

struct ProfiledRun {
  IterationMetrics metrics;
  obs::SelfProfile profile;
};

ProfiledRun profiled_run() {
  const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  obs::SelfProfiler profiler;
  SimArtifacts artifacts;
  ProfiledRun run;
  run.metrics = TrainingSimulator{}.run(topo, plan, 3, {},
                                        /*chrome_trace=*/nullptr, &artifacts);
  EXPECT_TRUE(artifacts.self_profile.has_value());
  run.profile = *artifacts.self_profile;
  return run;
}

TEST(SelfProfileE2E, NotAttachedWithoutProfiler) {
  const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  SimArtifacts artifacts;
  (void)TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &artifacts);
  EXPECT_FALSE(artifacts.self_profile.has_value());
}

TEST(SelfProfileE2E, CountersAgreeWithRunMetrics) {
  const ProfiledRun run = profiled_run();
  const obs::SelfProfileCounters& c = run.profile.counters;
  // Every simulated task was created, pushed ready exactly once and popped
  // exactly once (the run completes, so the graph is acyclic).
  EXPECT_EQ(c.tasks_created, run.metrics.task_count);
  EXPECT_EQ(c.ready_pushes, run.metrics.task_count);
  EXPECT_EQ(c.ready_pops, run.metrics.task_count);
  EXPECT_EQ(c.tasks_created,
            c.compute_tasks + c.transfer_tasks + c.noop_tasks);
  EXPECT_EQ(c.executor_runs, 1u);
  EXPECT_GT(c.deps_added, 0u);
  EXPECT_GT(c.resources_created, 0u);
  EXPECT_GT(c.cost_model_evals, 0u);
  EXPECT_GE(c.max_ready_queue, 1u);
}

TEST(SelfProfileE2E, CountersByteIdenticalAcrossIdenticalRuns) {
  const std::string first = obs::counters_json(profiled_run().profile.counters);
  const std::string second =
      obs::counters_json(profiled_run().profile.counters);
  EXPECT_EQ(first, second);
}

TEST(SelfProfileE2E, PhasesArePresentAndConsistent) {
  const obs::SelfProfilePhases p = profiled_run().profile.phases;
  EXPECT_GT(p.graph_build_s, 0.0);
  EXPECT_GT(p.event_loop_s, 0.0);
  EXPECT_GT(p.accounting_s, 0.0);
  EXPECT_GT(p.total_s, 0.0);
  // The named phases partition a subset of the run: their sum can never
  // exceed the measured total (allow scheduler-tick slack).
  EXPECT_LE(p.graph_build_s + p.event_loop_s + p.accounting_s,
            p.total_s + 1e-3);
}

TEST(SelfProfileE2E, DeltaIsolatesEachRunUnderOneProfiler) {
  const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  obs::SelfProfiler profiler;
  SimArtifacts first;
  SimArtifacts second;
  (void)TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &first);
  (void)TrainingSimulator{}.run(topo, plan, 3, {}, nullptr, &second);
  ASSERT_TRUE(first.self_profile.has_value());
  ASSERT_TRUE(second.self_profile.has_value());
  // Each run's attached profile is its own delta, not the running total.
  EXPECT_EQ(obs::counters_json(first.self_profile->counters),
            obs::counters_json(second.self_profile->counters));
}

TEST(SelfProfileE2E, WriteJsonCarriesRunCounters) {
  const ProfiledRun run = profiled_run();
  std::ostringstream out;
  obs::write_json(out, run.profile);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"schema\":\"holmes.self_profile.v3\""),
            std::string::npos);
  std::ostringstream expected;
  expected << "\"tasks_created\":" << run.metrics.task_count;
  EXPECT_NE(doc.find(expected.str()), std::string::npos);
}

}  // namespace
}  // namespace holmes::core
