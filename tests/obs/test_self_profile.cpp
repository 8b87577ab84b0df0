#include "obs/self_profile.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/executor.h"
#include "sim/task_graph.h"
#include "util/json.h"

namespace holmes::obs {
namespace {

namespace prof = self_profile;

/// A small fixed workload: diamond graph on two resources, so every graph
/// and ready-queue counter has a deterministic non-zero value.
void run_fixed_workload() {
  sim::TaskGraph g;
  const sim::ResourceId r0 = g.add_resource("r0");
  const sim::ResourceId r1 = g.add_resource("r1");
  (void)g.channel("chan");
  (void)g.channel("chan");  // existing name: no new channel
  const sim::TaskId a = g.add_compute(r0, 1e-3, "a");
  const sim::TaskId b = g.add_compute(r1, 2e-3, "b");
  const sim::TaskId t =
      g.add_transfer(r0, r1, 1 << 20, 1e9, 1e-6, "t", sim::TaskTag{});
  const sim::TaskId join = g.add_noop("join");
  g.add_dep(t, a);
  g.add_dep(join, t);
  g.add_dep(join, b);
  (void)sim::TaskGraphExecutor{}.run(g);
}

TEST(SelfProfile, DisabledHooksCountNothing) {
  ASSERT_FALSE(prof::enabled());
  run_fixed_workload();  // no profiler active: must not crash, counts nowhere
  SelfProfiler profiler;
  const SelfProfile snap = profiler.snapshot();
  EXPECT_EQ(snap.counters.tasks_created, 0u);
  EXPECT_EQ(snap.counters.ready_pops, 0u);
}

TEST(SelfProfile, CountersMatchWorkloadStructure) {
  SelfProfiler profiler;
  ASSERT_TRUE(prof::enabled());
  run_fixed_workload();
  const SelfProfileCounters& c = profiler.snapshot().counters;
  EXPECT_EQ(c.tasks_created, 4u);
  EXPECT_EQ(c.compute_tasks, 2u);
  EXPECT_EQ(c.transfer_tasks, 1u);
  EXPECT_EQ(c.noop_tasks, 1u);
  EXPECT_EQ(c.deps_added, 3u);
  EXPECT_EQ(c.resources_created, 2u);
  EXPECT_EQ(c.channels_created, 1u);  // second channel("chan") reuses it
  EXPECT_EQ(c.executor_runs, 1u);
  EXPECT_EQ(c.ready_pushes, 4u);
  EXPECT_EQ(c.ready_pops, 4u);
  EXPECT_GE(c.max_ready_queue, 2u);  // a and b are ready together
}

TEST(SelfProfile, CountersJsonIsByteIdenticalAcrossIdenticalRuns) {
  std::string first;
  std::string second;
  {
    SelfProfiler profiler;
    run_fixed_workload();
    first = counters_json(profiler.snapshot().counters);
  }
  {
    SelfProfiler profiler;
    run_fixed_workload();
    second = counters_json(profiler.snapshot().counters);
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"tasks_created\":4"), std::string::npos);
}

TEST(SelfProfile, ProfilersNestAndRestore) {
  SelfProfiler outer;
  run_fixed_workload();
  {
    SelfProfiler inner;
    run_fixed_workload();
    EXPECT_EQ(inner.snapshot().counters.tasks_created, 4u);
  }
  run_fixed_workload();
  // The outer profiler missed the inner scope's work.
  EXPECT_EQ(outer.snapshot().counters.tasks_created, 8u);
}

TEST(SelfProfile, PhaseTimerAccumulatesAndStopsOnce) {
  SelfProfiler profiler;
  {
    prof::PhaseTimer timer(&SelfProfilePhases::graph_build_s);
    run_fixed_workload();
    timer.stop();
    timer.stop();  // idempotent: second stop adds nothing
  }
  const double first = profiler.snapshot().phases.graph_build_s;
  EXPECT_GT(first, 0.0);
  {
    prof::PhaseTimer timer(&SelfProfilePhases::graph_build_s);
    timer.stop();
  }
  const double second = profiler.snapshot().phases.graph_build_s;
  EXPECT_GE(second, first);  // accumulates, never resets
}

TEST(SelfProfile, DeltaSubtractsCountsAndKeepsGauge) {
  SelfProfiler profiler;
  run_fixed_workload();
  const SelfProfile before = profiler.snapshot();
  run_fixed_workload();
  const SelfProfile after = profiler.snapshot();
  const SelfProfile d = delta(before, after);
  EXPECT_EQ(d.counters.tasks_created, 4u);
  EXPECT_EQ(d.counters.ready_pops, 4u);
  // Gauge and RSS come from `after` as-is.
  EXPECT_EQ(d.counters.max_ready_queue, after.counters.max_ready_queue);
  EXPECT_EQ(d.peak_rss_bytes, after.peak_rss_bytes);
}

TEST(SelfProfile, SnapshotStampsPeakRss) {
  SelfProfiler profiler;
  EXPECT_GT(profiler.snapshot().peak_rss_bytes, 0);
}

TEST(SelfProfile, WriteJsonEmitsStableSchema) {
  SelfProfiler profiler;
  run_fixed_workload();
  std::ostringstream out;
  write_json(out, profiler.snapshot());
  const JsonValue doc = json_parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), kSelfProfileSchema);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("tasks_created").as_number(), 4.0);
  EXPECT_GE(doc.at("phases").at("total_s").as_number(), 0.0);
  EXPECT_GT(doc.at("peak_rss_bytes").as_number(), 0.0);
}

TEST(SelfProfile, PrintTextMentionsEveryCounterFamily) {
  SelfProfiler profiler;
  run_fixed_workload();
  std::ostringstream out;
  print_text(out, profiler.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("tasks"), std::string::npos);
  EXPECT_NE(text.find("ready queue"), std::string::npos);
  EXPECT_NE(text.find("cost model"), std::string::npos);
  EXPECT_NE(text.find("peak RSS"), std::string::npos);
}

}  // namespace
}  // namespace holmes::obs
