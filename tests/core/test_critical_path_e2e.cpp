#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/run_stats.h"
#include "obs/summary.h"

namespace holmes::core {
namespace {

using net::NicType;
using net::Topology;

struct SimRun {
  TrainingPlan plan;
  IterationMetrics metrics;
  SimArtifacts artifacts;
};

SimRun simulate(const FrameworkConfig& fw, const Topology& topo, int group,
                int iterations = 3, const Perturbations& perturb = {}) {
  SimRun run{Planner(fw).plan(topo, model::parameter_group(group)), {}, {}};
  run.metrics = TrainingSimulator{}.run(topo, run.plan, iterations, perturb,
                                        nullptr, &run.artifacts);
  return run;
}

// --- Acceptance: exact attribution on the NIC-mixed topology -------------

TEST(CriticalPathE2E, SegmentsTileTheMakespanExactly) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run = simulate(FrameworkConfig::megatron_lm(), topo, 1);
  obs::CriticalPath path;
  const obs::CriticalPathSummary s = build_critical_path_summary(
      topo, run.plan, run.metrics, run.artifacts, {}, &path);

  // The raw path partitions [0, makespan]: no gaps, no overlaps, exact FP
  // equality (starts are copies of constraint times, not re-derived).
  ASSERT_FALSE(path.segments.empty());
  EXPECT_EQ(path.segments.front().begin, 0.0);
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    EXPECT_EQ(path.segments[i].begin, path.segments[i - 1].end);
  }
  EXPECT_EQ(path.segments.back().end, path.makespan);
  EXPECT_DOUBLE_EQ(path.makespan, run.artifacts.result->makespan());

  // Bucket seconds partition the attribution window (= the makespan here).
  double bucket_sum = 0;
  double share_sum = 0;
  for (const auto& b : s.buckets) {
    EXPECT_GT(b.seconds, 0.0) << b.name;
    bucket_sum += b.seconds;
    share_sum += b.share;
  }
  EXPECT_NEAR(bucket_sum, s.makespan_s, 1e-9 * s.makespan_s);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.window_begin_s, 0.0);
  EXPECT_DOUBLE_EQ(s.window_end_s, s.makespan_s);
}

TEST(CriticalPathE2E, EthernetFallbackAppearsOnHybrid) {
  // The NIC-oblivious baseline on the hybrid environment routes collectives
  // across the cross-cluster Ethernet fallback; the critical path must show
  // at least one Ethernet-attributed bucket.
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run = simulate(FrameworkConfig::megatron_lm(), topo, 1);
  const obs::CriticalPathSummary s = build_critical_path_summary(
      topo, run.plan, run.metrics, run.artifacts);

  bool saw_ethernet = false;
  for (const auto& b : s.buckets) {
    if (b.name.find("Ethernet") != std::string::npos) saw_ethernet = true;
  }
  EXPECT_TRUE(saw_ethernet);
  EXPECT_FALSE(s.sensitivities.empty());
  EXPECT_FALSE(s.top_segments.empty());
}

TEST(CriticalPathE2E, WindowClipsAttributionToTheRequestedSpan) {
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun run = simulate(FrameworkConfig::holmes(), topo, 1);
  CriticalPathOptions options;
  const double makespan = run.artifacts.result->makespan();
  options.window = {0.25 * makespan, 0.75 * makespan};
  const obs::CriticalPathSummary s = build_critical_path_summary(
      topo, run.plan, run.metrics, run.artifacts, options);

  EXPECT_DOUBLE_EQ(s.window_begin_s, options.window.begin);
  EXPECT_DOUBLE_EQ(s.window_end_s, options.window.end);
  double bucket_sum = 0;
  for (const auto& b : s.buckets) bucket_sum += b.seconds;
  const double span = options.window.end - options.window.begin;
  EXPECT_NEAR(bucket_sum, span, 1e-9 * span);
}

// --- Acceptance: sensitivity vs brute-force re-simulation ----------------

/// Re-simulates `base` with the class named by `bucket` sped up by `factor`
/// (compute stages via per-rank perturbation, link classes via the fabric
/// catalog) and returns the measured makespan saving.
double resimulated_savings(const Topology& topo, const SimRun& base,
                           const std::string& bucket, double factor) {
  SimArtifacts fast;
  if (bucket.rfind("compute/stage", 0) == 0) {
    const int stage =
        std::stoi(bucket.substr(std::string("compute/stage").size()));
    Perturbations perturb;
    for (int rank : base.plan.groups.stage_ranks(stage)) {
      perturb.device_slowdown[rank] = 1.0 / factor;
    }
    TrainingSimulator{}.run(topo, base.plan, base.artifacts.iterations,
                            perturb, nullptr, &fast);
  } else {
    EXPECT_EQ(bucket.rfind("link/", 0), 0u) << bucket;
    const std::string cls = bucket.substr(std::string("link/").size());
    net::FabricCatalog catalog = topo.catalog();
    bool found = false;
    for (net::FabricKind kind :
         {net::FabricKind::kNVLink, net::FabricKind::kPCIe,
          net::FabricKind::kInfiniBand, net::FabricKind::kRoCE,
          net::FabricKind::kEthernet}) {
      if (net::to_string(kind) == cls) {
        catalog.spec(kind).bandwidth_gbps *= factor;
        found = true;
      }
    }
    EXPECT_TRUE(found) << cls;
    const Topology fast_topo(topo.clusters(), catalog);
    TrainingSimulator{}.run(fast_topo, base.plan, base.artifacts.iterations,
                            {}, nullptr, &fast);
  }
  return base.artifacts.result->makespan() - fast.result->makespan();
}

TEST(CriticalPathE2E, TopSensitivityAgreesWithBruteForceResimulation) {
  // Holmes on the hybrid environment: the advertised 10%-speedup saving
  // must match an actual re-simulation with the class 10% faster.
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun base = simulate(FrameworkConfig::holmes(), topo, 1);
  const obs::CriticalPathSummary s = build_critical_path_summary(
      topo, base.plan, base.metrics, base.artifacts);
  ASSERT_FALSE(s.sensitivities.empty());
  const obs::CriticalPathSummary::Sensitivity& top = s.sensitivities[0];

  const double measured = resimulated_savings(topo, base, top.bucket, 1.1);
  EXPECT_GT(measured, 0.0);
  EXPECT_NEAR(top.savings_10pct_s, measured, 0.10 * measured)
      << "target " << top.bucket << ": predicted " << top.savings_10pct_s
      << " s vs re-simulated " << measured << " s";
}

TEST(CriticalPathE2E, SensitivityDerivativeMatchesForSmallSpeedups) {
  // The NIC-oblivious baseline's Ethernet contention makes finite speedups
  // non-smooth (queue reordering), but the *derivative* the sensitivity
  // reports must still match brute force in the small-step limit.
  const Topology topo = Topology::hybrid_two_clusters(2);
  const SimRun base = simulate(FrameworkConfig::megatron_lm(), topo, 1);
  const obs::CriticalPathSummary s = build_critical_path_summary(
      topo, base.plan, base.metrics, base.artifacts);
  ASSERT_FALSE(s.sensitivities.empty());
  const obs::CriticalPathSummary::Sensitivity& top = s.sensitivities[0];

  const double factor = 1.01;
  const double predicted = top.critical_s * (1.0 - 1.0 / factor);
  const double measured = resimulated_savings(topo, base, top.bucket, factor);
  EXPECT_GT(measured, 0.0);
  EXPECT_NEAR(predicted, measured, 0.10 * measured)
      << "target " << top.bucket << ": predicted " << predicted
      << " s vs re-simulated " << measured << " s";
}

// --- Acceptance: byte-identical determinism ------------------------------

TEST(CriticalPathE2E, IdenticalRunsProduceByteIdenticalJson) {
  const Topology topo = Topology::hybrid_two_clusters(2);

  auto render = [&topo]() {
    const SimRun run = simulate(FrameworkConfig::holmes(), topo, 1);
    const obs::RunSummary summary =
        build_run_summary(topo, run.plan, run.metrics, run.artifacts);
    const obs::CriticalPathSummary critical = build_critical_path_summary(
        topo, run.plan, run.metrics, run.artifacts);
    std::ostringstream a;
    obs::write_json(a, summary);
    a << "\n";
    obs::write_json(a, critical);
    return a.str();
  };

  // Two full, independent pipelines: plan, simulate, summarize, serialize.
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("holmes.run_summary.v1"), std::string::npos);
  EXPECT_NE(first.find("holmes.critical_path.v1"), std::string::npos);
}

}  // namespace
}  // namespace holmes::core
