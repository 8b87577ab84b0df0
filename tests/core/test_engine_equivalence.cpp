/// Engine equivalence suite: the optimized DES engine must be *observably
/// identical* to the seed engine it replaced.
///
/// The goldens under tests/core/goldens/engine were recorded from the seed
/// engine (std::function event queue, binary std::priority_queue, per-task
/// dependency vectors) across the 36 env x group x framework fixture
/// configs. Every hot-path rewrite since — the 4-ary ready heap, the CSR
/// graph layout, the flat trace accumulators, the parallel thread-pool
/// fan-out — must reproduce the `holmes.run_summary.v1` and `holmes.critical_path.v1`
/// documents byte for byte.
///
/// Regenerate (only when the *simulated semantics* deliberately change, not
/// for engine perf work) by running holmes_core_tests with
/// HOLMES_REGEN_ENGINE_GOLDENS=1 and --gtest_filter='EngineEquivalence.*'.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/faults.h"
#include "core/framework.h"
#include "core/run_stats.h"
#include "model/gpt_zoo.h"
#include "obs/critical_path.h"
#include "obs/summary.h"
#include "util/thread_pool.h"

#ifndef HOLMES_ENGINE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define HOLMES_ENGINE_GOLDEN_DIR"
#endif

namespace holmes::core {
namespace {

struct Config {
  NicEnv env;
  int group;
  const char* framework;
};

std::vector<Config> fixture_configs() {
  std::vector<Config> configs;
  for (NicEnv env : {NicEnv::kInfiniBand, NicEnv::kRoCE, NicEnv::kEthernet,
                     NicEnv::kHybrid}) {
    for (int group : {1, 2, 3}) {
      for (const char* framework :
           {"holmes", "megatron-lm", "megatron-deepspeed"}) {
        configs.push_back({env, group, framework});
      }
    }
  }
  return configs;
}

FrameworkConfig resolve(const std::string& name) {
  if (name == "holmes") return FrameworkConfig::holmes();
  if (name == "megatron-lm") return FrameworkConfig::megatron_lm();
  return FrameworkConfig::megatron_deepspeed();
}

std::string golden_name(const Config& config) {
  return to_string(config.env) + "_g" + std::to_string(config.group) + "_" +
         config.framework + ".json";
}

/// Serializes the two byte-stable documents of one simulated run exactly as
/// the determinism checker does (core/schedule_check.cpp), wrapped in one
/// object so each config is a single golden file.
std::string run_config(const Config& config) {
  const net::Topology topo = make_environment(config.env, 2);
  const TrainingPlan plan = Planner(resolve(config.framework))
                                .plan(topo, model::parameter_group(config.group));
  TrainingSimulator simulator;
  SimArtifacts artifacts;
  const IterationMetrics metrics =
      simulator.run(topo, plan, 3, {}, nullptr, &artifacts);
  std::ostringstream out;
  out << "{\"run_summary\":";
  obs::write_json(out, build_run_summary(topo, plan, metrics, artifacts));
  out << ",\"critical_path\":";
  obs::write_json(out,
                  build_critical_path_summary(topo, plan, metrics, artifacts));
  out << "}\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool regen_requested() {
  const char* regen = std::getenv("HOLMES_REGEN_ENGINE_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

void compare_or_regen(const Config& config, const std::string& actual) {
  const std::string path =
      std::string(HOLMES_ENGINE_GOLDEN_DIR) + "/" + golden_name(config);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " (regenerate with HOLMES_REGEN_ENGINE_GOLDENS=1)";
  // Byte equality, with a readable first-difference report on mismatch.
  if (actual != expected) {
    std::size_t at = 0;
    while (at < actual.size() && at < expected.size() &&
           actual[at] == expected[at]) {
      ++at;
    }
    const std::size_t lo = at < 60 ? 0 : at - 60;
    FAIL() << golden_name(config) << " diverges from the seed engine at byte "
           << at << "\n  golden: ..."
           << expected.substr(lo, 120) << "\n  actual: ..."
           << actual.substr(lo, 120);
  }
}

TEST(EngineEquivalence, MatchesSeedGoldens) {
  for (const Config& config : fixture_configs()) {
    SCOPED_TRACE(golden_name(config));
    compare_or_regen(config, run_config(config));
  }
}

// The faulted fixture: the canonical fault plan (a 2.0x straggler on the
// RoCE cluster's first node plus a NIC degradation window) lowered onto the
// hybrid config. Exercises the rate-timeline executor path — stretched
// occupancies, ports_free timings, stretch-aware critical path — which the
// clean matrix above never enters.
std::string run_faulted_hybrid() {
  const net::Topology topo = make_environment(NicEnv::kHybrid, 2);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  FaultPlan faults;
  ComputeStraggler straggler;
  straggler.cluster = 1;
  straggler.node_in_cluster = 0;
  straggler.slowdown = 2.0;
  faults.stragglers.push_back(straggler);
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 1.0;
  window.end_s = 10.0;
  window.bandwidth_factor = 0.5;
  faults.nic_degradation.push_back(window);
  const Perturbations perturb = lower_fault_plan(faults, topo);

  TrainingSimulator simulator;
  SimArtifacts artifacts;
  const IterationMetrics metrics =
      simulator.run(topo, plan, 3, perturb, nullptr, &artifacts);
  std::ostringstream out;
  out << "{\"run_summary\":";
  obs::write_json(out, build_run_summary(topo, plan, metrics, artifacts));
  out << ",\"critical_path\":";
  obs::write_json(out,
                  build_critical_path_summary(topo, plan, metrics, artifacts));
  out << "}\n";
  return out.str();
}

TEST(EngineEquivalence, FaultedHybridMatchesGolden) {
  compare_or_regen({NicEnv::kHybrid, 1, "holmes_faulted"},
                   run_faulted_hybrid());
}

// The parallel fan-out must be observably identical to the serial loop:
// the same 36 configs, simulated across >= 4 ThreadPool workers, must
// reproduce the same golden bytes (this is the suite the tsan CI matrix
// runs to prove per-thread isolation of the engine's caches).
TEST(EngineEquivalence, ParallelScenarioRunnerMatchesSeedGoldens) {
  if (regen_requested()) GTEST_SKIP() << "goldens regenerate serially";
  const std::vector<Config> configs = fixture_configs();
  // +1: the faulted hybrid config rides along, so the rate-timeline path is
  // also proven race-free under the pool.
  std::vector<std::string> actual(configs.size() + 1);
  ThreadPool pool(4);
  pool.parallel_for(actual.size(), [&](std::size_t i) {
    actual[i] =
        i < configs.size() ? run_config(configs[i]) : run_faulted_hybrid();
  });
  EXPECT_GE(pool.size(), 4u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(golden_name(configs[i]));
    compare_or_regen(configs[i], actual[i]);
  }
  compare_or_regen({NicEnv::kHybrid, 1, "holmes_faulted"}, actual.back());
}

}  // namespace
}  // namespace holmes::core
