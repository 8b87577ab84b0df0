#include "core/autotune.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "model/memory.h"
#include "util/error.h"

namespace holmes::core {
namespace {

using net::NicType;
using net::Topology;

TuneOptions fast_options() {
  TuneOptions options;
  options.iterations = 2;
  options.max_pipeline = 8;
  return options;
}

TEST(Autotune, FindsFeasibleLayoutsSortedByThroughput) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(1), fast_options());
  ASSERT_GE(ranked.size(), 2u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].metrics.throughput, ranked[i].metrics.throughput);
  }
  for (const auto& c : ranked) {
    EXPECT_EQ(c.tensor * c.pipeline * c.data, topo.world_size());
    EXPECT_GT(c.metrics.tflops_per_gpu, 0.0);
  }
}

TEST(Autotune, RespectsMemoryBudget) {
  // The 39B model overflows the 80 GiB device memory unless it is sharded;
  // every layout the search keeps fits.
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(7), fast_options());
  ASSERT_FALSE(ranked.empty());
  for (const auto& c : ranked) {
    EXPECT_LE(c.estimated_memory, model::kDeviceMemory);
  }
  // Two GPUs cannot shard it enough: that must fail loudly.
  const Topology pair = Topology::homogeneous(1, NicType::kInfiniBand, 2);
  EXPECT_THROW(autotune(FrameworkConfig::holmes(), pair,
                        model::parameter_group(7), fast_options()),
               ConfigError);
}

TEST(Autotune, LargeModelRequiresModelParallelism) {
  // The 39B model cannot fit t=1, p=1 on 80 GB; every surviving candidate
  // must shard the model somehow.
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(7), fast_options());
  for (const auto& c : ranked) {
    EXPECT_GT(c.tensor * c.pipeline, 1)
        << "t=" << c.tensor << " p=" << c.pipeline;
  }
}

TEST(Autotune, MaxPipelineCapsSearch) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  TuneOptions options = fast_options();
  options.max_pipeline = 2;
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(1), options);
  for (const auto& c : ranked) EXPECT_LE(c.pipeline, 2);
}

TEST(Autotune, HybridPrefersPipelineAcrossClusters) {
  // On the hybrid topology, the best layout must use p >= 2: p = 1 would
  // put every DP group across the IB/RoCE divide onto Ethernet.
  Topology topo = Topology::hybrid_two_clusters(2);
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(1), fast_options());
  ASSERT_FALSE(ranked.empty());
  EXPECT_GE(ranked.front().pipeline, 2);
  // And the winner must beat the best single-stage layout clearly.
  for (const auto& c : ranked) {
    if (c.pipeline == 1) {
      EXPECT_GT(ranked.front().metrics.throughput,
                c.metrics.throughput * 1.1);
    }
  }
}

TEST(Autotune, BestLayoutAtLeastMatchesPaperChoice) {
  // The paper picked (t=1, p=2) for group 1; the tuner's winner on the
  // same hardware must be at least as good as that choice.
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  const auto ranked = autotune(FrameworkConfig::holmes(), topo,
                               model::parameter_group(1), fast_options());
  const IterationMetrics paper_choice = run_experiment(
      FrameworkConfig::holmes(), NicEnv::kInfiniBand, 4, 1, {}, 2);
  EXPECT_GE(ranked.front().metrics.throughput,
            paper_choice.throughput * 0.999);
}

}  // namespace
}  // namespace holmes::core
