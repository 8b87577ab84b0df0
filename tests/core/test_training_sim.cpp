#include "core/training_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "obs/self_profile.h"
#include "util/error.h"
#include "util/json.h"

namespace holmes::core {
namespace {

using net::NicType;
using net::Topology;

IterationMetrics simulate(const FrameworkConfig& fw, const Topology& topo,
                          int group, int iterations = 3) {
  const TrainingPlan plan = Planner(fw).plan(topo, model::parameter_group(group));
  return TrainingSimulator{}.run(topo, plan, iterations);
}

TEST(TrainingSim, ProducesPositiveSteadyStateMetrics) {
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  const IterationMetrics m = simulate(FrameworkConfig::holmes(), topo, 1);
  EXPECT_GT(m.iteration_time, 0.0);
  EXPECT_GT(m.tflops_per_gpu, 0.0);
  EXPECT_GT(m.throughput, 0.0);
  EXPECT_GT(m.task_count, 0u);
}

TEST(TrainingSim, TflopsAndThroughputAreConsistent) {
  // throughput = B / time and tflops = F / (time * N) imply
  // tflops * N / throughput == F / B for the same run.
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  const IterationMetrics m = simulate(FrameworkConfig::holmes(), topo, 1);
  const auto& group = model::parameter_group(1);
  const double f_over_b =
      group.config.flops_per_iteration(group.batch_size) /
      static_cast<double>(group.batch_size);
  EXPECT_NEAR(m.tflops_per_gpu * 1e12 * 32 / m.throughput, f_over_b,
              f_over_b * 1e-9);
}

TEST(TrainingSim, IsDeterministic) {
  Topology topo = Topology::hybrid_two_clusters(2);
  const IterationMetrics a = simulate(FrameworkConfig::holmes(), topo, 1);
  const IterationMetrics b = simulate(FrameworkConfig::holmes(), topo, 1);
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  EXPECT_DOUBLE_EQ(a.tflops_per_gpu, b.tflops_per_gpu);
  EXPECT_EQ(a.task_count, b.task_count);
}

TEST(TrainingSim, SteadyStateIsStableAcrossIterationCounts) {
  // Measuring iteration 3 or iteration 5 must give (nearly) the same
  // steady-state time.
  Topology topo = Topology::homogeneous(2, NicType::kRoCE);
  const IterationMetrics three = simulate(FrameworkConfig::holmes(), topo, 1, 3);
  const IterationMetrics five = simulate(FrameworkConfig::holmes(), topo, 1, 5);
  EXPECT_NEAR(three.iteration_time, five.iteration_time,
              three.iteration_time * 0.01);
}

TEST(TrainingSim, RequiresWarmupIteration) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(1));
  EXPECT_THROW(TrainingSimulator{}.run(topo, plan, 1), ConfigError);
  EXPECT_NO_THROW(TrainingSimulator{}.run(topo, plan, 2));
}

TEST(TrainingSim, RejectsRunsPastTheTaskBudget) {
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const TrainingPlan plan = Planner(FrameworkConfig::holmes())
                                .plan(topo, model::parameter_group(1));
  const TrainingSimulator simulator;
  // Every iteration lowers the same tasks.
  const std::size_t two = simulator.lower(topo, plan, 2).graph.task_count();
  const std::size_t five = simulator.lower(topo, plan, 5).graph.task_count();
  ASSERT_EQ(two % 2, 0u);
  const std::uint64_t per_iteration = two / 2;
  EXPECT_EQ(five, 5 * per_iteration);

  const auto fits = static_cast<int>(kTaskBudget / per_iteration);
  for (const int iterations : {fits + 1, std::numeric_limits<int>::max()}) {
    try {
      simulator.lower(topo, plan, iterations);
      ADD_FAILURE() << iterations << " iterations were lowered";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "config error: " + std::to_string(iterations) +
                    " iterations of " +
                    std::to_string(per_iteration) +
                    " tasks each exceed the task budget of 16777216 tasks");
    }
  }
}

TEST(TrainingSim, RunIntoEarlierArtifactsMatchesAFreshRun) {
  // `run` lowers into the artifacts it is handed, reusing their storage.
  // Whatever they held before (a larger world, a NIC-degradation rate
  // timeline, a self-profile), the run reads back exactly like one into
  // fresh artifacts, in both directions.
  const Topology small = Topology::hybrid_two_clusters(2);
  const Topology large = Topology::hybrid_two_clusters(4);
  const Planner planner(FrameworkConfig::holmes());
  const TrainingPlan small_plan =
      planner.plan(small, model::parameter_group(1));
  const TrainingPlan large_plan =
      planner.plan(large, model::parameter_group(1));
  Perturbations degraded;
  NicDegradation window;
  window.cluster = 1;
  window.begin_s = 0.0;
  window.end_s = 30.0;
  window.bandwidth_factor = 0.25;
  degraded.nic_degradation.push_back(window);
  degraded.device_slowdown[1] = 1.5;

  struct Leg {
    const Topology* topo;
    const TrainingPlan* plan;
    Perturbations perturb;
  };
  const Leg legs[] = {{&large, &large_plan, degraded},
                      {&small, &small_plan, {}},
                      {&small, &small_plan, degraded},
                      {&large, &large_plan, {}}};
  const TrainingSimulator simulator;
  SimArtifacts reused;
  {
    const obs::SelfProfiler profiler;
    simulator.run(large, large_plan, 3, degraded, nullptr, &reused);
    ASSERT_TRUE(reused.self_profile.has_value());
  }
  for (const Leg& leg : legs) {
    SimArtifacts fresh;
    const IterationMetrics want =
        simulator.run(*leg.topo, *leg.plan, 3, leg.perturb, nullptr, &fresh);
    const IterationMetrics got =
        simulator.run(*leg.topo, *leg.plan, 3, leg.perturb, nullptr, &reused);
    EXPECT_EQ(got.iteration_time, want.iteration_time);
    EXPECT_EQ(got.throughput, want.throughput);
    EXPECT_EQ(got.task_count, want.task_count);
    ASSERT_EQ(reused.graph.task_count(), fresh.graph.task_count());
    EXPECT_EQ(reused.graph.dep_count(), fresh.graph.dep_count());
    EXPECT_EQ(reused.graph.resource_count(), fresh.graph.resource_count());
    EXPECT_EQ(reused.graph.channel_count(), fresh.graph.channel_count());
    EXPECT_EQ(reused.iteration_markers, fresh.iteration_markers);
    EXPECT_EQ(reused.compute_resource, fresh.compute_resource);
    EXPECT_EQ(reused.rates.windows().size(), fresh.rates.windows().size());
    EXPECT_EQ(reused.iterations, fresh.iterations);
    EXPECT_FALSE(reused.self_profile.has_value());
    ASSERT_TRUE(reused.result.has_value());
    EXPECT_TRUE(reused.result->bit_identical(*fresh.result));
    for (sim::TaskId t = 0;
         t < static_cast<sim::TaskId>(fresh.graph.task_count()); ++t) {
      ASSERT_EQ(reused.graph.label(t), fresh.graph.label(t)) << t;
    }
  }
}

TEST(TrainingSim, FasterFabricTrainsFaster) {
  Topology ib = Topology::homogeneous(4, NicType::kInfiniBand);
  Topology eth = Topology::homogeneous(4, NicType::kEthernet);
  const IterationMetrics fast = simulate(FrameworkConfig::holmes(), ib, 1);
  const IterationMetrics slow = simulate(FrameworkConfig::holmes(), eth, 1);
  EXPECT_GT(fast.tflops_per_gpu, slow.tflops_per_gpu * 1.2);
  EXPECT_GT(fast.throughput, slow.throughput);
}

TEST(TrainingSim, GradSyncSpanTracksFabricSpeed) {
  Topology ib = Topology::homogeneous(4, NicType::kInfiniBand);
  Topology eth = Topology::homogeneous(4, NicType::kEthernet);
  const IterationMetrics fast = simulate(FrameworkConfig::holmes(), ib, 1);
  const IterationMetrics slow = simulate(FrameworkConfig::holmes(), eth, 1);
  EXPECT_GT(slow.grad_sync_span, fast.grad_sync_span * 2);
}

TEST(TrainingSim, OverlappedOptimizerBeatsPlainDistributed) {
  // On an RDMA cluster, overlapping gradient reduce-scatter with backward
  // compute and prefetching the all-gather must not be slower.
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  const IterationMetrics overlapped =
      simulate(FrameworkConfig::holmes(), topo, 2);
  const IterationMetrics plain =
      simulate(FrameworkConfig::holmes().without_overlapped_optimizer(), topo, 2);
  EXPECT_LE(overlapped.iteration_time, plain.iteration_time * 1.005);
}

TEST(TrainingSim, BiggerBatchRaisesUtilization) {
  // Groups 1 and 2 share the model; group 2 doubles the batch, amortizing
  // the pipeline flush and DP sync -> higher TFLOPS.
  Topology topo = Topology::homogeneous(4, NicType::kRoCE);
  const IterationMetrics small = simulate(FrameworkConfig::holmes(), topo, 1);
  const IterationMetrics large = simulate(FrameworkConfig::holmes(), topo, 2);
  EXPECT_GT(large.tflops_per_gpu, small.tflops_per_gpu);
}

TEST(TrainingSim, MoreNodesLowerPerGpuTflopsAtFixedBatch) {
  // Table 3 trend: scaling out at a fixed global batch shrinks per-GPU
  // work relative to synchronization cost.
  const IterationMetrics n4 = simulate(
      FrameworkConfig::holmes(), Topology::homogeneous(4, NicType::kInfiniBand), 1);
  const IterationMetrics n8 = simulate(
      FrameworkConfig::holmes(), Topology::homogeneous(8, NicType::kInfiniBand), 1);
  EXPECT_LT(n8.tflops_per_gpu, n4.tflops_per_gpu);
  EXPECT_GT(n8.throughput, n4.throughput);  // but aggregate speed grows
}

TEST(TrainingSim, TensorParallelGroupSeven) {
  // Group 7 (39B, t=8) must lay out and simulate on 8 nodes.
  Topology topo = Topology::homogeneous(8, NicType::kInfiniBand);
  const IterationMetrics m = simulate(FrameworkConfig::holmes(), topo, 7, 2);
  EXPECT_GT(m.tflops_per_gpu, 50.0);
  EXPECT_LT(m.tflops_per_gpu, 312.0);
}

TEST(TrainingSim, PipelineDepthThreeGroupFive) {
  // Group 5 (p=3) on 6 nodes in three clusters (Table 4's shape).
  Topology topo({
      net::ClusterSpec{"a", 2, 8, NicType::kRoCE},
      net::ClusterSpec{"b", 2, 8, NicType::kRoCE},
      net::ClusterSpec{"c", 2, 8, NicType::kInfiniBand},
  });
  const IterationMetrics m = simulate(FrameworkConfig::holmes(), topo, 5, 2);
  EXPECT_GT(m.tflops_per_gpu, 0.0);
}

TEST(TrainingSim, FullyShardedPaysExtraAllGather) {
  // ZeRO-3's backward re-gather roughly doubles the all-gather span and
  // can only slow the iteration, never speed it up.
  Topology topo = Topology::homogeneous(4, NicType::kRoCE);
  FrameworkConfig zero1 = FrameworkConfig::holmes().without_overlapped_optimizer();
  FrameworkConfig zero3 = zero1;
  zero3.dp_sync = optimizer::DpSyncConfig::fully_sharded();
  const IterationMetrics a = simulate(zero1, topo, 1);
  const IterationMetrics b = simulate(zero3, topo, 1);
  // The span grows sublinearly (it includes cross-stage idle gaps), but
  // the extra volume must be clearly visible and the iteration slower.
  EXPECT_GT(b.param_allgather_span, a.param_allgather_span * 1.15);
  EXPECT_GT(b.iteration_time, a.iteration_time);
}

TEST(TrainingSim, InterleavedScheduleRunsAndStaysClose) {
  // The interleaved schedule must simulate correctly and land within a
  // reasonable band of plain 1F1B (smaller bubble vs more p2p traffic).
  Topology topo = Topology::homogeneous(4, NicType::kInfiniBand);
  const IterationMetrics plain = simulate(FrameworkConfig::holmes(), topo, 1);
  const IterationMetrics interleaved = simulate(
      FrameworkConfig::holmes().with_schedule(SchedulePolicy::kInterleaved, 2),
      topo, 1);
  EXPECT_NEAR(interleaved.iteration_time / plain.iteration_time, 1.0, 0.15);
}

TEST(TrainingSim, GPipeMatchesOneFOneBOnBubbleTime) {
  // Same micro-batch count -> same fill/drain bubble; the two schedules
  // should land close in time (GPipe differs in memory, not speed).
  Topology topo = Topology::homogeneous(2, NicType::kInfiniBand);
  const IterationMetrics flush = simulate(FrameworkConfig::holmes(), topo, 1);
  const IterationMetrics gpipe = simulate(
      FrameworkConfig::holmes().with_schedule(SchedulePolicy::kGPipe), topo, 1);
  EXPECT_NEAR(gpipe.iteration_time / flush.iteration_time, 1.0, 0.1);
}

TEST(TrainingSim, PcieNodesPayForIntraNodePipelineTraffic) {
  // One 8-GPU node, p = 4 (stages are sub-node): inter-stage activations
  // ride NVLink or PCIe. The PCIe variant must be slower, and both must
  // beat nothing-at-all sanity bounds.
  model::ParameterGroup workload = model::parameter_group(1);
  workload.pipeline_parallel = 4;

  net::Topology nvlink = net::Topology::homogeneous(1, NicType::kInfiniBand);
  net::Topology pcie({net::ClusterSpec{"pcie", 1, 8, NicType::kInfiniBand, 0,
                                       /*has_nvlink=*/false}});
  const Planner planner(FrameworkConfig::holmes());
  const IterationMetrics fast =
      TrainingSimulator{}.run(nvlink, planner.plan(nvlink, workload));
  const IterationMetrics slow =
      TrainingSimulator{}.run(pcie, planner.plan(pcie, workload));
  EXPECT_GT(slow.iteration_time, fast.iteration_time);
  EXPECT_GT(fast.tflops_per_gpu, 100.0);
}

TEST(TrainingSim, WeakScalingHoldsTflopsRoughlyFlat) {
  // Groups 3 (B=1536) on 4 nodes vs 4 (B=2688) on 7 nodes keep per-GPU
  // batch similar; per-GPU TFLOPS should stay within a modest band.
  const IterationMetrics small = simulate(
      FrameworkConfig::holmes(), Topology::homogeneous(4, NicType::kRoCE), 3);
  const IterationMetrics large = simulate(
      FrameworkConfig::holmes(), Topology::homogeneous(7, NicType::kRoCE), 4);
  EXPECT_NEAR(large.tflops_per_gpu / small.tflops_per_gpu, 1.0, 0.1);
}

TEST(TrainingSim, LargestScenarioCombinedFeaturesStress) {
  // Table 4's largest setting with every feature on at once: 12 nodes in
  // three clusters, interleaved schedule, overlapped optimizer,
  // self-adapting partition, plus a straggler. Must complete quickly and
  // produce sane numbers.
  net::Topology topo({
      net::ClusterSpec{"roce-a", 4, 8, NicType::kRoCE},
      net::ClusterSpec{"ib-a", 4, 8, NicType::kInfiniBand},
      net::ClusterSpec{"ib-b", 4, 8, NicType::kInfiniBand},
  });
  FrameworkConfig fw =
      FrameworkConfig::holmes().with_schedule(SchedulePolicy::kInterleaved, 2);
  const TrainingPlan plan = Planner(fw).plan(topo, model::parameter_group(6));
  Perturbations perturb;
  perturb.device_slowdown[17] = 1.3;
  const IterationMetrics m = TrainingSimulator{}.run(topo, plan, 3, perturb);
  EXPECT_GT(m.tflops_per_gpu, 40.0);
  EXPECT_LT(m.tflops_per_gpu, 312.0);
  EXPECT_GT(m.task_count, 10000u);
}

TEST(TrainingSim, HolmesBeatsFallbackBaselineOnHybrid) {
  Topology topo = Topology::hybrid_two_clusters(4);
  const IterationMetrics holmes = simulate(FrameworkConfig::holmes(), topo, 3);
  const IterationMetrics lm = simulate(FrameworkConfig::megatron_lm(), topo, 3);
  EXPECT_GT(holmes.tflops_per_gpu, lm.tflops_per_gpu * 1.3);
}

// The executor never overlaps two tasks on one device, so neither may the
// trace's slices: a run of 50 s puts timestamps near 5e7 us, and they must
// keep enough digits that adjacent slices on a compute row stay apart.
TEST(Trace, ComputeSlicesOfARowNeverOverlap) {
  const Topology topo = Topology::hybrid_two_clusters(1);
  const TrainingPlan plan =
      Planner(FrameworkConfig::holmes()).plan(topo, model::parameter_group(1));
  std::ostringstream trace;
  TrainingSimulator{}.run(topo, plan, 3, {}, &trace);
  const JsonValue events = json_parse(trace.str());

  std::map<double, std::string> row_name;
  std::map<double, std::vector<std::pair<double, double>>> slices;
  for (const JsonValue& event : events.as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M" && event.at("name").as_string() == "thread_name") {
      row_name[event.at("tid").as_number()] =
          event.at("args").at("name").as_string();
    } else if (ph == "X") {
      slices[event.at("tid").as_number()].emplace_back(
          event.at("ts").as_number(), event.at("dur").as_number());
    }
  }
  std::size_t compute_rows = 0;
  std::size_t pairs = 0;
  std::size_t overlapping = 0;
  double worst_us = 0;
  std::string worst_row;
  for (auto& [tid, row] : slices) {
    const std::string& name = row_name.at(tid);
    if (name.size() < 8 || name.compare(name.size() - 8, 8, ".compute") != 0) {
      continue;
    }
    ++compute_rows;
    std::sort(row.begin(), row.end());
    for (std::size_t i = 1; i < row.size(); ++i) {
      ++pairs;
      const double overlap_us =
          row[i - 1].first + row[i - 1].second - row[i].first;
      if (overlap_us <= 1e-3) continue;  // 1 ns
      ++overlapping;
      if (overlap_us > worst_us) {
        worst_us = overlap_us;
        worst_row = name;
      }
    }
  }
  EXPECT_EQ(overlapping, 0u) << "of " << pairs << " adjacent slice pairs; "
                             << worst_row << " overlaps by " << worst_us
                             << " us";
  EXPECT_EQ(compute_rows, 16u);
}

}  // namespace
}  // namespace holmes::core
