#include "core/autotune.h"

#include <algorithm>
#include <mutex>

#include "model/memory.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace holmes::core {

namespace {

/// Worst-stage memory footprint of a (t, p) layout: the first stage holds
/// the most layers (uniform split puts remainders early) plus its share of
/// the embedding, with up to p micro-batches of activations in flight
/// (1F1B) and optimizer state sharded d ways when the framework shards.
Bytes estimate_layout_memory(const FrameworkConfig& framework,
                             const model::ParameterGroup& workload, int t,
                             int p, int d) {
  const int layers_first_stage = ceil_div(workload.config.layers, p);
  const int optimizer_shards = framework.dp_sync.shards_optimizer() ? d : 1;
  const int weight_shards = framework.dp_sync.shards_weights() ? d : 1;
  return model::estimate_device_memory(
             workload.config, layers_first_stage, t,
             workload.micro_batch_size,
             std::min<int>(p, 8),  // in-flight micro-batches under 1F1B
             optimizer_shards, weight_shards)
      .total();
}

}  // namespace

std::vector<TuneCandidate> autotune(const FrameworkConfig& framework,
                                    const net::Topology& topo,
                                    const model::ParameterGroup& workload,
                                    const TuneOptions& options,
                                    const CostModel& cost) {
  const int n = topo.world_size();
  const int gpus = topo.gpus_per_node();

  // Enumerate feasible layouts.
  struct Layout {
    int t, p, d;
    Bytes memory;
  };
  std::vector<Layout> layouts;
  for (int t = 1; t <= gpus; ++t) {
    if (gpus % t != 0 || n % t != 0) continue;
    const int max_p = options.max_pipeline > 0
                          ? std::min(options.max_pipeline, workload.config.layers)
                          : workload.config.layers;
    for (int p = 1; p <= max_p; ++p) {
      if (n % (t * p) != 0) continue;
      const int d = n / (t * p);
      if (workload.batch_size % (static_cast<std::int64_t>(d) *
                                 workload.micro_batch_size) !=
          0) {
        continue;
      }
      const Bytes memory = estimate_layout_memory(framework, workload, t, p, d);
      if (memory > model::kDeviceMemory) continue;
      layouts.push_back({t, p, d, memory});
    }
  }
  if (layouts.empty()) {
    throw ConfigError(
        "no feasible (tensor, pipeline) layout for this model on " +
        std::to_string(n) + " GPUs within the memory budget");
  }
  HOLMES_LOG(kInfo) << "autotune: simulating " << layouts.size()
                    << " candidate layouts";

  std::vector<TuneCandidate> candidates(layouts.size());
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  ThreadPool().parallel_for(layouts.size(), [&](std::size_t i) {
    const Layout& layout = layouts[i];
    model::ParameterGroup variant = workload;
    variant.tensor_parallel = layout.t;
    variant.pipeline_parallel = layout.p;
    try {
      const TrainingPlan plan = Planner(framework).plan(topo, variant);
      const IterationMetrics metrics =
          TrainingSimulator(cost).run(topo, plan, options.iterations);
      candidates[i] = {layout.t, layout.p, layout.d, metrics, layout.memory};
    } catch (const Error& e) {
      // Layouts the planner rejects (e.g. interleaved divisibility) simply
      // drop out of the ranking.
      std::lock_guard lock(failures_mutex);
      failures.emplace_back(e.what());
    }
  });

  std::vector<TuneCandidate> ranked;
  for (auto& c : candidates) {
    if (c.metrics.throughput > 0) ranked.push_back(c);
  }
  if (ranked.empty()) {
    throw ConfigError("every candidate layout failed to plan; first error: " +
                      (failures.empty() ? std::string("?") : failures.front()));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const TuneCandidate& a, const TuneCandidate& b) {
              return a.metrics.throughput > b.metrics.throughput;
            });
  return ranked;
}

}  // namespace holmes::core
