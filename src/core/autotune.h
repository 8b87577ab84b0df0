#pragma once

/// \file autotune.h
/// Parallel-layout auto-tuner.
///
/// The paper fixes (t, p) per parameter group (Table 2) and names
/// "scheduling methods for diverse environments" as future work. This
/// module searches the layout space for a model on a concrete topology:
/// every (tensor, pipeline) pair that divides the world size, fits the
/// device memory (model::kDeviceMemory), and divides the global batch is
/// planned and simulated; candidates come back ranked by throughput.

#include <vector>

#include "core/training_sim.h"

namespace holmes::core {

struct TuneOptions {
  /// Iterations per simulation (>= 2; 3 gives a steady-state read).
  int iterations = 3;
  /// Cap on the pipeline degree to bound the search (0 = no cap).
  int max_pipeline = 0;
};

struct TuneCandidate {
  int tensor = 1;
  int pipeline = 1;
  int data = 1;
  IterationMetrics metrics;
  Bytes estimated_memory = 0;  ///< worst-stage per-device footprint
};

/// Explores all feasible (t, p) layouts of `workload`'s model on `topo`
/// under `framework` and returns them sorted by descending throughput.
/// The workload's own (t, p) are ignored — only its model, micro-batch and
/// batch size are used. Throws holmes::ConfigError when no layout is
/// feasible.
std::vector<TuneCandidate> autotune(const FrameworkConfig& framework,
                                    const net::Topology& topo,
                                    const model::ParameterGroup& workload,
                                    const TuneOptions& options = {},
                                    const CostModel& cost = {});

}  // namespace holmes::core
