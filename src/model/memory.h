#pragma once

/// \file memory.h
/// Per-GPU memory footprint estimate for a training configuration.
///
/// Used by planners to reject configurations that could not run on the
/// paper's 80 GiB A100s (kDeviceMemory), and by tests to confirm Table 2's
/// groups fit their stated device counts. Mixed-precision Adam accounting
/// (bytes per parameter): 2 (bf16 weights) + 2 (bf16 grads) + 4 + 4 + 4
/// (fp32 master weights, momentum, variance) = 16, with the
/// optimizer-state share optionally sharded across the data-parallel group
/// (ZeRO-1 / distributed optimizer).

#include "model/transformer.h"

namespace holmes::model {

/// Memory of one device of the paper's testbed, an 80 GiB A100: the budget
/// HV106 fits each pipeline stage into, the cap HV403 puts on an endpoint's
/// in-flight received bytes, and the limit autotune filters layouts by.
inline constexpr Bytes kDeviceMemory = 80LL * 1024 * 1024 * 1024;

struct MemoryEstimate {
  Bytes weights = 0;
  Bytes gradients = 0;
  Bytes optimizer_state = 0;
  Bytes activations = 0;
  Bytes total() const { return weights + gradients + optimizer_state + activations; }
};

/// Estimates the footprint of one GPU holding `layers_on_device` layers of
/// `config`, with tensor parallel degree t (weights/activations divide by
/// t), `in_flight_microbatches` micro-batches of activations resident
/// (pipeline depth for 1F1B), optimizer state sharded `optimizer_shards`
/// ways (1 = no distributed optimizer), and weights/gradients additionally
/// sharded `weight_shards` ways (> 1 only for ZeRO-3/FSDP).
MemoryEstimate estimate_device_memory(const TransformerConfig& config,
                                      int layers_on_device, int tensor_parallel,
                                      int micro_batch_size,
                                      int in_flight_microbatches,
                                      int optimizer_shards,
                                      int weight_shards = 1);

}  // namespace holmes::model
