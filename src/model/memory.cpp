#include "model/memory.h"

#include "util/error.h"

namespace holmes::model {

namespace {

/// Bytes per parameter: bf16 weights and gradients, and the fp32 master
/// weights plus two Adam moments of the optimizer state.
constexpr int kWeightBytes = 2;
constexpr int kGradientBytes = 2;
constexpr int kOptimizerBytes = 12;
/// Activation bytes per layer per sample ~ s*h*(34 + 5*a*s/h) in the
/// selective-recomputation regime; we use the standard 34*s*h lower part.
constexpr int kActivationFactor = 34;

}  // namespace

MemoryEstimate estimate_device_memory(const TransformerConfig& config,
                                      int layers_on_device, int tensor_parallel,
                                      int micro_batch_size,
                                      int in_flight_microbatches,
                                      int optimizer_shards,
                                      int weight_shards) {
  HOLMES_CHECK_MSG(layers_on_device >= 0, "negative layer count");
  HOLMES_CHECK_MSG(tensor_parallel >= 1, "tensor parallel degree must be >= 1");
  HOLMES_CHECK_MSG(optimizer_shards >= 1, "optimizer shard count must be >= 1");
  HOLMES_CHECK_MSG(weight_shards >= 1, "weight shard count must be >= 1");
  HOLMES_CHECK_MSG(in_flight_microbatches >= 1, "need at least one microbatch");

  const double layer_params =
      config.layer_parameters() / tensor_parallel * layers_on_device;
  // The embedding lives on the first/last stages; we charge it to every
  // device as a conservative upper bound.
  const double params_on_device =
      layer_params + config.embedding_parameters() / tensor_parallel;

  MemoryEstimate est;
  est.weights =
      static_cast<Bytes>(params_on_device * kWeightBytes / weight_shards);
  est.gradients =
      static_cast<Bytes>(params_on_device * kGradientBytes / weight_shards);
  est.optimizer_state = static_cast<Bytes>(
      params_on_device * kOptimizerBytes / optimizer_shards);
  const double act_per_layer_per_sample =
      static_cast<double>(kActivationFactor) * config.seq_len *
      config.hidden / tensor_parallel;
  est.activations = static_cast<Bytes>(
      act_per_layer_per_sample * layers_on_device * micro_batch_size *
      in_flight_microbatches);
  return est;
}

}  // namespace holmes::model
