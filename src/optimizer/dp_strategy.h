#pragma once

/// \file dp_strategy.h
/// Data-parallel gradient synchronization strategies.
///
/// The three strategies the paper compares (§3.2, Table 5):
///  - AllReduce: classic DDP — one ring all-reduce of the full gradient
///    after the backward pass; every rank then runs the full optimizer.
///    (Megatron-LM, Megatron-DeepSpeed without ZeRO.)
///  - DistributedOptimizer: ZeRO-1 style — reduce-scatter the gradients,
///    each rank updates only its 1/d shard, then all-gather the updated
///    parameters. Same 2(n-1)/n ring volume, but optimizer compute and
///    state shrink by d.
///  - OverlappedDistributedOptimizer (Megatron-LLaMA): the distributed
///    optimizer with gradients cut into buckets whose reduce-scatters
///    launch as soon as their layers' gradients are final (overlapping the
///    tail of the backward pass), and whose parameter all-gathers prefetch
///    under the next iteration's forward.

#include <vector>

#include "util/units.h"

namespace holmes::optimizer {

enum class DpSyncKind {
  kAllReduce,
  kDistributedOptimizer,
  kOverlappedDistributedOptimizer,
  /// ZeRO-3 / FSDP: weights themselves are sharded, so parameters are
  /// all-gathered for the backward pass as well — twice the all-gather
  /// volume of ZeRO-1 in exchange for 1/d weight memory.
  kFullyShardedOptimizer,
};

struct DpSyncConfig {
  DpSyncKind kind = DpSyncKind::kAllReduce;
  /// Gradient bucket count for the overlapped strategy (ignored otherwise).
  int buckets = 4;

  /// True when optimizer state/compute is sharded across the DP group.
  bool shards_optimizer() const { return kind != DpSyncKind::kAllReduce; }
  /// True when weights are sharded too (ZeRO-3/FSDP).
  bool shards_weights() const {
    return kind == DpSyncKind::kFullyShardedOptimizer;
  }
  /// Parameter all-gathers per iteration (ZeRO-3 re-gathers for backward).
  int allgather_passes() const { return shards_weights() ? 2 : 1; }
  /// True when gradient communication overlaps backward compute.
  bool overlaps_backward() const {
    return kind == DpSyncKind::kOverlappedDistributedOptimizer;
  }
  /// Number of communication buckets actually used.
  int effective_buckets() const { return overlaps_backward() ? buckets : 1; }

  static DpSyncConfig all_reduce() { return {DpSyncKind::kAllReduce, 1}; }
  static DpSyncConfig distributed() {
    return {DpSyncKind::kDistributedOptimizer, 1};
  }
  static DpSyncConfig overlapped(int buckets = 4) {
    return {DpSyncKind::kOverlappedDistributedOptimizer, buckets};
  }
  static DpSyncConfig fully_sharded() {
    return {DpSyncKind::kFullyShardedOptimizer, 1};
  }
};

/// Splits `total` bytes into `buckets` near-equal pieces (first buckets get
/// the remainder, mirroring comm::ChunkLayout). Throws holmes::ConfigError
/// for non-positive bucket counts or negative totals; buckets may exceed
/// total, producing zero-byte tails which callers should skip.
std::vector<Bytes> bucket_sizes(Bytes total, int buckets);

}  // namespace holmes::optimizer
