#pragma once

/// \file inprocess.h
/// Eager execution of collective step programs on real float buffers.
///
/// This is the numeric backend: tests use it to prove the step programs are
/// the genuine NCCL-style algorithms (sums match, chunk ownership matches),
/// which in turn validates the timed lowering that shares the same programs.

#include <span>
#include <vector>

#include "comm/collective_steps.h"

namespace holmes::comm {

/// Per-rank views of a logical buffer. buffers[i] is group-rank i's copy.
using BufferSet = std::vector<std::span<float>>;

/// Applies `steps` in order: reduce steps accumulate into the destination,
/// copy steps overwrite. `src` and `dst` may alias (in-place collectives
/// pass the same set twice); correctness then relies on the program's
/// intra-round disjointness invariant (see validate_steps).
void apply_steps(const std::vector<CollectiveStep>& steps, const BufferSet& src,
                 const BufferSet& dst);

/// In-place ring all-reduce: every buffer ends up holding the element-wise
/// sum of all inputs.
void all_reduce_inplace(const BufferSet& buffers);

/// In-place ring reduce-scatter: afterwards group-rank i's region for
/// ring_owned_chunk(n, i) holds the full sum; other regions hold partials.
void reduce_scatter_inplace(const BufferSet& buffers);

/// In-place ring all-gather. Precondition: rank i's owned-chunk region is
/// authoritative (exactly the postcondition of reduce_scatter_inplace).
void all_gather_inplace(const BufferSet& buffers);

/// In-place pipelined broadcast from `root`.
void broadcast_inplace(const BufferSet& buffers, int root);

/// All-to-all: send[i] holds n equal blocks keyed by destination; recv[i]
/// receives n blocks keyed by source. Buffers must not alias.
void all_to_all(const BufferSet& send, const BufferSet& recv);

}  // namespace holmes::comm
