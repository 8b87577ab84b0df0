#pragma once

/// \file collective_steps.h
/// Backend-agnostic step programs for collective operations.
///
/// A collective is expressed as a list of point-to-point steps grouped into
/// rounds. The same program drives two backends:
///  - the in-process backend executes the data movement on real float
///    buffers (numerically verified in tests), and
///  - the sim backend lowers each step to a timed transfer task.
///
/// The ring algorithms are the bandwidth-optimal ones used by NCCL/Horovod:
/// reduce-scatter and all-gather each move (n-1)/n of the buffer per rank,
/// so all-reduce moves 2(n-1)/n — this cost is *produced* by the program
/// rather than hardcoded anywhere.
///
/// Program invariant (checked by validate_steps, relied upon by both
/// backends): within one round, no step reads a buffer region on some rank
/// that another step of the same round writes. Rounds therefore execute
/// correctly when applied sequentially in emission order.

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace holmes::comm {

/// One point-to-point hop of a collective. Ranks are *indices within the
/// group* (0..n-1), not global topology ranks. Offsets/counts are in
/// elements of the logical buffer.
struct CollectiveStep {
  int round = 0;
  int src = -1;
  int dst = -1;
  std::int64_t src_offset = 0;
  std::int64_t dst_offset = 0;
  std::int64_t count = 0;
  bool reduce = false;  ///< dst += src (true) or dst = src (false)

  bool operator==(const CollectiveStep&) const = default;
};

/// Splits `elems` into `chunks` near-equal contiguous pieces; the first
/// (elems % chunks) chunks are one element longer.
class ChunkLayout {
 public:
  ChunkLayout(std::int64_t elems, int chunks);
  std::int64_t offset(int chunk) const;
  std::int64_t count(int chunk) const;
  int chunks() const { return chunks_; }
  std::int64_t elems() const { return elems_; }

 private:
  std::int64_t elems_;
  int chunks_;
};

/// After ring reduce-scatter over n ranks, group-rank `rank` holds the fully
/// reduced chunk with this index (the ring convention places rank i's chunk
/// at (i+1) mod n).
int ring_owned_chunk(int n, int rank);

/// Ring reduce-scatter: n-1 rounds, each rank sends one chunk per round to
/// its successor, accumulating. Empty for n == 1.
std::vector<CollectiveStep> ring_reduce_scatter_steps(int n, std::int64_t elems);

/// Ring all-gather: n-1 rounds propagating each rank's owned chunk around
/// the ring. Precondition: rank i's region for ring_owned_chunk(n, i) holds
/// the data to distribute. Empty for n == 1.
std::vector<CollectiveStep> ring_all_gather_steps(int n, std::int64_t elems);

/// Ring all-reduce: reduce-scatter rounds followed by all-gather rounds
/// (round numbers continue across the phases).
std::vector<CollectiveStep> ring_all_reduce_steps(int n, std::int64_t elems);

/// Pipelined chunked ring broadcast from `root`: the buffer is cut into n
/// chunks that stream around the ring, so large broadcasts approach full
/// link bandwidth instead of paying n-1 serial full-buffer hops.
std::vector<CollectiveStep> broadcast_steps(int n, int root, std::int64_t elems);

/// All-to-all (personalized exchange): each rank holds n blocks of
/// `block_elems` keyed by destination and receives n blocks keyed by source.
/// The self-block is not a step (backends copy it locally).
std::vector<CollectiveStep> all_to_all_steps(int n, std::int64_t block_elems);

/// Validates a step program against the class invariants: indices in
/// [0, n), src != dst, positive counts, regions within [0, elems), and —
/// when `in_place` is true — the intra-round read/write disjointness rule
/// that makes aliased (in-place) execution safe. Throws
/// holmes::InternalError on violation. `elems` < 0 skips the bounds check
/// and `in_place` should be false for all-to-all, whose source and
/// destination buffers are distinct.
void validate_steps(const std::vector<CollectiveStep>& steps, int n,
                    std::int64_t elems, bool in_place = true);

/// Total bytes a single rank transmits when executing `steps`, assuming
/// `bytes_per_elem`-sized elements; used by tests to pin the ring cost
/// factors (e.g. all-reduce == 2(n-1)/n * buffer).
Bytes bytes_sent_by(const std::vector<CollectiveStep>& steps, int rank,
                    Bytes bytes_per_elem);

}  // namespace holmes::comm
