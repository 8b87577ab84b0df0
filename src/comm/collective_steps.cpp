#include "comm/collective_steps.h"

#include <algorithm>
#include <map>

#include "util/error.h"

namespace holmes::comm {

namespace {
int mod(int a, int n) { return ((a % n) + n) % n; }
}  // namespace

ChunkLayout::ChunkLayout(std::int64_t elems, int chunks)
    : elems_(elems), chunks_(chunks) {
  HOLMES_CHECK_MSG(elems >= 0, "negative element count");
  HOLMES_CHECK_MSG(chunks >= 1, "need at least one chunk");
}

std::int64_t ChunkLayout::offset(int chunk) const {
  HOLMES_CHECK(chunk >= 0 && chunk < chunks_);
  const std::int64_t base = elems_ / chunks_;
  const std::int64_t longer = elems_ % chunks_;
  // First `longer` chunks have (base + 1) elements.
  return static_cast<std::int64_t>(chunk) * base + std::min<std::int64_t>(chunk, longer);
}

std::int64_t ChunkLayout::count(int chunk) const {
  HOLMES_CHECK(chunk >= 0 && chunk < chunks_);
  const std::int64_t base = elems_ / chunks_;
  const std::int64_t longer = elems_ % chunks_;
  return base + (chunk < longer ? 1 : 0);
}

int ring_owned_chunk(int n, int rank) {
  HOLMES_CHECK(n >= 1 && rank >= 0 && rank < n);
  return mod(rank + 1, n);
}

std::vector<CollectiveStep> ring_reduce_scatter_steps(int n, std::int64_t elems) {
  HOLMES_CHECK_MSG(n >= 1, "group must be non-empty");
  std::vector<CollectiveStep> steps;
  if (n == 1 || elems == 0) return steps;
  const ChunkLayout layout(elems, n);
  steps.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (int s = 0; s < n - 1; ++s) {
    for (int i = 0; i < n; ++i) {
      const int chunk = mod(i - s, n);
      if (layout.count(chunk) == 0) continue;
      steps.push_back(CollectiveStep{s, i, mod(i + 1, n),
                                     layout.offset(chunk), layout.offset(chunk),
                                     layout.count(chunk), /*reduce=*/true});
    }
  }
  return steps;
}

std::vector<CollectiveStep> ring_all_gather_steps(int n, std::int64_t elems) {
  HOLMES_CHECK_MSG(n >= 1, "group must be non-empty");
  std::vector<CollectiveStep> steps;
  if (n == 1 || elems == 0) return steps;
  const ChunkLayout layout(elems, n);
  steps.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (int s = 0; s < n - 1; ++s) {
    for (int i = 0; i < n; ++i) {
      const int chunk = mod(i + 1 - s, n);
      if (layout.count(chunk) == 0) continue;
      steps.push_back(CollectiveStep{s, i, mod(i + 1, n),
                                     layout.offset(chunk), layout.offset(chunk),
                                     layout.count(chunk), /*reduce=*/false});
    }
  }
  return steps;
}

std::vector<CollectiveStep> ring_all_reduce_steps(int n, std::int64_t elems) {
  std::vector<CollectiveStep> steps = ring_reduce_scatter_steps(n, elems);
  std::vector<CollectiveStep> gather = ring_all_gather_steps(n, elems);
  for (auto& step : gather) step.round += n - 1;
  steps.insert(steps.end(), gather.begin(), gather.end());
  return steps;
}

std::vector<CollectiveStep> broadcast_steps(int n, int root, std::int64_t elems) {
  HOLMES_CHECK_MSG(n >= 1, "group must be non-empty");
  HOLMES_CHECK_MSG(root >= 0 && root < n, "broadcast root out of range");
  std::vector<CollectiveStep> steps;
  if (n == 1 || elems == 0) return steps;
  // Pipeline the buffer as n chunks through the ring starting at root:
  // chunk j leaves ring position q at round j + q.
  const ChunkLayout layout(elems, n);
  for (int j = 0; j < n; ++j) {
    if (layout.count(j) == 0) continue;
    for (int q = 0; q < n - 1; ++q) {
      steps.push_back(CollectiveStep{j + q, mod(root + q, n),
                                     mod(root + q + 1, n), layout.offset(j),
                                     layout.offset(j), layout.count(j),
                                     /*reduce=*/false});
    }
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const CollectiveStep& a, const CollectiveStep& b) {
                     return a.round < b.round;
                   });
  return steps;
}

std::vector<CollectiveStep> all_to_all_steps(int n, std::int64_t block_elems) {
  HOLMES_CHECK_MSG(n >= 1, "group must be non-empty");
  HOLMES_CHECK_MSG(block_elems >= 0, "negative block size");
  std::vector<CollectiveStep> steps;
  if (n == 1 || block_elems == 0) return steps;
  // Round s: rank i exchanges with rank (i + s) mod n. Send layout is keyed
  // by destination, receive layout by source.
  for (int s = 1; s < n; ++s) {
    for (int i = 0; i < n; ++i) {
      const int dst = mod(i + s, n);
      steps.push_back(CollectiveStep{s - 1, i, dst, dst * block_elems,
                                     i * block_elems, block_elems,
                                     /*reduce=*/false});
    }
  }
  return steps;
}

void validate_steps(const std::vector<CollectiveStep>& steps, int n,
                    std::int64_t elems, bool in_place) {
  struct Region {
    int rank;
    std::int64_t lo, hi;
  };
  std::map<int, std::vector<Region>> writes_by_round;
  for (const auto& s : steps) {
    HOLMES_CHECK_MSG(s.src >= 0 && s.src < n, "step src out of range");
    HOLMES_CHECK_MSG(s.dst >= 0 && s.dst < n, "step dst out of range");
    HOLMES_CHECK_MSG(s.src != s.dst, "step sends to itself");
    HOLMES_CHECK_MSG(s.count > 0, "step moves nothing");
    HOLMES_CHECK_MSG(s.src_offset >= 0 && s.dst_offset >= 0, "negative offset");
    if (elems >= 0) {
      HOLMES_CHECK_MSG(s.src_offset + s.count <= elems, "src region overflows");
      HOLMES_CHECK_MSG(s.dst_offset + s.count <= elems, "dst region overflows");
    }
    writes_by_round[s.round].push_back(
        Region{s.dst, s.dst_offset, s.dst_offset + s.count});
  }
  // Intra-round hazard check (in-place execution only): a step's source
  // region must not be written by any step of the same round.
  if (!in_place) return;
  for (const auto& s : steps) {
    for (const auto& w : writes_by_round[s.round]) {
      if (w.rank != s.src) continue;
      const std::int64_t lo = std::max(w.lo, s.src_offset);
      const std::int64_t hi = std::min(w.hi, s.src_offset + s.count);
      HOLMES_CHECK_MSG(lo >= hi, "intra-round read/write hazard");
    }
  }
}

Bytes bytes_sent_by(const std::vector<CollectiveStep>& steps, int rank,
                    Bytes bytes_per_elem) {
  Bytes total = 0;
  for (const auto& s : steps) {
    if (s.src == rank) total += s.count * bytes_per_elem;
  }
  return total;
}

}  // namespace holmes::comm
