#include "comm/inprocess.h"

#include <algorithm>

#include "util/error.h"

namespace holmes::comm {

namespace {

void check_uniform(const BufferSet& buffers) {
  HOLMES_CHECK_MSG(!buffers.empty(), "empty buffer set");
  for (const auto& b : buffers) {
    HOLMES_CHECK_MSG(b.size() == buffers.front().size(),
                     "buffers must have equal length");
  }
}

}  // namespace

void apply_steps(const std::vector<CollectiveStep>& steps, const BufferSet& src,
                 const BufferSet& dst) {
  HOLMES_CHECK_MSG(src.size() == dst.size(), "src/dst rank count mismatch");
  for (const auto& s : steps) {
    HOLMES_CHECK(s.src >= 0 && static_cast<std::size_t>(s.src) < src.size());
    HOLMES_CHECK(s.dst >= 0 && static_cast<std::size_t>(s.dst) < dst.size());
    const std::span<float> from = src[static_cast<std::size_t>(s.src)];
    const std::span<float> to = dst[static_cast<std::size_t>(s.dst)];
    HOLMES_CHECK_MSG(
        s.src_offset + s.count <= static_cast<std::int64_t>(from.size()),
        "step reads past src buffer");
    HOLMES_CHECK_MSG(
        s.dst_offset + s.count <= static_cast<std::int64_t>(to.size()),
        "step writes past dst buffer");
    const float* in = from.data() + s.src_offset;
    float* out = to.data() + s.dst_offset;
    if (s.reduce) {
      for (std::int64_t k = 0; k < s.count; ++k) out[k] += in[k];
    } else {
      std::copy(in, in + s.count, out);
    }
  }
}

void all_reduce_inplace(const BufferSet& buffers) {
  check_uniform(buffers);
  const int n = static_cast<int>(buffers.size());
  const auto elems = static_cast<std::int64_t>(buffers.front().size());
  apply_steps(ring_all_reduce_steps(n, elems), buffers, buffers);
}

void reduce_scatter_inplace(const BufferSet& buffers) {
  check_uniform(buffers);
  const int n = static_cast<int>(buffers.size());
  const auto elems = static_cast<std::int64_t>(buffers.front().size());
  apply_steps(ring_reduce_scatter_steps(n, elems), buffers, buffers);
}

void all_gather_inplace(const BufferSet& buffers) {
  check_uniform(buffers);
  const int n = static_cast<int>(buffers.size());
  const auto elems = static_cast<std::int64_t>(buffers.front().size());
  apply_steps(ring_all_gather_steps(n, elems), buffers, buffers);
}

void broadcast_inplace(const BufferSet& buffers, int root) {
  check_uniform(buffers);
  const int n = static_cast<int>(buffers.size());
  const auto elems = static_cast<std::int64_t>(buffers.front().size());
  apply_steps(broadcast_steps(n, root, elems), buffers, buffers);
}

void all_to_all(const BufferSet& send, const BufferSet& recv) {
  HOLMES_CHECK_MSG(send.size() == recv.size(), "send/recv rank count mismatch");
  check_uniform(send);
  check_uniform(recv);
  const int n = static_cast<int>(send.size());
  const auto total = static_cast<std::int64_t>(send.front().size());
  HOLMES_CHECK_MSG(static_cast<std::int64_t>(recv.front().size()) == total,
                   "send/recv buffer length mismatch");
  HOLMES_CHECK_MSG(total % n == 0, "all-to-all buffer not divisible by group");
  const std::int64_t block = total / n;
  apply_steps(all_to_all_steps(n, block), send, recv);
  // Self-blocks move locally (no network step).
  for (int i = 0; i < n; ++i) {
    const float* in = send[static_cast<std::size_t>(i)].data() + i * block;
    float* out = recv[static_cast<std::size_t>(i)].data() + i * block;
    std::copy(in, in + block, out);
  }
}

}  // namespace holmes::comm
