#include "pipeline/schedule.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace holmes::pipeline {

namespace {

void check_args(int stages, int microbatches) {
  if (stages <= 0) throw ConfigError("need at least one pipeline stage");
  if (microbatches <= 0) throw ConfigError("need at least one micro-batch");
}

}  // namespace

std::vector<StageProgram> GPipeSchedule::programs(int stages,
                                                  int microbatches) const {
  check_args(stages, microbatches);
  std::vector<StageProgram> all(static_cast<std::size_t>(stages));
  for (auto& program : all) {
    program.reserve(static_cast<std::size_t>(microbatches) * 2);
    for (int mb = 0; mb < microbatches; ++mb) {
      program.push_back({OpKind::kForward, mb});
    }
    for (int mb = 0; mb < microbatches; ++mb) {
      program.push_back({OpKind::kBackward, mb});
    }
  }
  return all;
}

std::vector<StageProgram> PipeDreamFlushSchedule::programs(
    int stages, int microbatches) const {
  check_args(stages, microbatches);
  std::vector<StageProgram> all(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    StageProgram& program = all[static_cast<std::size_t>(s)];
    program.reserve(static_cast<std::size_t>(microbatches) * 2);
    const int warmup = std::min(stages - 1 - s, microbatches);
    int next_fwd = 0;
    int next_bwd = 0;
    for (int i = 0; i < warmup; ++i) {
      program.push_back({OpKind::kForward, next_fwd++});
    }
    // Steady state: one forward, one backward.
    while (next_fwd < microbatches) {
      program.push_back({OpKind::kForward, next_fwd++});
      program.push_back({OpKind::kBackward, next_bwd++});
    }
    // Cool-down: drain remaining backwards.
    while (next_bwd < microbatches) {
      program.push_back({OpKind::kBackward, next_bwd++});
    }
  }
  return all;
}

InterleavedSchedule::InterleavedSchedule(int chunks) : chunks_(chunks) {
  if (chunks < 1) throw ConfigError("need at least one model chunk");
}

std::vector<StageProgram> InterleavedSchedule::programs(int stages,
                                                        int microbatches) const {
  check_args(stages, microbatches);
  if (chunks_ == 1) return PipeDreamFlushSchedule{}.programs(stages, microbatches);
  if (microbatches % stages != 0) {
    throw ConfigError(
        "interleaved schedule needs microbatches divisible by the stage "
        "count, got " + std::to_string(microbatches) + " % " +
        std::to_string(stages));
  }
  // Megatron-LM's interleaved 1F1B: per device, forward work items iterate
  // super-groups of stages*chunks items — chunks ascending, `stages`
  // consecutive micro-batches per chunk; backward mirrors with chunks
  // descending. Stage s warms up with 2*(stages-1-s) + (chunks-1)*stages
  // forwards, alternates, then drains.
  const int total = microbatches * chunks_;
  const int super = stages * chunks_;
  auto fwd_item = [&](int i) {
    const int group = i / super;
    const int chunk = i % super / stages;
    const int mb = group * stages + i % stages;
    return PipelineOp{OpKind::kForward, mb, chunk};
  };
  auto bwd_item = [&](int j) {
    const int group = j / super;
    const int chunk = chunks_ - 1 - j % super / stages;
    const int mb = group * stages + j % stages;
    return PipelineOp{OpKind::kBackward, mb, chunk};
  };

  std::vector<StageProgram> all(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    StageProgram& program = all[static_cast<std::size_t>(s)];
    program.reserve(static_cast<std::size_t>(total) * 2);
    const int warmup =
        std::min(2 * (stages - 1 - s) + (chunks_ - 1) * stages, total);
    int next_fwd = 0;
    int next_bwd = 0;
    for (int i = 0; i < warmup; ++i) program.push_back(fwd_item(next_fwd++));
    while (next_fwd < total) {
      program.push_back(fwd_item(next_fwd++));
      program.push_back(bwd_item(next_bwd++));
    }
    while (next_bwd < total) program.push_back(bwd_item(next_bwd++));
  }
  return all;
}

int max_in_flight(const StageProgram& program) {
  int in_flight = 0;
  int peak = 0;
  for (const PipelineOp& op : program) {
    in_flight += op.kind == OpKind::kForward ? 1 : -1;
    peak = std::max(peak, in_flight);
  }
  return peak;
}

void validate_schedule(const std::vector<StageProgram>& programs,
                       int microbatches, int chunks) {
  const int stages = static_cast<int>(programs.size());
  HOLMES_CHECK_MSG(stages > 0, "empty schedule");
  HOLMES_CHECK_MSG(chunks >= 1, "need at least one chunk");
  const int virtual_stages = stages * chunks;

  // Per-stage sanity: each (micro-batch, chunk) appears as one forward then
  // one backward.
  for (int s = 0; s < stages; ++s) {
    const StageProgram& program = programs[static_cast<std::size_t>(s)];
    const auto slots = static_cast<std::size_t>(microbatches) * chunks;
    std::vector<int> fwd_at(slots, -1);
    std::vector<int> bwd_at(slots, -1);
    for (int i = 0; i < static_cast<int>(program.size()); ++i) {
      const PipelineOp& op = program[static_cast<std::size_t>(i)];
      HOLMES_CHECK_MSG(op.microbatch >= 0 && op.microbatch < microbatches,
                       "micro-batch index out of range");
      HOLMES_CHECK_MSG(op.chunk >= 0 && op.chunk < chunks,
                       "chunk index out of range");
      const auto slot =
          static_cast<std::size_t>(op.chunk) * microbatches + op.microbatch;
      auto& at = op.kind == OpKind::kForward ? fwd_at : bwd_at;
      HOLMES_CHECK_MSG(at[slot] == -1, "micro-batch scheduled twice");
      at[slot] = i;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      HOLMES_CHECK_MSG(fwd_at[slot] != -1, "missing forward");
      HOLMES_CHECK_MSG(bwd_at[slot] != -1, "missing backward");
      HOLMES_CHECK_MSG(fwd_at[slot] < bwd_at[slot], "backward before forward");
    }
  }

  // Cross-stage realizability over the virtual pipeline v = chunk*stages+s:
  // execute greedily; deadlock means the schedule is not a valid order.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(stages), 0);
  std::vector<std::vector<bool>> fwd_done(
      static_cast<std::size_t>(virtual_stages),
      std::vector<bool>(static_cast<std::size_t>(microbatches), false));
  std::vector<std::vector<bool>> bwd_done = fwd_done;
  bool progress = true;
  std::size_t remaining = 0;
  for (const auto& program : programs) remaining += program.size();
  while (remaining > 0 && progress) {
    progress = false;
    for (int s = 0; s < stages; ++s) {
      auto& i = cursor[static_cast<std::size_t>(s)];
      while (i < programs[static_cast<std::size_t>(s)].size()) {
        const PipelineOp& op = programs[static_cast<std::size_t>(s)][i];
        const auto mb = static_cast<std::size_t>(op.microbatch);
        const int v = op.chunk * stages + s;
        bool runnable;
        if (op.kind == OpKind::kForward) {
          runnable = v == 0 || fwd_done[static_cast<std::size_t>(v - 1)][mb];
        } else {
          runnable = fwd_done[static_cast<std::size_t>(v)][mb] &&
                     (v == virtual_stages - 1 ||
                      bwd_done[static_cast<std::size_t>(v + 1)][mb]);
        }
        if (!runnable) break;
        (op.kind == OpKind::kForward ? fwd_done : bwd_done)[
            static_cast<std::size_t>(v)][mb] = true;
        ++i;
        --remaining;
        progress = true;
      }
    }
  }
  HOLMES_CHECK_MSG(remaining == 0, "schedule deadlocks");
}

}  // namespace holmes::pipeline
