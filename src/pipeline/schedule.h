#pragma once

/// \file schedule.h
/// Pipeline execution schedules: the per-stage order of forward/backward
/// work over the micro-batches of one iteration (ending in a pipeline
/// flush, i.e. synchronous optimizer semantics).
///
/// GPipe runs all forwards then all backwards (simple, high activation
/// memory). PipeDream-Flush (1F1B) — the schedule Holmes builds on —
/// limits in-flight micro-batches per stage to the pipeline depth by
/// alternating one-forward-one-backward after a short warm-up.

#include <vector>

namespace holmes::pipeline {

enum class OpKind { kForward, kBackward };

struct PipelineOp {
  OpKind kind = OpKind::kForward;
  int microbatch = 0;
  /// Model-chunk index for interleaved schedules (virtual pipeline stage
  /// chunk * stages + device_stage); always 0 for GPipe and plain 1F1B.
  int chunk = 0;
  bool operator==(const PipelineOp&) const = default;
};

/// Ordered work list of one stage for one iteration.
using StageProgram = std::vector<PipelineOp>;

// Each schedule's programs(stages, microbatches) returns the programs of
// all `stages`, each covering `microbatches` forwards and backwards, and
// throws holmes::ConfigError on non-positive arguments.

/// All forwards, then all backwards.
class GPipeSchedule {
 public:
  std::vector<StageProgram> programs(int stages, int microbatches) const;
};

/// PipeDream-Flush / 1F1B: stage s warms up with (stages-1-s) forwards,
/// then alternates forward/backward, then drains the remaining backwards.
class PipeDreamFlushSchedule {
 public:
  std::vector<StageProgram> programs(int stages, int microbatches) const;
};

/// Megatron-LM's interleaved 1F1B: each device hosts `chunks` model chunks,
/// forming a virtual pipeline of stages*chunks stages that loops through
/// the devices `chunks` times. Smaller bubbles at the price of more
/// cross-device activation traffic. Requires microbatches to be a multiple
/// of the stage count (Megatron's own constraint).
class InterleavedSchedule {
 public:
  explicit InterleavedSchedule(int chunks);

  std::vector<StageProgram> programs(int stages, int microbatches) const;

 private:
  int chunks_;
};

/// Maximum number of micro-batches whose forward has run but whose backward
/// has not, at any point of `program` — the activation-memory high-water
/// mark of the schedule.
int max_in_flight(const StageProgram& program);

/// Validates a full schedule: every stage runs each micro-batch's forward
/// exactly once and backward exactly once per chunk, forward precedes
/// backward, and the cross-stage dependency order is realizable (checked
/// structurally via a topological simulation over virtual stages
/// v = chunk * stages + stage). Throws holmes::InternalError on violation.
/// `chunks` is 1 for GPipe / plain 1F1B.
void validate_schedule(const std::vector<StageProgram>& programs,
                       int microbatches, int chunks = 1);

}  // namespace holmes::pipeline
