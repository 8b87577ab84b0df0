#pragma once

/// \file task_graph.h
/// Task-graph representation of one unit of simulated work (typically a
/// single training iteration).
///
/// A task graph contains:
///  - resources: serial execution units (a device's compute engine, a NIC's
///    TX port, a NIC's RX port). A resource runs at most one task at a time.
///  - tasks: Compute (occupies one resource for a precomputed duration),
///    Transfer (occupies a TX and an RX port for the serialization time and
///    completes after an additional propagation latency), and Noop (zero
///    cost; used as join/fork points).
///  - dependencies: edges that must complete before a task may start.
///
/// Higher layers (comm collectives, pipeline schedules, optimizer overlap)
/// express themselves purely through this structure; overlap of computation
/// with communication falls out of resources being independent.
///
/// Memory layout: each task is stored once, as a 64-byte Task record the
/// executor places directly, plus a 32-byte TaskInfo holding what only
/// readers use. Dependencies live in one flat edge list, compiled on demand
/// into a cached CSR adjacency (dep and dependent index arrays) whose first
/// dependents the compile also copies into each Task. Tasks therefore carry
/// no per-task dependency vector — building a million-edge graph performs
/// zero per-dependency heap allocations, and the executor walks contiguous
/// arrays. Read dependencies through `deps(id)` / `dependents(id)`; the first
/// call after a mutation pays one linear counting-sort pass, later calls are
/// free. Labels are interned in a per-graph table, so a task stores a 4-byte
/// LabelId and lowering a label seen before allocates nothing; read them
/// through `label(id)`.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace holmes::sim {

using TaskId = std::int32_t;
using ResourceId = std::int32_t;

/// Logical traffic channel a transfer belongs to (typically a communicator
/// such as "dp0", or "pp" for pipeline point-to-point hops). Channels let
/// the observability layer attribute bytes and bandwidth per communicator
/// without parsing labels; they have no effect on scheduling.
using ChannelId = std::int32_t;

/// Index into the owning graph's label table (TaskGraph::label()). Equal
/// labels share one id; kNoLabel is the empty label.
using LabelId = std::uint32_t;

inline constexpr TaskId kInvalidTask = -1;
inline constexpr ChannelId kInvalidChannel = -1;
inline constexpr LabelId kNoLabel = 0;

enum class TaskKind : std::uint8_t { kCompute, kTransfer, kNoop };

/// Accounting category for a task. Metrics aggregate start/finish spans and
/// busy time per tag (e.g. "time spent in grads-reduce-scatter", Fig. 3).
/// Tags are plain integers; the core library defines the canonical values.
using TaskTag = std::int32_t;
inline constexpr TaskTag kUntagged = 0;

/// One task, in the form the executor places it: the resources, the costs
/// *and* the first dependents fused into exactly one cache line. On large
/// graphs task ids reach the ready queue in near-random order, so placement
/// is bound by cache misses; one line per task is the difference between
/// one miss and three. add_compute / add_transfer / add_noop write the
/// record; build_adjacency() fills the dependents. Dependents beyond the
/// inline capacity continue in dependent_list()[out_begin + kInlineOut ...].
/// What only readers use (tag, channel, label, bytes, bandwidth) lives in
/// the task's TaskInfo.
struct alignas(64) Task {
  /// Dependents stored inline; graphs built from collectives and pipeline
  /// schedules have out-degree <= 2 almost everywhere.
  static constexpr std::uint32_t kInlineOut = 7;

  /// `resource` and `dst_port` are always valid indices once the adjacency
  /// is compiled, so placement needs no per-kind branching: a compute sets
  /// dst_port = resource, and a noop is parked on the scratch slot at index
  /// resource_count() by build_adjacency() (executors size their
  /// per-resource arrays resource_count() + 1). With latency and cost 0 for
  /// the degenerate kinds, every task places as
  ///   start  = max(ready, avail[resource], avail[dst_port])
  ///   ports  = start + cost
  ///   finish = (start + latency) + cost
  /// which is bit-exact against the per-kind formulas: x + 0.0 == x for the
  /// non-negative times the graph admits, and the scratch slot's avail can
  /// never exceed `ready` because tasks place in nondecreasing ready order.
  SimTime cost = 0;     ///< compute duration / transfer bytes / bandwidth
  SimTime latency = 0;  ///< transfer propagation latency (0 otherwise)
  ResourceId resource = -1;  ///< compute resource / TX port / scratch (noop)
  ResourceId dst_port = -1;  ///< RX port; = resource (compute), scratch (noop)
  std::uint32_t out_begin = 0;  ///< this task's slice of dependent_list()
  std::uint32_t out_count = 0;  ///< total dependent count
  TaskKind kind = TaskKind::kNoop;
  TaskId out[kInlineOut] = {};  ///< first min(out_count, kInlineOut) dependents
};
static_assert(sizeof(Task) == 64, "Task must fill one cache line");

/// The fields of a task that only readers use (accounting, traces, the
/// verifier); the executor never touches them. Parallel to the Task records.
struct TaskInfo {
  Bytes bytes = 0;       ///< transfer payload (0 otherwise)
  double bandwidth = 0;  ///< transfer path bytes per second (0 otherwise)
  TaskTag tag = kUntagged;
  ChannelId channel = kInvalidChannel;  ///< owning communicator, if any
  /// Optional; used in traces and error messages. An id into the owning
  /// graph's label table: read the text through TaskGraph::label().
  LabelId label = kNoLabel;
};
static_assert(sizeof(TaskInfo) == 32, "TaskInfo must stay 32 bytes");

class TaskGraph {
 public:
  /// Registers a serial resource and returns its id.
  ResourceId add_resource(std::string name);

  /// Adds a compute task occupying `resource` for `duration` seconds. The
  /// label is interned (see label()), here and in add_transfer/add_noop.
  TaskId add_compute(ResourceId resource, SimTime duration,
                     std::string_view label = {}, TaskTag tag = kUntagged);

  /// Adds a point-to-point transfer of `bytes` over a path with the given
  /// bandwidth (bytes/s) and latency (s). The TX and RX ports are occupied
  /// for the serialization time bytes/bandwidth; the transfer's dependents
  /// additionally wait for the propagation latency.
  TaskId add_transfer(ResourceId src_port, ResourceId dst_port, Bytes bytes,
                      double bandwidth, SimTime latency,
                      std::string_view label = {}, TaskTag tag = kUntagged,
                      ChannelId channel = kInvalidChannel);

  /// Returns the channel named `name`, registering it on first use. Channel
  /// ids are dense and stable in registration order.
  ChannelId channel(const std::string& name);

  /// Adds a zero-cost join/fork point.
  TaskId add_noop(std::string_view label = {}, TaskTag tag = kUntagged);

  /// Declares that `task` cannot start before `dep` finishes.
  void add_dep(TaskId task, TaskId dep);

  /// Declares dependencies on several tasks at once; kInvalidTask entries
  /// are ignored, which lets callers pass optional predecessors verbatim.
  /// The initializer-list form lets `add_deps(t, {a, b})` allocate nothing.
  void add_deps(TaskId task, std::span<const TaskId> deps);
  void add_deps(TaskId task, std::initializer_list<TaskId> deps) {
    add_deps(task, std::span<const TaskId>(deps.begin(), deps.size()));
  }

  /// Reserves room for `tasks` tasks and `deps` dependency edges in total,
  /// so a caller that knows the final size pays no regrowth.
  void reserve(std::size_t tasks, std::size_t deps);

  /// Removes every task, edge, resource, channel and label but keeps the
  /// storage, so a graph lowered again into this one reuses it instead of
  /// allocating (and first touching) its arrays anew.
  void clear();

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t resource_count() const { return resource_names_.size(); }
  std::size_t channel_count() const { return channel_names_.size(); }
  /// Dependency edges declared so far.
  std::size_t dep_count() const { return edges_.size(); }

  /// Largest dependent (out-degree) count of any task; a sizing hint for
  /// release buffers. Compiled with the adjacency.
  std::size_t max_dependent_count() const;

  /// The task's record. Its dependents (out_*) and a noop's scratch slot
  /// are valid once the adjacency is compiled (build_adjacency()).
  const Task& task(TaskId id) const;
  /// The task's reader-only fields.
  const TaskInfo& info(TaskId id) const;
  /// The task's label; empty when it was added without one.
  const std::string& label(TaskId id) const;
  const std::string& resource_name(ResourceId id) const;
  const std::string& channel_name(ChannelId id) const;

  /// Every task's record and reader-only fields, indexed by TaskId.
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<TaskInfo>& infos() const { return infos_; }

  /// Dependencies of `id` in add_dep order (a view into the cached CSR
  /// adjacency; valid until the next graph mutation).
  std::span<const TaskId> deps(TaskId id) const;

  /// Tasks that depend on `id`, in edge-declaration order (same validity).
  std::span<const TaskId> dependents(TaskId id) const;

  /// Raw CSR arrays, for hot loops that inline the adjacency walk or issue
  /// prefetches by address. dep_offsets() has task_count()+1 entries (task
  /// `i` has `offsets[i+1] - offsets[i]` dependencies); task `i`'s
  /// dependents are dependent_list()[out_begin .. out_begin + out_count) of
  /// its Task record. Same cache validity as deps()/dependents().
  std::span<const std::uint32_t> dep_offsets() const;
  std::span<const TaskId> dependent_list() const;

  /// Compiles the CSR adjacency now if any mutation invalidated it, filling
  /// each Task's dependents and parking noops on the scratch slot.
  /// Implied by deps()/dependents(); call explicitly before sharing the
  /// graph read-only across threads (lazy builds are not synchronized).
  void build_adjacency() const;

 private:
  TaskId push(const Task& task, const TaskInfo& info);
  LabelId intern(std::string_view label);

  /// One dependency edge: `task` waits for `dep`.
  struct Edge {
    TaskId task;
    TaskId dep;
  };

  // Written by add_*; build_adjacency() fills the out_* fields and the
  // noops' scratch slot in place, hence mutable.
  mutable std::vector<Task> tasks_;
  std::vector<TaskInfo> infos_;
  std::vector<Edge> edges_;
  std::vector<std::string> resource_names_;
  std::vector<std::string> channel_names_;

  /// Transparent hash, so interning looks a string_view up without building
  /// a std::string.
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> labels_{std::string()};  ///< LabelId -> text
  std::unordered_map<std::string, LabelId, LabelHash, std::equal_to<>>
      label_ids_;  ///< text -> LabelId, for every label but kNoLabel's

  // Cached CSR views of edges_, built by build_adjacency(). dep_offset_ has
  // task_count()+1 entries; lists are edge-count long; each Task's out_*
  // fields index dependent_list_. Stable: per-task order equals
  // edge-declaration order (counting sort).
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::uint32_t> dep_offset_;
  mutable std::vector<TaskId> dep_list_;
  mutable std::vector<TaskId> dependent_list_;
  mutable std::size_t max_dependents_ = 0;
};

}  // namespace holmes::sim
