#include "sim/task_graph.h"

#include <algorithm>
#include <limits>

// Header-only hooks: no-ops unless an obs::SelfProfiler is active on this
// thread, and no link dependency on holmes_obs.
#include "obs/self_profile.h"
#include "util/error.h"

namespace holmes::sim {

namespace {
using obs::SelfProfileCounters;
namespace prof = obs::self_profile;
}  // namespace

ResourceId TaskGraph::add_resource(std::string name) {
  HOLMES_CHECK(resource_names_.size() <
               static_cast<std::size_t>(std::numeric_limits<ResourceId>::max()));
  prof::count(&SelfProfileCounters::resources_created);
  resource_names_.push_back(std::move(name));
  return static_cast<ResourceId>(resource_names_.size() - 1);
}

TaskId TaskGraph::push(const Task& task, const TaskInfo& info) {
  HOLMES_CHECK(tasks_.size() <
               static_cast<std::size_t>(std::numeric_limits<TaskId>::max()));
  prof::count(&SelfProfileCounters::tasks_created);
  adjacency_valid_ = false;
  tasks_.push_back(task);
  infos_.push_back(info);
  return static_cast<TaskId>(tasks_.size() - 1);
}

LabelId TaskGraph::intern(std::string_view label) {
  if (label.empty()) return kNoLabel;
  const auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  HOLMES_CHECK(labels_.size() < std::numeric_limits<LabelId>::max());
  const auto id = static_cast<LabelId>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

TaskId TaskGraph::add_compute(ResourceId resource, SimTime duration,
                              std::string_view label, TaskTag tag) {
  HOLMES_CHECK_MSG(resource >= 0 &&
                       static_cast<std::size_t>(resource) < resource_names_.size(),
                   "unknown resource");
  HOLMES_CHECK_MSG(duration >= 0, "negative compute duration");
  Task t;
  t.kind = TaskKind::kCompute;
  t.resource = resource;
  t.dst_port = resource;
  t.cost = duration;
  TaskInfo info;
  info.label = intern(label);
  info.tag = tag;
  prof::count(&SelfProfileCounters::compute_tasks);
  return push(t, info);
}

TaskId TaskGraph::add_transfer(ResourceId src_port, ResourceId dst_port,
                               Bytes bytes, double bandwidth, SimTime latency,
                               std::string_view label, TaskTag tag,
                               ChannelId channel) {
  HOLMES_CHECK_MSG(src_port >= 0 &&
                       static_cast<std::size_t>(src_port) < resource_names_.size(),
                   "unknown src port");
  HOLMES_CHECK_MSG(dst_port >= 0 &&
                       static_cast<std::size_t>(dst_port) < resource_names_.size(),
                   "unknown dst port");
  HOLMES_CHECK_MSG(bytes >= 0, "negative transfer size");
  HOLMES_CHECK_MSG(bytes == 0 || bandwidth > 0,
                   "non-empty transfer needs positive bandwidth");
  HOLMES_CHECK_MSG(latency >= 0, "negative latency");
  HOLMES_CHECK_MSG(channel == kInvalidChannel ||
                       (channel >= 0 && static_cast<std::size_t>(channel) <
                                            channel_names_.size()),
                   "unknown channel");
  Task t;
  t.kind = TaskKind::kTransfer;
  t.resource = src_port;
  t.dst_port = dst_port;
  // The ports are held for the serialization time; the division is done
  // here once, so placement never divides.
  t.cost = bytes > 0 ? static_cast<double>(bytes) / bandwidth : 0.0;
  t.latency = latency;
  TaskInfo info;
  info.bytes = bytes;
  info.bandwidth = bandwidth;
  info.channel = channel;
  info.label = intern(label);
  info.tag = tag;
  prof::count(&SelfProfileCounters::transfer_tasks);
  return push(t, info);
}

TaskId TaskGraph::add_noop(std::string_view label, TaskTag tag) {
  // Its resources are set to the scratch slot by build_adjacency(): more
  // resources may still be added.
  TaskInfo info;
  info.label = intern(label);
  info.tag = tag;
  prof::count(&SelfProfileCounters::noop_tasks);
  return push(Task{}, info);
}

void TaskGraph::add_dep(TaskId task, TaskId dep) {
  HOLMES_CHECK_MSG(task >= 0 && static_cast<std::size_t>(task) < tasks_.size(),
                   "unknown task");
  HOLMES_CHECK_MSG(dep >= 0 && static_cast<std::size_t>(dep) < tasks_.size(),
                   "unknown dependency");
  HOLMES_CHECK_MSG(dep != task, "task cannot depend on itself");
  prof::count(&SelfProfileCounters::deps_added);
  adjacency_valid_ = false;
  edges_.push_back(Edge{task, dep});
}

void TaskGraph::add_deps(TaskId task, std::span<const TaskId> deps) {
  for (TaskId dep : deps) {
    if (dep != kInvalidTask) add_dep(task, dep);
  }
}

void TaskGraph::reserve(std::size_t tasks, std::size_t deps) {
  tasks_.reserve(tasks);
  infos_.reserve(tasks);
  edges_.reserve(deps);
}

void TaskGraph::clear() {
  tasks_.clear();
  infos_.clear();
  edges_.clear();
  resource_names_.clear();
  channel_names_.clear();
  labels_.resize(1);  // kNoLabel's ""
  label_ids_.clear();
  // build_adjacency() reassigns the CSR arrays in place.
  adjacency_valid_ = false;
  max_dependents_ = 0;
}

const Task& TaskGraph::task(TaskId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size());
  return tasks_[static_cast<std::size_t>(id)];
}

const TaskInfo& TaskGraph::info(TaskId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < infos_.size());
  return infos_[static_cast<std::size_t>(id)];
}

const std::string& TaskGraph::label(TaskId id) const {
  return labels_[info(id).label];
}

const std::string& TaskGraph::resource_name(ResourceId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < resource_names_.size());
  return resource_names_[static_cast<std::size_t>(id)];
}

ChannelId TaskGraph::channel(const std::string& name) {
  for (std::size_t i = 0; i < channel_names_.size(); ++i) {
    if (channel_names_[i] == name) return static_cast<ChannelId>(i);
  }
  HOLMES_CHECK(channel_names_.size() <
               static_cast<std::size_t>(std::numeric_limits<ChannelId>::max()));
  prof::count(&SelfProfileCounters::channels_created);
  channel_names_.push_back(name);
  return static_cast<ChannelId>(channel_names_.size() - 1);
}

const std::string& TaskGraph::channel_name(ChannelId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < channel_names_.size());
  return channel_names_[static_cast<std::size_t>(id)];
}

std::span<const TaskId> TaskGraph::deps(TaskId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size());
  if (!adjacency_valid_) build_adjacency();
  const std::size_t i = static_cast<std::size_t>(id);
  return {dep_list_.data() + dep_offset_[i],
          dep_list_.data() + dep_offset_[i + 1]};
}

std::span<const TaskId> TaskGraph::dependents(TaskId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size());
  if (!adjacency_valid_) build_adjacency();
  const Task& t = tasks_[static_cast<std::size_t>(id)];
  return {dependent_list_.data() + t.out_begin, t.out_count};
}

std::span<const std::uint32_t> TaskGraph::dep_offsets() const {
  if (!adjacency_valid_) build_adjacency();
  return {dep_offset_.data(), dep_offset_.size()};
}

std::span<const TaskId> TaskGraph::dependent_list() const {
  if (!adjacency_valid_) build_adjacency();
  return {dependent_list_.data(), dependent_list_.size()};
}

std::size_t TaskGraph::max_dependent_count() const {
  if (!adjacency_valid_) build_adjacency();
  return max_dependents_;
}

void TaskGraph::build_adjacency() const {
  if (adjacency_valid_) return;
  const std::size_t n = tasks_.size();
  // Counting sort: one pass to count degrees, a prefix sum for offsets, a
  // second pass to scatter. Stable — within a task, list order equals
  // edge-declaration (add_dep) order. The dependents' offsets are kept only
  // as each Task's out_begin/out_count.
  dep_offset_.assign(n + 1, 0);
  std::vector<std::uint32_t> dependent_offset(n + 1, 0);
  for (const Edge& e : edges_) {
    ++dep_offset_[static_cast<std::size_t>(e.task) + 1];
    ++dependent_offset[static_cast<std::size_t>(e.dep) + 1];
  }
  max_dependents_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_dependents_ = std::max<std::size_t>(max_dependents_,
                                            dependent_offset[i + 1]);
    dep_offset_[i + 1] += dep_offset_[i];
    dependent_offset[i + 1] += dependent_offset[i];
  }
  dep_list_.resize(edges_.size());
  dependent_list_.resize(edges_.size());
  std::vector<std::uint32_t> dep_cursor(dep_offset_.begin(),
                                        dep_offset_.end() - 1);
  std::vector<std::uint32_t> dependent_cursor(dependent_offset.begin(),
                                              dependent_offset.end() - 1);
  for (const Edge& e : edges_) {
    dep_list_[dep_cursor[static_cast<std::size_t>(e.task)]++] = e.dep;
    dependent_list_[dependent_cursor[static_cast<std::size_t>(e.dep)]++] =
        e.task;
  }
  // See the Task doc comment: noops resolve to the scratch slot so
  // placement is branch-free.
  const auto scratch = static_cast<ResourceId>(resource_names_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Task& t = tasks_[i];
    t.out_begin = dependent_offset[i];
    t.out_count = dependent_offset[i + 1] - dependent_offset[i];
    const std::uint32_t inl = std::min(t.out_count, Task::kInlineOut);
    for (std::uint32_t j = 0; j < inl; ++j) {
      t.out[j] = dependent_list_[t.out_begin + j];
    }
    if (t.kind == TaskKind::kNoop) {
      t.resource = scratch;
      t.dst_port = scratch;
    }
  }
  adjacency_valid_ = true;
}

}  // namespace holmes::sim
