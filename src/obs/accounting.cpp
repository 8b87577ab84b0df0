#include "obs/accounting.h"

#include <algorithm>
#include <utility>

#include "obs/timing_internal.h"

namespace holmes::obs {

SimTime Window::clip(SimTime s, SimTime f) const {
  const SimTime lo = std::max(s, begin);
  const SimTime hi = std::min(f, end);
  return std::max(0.0, hi - lo);
}

namespace {

using detail::busy_end;
using detail::ready_time;
using detail::serialization_of;

/// True when [s, f) (or the instant s for zero-length tasks) intersects the
/// window.
bool in_window(const Window& window, SimTime s, SimTime f) {
  if (s >= window.begin && s < window.end) return true;
  return f > window.begin && s < window.end;
}

/// Measure of the union of intervals (assumed individually well-formed).
SimTime union_measure(std::vector<std::pair<SimTime, SimTime>>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  SimTime total = 0;
  SimTime lo = intervals.front().first;
  SimTime hi = intervals.front().second;
  for (const auto& [s, f] : intervals) {
    if (s > hi) {
      total += hi - lo;
      lo = s;
      hi = f;
    } else {
      hi = std::max(hi, f);
    }
  }
  return total + (hi - lo);
}

/// Intersection measure of one interval against a sorted, disjoint list.
SimTime covered_by(SimTime s, SimTime f,
                   const std::vector<std::pair<SimTime, SimTime>>& merged) {
  SimTime covered = 0;
  // merged is sorted; a binary search would do, but span lists are short.
  for (const auto& [lo, hi] : merged) {
    if (hi <= s) continue;
    if (lo >= f) break;
    covered += std::min(f, hi) - std::max(s, lo);
  }
  return covered;
}

std::vector<std::pair<SimTime, SimTime>> merge(
    std::vector<std::pair<SimTime, SimTime>> intervals) {
  std::vector<std::pair<SimTime, SimTime>> merged;
  if (intervals.empty()) return merged;
  std::sort(intervals.begin(), intervals.end());
  merged.push_back(intervals.front());
  for (const auto& [s, f] : intervals) {
    if (s > merged.back().second) {
      merged.emplace_back(s, f);
    } else {
      merged.back().second = std::max(merged.back().second, f);
    }
  }
  return merged;
}

}  // namespace

std::vector<ResourceAccount> account_resources(const sim::TaskGraph& graph,
                                               const sim::SimResult& result,
                                               const Window& window) {
  std::vector<ResourceAccount> accounts(graph.resource_count());
  for (std::size_t r = 0; r < accounts.size(); ++r) {
    accounts[r].id = static_cast<sim::ResourceId>(r);
    accounts[r].name = graph.resource_name(static_cast<sim::ResourceId>(r));
  }

  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    const sim::Task& task = graph.tasks()[i];
    if (task.kind == sim::TaskKind::kNoop) continue;
    const auto id = static_cast<sim::TaskId>(i);
    const sim::TaskTiming& timing = result.timing(id);
    const bool compute = task.kind == sim::TaskKind::kCompute;
    const SimTime held_until = busy_end(task, timing);
    const SimTime busy = window.clip(timing.start, held_until);
    const SimTime wait = window.clip(ready_time(graph, result, id),
                                     timing.start);
    const bool counted = in_window(window, timing.start, held_until);
    const Bytes bytes = graph.infos()[i].bytes;  // 0 for a compute
    auto charge = [&](sim::ResourceId resource) {
      ResourceAccount& acc = accounts[static_cast<std::size_t>(resource)];
      (compute ? acc.is_device : acc.is_link) = true;
      acc.busy += busy;
      acc.waiting += wait;
      if (counted) {
        acc.bytes += bytes;
        ++acc.tasks;
      }
    };
    charge(task.resource);
    if (task.dst_port != task.resource) charge(task.dst_port);
  }
  return accounts;
}

std::vector<ChannelAccount> account_channels(const sim::TaskGraph& graph,
                                             const sim::SimResult& result,
                                             const Window& window) {
  std::vector<ChannelAccount> accounts(graph.channel_count());
  std::vector<SimTime> first(accounts.size(),
                             std::numeric_limits<SimTime>::infinity());
  std::vector<SimTime> last(accounts.size(),
                            -std::numeric_limits<SimTime>::infinity());
  for (std::size_t c = 0; c < accounts.size(); ++c) {
    accounts[c].id = static_cast<sim::ChannelId>(c);
    accounts[c].name = graph.channel_name(static_cast<sim::ChannelId>(c));
  }
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    const sim::Task& task = graph.tasks()[i];
    const sim::TaskInfo& info = graph.infos()[i];
    if (task.kind != sim::TaskKind::kTransfer ||
        info.channel == sim::kInvalidChannel) {
      continue;
    }
    const sim::TaskTiming& timing = result.timing(static_cast<sim::TaskId>(i));
    if (timing.start < window.begin || timing.start >= window.end) continue;
    const auto c = static_cast<std::size_t>(info.channel);
    ChannelAccount& acc = accounts[c];
    acc.bytes += info.bytes;
    ++acc.transfers;
    acc.busy += serialization_of(task, timing);
    first[c] = std::min(first[c], timing.start);
    last[c] = std::max(last[c], timing.finish);
  }
  for (std::size_t c = 0; c < accounts.size(); ++c) {
    if (accounts[c].transfers > 0) {
      accounts[c].span = std::min(last[c], window.end) - first[c];
    }
  }
  return accounts;
}

SpanAccount account_tasks(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const TaskPredicate& predicate,
                          const Window& window) {
  SpanAccount account;
  SimTime first = std::numeric_limits<SimTime>::infinity();
  SimTime last = -std::numeric_limits<SimTime>::infinity();
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    if (graph.tasks()[i].kind == sim::TaskKind::kNoop) continue;
    if (!predicate(static_cast<sim::TaskId>(i))) continue;
    const sim::TaskTiming& timing = result.timing(static_cast<sim::TaskId>(i));
    const SimTime busy = window.clip(timing.start, timing.finish);
    if (busy <= 0 &&
        (timing.finish <= window.begin || timing.start >= window.end)) {
      continue;
    }
    account.busy += busy;
    ++account.tasks;
    first = std::min(first, std::max(timing.start, window.begin));
    last = std::max(last, std::min(timing.finish, window.end));
  }
  if (account.tasks > 0) account.span = last - first;
  return account;
}

OverlapAccount account_overlap(const sim::TaskGraph& graph,
                               const sim::SimResult& result,
                               const TaskPredicate& span_tasks,
                               const TaskPredicate& cover_tasks,
                               const Window& window) {
  std::vector<std::pair<SimTime, SimTime>> spans;
  std::vector<std::pair<SimTime, SimTime>> covers;
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    if (graph.tasks()[i].kind == sim::TaskKind::kNoop) continue;
    const auto id = static_cast<sim::TaskId>(i);
    const sim::TaskTiming& timing = result.timing(id);
    const SimTime lo = std::max(timing.start, window.begin);
    const SimTime hi = std::min(timing.finish, window.end);
    if (hi <= lo) continue;
    if (span_tasks(id)) spans.emplace_back(lo, hi);
    if (cover_tasks(id)) covers.emplace_back(lo, hi);
  }
  OverlapAccount account;
  const std::vector<std::pair<SimTime, SimTime>> merged_covers =
      merge(std::move(covers));
  std::vector<std::pair<SimTime, SimTime>> merged_spans =
      merge(std::move(spans));
  account.total = union_measure(merged_spans);
  for (const auto& [s, f] : merged_spans) {
    account.overlapped += covered_by(s, f, merged_covers);
  }
  account.exposed = account.total - account.overlapped;
  return account;
}

TaskPredicate tag_in(const sim::TaskGraph& graph,
                     std::vector<sim::TaskTag> tags) {
  return [&graph, tags = std::move(tags)](sim::TaskId id) {
    const sim::TaskTag tag = graph.info(id).tag;
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
  };
}

}  // namespace holmes::obs
