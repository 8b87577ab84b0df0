#include "obs/timeline.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "obs/timing_internal.h"
#include "sim/rate_timeline.h"
#include "util/error.h"

namespace holmes::obs {

namespace {

using detail::busy_end;
using detail::ready_time;

/// Calls `fn` with each resource a compute or transfer task occupies: its
/// resource and, when distinct, its destination port.
template <typename Fn>
void for_each_port(const sim::Task& task, Fn&& fn) {
  fn(static_cast<std::size_t>(task.resource));
  if (task.dst_port != task.resource) {
    fn(static_cast<std::size_t>(task.dst_port));
  }
}

/// Visits the constant segments of a step series restricted to [begin, end).
template <typename Fn>
void for_each_segment(const std::vector<SimTime>& times,
                      const std::vector<double>& values, SimTime begin,
                      SimTime end, Fn&& fn) {
  if (end <= begin) return;
  if (times.empty()) {
    fn(begin, end, 0.0);
    return;
  }
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), begin) - times.begin());
  SimTime lo = begin;
  while (lo < end) {
    const SimTime hi = i < times.size() ? std::min(times[i], end) : end;
    const double value = i == 0 ? 0.0 : values[i - 1];
    if (hi > lo) fn(lo, hi, value);
    lo = hi;
    if (i >= times.size()) break;
    ++i;
  }
}

/// (time, bytes) events of one channel, in emission (task-id) order.
using ByteEvents = std::vector<std::pair<SimTime, double>>;

/// Buffers of radix_sort_times: the keys, their ping-pong copy and the
/// 16-bit digit counts. Each caller owns one, so the buffers, sized to the
/// caller's largest list, are freed when the caller returns.
struct SortScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint64_t> counts;
};

/// LSD radix sort on the IEEE-754 bit patterns (sign-flipped so the integer
/// order matches the double order for every finite value, -0.0 included).
/// Comparison sorts run at ~n log n branchy compares; the big per-class
/// event lists here are worth the four counting passes instead.
void radix_sort_times(std::vector<SimTime>& v, SortScratch& buffers) {
  const std::size_t n = v.size();
  std::vector<std::uint64_t>& keys = buffers.keys;
  std::vector<std::uint64_t>& scratch = buffers.scratch;
  std::vector<std::uint64_t>& counts = buffers.counts;
  keys.resize(n);
  scratch.resize(n);
  counts.resize(std::size_t{1} << 16);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(SimTime));
    std::memcpy(&bits, &v[i], sizeof(bits));
    bits ^= (bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
    keys[i] = bits;
  }
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = pass * 16;
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      counts[(keys[i] >> shift) & 0xFFFF]++;
    }
    std::uint64_t offset = 0;
    for (std::uint64_t& c : counts) {
      const std::uint64_t count = c;
      c = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      scratch[counts[(keys[i] >> shift) & 0xFFFF]++] = keys[i];
    }
    keys.swap(scratch);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = keys[i];
    bits ^= (bits >> 63) != 0 ? std::uint64_t{1} << 63 : ~std::uint64_t{0};
    std::memcpy(&v[i], &bits, sizeof(bits));
  }
}

/// Time-sorts an event list unless the id-ordered emission already left it
/// sorted (graph builders lay tasks down in rough time order, so the check
/// usually saves the sort). Every consumer below coalesces equal-time
/// events into one commutative integer-valued sum, so the output does not
/// depend on how — or whether — the equal-key sort ran.
void sort_times(std::vector<SimTime>& v, SortScratch& buffers) {
  if (std::is_sorted(v.begin(), v.end())) return;
  if (v.size() >= 4096) {
    radix_sort_times(v, buffers);
  } else {
    std::sort(v.begin(), v.end());
  }
}

void sort_events(ByteEvents& v) {
  const auto before = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(v.begin(), v.end(), before)) {
    std::sort(v.begin(), v.end(), before);
  }
}

/// Merges a +1 and a -1 event stream (each time-sorted) into the step
/// series StepSeries::from_deltas would build from the union, in linear
/// time. The deltas are integer-valued, so the running sum is bit-exact
/// regardless of equal-time consumption order.
StepSeries merge_counts(const std::vector<SimTime>& up,
                        const std::vector<SimTime>& down) {
  std::vector<SimTime> times;
  std::vector<double> values;
  times.reserve(up.size() + down.size());
  values.reserve(up.size() + down.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double value = 0;
  while (i < up.size() || j < down.size()) {
    const SimTime t = j >= down.size() ? up[i]
                      : i >= up.size() ? down[j]
                                       : std::min(up[i], down[j]);
    while (i < up.size() && up[i] == t) {
      value += 1.0;
      ++i;
    }
    while (j < down.size() && down[j] == t) {
      value -= 1.0;
      ++j;
    }
    times.push_back(t);
    values.push_back(value);
  }
  return StepSeries::from_levels(std::move(times), std::move(values));
}

/// merge_counts with per-event byte weights (channel in-flight curves).
/// Byte counts are integers well under 2^53, so the running sum stays
/// exact here too.
StepSeries merge_bytes(const ByteEvents& up, const ByteEvents& down) {
  std::vector<SimTime> times;
  std::vector<double> values;
  times.reserve(up.size() + down.size());
  values.reserve(up.size() + down.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double value = 0;
  while (i < up.size() || j < down.size()) {
    const SimTime t = j >= down.size() ? up[i].first
                      : i >= up.size() ? down[j].first
                                       : std::min(up[i].first, down[j].first);
    while (i < up.size() && up[i].first == t) {
      value += up[i].second;
      ++i;
    }
    while (j < down.size() && down[j].first == t) {
      value -= down[j].second;
      ++j;
    }
    times.push_back(t);
    values.push_back(value);
  }
  return StepSeries::from_levels(std::move(times), std::move(values));
}

/// Running sum of a time-sorted byte-event stream (cumulative delivery).
StepSeries accumulate_bytes(const ByteEvents& events) {
  std::vector<SimTime> times;
  std::vector<double> values;
  times.reserve(events.size());
  values.reserve(events.size());
  double value = 0;
  std::size_t i = 0;
  while (i < events.size()) {
    const SimTime t = events[i].first;
    while (i < events.size() && events[i].first == t) {
      value += events[i].second;
      ++i;
    }
    times.push_back(t);
    values.push_back(value);
  }
  return StepSeries::from_levels(std::move(times), std::move(values));
}

/// Groups task ids by slot as a CSR: slot s holds ids[offsets[s] ..
/// offsets[s + 1]) in ascending id order. `slots_of(i, add)` calls add(slot)
/// once for each slot task `i` belongs to.
template <typename SlotsOf>
void index_tasks(std::size_t tasks, std::size_t slots, SlotsOf&& slots_of,
                 std::vector<std::uint32_t>& offsets,
                 std::vector<sim::TaskId>& ids) {
  offsets.assign(slots + 1, 0);
  for (std::size_t i = 0; i < tasks; ++i) {
    slots_of(i, [&](std::size_t slot) { ++offsets[slot + 1]; });
  }
  for (std::size_t s = 0; s < slots; ++s) offsets[s + 1] += offsets[s];
  ids.resize(offsets[slots]);
  std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < tasks; ++i) {
    slots_of(i, [&](std::size_t slot) {
      ids[next[slot]++] = static_cast<sim::TaskId>(i);
    });
  }
}

/// `buckets` samples of `series` at the right edges of equal buckets tiling
/// the window, the last at the window's end itself.
std::vector<double> sample_right_edges(const StepSeries& series,
                                       const Window& window, int buckets) {
  const double span = window.end - window.begin;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    const double edge =
        i + 1 == buckets
            ? window.end
            : window.begin + span * (static_cast<double>(i + 1) / buckets);
    samples.push_back(series.value_at(edge));
  }
  return samples;
}

}  // namespace

StepSeries StepSeries::from_deltas(
    std::vector<std::pair<SimTime, double>> deltas) {
  StepSeries series;
  if (deltas.empty()) return series;
  // Stable by time: insertion order (one deterministic id-ordered pass)
  // breaks ties, so the summation order — and with it the exact floating-
  // point value at every breakpoint — is reproducible.
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  series.times_.reserve(deltas.size());
  series.values_.reserve(deltas.size());
  double value = 0;
  std::size_t i = 0;
  while (i < deltas.size()) {
    const SimTime at = deltas[i].first;
    while (i < deltas.size() && deltas[i].first == at) {
      value += deltas[i].second;
      ++i;
    }
    const double previous =
        series.values_.empty() ? 0.0 : series.values_.back();
    if (value == previous) continue;  // breakpoint changes nothing
    series.times_.push_back(at);
    series.values_.push_back(value);
  }
  return series;
}

StepSeries StepSeries::from_levels(std::vector<SimTime> times,
                                   std::vector<double> values) {
  StepSeries series;
  for (std::size_t i = 0; i < times.size() && i < values.size(); ++i) {
    const double previous =
        series.values_.empty() ? 0.0 : series.values_.back();
    if (values[i] == previous) continue;
    series.times_.push_back(times[i]);
    series.values_.push_back(values[i]);
  }
  return series;
}

double StepSeries::value_at(SimTime t) const {
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return 0.0;
  return values_[static_cast<std::size_t>(it - times_.begin()) - 1];
}

double StepSeries::maximum(SimTime begin, SimTime end) const {
  double best = 0.0;
  for_each_segment(times_, values_, begin, end,
                   [&](SimTime, SimTime, double v) {
                     best = std::max(best, v);
                   });
  return best;
}

SimTime StepSeries::maximum_at(SimTime begin, SimTime end) const {
  double best = 0.0;
  SimTime at = begin;
  bool found = false;
  for_each_segment(times_, values_, begin, end,
                   [&](SimTime lo, SimTime, double v) {
                     if (!found || v > best) {
                       best = v;
                       at = lo;
                       found = true;
                     }
                   });
  return at;
}

double StepSeries::integral(SimTime begin, SimTime end) const {
  double total = 0.0;
  for_each_segment(times_, values_, begin, end,
                   [&](SimTime lo, SimTime hi, double v) {
                     total += v * (hi - lo);
                   });
  return total;
}

double StepSeries::average(SimTime begin, SimTime end) const {
  return end > begin ? integral(begin, end) / (end - begin) : 0.0;
}

std::vector<double> StepSeries::bucketize(SimTime begin, SimTime end,
                                          int buckets) const {
  std::vector<double> out;
  if (buckets <= 0 || end <= begin) return out;
  out.reserve(static_cast<std::size_t>(buckets));
  const SimTime width = end - begin;
  for (int b = 0; b < buckets; ++b) {
    const SimTime lo = begin + width * b / buckets;
    const SimTime hi = b + 1 == buckets ? end : begin + width * (b + 1) / buckets;
    out.push_back(average(lo, hi));
  }
  return out;
}

std::vector<std::pair<SimTime, SimTime>> StepSeries::intervals_at_least(
    double threshold, SimTime begin, SimTime end) const {
  std::vector<std::pair<SimTime, SimTime>> intervals;
  for_each_segment(times_, values_, begin, end,
                   [&](SimTime lo, SimTime hi, double v) {
                     if (v < threshold) return;
                     if (!intervals.empty() && intervals.back().second == lo) {
                       intervals.back().second = hi;  // contiguous: extend
                     } else {
                       intervals.emplace_back(lo, hi);
                     }
                   });
  return intervals;
}

std::vector<ClassTimeline> extract_class_timelines(
    const sim::TaskGraph& graph, const sim::SimResult& result,
    const ResourceClassifier& classify) {
  const std::vector<sim::Task>& tasks = graph.tasks();
  // Links are the resources some transfer serializes on (the accounting
  // layer's is_link). A compute task on a link still counts toward its
  // class, so every link is known before the timed pass.
  std::vector<bool> is_link(graph.resource_count(), false);
  for (const sim::Task& task : tasks) {
    if (task.kind != sim::TaskKind::kTransfer) continue;
    for_each_port(task, [&](std::size_t port) { is_link[port] = true; });
  }

  // Class slots in name order; ports counted in id order.
  std::vector<std::string> link_class(is_link.size());
  std::map<std::string, std::size_t> class_index;
  for (std::size_t r = 0; r < is_link.size(); ++r) {
    if (!is_link[r]) continue;
    link_class[r] = classify ? classify(static_cast<sim::ResourceId>(r))
                             : std::string("unknown");
    class_index.emplace(link_class[r], 0);
  }
  std::vector<ClassTimeline> classes(class_index.size());
  {
    std::size_t next = 0;
    for (auto& [name, index] : class_index) {
      index = next;
      classes[next].nic_class = name;
      ++next;
    }
  }
  constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);
  std::vector<std::size_t> res_class(is_link.size(), kNoClass);
  for (std::size_t r = 0; r < is_link.size(); ++r) {
    if (!is_link[r]) continue;
    res_class[r] = class_index[link_class[r]];
    classes[res_class[r]].ports += 1;
  }

  // +1 at each busy start, -1 at each busy end, per class, in task-id
  // order; the deferred time-sort usually reduces to an is_sorted check.
  std::vector<std::vector<SimTime>> up(classes.size());
  std::vector<std::vector<SimTime>> down(classes.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const sim::Task& task = tasks[i];
    if (task.kind == sim::TaskKind::kNoop) continue;
    const sim::TaskTiming& timing = result.timing(static_cast<sim::TaskId>(i));
    const SimTime end = busy_end(task, timing);
    if (!(end > timing.start)) continue;
    for_each_port(task, [&](std::size_t port) {
      const std::size_t cls = res_class[port];
      if (cls == kNoClass) return;
      up[cls].push_back(timing.start);
      down[cls].push_back(end);
    });
  }
  SortScratch buffers;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    sort_times(up[k], buffers);
    sort_times(down[k], buffers);
    classes[k].busy_ports = merge_counts(up[k], down[k]);
    std::vector<SimTime>().swap(up[k]);  // release before the next merge
    std::vector<SimTime>().swap(down[k]);
  }
  return classes;
}

Timeline extract_timeline(const sim::TaskGraph& graph,
                          const sim::SimResult& result,
                          const TimelineOptions& options,
                          const ResourceClassifier& classify,
                          const sim::RateTimeline* rates) {
  Timeline timeline;
  timeline.makespan = result.makespan();
  timeline.window.begin = std::max(0.0, options.window.begin);
  timeline.window.end =
      std::min(options.window.end, timeline.makespan);
  if (timeline.window.end < timeline.window.begin) {
    timeline.window.end = timeline.window.begin;
  }
  const Window& window = timeline.window;

  // Class busy-port curves first, so their event lists are gone before the
  // channel lists below are built.
  timeline.classes = extract_class_timelines(graph, result, classify);

  // Aggregates come straight from the accounting layer: same per-task
  // arithmetic, same id iteration order, so the timeline's totals are
  // bit-identical to what `stats` reports for this window.
  const std::vector<ResourceAccount> accounts =
      account_resources(graph, result, window);
  const std::vector<ChannelAccount> channel_accounts =
      account_channels(graph, result, window);

  timeline.resources.resize(accounts.size());
  timeline.channels.resize(channel_accounts.size());

  // Resource metadata; class busy totals summed over member links in id
  // order.
  std::map<std::string, std::size_t> class_index;
  for (std::size_t k = 0; k < timeline.classes.size(); ++k) {
    class_index.emplace(timeline.classes[k].nic_class, k);
  }
  for (std::size_t r = 0; r < accounts.size(); ++r) {
    ResourceTimeline& res = timeline.resources[r];
    res.id = accounts[r].id;
    res.name = accounts[r].name;
    res.nic_class = classify ? classify(res.id) : std::string("unknown");
    res.is_device = accounts[r].is_device;
    res.is_link = accounts[r].is_link;
    res.busy_total = accounts[r].busy;
    res.waiting_total = accounts[r].waiting;
    res.bytes = accounts[r].bytes;
    res.tasks = accounts[r].tasks;
    if (!res.is_link) continue;
    const auto cls = class_index.find(res.nic_class);
    HOLMES_CHECK_MSG(cls != class_index.end(),
                     "resource accounts do not match the task graph's links");
    timeline.classes[cls->second].busy_total += res.busy_total;
  }

  // Channels one at a time, from an index of each channel's transfers in
  // id order: +bytes at each start (in-flight rise), -bytes at each finish
  // (in-flight fall, cumulative delivery). Each channel's series are
  // reduced to its peak, buckets and right-edge samples before the next
  // channel's are built.
  const std::vector<sim::TaskInfo>& infos = graph.infos();
  std::vector<std::uint32_t> channel_offsets;
  std::vector<sim::TaskId> channel_tasks;
  index_tasks(
      graph.task_count(), channel_accounts.size(),
      [&](std::size_t i, auto&& add) {
        if (graph.tasks()[i].kind == sim::TaskKind::kTransfer &&
            infos[i].channel != sim::kInvalidChannel) {
          add(static_cast<std::size_t>(infos[i].channel));
        }
      },
      channel_offsets, channel_tasks);
  const int buckets = std::max(1, options.buckets);
  ByteEvents start;
  ByteEvents finish;
  for (std::size_t c = 0; c < channel_accounts.size(); ++c) {
    start.clear();
    finish.clear();
    for (std::uint32_t k = channel_offsets[c]; k < channel_offsets[c + 1];
         ++k) {
      const sim::TaskId id = channel_tasks[k];
      const sim::TaskTiming& timing = result.timing(id);
      const auto bytes =
          static_cast<double>(infos[static_cast<std::size_t>(id)].bytes);
      if (timing.finish > timing.start) {
        start.emplace_back(timing.start, bytes);
      }
      finish.emplace_back(timing.finish, bytes);
    }
    sort_events(start);
    sort_events(finish);
    ChannelTimeline& chan = timeline.channels[c];
    chan.id = channel_accounts[c].id;
    chan.name = channel_accounts[c].name;
    chan.bytes = channel_accounts[c].bytes;
    chan.transfers = channel_accounts[c].transfers;
    chan.busy_total = channel_accounts[c].busy;
    const StepSeries in_flight = merge_bytes(start, finish);
    chan.peak_in_flight = in_flight.maximum(window.begin, window.end);
    chan.peak_at = in_flight.maximum_at(window.begin, window.end);
    chan.in_flight = in_flight.bucketize(window.begin, window.end, buckets);
    chan.cumulative =
        sample_right_edges(accumulate_bytes(finish), window, buckets);
  }

  // Saturation intervals, in-window.
  for (ClassTimeline& cls : timeline.classes) {
    const double bar =
        options.saturation_threshold * static_cast<double>(cls.ports);
    cls.saturated =
        cls.busy_ports.intervals_at_least(bar, window.begin, window.end);
    cls.saturated_total = 0;
    for (const auto& [lo, hi] : cls.saturated) {
      cls.saturated_total += hi - lo;
    }
  }
  // Effective-rate overlays: one per resource a rate window touched, with
  // its degraded time in-window.
  for (const sim::RateTimeline::Staircase& stairs :
       rates != nullptr ? rates->staircases()
                        : std::vector<sim::RateTimeline::Staircase>{}) {
    RateOverlay& overlay = timeline.overlays.emplace_back();
    overlay.resource = stairs.resource;
    overlay.name = graph.resource_name(overlay.resource);
    std::vector<SimTime> times{0.0};
    std::vector<double> values{1.0};
    for (const sim::RateTimeline::Step& step : stairs.steps) {
      times.push_back(step.at);
      values.push_back(step.rate);
    }
    overlay.effective = StepSeries::from_levels(std::move(times),
                                               std::move(values));
    // Degraded time = window measure where the effective rate sits below 1.
    overlay.degraded_total = 0;
    for_each_segment(overlay.effective.times(), overlay.effective.values(),
                     window.begin, window.end,
                     [&](SimTime lo, SimTime hi, double v) {
                       if (v < 1.0) overlay.degraded_total += hi - lo;
                     });
  }

  // Top talkers: links ranked by window bytes (descending, id ascending).
  Bytes total_link_bytes = 0;
  for (const ResourceTimeline& res : timeline.resources) {
    if (res.is_link) total_link_bytes += res.bytes;
  }
  for (const ResourceTimeline& res : timeline.resources) {
    if (!res.is_link || res.bytes <= 0) continue;
    TopTalker talker;
    talker.resource = res.id;
    talker.name = res.name;
    talker.nic_class = res.nic_class;
    talker.bytes = res.bytes;
    talker.busy = res.busy_total;
    talker.share = total_link_bytes > 0
                       ? static_cast<double>(res.bytes) /
                             static_cast<double>(total_link_bytes)
                       : 0.0;
    timeline.top_talkers.push_back(std::move(talker));
  }
  std::stable_sort(timeline.top_talkers.begin(), timeline.top_talkers.end(),
                   [](const TopTalker& a, const TopTalker& b) {
                     if (a.bytes != b.bytes) return a.bytes > b.bytes;
                     return a.resource < b.resource;
                   });
  return timeline;
}

ResourceSeriesIndex::ResourceSeriesIndex(const sim::TaskGraph& graph,
                                         const sim::SimResult& result)
    : graph_(graph), result_(result) {
  const std::vector<sim::Task>& tasks = graph.tasks();
  index_tasks(
      tasks.size(), graph.resource_count(),
      [&](std::size_t i, auto&& add) {
        if (tasks[i].kind != sim::TaskKind::kNoop) for_each_port(tasks[i], add);
      },
      offsets_, tasks_);
}

ResourceSeries ResourceSeriesIndex::series(sim::ResourceId resource) const {
  const auto r = static_cast<std::size_t>(resource);
  HOLMES_CHECK_MSG(resource >= 0 && r + 1 < offsets_.size(),
                   "resource is not in the task graph");
  // The resource's tasks in id order, each contributing +1 at its start and
  // -1 at its busy end (the `ports_free` stretching for transfers, via the
  // shared serialization helper) and, when it waited, +1 at its ready
  // instant (latest dependency finish) and -1 at its start. Both series
  // are the same +-1 merge as the class curves, so occupancy needs no
  // disjointness: back-to-back, gapped and overlapping tasks all come out
  // as from_deltas would build them.
  std::vector<SimTime> busy_up;
  std::vector<SimTime> busy_down;
  std::vector<SimTime> queue_up;
  std::vector<SimTime> queue_down;
  const std::vector<sim::Task>& tasks = graph_.tasks();
  for (std::uint32_t k = offsets_[r]; k < offsets_[r + 1]; ++k) {
    const sim::TaskId id = tasks_[k];
    const sim::Task& task = tasks[static_cast<std::size_t>(id)];
    const sim::TaskTiming& timing = result_.timing(id);
    const SimTime end_busy = busy_end(task, timing);
    if (end_busy > timing.start) {
      busy_up.push_back(timing.start);
      busy_down.push_back(end_busy);
    }
    const SimTime ready = ready_time(graph_, result_, id);
    if (timing.start > ready) {
      queue_up.push_back(ready);
      queue_down.push_back(timing.start);
    }
  }
  SortScratch buffers;
  sort_times(busy_up, buffers);
  sort_times(busy_down, buffers);
  sort_times(queue_up, buffers);
  sort_times(queue_down, buffers);
  return {merge_counts(busy_up, busy_down),
          merge_counts(queue_up, queue_down)};
}

}  // namespace holmes::obs
