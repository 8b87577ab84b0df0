#include "sim/executor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/self_profile.h"
#include "sim/rate_timeline.h"
#include "util/error.h"
#include "util/quad_heap.h"
#include "util/rng.h"

namespace holmes::sim {

namespace {

/// Heap slot for a released-but-not-placed task under kPermuteDisjoint:
/// ordered by ready time alone. Equal-time entries are drained together into
/// a pool and ordered there, so their relative heap order is irrelevant.
struct ReadySlot {
  SimTime ready;
  TaskId id;
};
struct ReadySooner {
  bool operator()(const ReadySlot& a, const ReadySlot& b) const {
    return a.ready < b.ready;
  }
};

/// Canonical heap slot: (ready, id) packed order-preservingly into one
/// 128-bit integer. Under TieBreak::kCanonical the tie key *is* the task
/// id, so (ready, id) already encodes the complete (ready, key, id)
/// placement order — and because sim times are non-negative, the IEEE-754
/// bit pattern of `ready` compares exactly like the double itself. A single
/// integer comparison per heap step lets the sift loops compile to
/// conditional moves instead of data-dependent branches; with near-random
/// ready times those branches mispredict almost every level and dominate
/// the whole executor otherwise. (__int128 is a GCC/Clang built-in; both
/// compilers this project supports provide it.)
using PackedSlot = unsigned __int128;
struct PackedSooner {
  bool operator()(PackedSlot a, PackedSlot b) const { return a < b; }
};
inline PackedSlot pack_slot(SimTime ready, TaskId id) {
  return (PackedSlot(std::bit_cast<std::uint64_t>(ready)) << 32) |
         static_cast<std::uint32_t>(id);
}
inline SimTime packed_ready(PackedSlot s) {
  return std::bit_cast<SimTime>(static_cast<std::uint64_t>(s >> 32));
}
inline TaskId packed_id(PackedSlot s) {
  return static_cast<TaskId>(static_cast<std::uint32_t>(s));
}

/// Heap slot for the canonical / permute-all driver. Placement order is
/// exactly ascending (ready, tie key, id), and each task is pushed once, so
/// the triples are unique — one ordered heap reproduces the schedule with no
/// separate tie-group pass. Under the canonical tie-break the key *is* the
/// task id, which makes execution order independent of container iteration
/// details; permute-all substitutes a seeded hash.
struct OrderedSlot {
  SimTime ready;
  std::uint64_t key;
  TaskId id;
};
struct OrderedSooner {
  bool operator()(const OrderedSlot& a, const OrderedSlot& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};

/// Per-task mutable scheduling state, fused so releasing a dependent
/// touches one cache line: latest dependency finish + dependencies left.
struct TaskState {
  SimTime ready = 0;
  std::uint32_t indeg = 0;
};

/// Union-find over positions of an equal-ready-time pool's prefix; used by
/// TieBreak::kPermuteDisjoint to group tied tasks that (transitively) share
/// a resource. Tasks in different components commute.
class PoolComponents {
 public:
  explicit PoolComponents(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

const TaskTiming& SimResult::timing(TaskId id) const {
  HOLMES_CHECK(id >= 0 && static_cast<std::size_t>(id) < timing_.size());
  return timing_[static_cast<std::size_t>(id)];
}

SimTime SimResult::resource_busy(ResourceId resource) const {
  HOLMES_CHECK(resource >= 0 &&
               static_cast<std::size_t>(resource) < resource_busy_.size());
  return resource_busy_[static_cast<std::size_t>(resource)];
}

SimTime SimResult::tag_span(const TaskGraph& graph, TaskTag tag) const {
  SimTime first = std::numeric_limits<SimTime>::infinity();
  SimTime last = -std::numeric_limits<SimTime>::infinity();
  bool any = false;
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    if (graph.infos()[i].tag == tag) {
      any = true;
      first = std::min(first, timing_[i].start);
      last = std::max(last, timing_[i].finish);
    }
  }
  return any ? last - first : 0;
}

// bit_identical compares timings as raw bytes, which is exact only while
// TaskTiming is three doubles with no padding between or after them.
static_assert(std::is_trivially_copyable_v<TaskTiming> &&
                  sizeof(TaskTiming) == 3 * sizeof(SimTime),
              "TaskTiming must have no padding");

bool SimResult::bit_identical(const SimResult& other) const {
  auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  return std::bit_cast<std::uint64_t>(makespan_) ==
             std::bit_cast<std::uint64_t>(other.makespan_) &&
         same_bytes(timing_, other.timing_) &&
         same_bytes(resource_busy_, other.resource_busy_);
}

SimResult TaskGraphExecutor::run(const TaskGraph& graph) {
  // Self-profiling: counts are batched into locals and flushed once after the
  // loop so the unprofiled inner loop stays untouched and the profiled one
  // pays no thread-local access per task.
  namespace prof = obs::self_profile;
  const bool profiled = prof::enabled();
  prof::PhaseTimer event_loop_timer(&obs::SelfProfilePhases::event_loop_s);
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t peak_ready = 0;

  const std::size_t n = graph.task_count();

  // The CSR adjacency and the records' inline dependents are compiled once
  // per graph, so repeated runs over the same graph pay for them once. The
  // hot loop walks the raw arrays directly.
  graph.build_adjacency();
  const Task* const tasks = graph.tasks().data();
  const std::uint32_t* const dep_off = graph.dep_offsets().data();
  const TaskId* const out_list = graph.dependent_list().data();

  std::vector<TaskState> state(n);
  for (std::size_t i = 0; i < n; ++i) {
    state[i].indeg = dep_off[i + 1] - dep_off[i];
  }

  std::vector<TaskTiming> timing(n);
  // One extra slot: the scratch resource noops resolve to (see the Task
  // doc). Its busy tally only ever accumulates zeros and is
  // dropped before the result is built.
  std::vector<SimTime> resource_avail(graph.resource_count() + 1, 0);
  std::vector<SimTime> resource_busy(graph.resource_count() + 1, 0);

  // Seeded tie key used by TieBreak::kPermuteAll (canonical keys are the
  // task ids themselves and never materialize).
  auto tie_key = [&](TaskId id) {
    return mix64(options_.tie_seed ^ static_cast<std::uint64_t>(id));
  };

  // Release buffer for the pool driver, which must hold same-time arrivals
  // back until the current tie group resolves. The ordered drivers bypass it
  // and push straight into their heap.
  std::vector<ReadySlot> released;
  released.reserve(graph.max_dependent_count());

  std::size_t completed = 0;
  SimTime makespan = 0;

  // Time-varying rates (fault injection): hoisted to one pointer so the
  // fixed-rate hot path pays a single perfectly predicted branch per task.
  const RateTimeline* const rates =
      options_.rates != nullptr && !options_.rates->empty() ? options_.rates
                                                            : nullptr;

  // Places one ready task: claims its resources, fixes start/finish, and
  // hands newly released dependents to `emit(ready, id)` — the ordered
  // drivers push straight into their heap, the pool driver buffers. Shared
  // by every tie-break driver so the placement semantics cannot drift
  // between them.
  auto place_task = [&](SimTime ready_at, TaskId id, auto&& emit) {
    const Task& task = tasks[static_cast<std::size_t>(id)];

    // Dependent state lines are the placement's only unpredictable demand
    // loads left; start them before the arithmetic below needs the results.
    {
      const std::uint32_t pin =
          task.out_count < Task::kInlineOut ? task.out_count
                                            : Task::kInlineOut;
      for (std::uint32_t j = 0; j < pin; ++j) {
        __builtin_prefetch(&state[static_cast<std::size_t>(task.out[j])], 1);
      }
    }

    // Unified branch-free placement; bit-exact per kind (Task doc).
    // Ports are occupied only for the (precomputed) serialization time; the
    // propagation latency delays the dependents, not the ports.
    SimTime& src = resource_avail[static_cast<std::size_t>(task.resource)];
    SimTime& dst = resource_avail[static_cast<std::size_t>(task.dst_port)];
    const SimTime start = std::max(ready_at, std::max(src, dst));
    // Occupancy equals declared cost unless a rate timeline stretches it —
    // a pure function of (resources, start, cost), so placement of
    // resource-disjoint tasks still commutes and the tie-break determinism
    // contract survives fault injection.
    const SimTime occupancy =
        rates == nullptr
            ? task.cost
            : rates->stretched(task.resource, task.dst_port, start, task.cost);
    const SimTime ports_free = start + occupancy;
    const SimTime finish = (start + task.latency) + occupancy;
    src = ports_free;
    dst = ports_free;
    resource_busy[static_cast<std::size_t>(task.resource)] += occupancy;
    resource_busy[static_cast<std::size_t>(task.dst_port)] +=
        task.dst_port != task.resource ? occupancy : 0.0;

    timing[static_cast<std::size_t>(id)] = {start, finish, ports_free};
    makespan = std::max(makespan, finish);
    ++completed;

    // Release order is irrelevant to results: ready-time maxing and
    // indegree decrements commute, and every downstream container orders by
    // the unique (ready, key, id) triple.
    auto release = [&](TaskId next) {
      TaskState& s = state[static_cast<std::size_t>(next)];
      if (finish > s.ready) s.ready = finish;
      if (--s.indeg == 0) {
        emit(s.ready, next);
        ++pushes;
        // The task now waits in the ready queue for a while (typically tens
        // of placements on large graphs). Task ids arrive in near-random
        // order there, so the lines its placement will touch are almost
        // never resident — warm them now, off the critical path. Everything
        // placement reads lives in the task's single Task line.
        __builtin_prefetch(&tasks[static_cast<std::size_t>(next)]);
        __builtin_prefetch(&timing[static_cast<std::size_t>(next)], 1);
      }
    };
    const std::uint32_t inline_out =
        task.out_count < Task::kInlineOut ? task.out_count
                                          : Task::kInlineOut;
    for (std::uint32_t j = 0; j < inline_out; ++j) release(task.out[j]);
    for (std::uint32_t j = Task::kInlineOut; j < task.out_count; ++j) {
      release(out_list[task.out_begin + j]);
    }
  };

  // Canonical and permute-all: place strictly in (ready, key, id) order —
  // the production hot loop. One ordered heap IS the schedule: pop the
  // minimum, place it, push what it releases. No tie-group pass is needed
  // because the comparator already encodes the full tie-break. `make_slot`
  // maps a released (ready, id) pair to the heap's slot type: canonical
  // uses the packed 16-byte integer slot; permute-all carries the seeded
  // hash in a 24-byte struct slot.
  auto run_ordered = [&](auto& heap, auto make_slot, auto ready_of,
                         auto id_of) {
    heap.reserve(std::min<std::size_t>(n, 4096));
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i].indeg == 0) {
        heap.push(make_slot(0, static_cast<TaskId>(i)));
        ++pushes;
      }
    }
    if (profiled) peak_ready = heap.size();

    while (!heap.empty()) {
      const auto slot = heap.top();
      heap.pop();
      ++pops;
      place_task(ready_of(slot), id_of(slot),
                 [&](SimTime ready, TaskId id) {
                   heap.push(make_slot(ready, id));
                 });
      if (profiled && heap.size() > peak_ready) peak_ready = heap.size();
    }
  };

  if (options_.tie_break == TieBreak::kCanonical) {
    QuadHeap<PackedSlot, PackedSooner> heap;
    run_ordered(heap, pack_slot, packed_ready, packed_id);
  } else if (options_.tie_break == TieBreak::kPermuteAll) {
    QuadHeap<OrderedSlot, OrderedSooner> heap;
    run_ordered(
        heap,
        [&](SimTime ready, TaskId id) {
          return OrderedSlot{ready, tie_key(id), id};
        },
        [](const OrderedSlot& s) { return s.ready; },
        [](const OrderedSlot& s) { return s.id; });
  } else {
    QuadHeap<ReadySlot, ReadySooner> heap;
    heap.reserve(std::min<std::size_t>(n, 4096));
    // Permute-disjoint: drain each equal-ready-time tie group into a pool in
    // id order — the order the canonical discipline places it in — and cut
    // the pool at its first task that may finish at `now`: a noop, or any
    // task with (now + latency) + cost == now. Such a task can release
    // same-time dependents that canonical order would interleave with the
    // rest of the pool, so it is placed alone once it heads the pool, and
    // what it releases joins the pool before anything else is ordered. No
    // task before the cut can finish at `now` (a rate timeline only ever
    // stretches occupancy), so canonical order places that prefix as one
    // unbroken run; its resource-disjoint components commute, and they are
    // placed in seeded component order. Tasks sharing a resource stay in id
    // order, so any divergence from canonical output is an executor bug.
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i].indeg == 0) {
        heap.push({0, static_cast<TaskId>(i)});
        ++pushes;
      }
    }
    if (profiled) peak_ready = heap.size();

    // Flat replacement for a map<ResourceId, prefix position>: epoch-stamped
    // claims, reset per prefix by bumping the epoch.
    std::vector<std::size_t> owner(graph.resource_count(), 0);
    std::vector<std::uint32_t> owner_epoch(graph.resource_count(), 0);
    std::uint32_t epoch = 0;
    auto buffer = [&](SimTime ready, TaskId id) {
      released.push_back({ready, id});
    };

    // pool[head..] holds the tie's unplaced tasks in id order.
    std::vector<TaskId> pool;
    // (component key, prefix position): sorting these yields the placement
    // order — components by seeded key, each component's tasks by id.
    std::vector<std::pair<std::uint64_t, std::size_t>> order;
    std::vector<std::uint64_t> root_key;
    std::vector<bool> keyed;
    while (!heap.empty()) {
      const SimTime now = heap.top().ready;
      pool.clear();
      std::size_t head = 0;
      for (;;) {
        const std::size_t held = pool.size();
        while (!heap.empty() && heap.top().ready == now) {
          pool.push_back(heap.top().id);
          heap.pop();
          ++pops;
        }
        if (pool.size() != held) {
          // Arrivals: drop the placed front and merge them in by id.
          pool.erase(pool.begin(),
                     pool.begin() + static_cast<std::ptrdiff_t>(head));
          head = 0;
          std::sort(pool.begin(), pool.end());
        }
        if (head == pool.size()) break;

        std::size_t cut = head;
        while (cut < pool.size()) {
          const Task& task = tasks[static_cast<std::size_t>(pool[cut])];
          if ((now + task.latency) + task.cost == now) break;
          ++cut;
        }
        if (cut == head) {
          place_task(now, pool[head], buffer);
          cut = head + 1;
        } else {
          // Group the prefix into components of (transitively) shared
          // resources. Noops cannot precede the cut, so every prefix task
          // claims its resource, and a transfer its RX port too.
          const std::size_t width = cut - head;
          const TaskId* const prefix = pool.data() + head;
          PoolComponents uf(width);
          ++epoch;
          for (std::size_t i = 0; i < width; ++i) {
            const Task& task = tasks[static_cast<std::size_t>(prefix[i])];
            for (ResourceId r : {task.resource, task.dst_port}) {
              const auto ri = static_cast<std::size_t>(r);
              if (owner_epoch[ri] == epoch) {
                uf.unite(i, owner[ri]);
              } else {
                owner_epoch[ri] = epoch;
                owner[ri] = i;
              }
            }
          }
          // The prefix ascends by id, so a component's first position holds
          // its smallest id, which seeds the component's key.
          root_key.assign(width, 0);
          keyed.assign(width, false);
          order.clear();
          for (std::size_t i = 0; i < width; ++i) {
            const std::size_t root = uf.find(i);
            if (!keyed[root]) {
              keyed[root] = true;
              root_key[root] = mix64(options_.tie_seed ^
                                     static_cast<std::uint64_t>(prefix[i]));
            }
            order.emplace_back(root_key[root], i);
          }
          std::sort(order.begin(), order.end());
          for (const auto& entry : order) {
            place_task(now, prefix[entry.second], buffer);
          }
        }
        head = cut;
        for (const ReadySlot& slot : released) heap.push(slot);
        released.clear();
        if (profiled && heap.size() + (pool.size() - head) > peak_ready) {
          peak_ready = heap.size() + (pool.size() - head);
        }
      }
    }
  }

  if (profiled) {
    prof::count(&obs::SelfProfileCounters::executor_runs);
    prof::count(&obs::SelfProfileCounters::ready_pushes, pushes);
    prof::count(&obs::SelfProfileCounters::ready_pops, pops);
    prof::raise(&obs::SelfProfileCounters::max_ready_queue, peak_ready);
  }

  if (completed != n) {
    std::ostringstream os;
    os << "task graph has a dependency cycle: " << (n - completed) << " of "
       << n << " tasks never became ready";
    throw ConfigError(os.str());
  }

  resource_busy.pop_back();  // drop the scratch slot (zeros by construction)
  return SimResult(std::move(timing), std::move(resource_busy), makespan);
}

}  // namespace holmes::sim
