#include "core/training_sim.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.h"
#include "core/tags.h"
#include "net/ports.h"
#include "net/topology.h"
#include "obs/accounting.h"
#include "optimizer/dp_strategy.h"
#include "pipeline/schedule.h"
#include "sim/executor.h"
#include "sim/rate_timeline.h"
#include "sim/trace.h"
#include "util/error.h"

namespace holmes::core {

namespace {

/// Per-virtual-stage analytic quantities derived from the plan. Virtual
/// stage v runs on physical stage v % p; with plain schedules chunks == 1
/// and virtual == physical.
struct StageCost {
  SimTime fwd_seconds = 0;   ///< forward compute per micro-batch per device
  SimTime bwd_seconds = 0;   ///< backward compute per micro-batch per device
  double params_per_device = 0;  ///< parameter elements of this chunk
};

std::vector<StageCost> stage_costs(const TrainingPlan& plan,
                                   const CostModel& cost) {
  const model::TransformerConfig& cfg = plan.workload.config;
  const int t = plan.degrees.tensor;
  const int p = plan.degrees.pipeline;
  const int virtual_stages = plan.virtual_stages();
  const int mb = plan.workload.micro_batch_size;
  std::vector<StageCost> stages(static_cast<std::size_t>(virtual_stages));
  for (int v = 0; v < virtual_stages; ++v) {
    // The embedding/logit GEMMs live on the first and last virtual stages.
    double emb_share = 0;
    if (virtual_stages == 1) {
      emb_share = 1.0;
    } else if (v == 0 || v == virtual_stages - 1) {
      emb_share = 0.5;
    }
    const int layers = plan.partition[static_cast<std::size_t>(v)];
    const double flops_per_microbatch =
        (layers * cfg.layer_flops(mb) + emb_share * cfg.embedding_flops(mb)) /
        t;
    // Kernels on this stage run slower when its nodes' training traffic
    // rides a noisier NIC (see CostModel::nic_interference).
    const double interference =
        cost.nic_interference(plan.stage_nics[static_cast<std::size_t>(v % p)]);
    StageCost& stage = stages[static_cast<std::size_t>(v)];
    stage.fwd_seconds =
        cost.compute_seconds(flops_per_microbatch * cost.forward_fraction, t) *
        interference;
    stage.bwd_seconds =
        cost.compute_seconds(flops_per_microbatch * (1.0 - cost.forward_fraction),
                             t) *
        interference;
    stage.params_per_device =
        (layers * cfg.layer_parameters() + emb_share * cfg.embedding_parameters()) /
        t;
  }
  return stages;
}

std::vector<pipeline::StageProgram> build_programs(const TrainingPlan& plan) {
  const int p = plan.degrees.pipeline;
  const auto m = static_cast<int>(plan.micro_batches);
  switch (plan.framework.schedule) {
    case SchedulePolicy::kGPipe:
      return pipeline::GPipeSchedule{}.programs(p, m);
    case SchedulePolicy::kOneFOneB:
      return pipeline::PipeDreamFlushSchedule{}.programs(p, m);
    case SchedulePolicy::kInterleaved:
      return pipeline::InterleavedSchedule{plan.chunks()}.programs(p, m);
  }
  throw ConfigError("unknown schedule policy");
}

static_assert(kTaskBudget <= std::numeric_limits<sim::TaskId>::max() &&
                  kDepBudget <= std::numeric_limits<std::uint32_t>::max(),
              "budgets must fit TaskId and the uint32 CSR offsets");
// Each device lowers at least four compute tasks (overhead, fwd, bwd, the
// optimizer step) in each of at least two iterations, so the device budget
// may reject only worlds that kTaskBudget rejects as well.
static_assert(net::kDeviceBudget >= kTaskBudget / (4 * 2),
              "the device budget must admit every world the task budget does");

/// Reserves the whole chained graph once iteration 0 is lowered. Every later
/// iteration lowers the same tasks, and iteration 0's dependencies plus
/// `carried` edges: the gate and prefetch edges iteration 0 had no earlier
/// iteration to point at. Throws ConfigError when the run would pass
/// kTaskBudget or kDepBudget, rather than growing until memory runs out.
void reserve_iterations(sim::TaskGraph& graph, int iterations,
                        std::size_t carried) {
  const std::uint64_t tasks = graph.task_count();
  const std::uint64_t deps = graph.dep_count() + carried;
  const auto count = static_cast<std::uint64_t>(iterations);
  // Compared by division, so the projection cannot overflow.
  if (tasks > kTaskBudget / count) {
    throw ConfigError(std::to_string(iterations) + " iterations of " +
                      std::to_string(tasks) +
                      " tasks each exceed the task budget of " +
                      std::to_string(kTaskBudget) + " tasks");
  }
  if (deps > kDepBudget / count) {
    throw ConfigError(std::to_string(iterations) + " iterations of " +
                      std::to_string(deps) +
                      " dependencies each exceed the dependency budget of " +
                      std::to_string(kDepBudget) + " dependencies");
  }
  graph.reserve(tasks * count, graph.dep_count() + (count - 1) * deps);
}

}  // namespace

SimTime SimArtifacts::window_begin() const {
  HOLMES_CHECK_MSG(result.has_value() && !iteration_markers.empty(),
                   "artifacts not populated");
  return result->timing(iteration_markers.front()).finish;
}

SimTime SimArtifacts::window_end() const {
  HOLMES_CHECK_MSG(result.has_value() && !iteration_markers.empty(),
                   "artifacts not populated");
  return result->timing(iteration_markers.back()).finish;
}

SimArtifacts TrainingSimulator::lower(const net::Topology& topo,
                                     const TrainingPlan& plan, int iterations,
                                     const Perturbations& perturbations,
                                     SimArtifacts storage) const {
  if (iterations < 2) {
    throw ConfigError("need at least 2 iterations (1 warm-up + 1 measured)");
  }
  obs::self_profile::PhaseTimer graph_build_timer(
      &obs::SelfProfilePhases::graph_build_s);
  const int t = plan.degrees.tensor;
  const int p = plan.degrees.pipeline;
  const int d = plan.degrees.data;
  const int n = topo.world_size();
  const int virtual_stages = plan.virtual_stages();
  const auto m = static_cast<int>(plan.micro_batches);
  HOLMES_CHECK_MSG(m >= 1, "plan has no micro-batches");
  HOLMES_CHECK_MSG(static_cast<int>(plan.partition.size()) == virtual_stages,
                   "partition/virtual-stage count mismatch");

  const std::vector<StageCost> stages = stage_costs(plan, cost_);
  // Gradient/parameter bytes each device synchronizes: the sum over the
  // model chunks it hosts.
  std::vector<double> device_params(static_cast<std::size_t>(p), 0.0);
  for (int v = 0; v < virtual_stages; ++v) {
    device_params[static_cast<std::size_t>(v % p)] +=
        stages[static_cast<std::size_t>(v)].params_per_device;
  }
  const Bytes act_bytes =
      plan.workload.config.activation_bytes(plan.workload.micro_batch_size,
                                            cost_.activation_bytes_per_value) /
      t;

  SimArtifacts lowered = std::move(storage);
  lowered.graph.clear();
  lowered.result.reset();
  lowered.iteration_markers.clear();
  lowered.compute_resource.clear();
  lowered.self_profile.reset();
  lowered.rates = {};
  sim::TaskGraph& graph = lowered.graph;
  lowered.ports = net::PortMap(topo, graph);
  const net::PortMap& ports = lowered.ports;

  const std::vector<pipeline::StageProgram> programs = build_programs(plan);

  // Data-parallel communicators, one per (tp, stage) — Eq. (4)'s group
  // index is i = tp + stage * t.
  std::vector<comm::Communicator> dp_comms;
  dp_comms.reserve(plan.groups.dp_groups().size());
  for (std::size_t i = 0; i < plan.groups.dp_groups().size(); ++i) {
    dp_comms.emplace_back(topo, plan.groups.dp_groups()[i],
                          "dp" + std::to_string(i));
    if (plan.ethernet_fallback) {
      dp_comms.back().force_internode_fabric(net::FabricKind::kEthernet);
    }
  }

  const optimizer::DpSyncConfig& sync = plan.framework.dp_sync;
  const int buckets = sync.effective_buckets();

  // Transient NIC degradation (fault injection): lower the scoped windows
  // onto the affected ranks' fabric port resources as a time-varying rate
  // timeline. Ranks on an RDMA cluster degrade their dedicated NIC ports;
  // Ethernet-only clusters degrade the node-shared Ethernet ports (each
  // shared port exactly once per window, not once per rank riding it).
  for (const NicDegradation& window : perturbations.nic_degradation) {
    std::vector<sim::ResourceId> affected;
    for (int rank :
         topo.ranks_in_scope(window.cluster, window.node_in_cluster)) {
      const net::NicType nic = topo.device(rank).nic;
      const net::FabricKind fabric = nic == net::NicType::kEthernet
                                         ? net::FabricKind::kEthernet
                                         : net::rdma_fabric(nic);
      affected.push_back(ports.tx(rank, fabric));
      affected.push_back(ports.rx(rank, fabric));
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (sim::ResourceId port : affected) {
      lowered.rates.add_window(port, window.begin_s, window.end_s,
                               window.bandwidth_factor);
    }
  }

  // Stragglers scale each compute duration on their rank.
  auto perturbed = [&](int rank, SimTime seconds) {
    if (perturbations.empty()) return seconds;
    return seconds * perturbations.factor(rank);
  };

  // Emits the point-to-point transfer for an activation or gradient hop,
  // honoring the Ethernet fallback for cross-node pairs. All hops share
  // the "pp" accounting channel.
  const sim::ChannelId pp_channel = graph.channel("pp");
  auto emit_p2p = [&](int src, int dst, const char* label, sim::TaskTag tag) {
    const bool cross_node = topo.node_of(src) != topo.node_of(dst);
    return plan.ethernet_fallback && cross_node
               ? net::emit_transfer_on(graph, ports, topo,
                                       net::FabricKind::kEthernet, src, dst,
                                       act_bytes, label, tag, pp_channel)
               : net::emit_transfer(graph, ports, topo, src, dst, act_bytes,
                                    label, tag, pp_channel);
  };

  // Cross-iteration state, indexed by global rank.
  std::vector<sim::TaskId> gate(static_cast<std::size_t>(n),
                                sim::kInvalidTask);
  // Parameter all-gather prefetch: (bucket index, task).
  std::vector<std::vector<std::pair<int, sim::TaskId>>> prefetch(
      static_cast<std::size_t>(n));

  std::vector<sim::TaskId>& iteration_markers = lowered.iteration_markers;

  // Per-rank scratch rebuilt each iteration.
  std::vector<sim::TaskId> tail(static_cast<std::size_t>(n));
  std::vector<std::vector<sim::TaskId>> bucket_done(
      static_cast<std::size_t>(n));

  for (int it = 0; it < iterations; ++it) {
    auto tag = [it](sim::TaskTag base) { return tags::for_iteration(base, it); };

    // fwd/bwd task handles per (tp, dp) replica: [virtual stage][microbatch].
    // bwd_head is the first bucket sub-task (what the incoming gradient
    // transfer gates); bwd_tail the last.
    std::vector<sim::TaskId> fwd(static_cast<std::size_t>(virtual_stages) * m);
    std::vector<sim::TaskId> bwd_head(fwd.size());
    std::vector<sim::TaskId> bwd_tail(fwd.size());
    auto idx = [m](int v, int microbatch) {
      return static_cast<std::size_t>(v) * m + microbatch;
    };

    for (auto& b : bucket_done) b.clear();

    for (int tp = 0; tp < t; ++tp) {
      for (int dp = 0; dp < d; ++dp) {
        // ---- Pass A: compute tasks, program-order chained per device ----
        for (int s = 0; s < p; ++s) {
          const int rank = plan.groups.rank_at({tp, dp, s});

          // Fixed per-iteration overhead starts the device's program.
          const sim::TaskId overhead = graph.add_compute(
              ports.compute(rank), cost_.iteration_overhead, "overhead");
          graph.add_deps(overhead, {gate[static_cast<std::size_t>(rank)]});
          tail[static_cast<std::size_t>(rank)] = overhead;

          const pipeline::StageProgram& program =
              programs[static_cast<std::size_t>(s)];
          const int last_op = static_cast<int>(program.size()) - 1;
          for (int k = 0; k <= last_op; ++k) {
            const pipeline::PipelineOp& op = program[static_cast<std::size_t>(k)];
            const int v = op.chunk * p + s;
            const StageCost& sc = stages[static_cast<std::size_t>(v)];
            sim::TaskId task;
            if (op.kind == pipeline::OpKind::kForward) {
              task = graph.add_compute(ports.compute(rank),
                                       perturbed(rank, sc.fwd_seconds),
                                       "fwd", tag(tags::kForward));
              graph.add_deps(task, {tail[static_cast<std::size_t>(rank)]});
              fwd[idx(v, op.microbatch)] = task;
            } else {
              // Backward. The device's final backward op is split into
              // gradient buckets for the overlapped optimizer.
              const bool split = sync.overlaps_backward() && k == last_op;
              const int pieces = split ? buckets : 1;
              sim::TaskId head = sim::kInvalidTask;
              sim::TaskId prev = tail[static_cast<std::size_t>(rank)];
              for (int b = 0; b < pieces; ++b) {
                const sim::TaskId piece = graph.add_compute(
                    ports.compute(rank),
                    perturbed(rank, sc.bwd_seconds / pieces), "bwd",
                    tag(tags::kBackward));
                graph.add_deps(piece, {prev});
                if (b == 0) {
                  head = piece;
                  graph.add_dep(piece, fwd[idx(v, op.microbatch)]);
                }
                if (split) {
                  bucket_done[static_cast<std::size_t>(rank)].push_back(piece);
                }
                prev = piece;
              }
              task = prev;
              bwd_head[idx(v, op.microbatch)] = head;
              bwd_tail[idx(v, op.microbatch)] = task;
            }
            tail[static_cast<std::size_t>(rank)] = task;

            // Parameter all-gather prefetch from the previous iteration:
            // bucket b's all-gather must land before this device's op at
            // index b * prefetch_stride (clamped) of this iteration.
            for (const auto& [bucket, prefetched] :
                 prefetch[static_cast<std::size_t>(rank)]) {
              if (std::min(bucket * cost_.prefetch_stride, last_op) == k) {
                graph.add_dep(task, prefetched);
              }
            }
          }
        }

        // ---- Pass B: inter-stage transfers over the virtual pipeline ----
        for (int v = 1; v < virtual_stages; ++v) {
          const int dst = plan.groups.rank_at({tp, dp, v % p});
          const int src = plan.groups.rank_at({tp, dp, (v - 1) % p});
          for (int microbatch = 0; microbatch < m; ++microbatch) {
            if (src == dst) {
              // Chunk boundary within one device (p == 1): direct
              // dependency, no wire traffic.
              graph.add_dep(fwd[idx(v, microbatch)], fwd[idx(v - 1, microbatch)]);
              graph.add_dep(bwd_head[idx(v - 1, microbatch)],
                            bwd_tail[idx(v, microbatch)]);
              continue;
            }
            const sim::TaskId f =
                emit_p2p(src, dst, "act", tag(tags::kActivationP2P));
            graph.add_dep(f, fwd[idx(v - 1, microbatch)]);
            graph.add_dep(fwd[idx(v, microbatch)], f);

            const sim::TaskId b =
                emit_p2p(dst, src, "grad", tag(tags::kActivationP2P));
            graph.add_dep(b, bwd_tail[idx(v, microbatch)]);
            graph.add_dep(bwd_head[idx(v - 1, microbatch)], b);
          }
        }
      }
    }

    // ---- Data-parallel synchronization + optimizer, per (tp, stage) ----
    for (int s = 0; s < p; ++s) {
      const double params = device_params[static_cast<std::size_t>(s)];
      const Bytes grad_bytes =
          static_cast<Bytes>(params * cost_.grad_bytes_per_param);
      const Bytes param_bytes = static_cast<Bytes>(params * cost_.param_bytes);
      for (int tp = 0; tp < t; ++tp) {
        const comm::Communicator& dp_comm =
            dp_comms[static_cast<std::size_t>(tp + s * t)];
        std::vector<int> members(static_cast<std::size_t>(d));
        comm::TaskHandles ready(static_cast<std::size_t>(d));
        for (int dp = 0; dp < d; ++dp) {
          members[static_cast<std::size_t>(dp)] =
              plan.groups.rank_at({tp, dp, s});
          ready[static_cast<std::size_t>(dp)] = tail[static_cast<std::size_t>(
              members[static_cast<std::size_t>(dp)])];
        }

        switch (sync.kind) {
          case optimizer::DpSyncKind::kAllReduce: {
            const comm::TaskHandles done = dp_comm.lower_all_reduce(
                graph, ports, grad_bytes, ready, tag(tags::kGradAllReduce));
            for (int j = 0; j < d; ++j) {
              const int rank = members[static_cast<std::size_t>(j)];
              const sim::TaskId opt = graph.add_compute(
                  ports.compute(rank),
                  perturbed(rank, cost_.optimizer_seconds(params)), "adam",
                  tag(tags::kOptimizerStep));
              graph.add_deps(opt, {done[static_cast<std::size_t>(j)],
                                   tail[static_cast<std::size_t>(rank)]});
              gate[static_cast<std::size_t>(rank)] = opt;
              prefetch[static_cast<std::size_t>(rank)].clear();
            }
            break;
          }
          case optimizer::DpSyncKind::kDistributedOptimizer:
          case optimizer::DpSyncKind::kFullyShardedOptimizer: {
            // ZeRO-3 re-gathers parameters for the backward pass too:
            // modeled as doubled all-gather volume in the sync phase.
            const Bytes ag_bytes = param_bytes * sync.allgather_passes();
            const comm::TaskHandles reduced = dp_comm.lower_reduce_scatter(
                graph, ports, grad_bytes, ready, tag(tags::kGradReduceScatter));
            comm::TaskHandles updated(static_cast<std::size_t>(d));
            for (int j = 0; j < d; ++j) {
              const int rank = members[static_cast<std::size_t>(j)];
              const sim::TaskId opt = graph.add_compute(
                  ports.compute(rank),
                  perturbed(rank, cost_.optimizer_seconds(params / d)), "adam", tag(tags::kOptimizerStep));
              graph.add_deps(opt, {reduced[static_cast<std::size_t>(j)],
                                   tail[static_cast<std::size_t>(rank)]});
              updated[static_cast<std::size_t>(j)] = opt;
            }
            const comm::TaskHandles gathered = dp_comm.lower_all_gather(
                graph, ports, ag_bytes, updated, tag(tags::kParamAllGather));
            for (int j = 0; j < d; ++j) {
              const int rank = members[static_cast<std::size_t>(j)];
              gate[static_cast<std::size_t>(rank)] =
                  gathered[static_cast<std::size_t>(j)];
              prefetch[static_cast<std::size_t>(rank)].clear();
            }
            break;
          }
          case optimizer::DpSyncKind::kOverlappedDistributedOptimizer: {
            const std::vector<Bytes> grad_buckets =
                optimizer::bucket_sizes(grad_bytes, buckets);
            const std::vector<Bytes> param_buckets =
                optimizer::bucket_sizes(param_bytes, buckets);
            for (int j = 0; j < d; ++j) {
              prefetch[static_cast<std::size_t>(
                           members[static_cast<std::size_t>(j)])]
                  .clear();
            }
            for (int b = 0; b < buckets; ++b) {
              comm::TaskHandles bucket_ready(static_cast<std::size_t>(d));
              for (int j = 0; j < d; ++j) {
                const int rank = members[static_cast<std::size_t>(j)];
                const auto& pieces = bucket_done[static_cast<std::size_t>(rank)];
                HOLMES_CHECK_MSG(static_cast<int>(pieces.size()) == buckets,
                                 "bucket bookkeeping mismatch");
                bucket_ready[static_cast<std::size_t>(j)] =
                    pieces[static_cast<std::size_t>(b)];
              }
              const comm::TaskHandles reduced = dp_comm.lower_reduce_scatter(
                  graph, ports, grad_buckets[static_cast<std::size_t>(b)],
                  bucket_ready, tag(tags::kGradReduceScatter));
              comm::TaskHandles updated(static_cast<std::size_t>(d));
              for (int j = 0; j < d; ++j) {
                const int rank = members[static_cast<std::size_t>(j)];
                const sim::TaskId opt = graph.add_compute(
                    ports.compute(rank),
                    perturbed(rank, cost_.optimizer_seconds(params / d / buckets)),
                    "adam",
                    tag(tags::kOptimizerStep));
                graph.add_deps(opt, {reduced[static_cast<std::size_t>(j)]});
                updated[static_cast<std::size_t>(j)] = opt;
              }
              const comm::TaskHandles gathered = dp_comm.lower_all_gather(
                  graph, ports, param_buckets[static_cast<std::size_t>(b)],
                  updated, tag(tags::kParamAllGather));
              for (int j = 0; j < d; ++j) {
                const int rank = members[static_cast<std::size_t>(j)];
                const sim::TaskId done = gathered[static_cast<std::size_t>(j)];
                if (b == 0) {
                  gate[static_cast<std::size_t>(rank)] = done;
                } else {
                  prefetch[static_cast<std::size_t>(rank)].emplace_back(b, done);
                }
              }
            }
            break;
          }
        }
      }
    }

    // Iteration marker: fires when every device's optimizer state is final
    // (including prefetchable all-gathers, so the last iteration measures
    // complete work).
    const sim::TaskId marker =
        graph.add_noop("iteration_end", tag(tags::kIterationEnd));
    for (int rank = 0; rank < n; ++rank) {
      graph.add_deps(marker, {gate[static_cast<std::size_t>(rank)]});
      for (const auto& [bucket, task] : prefetch[static_cast<std::size_t>(rank)]) {
        (void)bucket;
        graph.add_dep(marker, task);
      }
    }
    iteration_markers.push_back(marker);

    if (it == 0) {
      std::size_t carried = 0;
      for (int rank = 0; rank < n; ++rank) {
        carried += (gate[static_cast<std::size_t>(rank)] != sim::kInvalidTask) +
                   prefetch[static_cast<std::size_t>(rank)].size();
      }
      reserve_iterations(graph, iterations, carried);
    }
  }

  lowered.compute_resource.reserve(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    lowered.compute_resource.push_back(ports.compute(rank));
  }
  lowered.iterations = iterations;
  // Compiled here, before any caller shares the graph across threads.
  graph.build_adjacency();
  return lowered;
}

sim::SimResult TrainingSimulator::execute(const SimArtifacts& lowered,
                                          sim::ExecutorOptions options) {
  options.rates = &lowered.rates;
  return sim::TaskGraphExecutor{options}.run(lowered.graph);
}

IterationMetrics TrainingSimulator::account(const TrainingPlan& plan,
                                            const SimArtifacts& executed) {
  obs::self_profile::PhaseTimer accounting_timer(
      &obs::SelfProfilePhases::accounting_s);
  const sim::TaskGraph& graph = executed.graph;
  const sim::SimResult& result = *executed.result;
  const int iterations = executed.iterations;
  const auto n = static_cast<int>(executed.compute_resource.size());
  const int last = iterations - 1;
  const SimTime iter_end =
      result.timing(executed.iteration_markers[static_cast<std::size_t>(last)])
          .finish;
  const SimTime first_end =
      result.timing(executed.iteration_markers.front()).finish;

  IterationMetrics metrics;
  // Average period over every post-warm-up iteration: a single
  // marker-to-marker difference is not robust when perturbations
  // desynchronize the replicas (the interval then oscillates around the
  // true period; a one-sample read can even dip below the compute bound).
  metrics.iteration_time = (iter_end - first_end) / (iterations - 1);
  const double total_flops =
      plan.workload.config.flops_per_iteration(plan.workload.batch_size);
  metrics.tflops_per_gpu = total_flops / (metrics.iteration_time * n) / 1e12;
  metrics.throughput =
      static_cast<double>(plan.workload.batch_size) / metrics.iteration_time;

  auto last_tag = [last](sim::TaskTag base) {
    return tags::for_iteration(base, last);
  };
  metrics.grad_sync_span =
      std::max(result.tag_span(graph, last_tag(tags::kGradReduceScatter)),
               result.tag_span(graph, last_tag(tags::kGradAllReduce)));
  metrics.param_allgather_span =
      result.tag_span(graph, last_tag(tags::kParamAllGather));
  metrics.optimizer_span =
      result.tag_span(graph, last_tag(tags::kOptimizerStep));
  metrics.task_count = graph.task_count();

  // The measured iteration's grad-sync wall time not hidden under
  // forward/backward compute (interval-union arithmetic; Table 5's ablation
  // metric).
  metrics.grad_sync_exposed =
      obs::account_overlap(
          graph, result,
          obs::tag_in(graph, {last_tag(tags::kGradReduceScatter),
                              last_tag(tags::kGradAllReduce)}),
          obs::tag_in(graph,
                      {last_tag(tags::kForward), last_tag(tags::kBackward)}))
          .exposed;
  return metrics;
}

IterationMetrics TrainingSimulator::run(const net::Topology& topo,
                                        const TrainingPlan& plan,
                                        int iterations,
                                        const Perturbations& perturbations,
                                        std::ostream* chrome_trace,
                                        SimArtifacts* artifacts) const {
  // Engine self-profile: snapshot the active collector (if any) so the
  // artifacts carry exactly this run's delta, even when the caller profiles
  // several runs under one SelfProfiler.
  namespace prof = obs::self_profile;
  const bool profiled = prof::enabled();
  obs::SelfProfile profile_before;
  std::chrono::steady_clock::time_point run_start{};
  if (profiled) {
    profile_before = *prof::tl_active;
    run_start = std::chrono::steady_clock::now();
  }
  SimArtifacts lowered = lower(
      topo, plan, iterations, perturbations,
      artifacts != nullptr ? std::exchange(*artifacts, SimArtifacts{})
                           : SimArtifacts{});
  lowered.result = execute(lowered, exec_options_);
  if (chrome_trace != nullptr) {
    sim::TraceOptions trace_options;
    trace_options.rates = &lowered.rates;
    sim::write_chrome_trace(*chrome_trace, lowered.graph, *lowered.result,
                            trace_options);
  }
  const IterationMetrics metrics = account(plan, lowered);

  if (profiled) {
    prof::add_phase(&obs::SelfProfilePhases::total_s,
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - run_start)
                        .count());
    if (artifacts != nullptr) {
      obs::SelfProfile profile_after = *prof::tl_active;
      profile_after.peak_rss_bytes = obs::current_peak_rss_bytes();
      lowered.self_profile = obs::delta(profile_before, profile_after);
    }
  }
  if (artifacts != nullptr) *artifacts = std::move(lowered);
  return metrics;
}

}  // namespace holmes::core
