#include "comm/communicator.h"

#include <unordered_set>

#include "comm/hierarchical.h"
#include "util/error.h"

namespace holmes::comm {

Communicator::Communicator(const net::Topology& topo, std::vector<int> ranks,
                           std::string name)
    : topo_(&topo), ranks_(std::move(ranks)), name_(std::move(name)) {
  if (ranks_.empty()) throw ConfigError("communicator '" + name_ + "' is empty");
  std::unordered_set<int> seen;
  for (int r : ranks_) {
    if (r < 0 || r >= topo.world_size()) {
      throw ConfigError("communicator '" + name_ + "' has out-of-range rank " +
                        std::to_string(r));
    }
    if (!seen.insert(r).second) {
      throw ConfigError("communicator '" + name_ + "' repeats rank " +
                        std::to_string(r));
    }
  }
}

TaskHandles Communicator::lower_all_reduce(sim::TaskGraph& graph,
                                           const net::PortMap& ports,
                                           Bytes bytes,
                                           const TaskHandles& ready,
                                           sim::TaskTag tag) const {
  return lower_steps(graph, ports, ring_all_reduce_steps(size(), bytes), ready,
                     tag, name_ + ".allreduce");
}

TaskHandles Communicator::lower_hierarchical_all_reduce(
    sim::TaskGraph& graph, const net::PortMap& ports, Bytes bytes,
    const TaskHandles& ready, sim::TaskTag tag) const {
  std::vector<int> node_of_member;
  node_of_member.reserve(ranks_.size());
  for (int r : ranks_) node_of_member.push_back(topo_->node_of(r));
  return lower_steps(graph, ports,
                     hierarchical_all_reduce_steps(node_of_member, bytes),
                     ready, tag, name_ + ".hier-allreduce");
}

TaskHandles Communicator::lower_reduce_scatter(sim::TaskGraph& graph,
                                               const net::PortMap& ports,
                                               Bytes bytes,
                                               const TaskHandles& ready,
                                               sim::TaskTag tag) const {
  return lower_steps(graph, ports, ring_reduce_scatter_steps(size(), bytes),
                     ready, tag, name_ + ".reducescatter");
}

TaskHandles Communicator::lower_all_gather(sim::TaskGraph& graph,
                                           const net::PortMap& ports,
                                           Bytes bytes,
                                           const TaskHandles& ready,
                                           sim::TaskTag tag) const {
  return lower_steps(graph, ports, ring_all_gather_steps(size(), bytes), ready,
                     tag, name_ + ".allgather");
}

TaskHandles Communicator::lower_broadcast(sim::TaskGraph& graph,
                                          const net::PortMap& ports,
                                          Bytes bytes, int root_member,
                                          const TaskHandles& ready,
                                          sim::TaskTag tag) const {
  return lower_steps(graph, ports, broadcast_steps(size(), root_member, bytes),
                     ready, tag, name_ + ".broadcast");
}

TaskHandles Communicator::lower_all_to_all(sim::TaskGraph& graph,
                                           const net::PortMap& ports,
                                           Bytes bytes_per_block,
                                           const TaskHandles& ready,
                                           sim::TaskTag tag) const {
  return lower_steps(graph, ports, all_to_all_steps(size(), bytes_per_block),
                     ready, tag, name_ + ".alltoall");
}

TaskHandles Communicator::lower_steps(sim::TaskGraph& graph,
                                      const net::PortMap& ports,
                                      const std::vector<CollectiveStep>& steps,
                                      const TaskHandles& ready,
                                      sim::TaskTag tag,
                                      const std::string& op) const {
  const int n = size();
  HOLMES_CHECK_MSG(ready.empty() || static_cast<int>(ready.size()) == n,
                   "ready handles must be empty or one per member");
  TaskHandles last_recv(static_cast<std::size_t>(n), sim::kInvalidTask);
  if (!ready.empty()) last_recv = ready;
  TaskHandles last_send(static_cast<std::size_t>(n), sim::kInvalidTask);

  // Attribute every transfer of this collective to the communicator's
  // channel, so the observability layer can report per-communicator bytes
  // and effective bus bandwidth without label parsing.
  const sim::ChannelId channel = graph.channel(name_);

  // Labels are built once per round ("<op>.r<round>") or once per call
  // (joins, done points); the graph interns them, so emitting a task
  // allocates nothing.
  std::string round_label = op + ".r";
  const std::size_t round_prefix = round_label.size();
  const std::string join_label = op + ".join";
  const std::string done_label = op + ".done";

  // Process round by round; a send depends on what its rank had received by
  // the *end of the previous round* (never on same-round arrivals, which
  // would serialize the ring and destroy its pipelining). The snapshot and
  // the per-member arrival lists are reused across rounds.
  TaskHandles recv_snapshot;
  std::vector<std::vector<sim::TaskId>> arrivals(static_cast<std::size_t>(n));
  std::size_t i = 0;
  while (i < steps.size()) {
    const int round = steps[i].round;
    recv_snapshot = last_recv;
    round_label.resize(round_prefix);
    round_label += std::to_string(round);
    for (; i < steps.size() && steps[i].round == round; ++i) {
      const CollectiveStep& s = steps[i];
      const int src_rank = ranks_[static_cast<std::size_t>(s.src)];
      const int dst_rank = ranks_[static_cast<std::size_t>(s.dst)];
      const bool cross_node =
          topo_->node_of(src_rank) != topo_->node_of(dst_rank);
      const sim::TaskId t =
          (internode_override_ && cross_node)
              ? net::emit_transfer_on(graph, ports, *topo_,
                                      *internode_override_, src_rank, dst_rank,
                                      s.count, round_label, tag, channel)
              : net::emit_transfer(graph, ports, *topo_, src_rank, dst_rank,
                                   s.count, round_label, tag, channel);
      graph.add_deps(t, {recv_snapshot[static_cast<std::size_t>(s.src)]});
      arrivals[static_cast<std::size_t>(s.dst)].push_back(t);
      last_send[static_cast<std::size_t>(s.src)] = t;
    }
    for (int m = 0; m < n; ++m) {
      auto& in = arrivals[static_cast<std::size_t>(m)];
      if (in.empty()) continue;
      if (in.size() == 1) {
        last_recv[static_cast<std::size_t>(m)] = in.front();
      } else {
        const sim::TaskId join = graph.add_noop(join_label, tag);
        graph.add_deps(join, in);
        last_recv[static_cast<std::size_t>(m)] = join;
      }
      in.clear();
    }
  }

  TaskHandles done(static_cast<std::size_t>(n), sim::kInvalidTask);
  for (int m = 0; m < n; ++m) {
    const sim::TaskId recv = last_recv[static_cast<std::size_t>(m)];
    const sim::TaskId send = last_send[static_cast<std::size_t>(m)];
    if (send == sim::kInvalidTask) {
      done[static_cast<std::size_t>(m)] = recv;  // may be the ready handle
    } else if (recv == sim::kInvalidTask || recv == send) {
      done[static_cast<std::size_t>(m)] = send;
    } else {
      const sim::TaskId join = graph.add_noop(done_label, tag);
      graph.add_deps(join, {recv, send});
      done[static_cast<std::size_t>(m)] = join;
    }
  }
  return done;
}

}  // namespace holmes::comm
