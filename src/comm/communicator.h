#pragma once

/// \file communicator.h
/// A communicator binds a group of global ranks to a topology, mirroring an
/// NCCL communicator. Its timed lowerings emit a collective's step program
/// (comm/collective_steps.h) as transfer tasks into a sim::TaskGraph for
/// the benches and the training simulator; comm/inprocess.h runs the same
/// programs on real buffers.
///
/// Transport: every hop resolves the fabric of its concrete device pair, so
/// a ring whose neighbours sit in one cluster runs on RDMA while a hop that
/// crosses clusters (or crosses the IB/RoCE divide) drops to Ethernet. A
/// round completes when its slowest hop completes, so one bad hop gates the
/// whole collective — precisely the pathology the paper's Automatic NIC
/// Selection removes by never *forming* such groups.

#include <optional>
#include <string>
#include <vector>

#include "comm/collective_steps.h"
#include "net/ports.h"
#include "net/topology.h"
#include "sim/task_graph.h"

namespace holmes::comm {

/// Per-group-member dependency handles for timed collectives: `ready[i]`
/// gates member i's first send (kInvalidTask = ready at time zero), and the
/// returned `done[i]` fires when member i's buffer holds the final result
/// and its last send has drained.
using TaskHandles = std::vector<sim::TaskId>;

class Communicator {
 public:
  /// Creates a communicator over `ranks` (global topology ranks, at least
  /// one, all distinct). The topology must outlive the communicator.
  Communicator(const net::Topology& topo, std::vector<int> ranks,
               std::string name = "comm");

  /// Forces every *inter-node* hop of this communicator onto `fabric`
  /// (intra-node hops keep NVLink/PCIe). This models a NIC-oblivious stack:
  /// when a job spans incompatible RDMA NIC types, stock NCCL cannot bring
  /// up a uniform RDMA transport and falls back to TCP over Ethernet for
  /// all inter-node traffic. Holmes' Automatic NIC Selection is precisely
  /// the removal of this global fallback.
  void force_internode_fabric(net::FabricKind fabric) {
    internode_override_ = fabric;
  }

  int size() const { return static_cast<int>(ranks_.size()); }

  // ---- Timed lowerings (emit transfer tasks; return per-member done
  //      handles) ----

  TaskHandles lower_all_reduce(sim::TaskGraph& graph, const net::PortMap& ports,
                               Bytes bytes, const TaskHandles& ready,
                               sim::TaskTag tag = sim::kUntagged) const;

  /// Node-aware hierarchical all-reduce (see comm/hierarchical.h): uses
  /// every member's NIC for the inter-node phase instead of one flat ring.
  /// Requires each node's members to be contiguous in group order and
  /// equally sized per node.
  TaskHandles lower_hierarchical_all_reduce(
      sim::TaskGraph& graph, const net::PortMap& ports, Bytes bytes,
      const TaskHandles& ready, sim::TaskTag tag = sim::kUntagged) const;
  TaskHandles lower_reduce_scatter(sim::TaskGraph& graph,
                                   const net::PortMap& ports, Bytes bytes,
                                   const TaskHandles& ready,
                                   sim::TaskTag tag = sim::kUntagged) const;
  TaskHandles lower_all_gather(sim::TaskGraph& graph, const net::PortMap& ports,
                               Bytes bytes, const TaskHandles& ready,
                               sim::TaskTag tag = sim::kUntagged) const;
  TaskHandles lower_broadcast(sim::TaskGraph& graph, const net::PortMap& ports,
                              Bytes bytes, int root_member,
                              const TaskHandles& ready,
                              sim::TaskTag tag = sim::kUntagged) const;
  TaskHandles lower_all_to_all(sim::TaskGraph& graph, const net::PortMap& ports,
                               Bytes bytes_per_block, const TaskHandles& ready,
                               sim::TaskTag tag = sim::kUntagged) const;

 private:
  TaskHandles lower_steps(sim::TaskGraph& graph, const net::PortMap& ports,
                          const std::vector<CollectiveStep>& steps,
                          const TaskHandles& ready, sim::TaskTag tag,
                          const std::string& op) const;

  const net::Topology* topo_;
  std::vector<int> ranks_;
  std::string name_;
  std::optional<net::FabricKind> internode_override_;
};

}  // namespace holmes::comm
