#pragma once

/// \file plan_lints.h
/// Plan-family lints (HV1xx): static checks over a parallel-group layout,
/// a stage partition, and a topology *before* any task graph is built.
///
/// The pass operates on a PlanView — a non-owning bundle of the layout
/// pieces — rather than on core::TrainingPlan directly, so the verifier
/// stays below `core` in the layering (core wires the adapter, see
/// core/preflight.h) and hand-built layouts in tests and tools can be
/// linted without a Planner.
///
/// Rules (see verify/rules.h for the catalog):
///  - HV101 dp-group-transport: every data-parallel group whose members own
///    RDMA-capable NICs must share a common RDMA fabric (paper §3.2,
///    Automatic NIC Selection). Severity is error when the plan relies on
///    per-group transport selection (Holmes), warning when the plan
///    deliberately runs the global Ethernet fallback (baselines).
///  - HV102 tp-group-locality: tensor groups stay inside one node.
///  - HV103 dp-cluster-crossing: DP groups stay inside one cluster
///    (cluster-crossing belongs to the pipeline dimension only).
///  - HV104 partition-structure, HV105 partition-speed-order (Eq. 2),
///    HV106 memory-fit, HV107 degrees-consistent, HV108 needless-fallback.

#include <cstdint>
#include <optional>
#include <vector>

#include "model/transformer.h"
#include "net/topology.h"
#include "parallel/groups.h"
#include "pipeline/partition.h"
#include "util/units.h"
#include "verify/diagnostics.h"

namespace holmes::verify {

/// Non-owning view of the planning decisions under lint. `groups` is
/// required; every other field is optional — rules whose inputs are missing
/// are skipped (and not marked checked).
struct PlanView {
  const parallel::ParallelGroups* groups = nullptr;

  /// Layers per virtual stage (size = pipeline degree * chunks).
  const pipeline::StagePartition* partition = nullptr;
  /// Effective NIC per *physical* stage (size = pipeline degree).
  const std::vector<net::NicType>* stage_nics = nullptr;
  /// Model architecture, for layer-sum and memory checks.
  const model::TransformerConfig* model = nullptr;

  int micro_batch_size = 0;  ///< 0: unknown (skips memory check)
  /// Micro-batches per pipeline replica; nullopt: unknown (skips the >= 1
  /// check in HV107).
  std::optional<std::int64_t> micro_batches;

  /// True when all inter-node traffic deliberately rides Ethernet (the
  /// NIC-oblivious baselines in a heterogeneous job).
  bool ethernet_fallback = false;
  /// True when the plan selects transports per communicator group (Holmes'
  /// Automatic NIC Selection) — a non-RDMA DP group is then an error, not a
  /// known cost.
  bool per_group_transport = false;

  int optimizer_shards = 1;  ///< d when the DP strategy shards optimizer state
  int weight_shards = 1;     ///< d only for ZeRO-3/FSDP

  /// Eq. (2) speed table for the partition-order check.
  pipeline::StageSpeeds speeds = {};
};

/// Runs every plan-family rule whose inputs are present.
LintReport lint_plan(const net::Topology& topo, const PlanView& view);

}  // namespace holmes::verify
