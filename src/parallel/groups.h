#pragma once

/// \file groups.h
/// Parallel group matrices [TP], [PP], [DP] (paper Eq. 1, 3, 4).
///
/// The formulas are defined over *slots* 0..N-1 with tensor parallelism
/// innermost, data parallelism next, and pipeline stages outermost:
///   slot = tp + dp·t + stage·t·d.
/// A scheduling method is then exactly a permutation `device_order` mapping
/// slots to global device ranks: Megatron-LM uses the identity (launcher
/// order), Holmes permutes nodes so pipeline-stage blocks align with
/// cluster boundaries (Cross-Cluster Pipeline Parallelism) which makes
/// every data-parallel group NIC-homogeneous (Automatic NIC Selection).

#include <vector>

#include "net/topology.h"
#include "parallel/parallel_config.h"

namespace holmes::parallel {

/// A device's coordinates in the three parallel dimensions.
struct RankCoord {
  int tp = 0;     ///< position within its tensor parallel group
  int dp = 0;     ///< position within its data parallel group
  int stage = 0;  ///< pipeline stage index
  bool operator==(const RankCoord&) const = default;
};

class ParallelGroups {
 public:
  /// Builds the group matrices for `config` with the given slot→rank
  /// permutation. An empty `device_order` means identity. Throws
  /// holmes::ConfigError when the permutation is not a bijection over
  /// 0..N-1.
  ParallelGroups(ParallelConfig config, std::vector<int> device_order = {});

  const ParallelConfig& config() const { return config_; }

  /// Eq. (1): p·d groups of t ranks each.
  const std::vector<std::vector<int>>& tp_groups() const { return tp_; }
  /// Eq. (3): t·d groups of p ranks each.
  const std::vector<std::vector<int>>& pp_groups() const { return pp_; }
  /// Eq. (4): p·t groups of d ranks each.
  const std::vector<std::vector<int>>& dp_groups() const { return dp_; }

  /// Coordinates of a global rank. Throws when the rank is not mapped.
  RankCoord coord_of(int rank) const;

  /// Global rank at the given coordinates.
  int rank_at(RankCoord coord) const;

  /// Global ranks forming pipeline stage `stage` (t·d ranks).
  std::vector<int> stage_ranks(int stage) const;

 private:
  int slot_of(int rank) const;

  ParallelConfig config_;
  std::vector<int> order_;      ///< slot -> rank
  std::vector<int> slot_;       ///< rank -> slot
  std::vector<std::vector<int>> tp_, pp_, dp_;
};

/// Checks structural invariants of a group set against a topology:
///  - group counts and sizes match the config,
///  - each parallel dimension partitions the ranks,
///  - every tensor-parallel group sits inside a single node (its traffic
///    must ride NVLink/PCIe).
/// Throws holmes::ConfigError on violation.
void validate_groups(const ParallelGroups& groups, const net::Topology& topo);

/// Fraction of data-parallel groups whose members all share an RDMA-capable
/// common fabric — 1.0 is what Automatic NIC Selection guarantees whenever
/// the topology permits it.
double rdma_dp_group_fraction(const ParallelGroups& groups,
                              const net::Topology& topo);

}  // namespace holmes::parallel
