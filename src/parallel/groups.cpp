#include "parallel/groups.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace holmes::parallel {

ParallelGroups::ParallelGroups(ParallelConfig config,
                               std::vector<int> device_order)
    : config_(config), order_(std::move(device_order)) {
  const int n = config_.world();
  if (config_.tensor <= 0 || config_.pipeline <= 0 || config_.data <= 0) {
    throw ConfigError("parallel degrees must be positive");
  }
  if (order_.empty()) {
    order_.resize(static_cast<std::size_t>(n));
    std::iota(order_.begin(), order_.end(), 0);
  }
  if (static_cast<int>(order_.size()) != n) {
    throw ConfigError("device order must list all " + std::to_string(n) +
                      " ranks");
  }
  slot_.assign(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    const int rank = order_[static_cast<std::size_t>(s)];
    if (rank < 0 || rank >= n || slot_[static_cast<std::size_t>(rank)] != -1) {
      throw ConfigError("device order is not a permutation of 0.." +
                        std::to_string(n - 1));
    }
    slot_[static_cast<std::size_t>(rank)] = s;
  }

  const int t = config_.tensor, p = config_.pipeline, d = config_.data;
  // Eq. (1): TP group i = slots [i*t, (i+1)*t).
  tp_.resize(static_cast<std::size_t>(p) * d);
  for (int i = 0; i < p * d; ++i) {
    auto& g = tp_[static_cast<std::size_t>(i)];
    g.reserve(static_cast<std::size_t>(t));
    for (int j = 0; j < t; ++j) {
      g.push_back(order_[static_cast<std::size_t>(i * t + j)]);
    }
  }
  // Eq. (3): PP group i (= tp + dp*t) has members i + j*t*d.
  pp_.resize(static_cast<std::size_t>(t) * d);
  for (int i = 0; i < t * d; ++i) {
    auto& g = pp_[static_cast<std::size_t>(i)];
    g.reserve(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      g.push_back(order_[static_cast<std::size_t>(i + j * t * d)]);
    }
  }
  // Eq. (4): DP group i (= tp + stage*t) has members tp + (stage*d + j)*t.
  dp_.resize(static_cast<std::size_t>(p) * t);
  for (int i = 0; i < p * t; ++i) {
    const int tp = i % t;
    const int stage = i / t;
    auto& g = dp_[static_cast<std::size_t>(i)];
    g.reserve(static_cast<std::size_t>(d));
    for (int j = 0; j < d; ++j) {
      g.push_back(order_[static_cast<std::size_t>(tp + (stage * d + j) * t)]);
    }
  }
}

int ParallelGroups::slot_of(int rank) const {
  HOLMES_CHECK_MSG(rank >= 0 && rank < config_.world(), "rank out of range");
  return slot_[static_cast<std::size_t>(rank)];
}

RankCoord ParallelGroups::coord_of(int rank) const {
  const int s = slot_of(rank);
  const int t = config_.tensor, d = config_.data;
  return RankCoord{s % t, (s / t) % d, s / (t * d)};
}

int ParallelGroups::rank_at(RankCoord coord) const {
  const int t = config_.tensor, d = config_.data, p = config_.pipeline;
  HOLMES_CHECK_MSG(coord.tp >= 0 && coord.tp < t, "tp coordinate out of range");
  HOLMES_CHECK_MSG(coord.dp >= 0 && coord.dp < d, "dp coordinate out of range");
  HOLMES_CHECK_MSG(coord.stage >= 0 && coord.stage < p,
                   "stage coordinate out of range");
  return order_[static_cast<std::size_t>(coord.tp + coord.dp * t +
                                         coord.stage * t * d)];
}

std::vector<int> ParallelGroups::stage_ranks(int stage) const {
  const int t = config_.tensor, d = config_.data;
  HOLMES_CHECK_MSG(stage >= 0 && stage < config_.pipeline, "stage out of range");
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(t) * d);
  for (int s = stage * t * d; s < (stage + 1) * t * d; ++s) {
    ranks.push_back(order_[static_cast<std::size_t>(s)]);
  }
  return ranks;
}

namespace {

void check_partition(const std::vector<std::vector<int>>& groups,
                     std::size_t expected_groups, std::size_t expected_size,
                     int world, const char* what) {
  if (groups.size() != expected_groups) {
    throw ConfigError(std::string(what) + ": expected " +
                      std::to_string(expected_groups) + " groups, got " +
                      std::to_string(groups.size()));
  }
  std::vector<int> seen(static_cast<std::size_t>(world), 0);
  for (const auto& g : groups) {
    if (g.size() != expected_size) {
      throw ConfigError(std::string(what) + ": group size " +
                        std::to_string(g.size()) + " != " +
                        std::to_string(expected_size));
    }
    for (int r : g) {
      if (r < 0 || r >= world || seen[static_cast<std::size_t>(r)]++) {
        throw ConfigError(std::string(what) + ": rank " + std::to_string(r) +
                          " repeated or out of range");
      }
    }
  }
}

}  // namespace

void validate_groups(const ParallelGroups& groups, const net::Topology& topo) {
  const ParallelConfig& c = groups.config();
  const int n = c.world();
  if (n != topo.world_size()) {
    throw ConfigError("group world size does not match topology");
  }
  check_partition(groups.tp_groups(),
                  static_cast<std::size_t>(c.pipeline) * c.data,
                  static_cast<std::size_t>(c.tensor), n, "[TP]");
  check_partition(groups.pp_groups(),
                  static_cast<std::size_t>(c.tensor) * c.data,
                  static_cast<std::size_t>(c.pipeline), n, "[PP]");
  check_partition(groups.dp_groups(),
                  static_cast<std::size_t>(c.pipeline) * c.tensor,
                  static_cast<std::size_t>(c.data), n, "[DP]");
  // Tensor parallel traffic must never leave a node.
  for (const auto& g : groups.tp_groups()) {
    for (int r : g) {
      if (topo.node_of(r) != topo.node_of(g.front())) {
        throw ConfigError("[TP] group crosses node boundary at rank " +
                          std::to_string(r));
      }
    }
  }
}

double rdma_dp_group_fraction(const ParallelGroups& groups,
                              const net::Topology& topo) {
  const auto& dp = groups.dp_groups();
  if (dp.empty()) return 1.0;
  int rdma = 0;
  for (const auto& g : dp) {
    if (g.size() < 2) {
      ++rdma;  // trivially fine
      continue;
    }
    const net::FabricKind f = topo.fastest_common_fabric(g);
    if (f != net::FabricKind::kEthernet) ++rdma;
  }
  return static_cast<double>(rdma) / static_cast<double>(dp.size());
}

}  // namespace holmes::parallel
