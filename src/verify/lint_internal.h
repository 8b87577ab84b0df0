#pragma once

/// \file lint_internal.h
/// Helpers the graph and flow passes share (internal to holmes_verify); each
/// is linear in tasks + deps, plus one sort over the resources' endpoints.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "verify/graph_lints.h"

namespace holmes::verify::detail {

inline bool resource_ok(const TaskSetRef& view, sim::ResourceId id) {
  return id >= 0 && static_cast<std::size_t>(id) < view.resource_count;
}

inline std::string resource_name(const TaskSetRef& view, sim::ResourceId id) {
  return view.graph != nullptr && resource_ok(view, id)
             ? view.graph->resource_name(id)
             : "r" + std::to_string(id);
}

inline std::string channel_name(const TaskSetRef& view, sim::ChannelId id) {
  const bool known = view.graph != nullptr && id >= 0 &&
                     static_cast<std::size_t>(id) < view.channel_count;
  return known ? view.graph->channel_name(id) : "ch" + std::to_string(id);
}

inline std::string task_subject(const TaskSetRef& view, std::size_t id) {
  const std::string_view label = view.label(id);
  std::string subject = "task " + std::to_string(id);
  if (!label.empty()) subject.append(" '").append(label).append("'");
  return subject;
}

/// Strips a trailing ".tx"/".rx" so a port pair collapses to its endpoint.
inline std::string endpoint_of(const std::string& port) {
  const bool paired =
      port.size() > 3 && (port.ends_with(".tx") || port.ends_with(".rx"));
  return paired ? port.substr(0, port.size() - 3) : port;
}

/// Serialization time a transfer occupies its ports for, recomputed from
/// its bytes and bandwidth (the Task's precomputed cost is not trusted).
inline SimTime serialization_of(const sim::TaskInfo& info) {
  return info.bytes > 0 && info.bandwidth > 0
             ? static_cast<double>(info.bytes) / info.bandwidth
             : 0.0;
}

/// Relative tolerance of every floating-point timing comparison the
/// graph, execution and flow rules make (absolute below magnitude 1).
inline constexpr double kTolerance = 1e-9;

/// a >= b, up to kTolerance.
inline bool ge(double a, double b) {
  const double eps = kTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
  return a >= b - eps;
}

inline bool near(double a, double b) { return ge(a, b) && ge(b, a); }

/// Kahn's sort over the deps plus, if given, an edge extra_pred[i] -> i
/// (kInvalidTask: none). The frontier is LIFO, seeded in ascending id order,
/// and a task releases its dependents in ascending id order; the flow chain's
/// tail and watermark positions depend on this order. Returns the tasks that
/// became ready, in order: not all iff a cycle, none on a bad dep (HV202).
inline std::vector<sim::TaskId> topological_order(
    const TaskSetRef& view, std::span<const sim::TaskId> extra_pred = {}) {
  const std::size_t n = view.tasks->size();
  auto for_each_pred = [&](std::size_t i, auto&& visit) {
    for (sim::TaskId dep : view.deps(i)) visit(static_cast<std::size_t>(dep));
    if (!extra_pred.empty() && extra_pred[i] != sim::kInvalidTask) {
      visit(static_cast<std::size_t>(extra_pred[i]));
    }
  };
  // Dependents CSR by counting sort, filled backwards so every list ascends.
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::uint32_t> offset(n + 1, 0);
  bool malformed = false;  // a negative dep wraps to >= n
  for (std::size_t i = 0; i < n; ++i) {
    for_each_pred(i, [&](std::size_t dep) {
      malformed = malformed || dep >= n || dep == i;
      if (malformed) return;
      ++indegree[i];
      ++offset[dep];
    });
  }
  if (malformed) return {};
  for (std::size_t i = 1; i <= n; ++i) offset[i] += offset[i - 1];
  std::vector<std::uint32_t> dependents(offset[n]);
  for (std::size_t i = n; i-- > 0;) {
    for_each_pred(i, [&](std::size_t dep) {
      dependents[--offset[dep]] = static_cast<std::uint32_t>(i);
    });
  }
  std::vector<sim::TaskId> order;
  std::vector<std::uint32_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) frontier.push_back(static_cast<std::uint32_t>(i));
  }
  while (!frontier.empty()) {
    const std::uint32_t id = frontier.back();
    frontier.pop_back();
    order.push_back(static_cast<sim::TaskId>(id));
    for (std::uint32_t k = offset[id]; k < offset[id + 1]; ++k) {
      if (--indegree[dependents[k]] == 0) frontier.push_back(dependents[k]);
    }
  }
  return order;
}

/// Endpoints interned once per resource, with ids in endpoint-name order so
/// tallies by id come out sorted by name.
struct EndpointIndex {
  std::vector<std::string> names;          ///< endpoint id -> name
  std::vector<std::uint32_t> of_resource;  ///< resource id -> endpoint id
};

inline EndpointIndex intern_endpoints(const TaskSetRef& view) {
  std::vector<std::string> endpoint(view.resource_count);  // per resource
  for (std::size_t r = 0; r < endpoint.size(); ++r) {
    endpoint[r] =
        endpoint_of(resource_name(view, static_cast<sim::ResourceId>(r)));
  }
  EndpointIndex index{endpoint, {}};
  std::sort(index.names.begin(), index.names.end());
  index.names.erase(std::unique(index.names.begin(), index.names.end()),
                    index.names.end());
  for (const std::string& name : endpoint) {
    index.of_resource.push_back(static_cast<std::uint32_t>(
        std::lower_bound(index.names.begin(), index.names.end(), name) -
        index.names.begin()));
  }
  return index;
}

/// Task `i` is a transfer on a registered channel between known ports (else
/// HV203's).
inline bool channel_transfer(const TaskSetRef& view, std::size_t i) {
  const sim::Task& task = (*view.tasks)[i];
  const sim::ChannelId channel = (*view.infos)[i].channel;
  return task.kind == sim::TaskKind::kTransfer && channel >= 0 &&
         static_cast<std::size_t>(channel) < view.channel_count &&
         resource_ok(view, task.resource) && resource_ok(view, task.dst_port);
}

/// Bytes one endpoint sent and received on one channel.
struct EndpointFlow {
  sim::ChannelId channel = sim::kInvalidChannel;
  std::uint32_t endpoint = 0;
  Bytes tx = 0;
  Bytes rx = 0;
  bool sends = false;
  bool receives = false;
};

/// Per-(channel, endpoint) tallies sorted by channel, then endpoint name, and
/// which channels are closed: two or more endpoints that all send and receive
/// (ring collectives; the pipeline channel, whose act/grad bytes mirror).
struct ChannelFlows {
  std::vector<EndpointFlow> flows;
  std::vector<bool> closed;  ///< per channel id
};

inline ChannelFlows tally_channels(const TaskSetRef& view,
                                   const EndpointIndex& endpoints) {
  ChannelFlows tally;
  std::unordered_map<std::uint64_t, std::size_t> slot;  // (channel, endpoint)
  auto flow_of = [&](sim::ChannelId c, sim::ResourceId port) -> EndpointFlow& {
    const std::uint32_t e =
        endpoints.of_resource[static_cast<std::size_t>(port)];
    const auto [it, added] = slot.try_emplace(
        static_cast<std::uint64_t>(c) << 32 | e, tally.flows.size());
    if (added) tally.flows.push_back({c, e});
    return tally.flows[it->second];
  };
  for (std::size_t i = 0; i < view.tasks->size(); ++i) {
    if (!channel_transfer(view, i)) continue;
    const sim::Task& task = (*view.tasks)[i];
    const sim::TaskInfo& info = (*view.infos)[i];
    // Done with `src` before the `dst` lookup may grow `flows`.
    EndpointFlow& src = flow_of(info.channel, task.resource);
    src.tx += info.bytes;
    src.sends = true;
    EndpointFlow& dst = flow_of(info.channel, task.dst_port);
    dst.rx += info.bytes;
    dst.receives = true;
  }
  std::sort(tally.flows.begin(), tally.flows.end(),
            [](const EndpointFlow& a, const EndpointFlow& b) {
              if (a.channel != b.channel) return a.channel < b.channel;
              return a.endpoint < b.endpoint;
            });
  // Endpoints per channel, or -1 once one of them only sends or receives.
  std::vector<int> members(view.channel_count, 0);
  for (const EndpointFlow& flow : tally.flows) {
    int& m = members[static_cast<std::size_t>(flow.channel)];
    m = m < 0 || !(flow.sends && flow.receives) ? -1 : m + 1;
  }
  for (const int m : members) tally.closed.push_back(m >= 2);
  return tally;
}

}  // namespace holmes::verify::detail
