#include "verify/flow_lints.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "model/memory.h"
#include "util/error.h"
#include "verify/lint_internal.h"
#include "verify/rules.h"

namespace holmes::verify {

namespace {

using namespace detail;
using sim::ResourceId;
using sim::Task;
using sim::TaskId;
using sim::TaskKind;

/// The time a task holds its resource(s): a compute's duration, a
/// transfer's serialization recomputed from its bytes and bandwidth.
/// Malformed negative costs (HV203's findings) clamp to zero so the bounds
/// below stay valid.
double occupancy_of(const Task& task, const sim::TaskInfo& info) {
  switch (task.kind) {
    case TaskKind::kCompute:
      return std::max(0.0, task.cost);
    case TaskKind::kTransfer:
      return serialization_of(info);
    case TaskKind::kNoop:
      return 0.0;
  }
  return 0.0;
}

std::string format_seconds(double s) {
  std::ostringstream os;
  os.precision(12);
  os << s;
  return os.str();
}

}  // namespace

FlowAnalysis analyze_flow(const TaskSetRef& view) {
  HOLMES_CHECK_MSG(view.tasks != nullptr && view.infos != nullptr,
                   "TaskSetRef needs tasks and their infos");
  FlowAnalysis analysis;
  const std::size_t n = view.tasks->size();
  const std::vector<TaskId> order = topological_order(view);
  if (order.size() != n) return analysis;  // malformed or cyclic
  analysis.valid = true;
  analysis.resource_load_s.assign(view.resource_count, 0.0);

  // Longest chain through declared costs: dist[i] = span(i) + max dist[dep].
  std::vector<double> dist(n, 0.0);
  std::vector<TaskId> best_pred(n, sim::kInvalidTask);
  std::size_t chain_tail = 0;
  for (const TaskId id : order) {
    const auto i = static_cast<std::size_t>(id);
    const Task& task = (*view.tasks)[i];
    const double occupancy = occupancy_of(task, (*view.infos)[i]);
    double longest_dep = 0.0;
    TaskId pred = sim::kInvalidTask;
    for (TaskId dep : view.deps(i)) {
      const double d = dist[static_cast<std::size_t>(dep)];
      if (pred == sim::kInvalidTask || d > longest_dep ||
          (d == longest_dep && dep < pred)) {
        longest_dep = d;
        pred = dep;
      }
    }
    // The minimum wall-clock span a task occupies regardless of schedule.
    dist[i] = longest_dep +
              (task.kind == TaskKind::kTransfer
                   ? occupancy + std::max(0.0, task.latency)
                   : occupancy);
    best_pred[i] = pred;
    if (dist[i] > analysis.chain_bound_s) {
      analysis.chain_bound_s = dist[i];
      chain_tail = i;
    }

    // Aggregate occupancy, mirroring the executor's busy accounting.
    if (task.kind == TaskKind::kNoop) continue;
    if (resource_ok(view, task.resource)) {
      analysis.resource_load_s[static_cast<std::size_t>(task.resource)] +=
          occupancy;
    }
    if (resource_ok(view, task.dst_port) && task.dst_port != task.resource) {
      analysis.resource_load_s[static_cast<std::size_t>(task.dst_port)] +=
          occupancy;
    }
  }
  if (analysis.chain_bound_s > 0) {
    for (TaskId id = static_cast<TaskId>(chain_tail); id != sim::kInvalidTask;
         id = best_pred[static_cast<std::size_t>(id)]) {
      analysis.chain.push_back(id);
    }
    std::reverse(analysis.chain.begin(), analysis.chain.end());
  }

  for (std::size_t r = 0; r < analysis.resource_load_s.size(); ++r) {
    if (analysis.resource_load_s[r] > analysis.resource_bound_s) {
      analysis.resource_bound_s = analysis.resource_load_s[r];
      analysis.busiest_resource = static_cast<ResourceId>(r);
    }
  }
  analysis.makespan_bound_s =
      std::max(analysis.chain_bound_s, analysis.resource_bound_s);

  // In-flight receive-buffer watermark over topological cuts. A transfer's
  // bytes occupy the destination endpoint from the transfer's topological
  // position through its last dependent's; the peak of the sweep is a lower
  // bound on the buffer any admissible schedule needs.
  std::vector<std::uint32_t> pos_of(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    pos_of[static_cast<std::size_t>(order[pos])] =
        static_cast<std::uint32_t>(pos);
  }
  std::vector<std::uint32_t> last_use = pos_of;
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : view.deps(i)) {
      auto& lu = last_use[static_cast<std::size_t>(dep)];
      lu = std::max(lu, pos_of[i]);
    }
  }
  auto receives = [&](std::size_t i) {
    const Task& task = (*view.tasks)[i];
    return task.kind == TaskKind::kTransfer && (*view.infos)[i].bytes > 0 &&
           resource_ok(view, task.dst_port);
  };
  const EndpointIndex endpoints = intern_endpoints(view);
  auto endpoint_of_receive = [&](std::size_t i) {
    return endpoints.of_resource[static_cast<std::size_t>(
        (*view.tasks)[i].dst_port)];
  };
  std::vector<Bytes> live(endpoints.names.size(), 0);
  std::vector<Bytes> peak(endpoints.names.size(), 0);
  std::vector<bool> freed(n, false);
  // Frees a receive once the position of its last use has been swept, so
  // its bytes are gone before the next position's receive arrives.
  auto free_after = [&](std::size_t i, std::size_t pos) {
    if (last_use[i] != pos || freed[i] || !receives(i)) return;
    freed[i] = true;  // a dependent may list the same dep twice
    live[endpoint_of_receive(i)] -= (*view.infos)[i].bytes;
  };
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto i = static_cast<std::size_t>(order[pos]);
    if (receives(i)) {
      const std::uint32_t e = endpoint_of_receive(i);
      live[e] += (*view.infos)[i].bytes;
      peak[e] = std::max(peak[e], live[e]);
    }
    free_after(i, pos);
    for (TaskId dep : view.deps(i)) {
      free_after(static_cast<std::size_t>(dep), pos);
    }
  }
  for (std::size_t e = 0; e < peak.size(); ++e) {
    if (peak[e] == 0) continue;  // received nothing: receives move bytes > 0
    analysis.watermarks.push_back({endpoints.names[e], peak[e]});
  }
  return analysis;
}

FlowAnalysis analyze_flow(const sim::TaskGraph& graph) {
  return analyze_flow(as_ref(graph));
}

LintReport lint_flow(const TaskSetRef& view, const sim::SimResult* result,
                     const FlowLintOptions& options) {
  return lint_flow(view, analyze_flow(view), result, options);
}

LintReport lint_flow(const TaskSetRef& view, const FlowAnalysis& analysis,
                     const sim::SimResult* result,
                     const FlowLintOptions& options) {
  HOLMES_CHECK_MSG(view.tasks != nullptr && view.infos != nullptr,
                   "TaskSetRef needs tasks and their infos");
  LintReport report;
  if (!analysis.valid) return report;  // HV201/HV202 own broken graphs

  const bool have_result =
      result != nullptr && result->timings().size() == view.tasks->size();

  if (have_result) {
    // HV401: the critical chain is a makespan lower bound.
    report.mark_checked(kRuleFlowChainBound);
    if (!ge(result->makespan(), analysis.chain_bound_s)) {
      std::ostringstream os;
      os << "critical chain needs " << format_seconds(analysis.chain_bound_s)
         << " s but the simulated makespan is only "
         << format_seconds(result->makespan()) << " s";
      if (!analysis.chain.empty()) {
        os << "; chain ends at "
           << task_subject(view,
                           static_cast<std::size_t>(analysis.chain.back()));
      }
      report.add(kRuleFlowChainBound, Severity::kError, "graph", os.str());
    }

    // HV402: no serial resource can fit its aggregate work in less than
    // that work's sum, and the static aggregate must agree with what the
    // executor accounted.
    report.mark_checked(kRuleFlowResourceBound);
    std::size_t findings = 0;
    auto emit = [&](ResourceId r, const std::string& message) {
      if (findings < kMaxDiagnosticsPerRule) {
        report.add(kRuleFlowResourceBound, Severity::kError,
                   "resource '" + resource_name(view, r) + "'", message);
      }
      ++findings;
    };
    for (std::size_t r = 0; r < analysis.resource_load_s.size(); ++r) {
      const double load = analysis.resource_load_s[r];
      const auto id = static_cast<ResourceId>(r);
      if (!ge(result->makespan(), load)) {
        emit(id, "aggregate declared occupancy " + format_seconds(load) +
                     " s exceeds the simulated makespan " +
                     format_seconds(result->makespan()) + " s");
      }
      const double busy = result->resource_busy(id);
      // Under an active fault timeline the executor legitimately accounts
      // more busy time than the static load (degraded resources stretch
      // occupancy); only below-load accounting is impossible then.
      const bool busy_ok = options.allow_stretched
                               ? ge(busy, load)
                               : near(load, busy);
      if (!busy_ok) {
        emit(id, "static aggregate occupancy " + format_seconds(load) +
                     " s disagrees with the executor's accounted busy time " +
                     format_seconds(busy) + " s" +
                     (options.allow_stretched ? " (stretching tolerated)"
                                              : ""));
      }
    }
  }

  // HV403: in-flight receive bytes vs the device memory.
  report.mark_checked(kRuleFlowMemoryWatermark);
  std::size_t memory_findings = 0;
  for (const FlowAnalysis::EndpointWatermark& wm : analysis.watermarks) {
    if (wm.peak_bytes <= model::kDeviceMemory) continue;
    if (memory_findings < kMaxDiagnosticsPerRule) {
      std::ostringstream os;
      os << "peak in-flight received bytes " << wm.peak_bytes
         << " exceed the " << model::kDeviceMemory
         << "-byte buffer budget under every admissible schedule";
      report.add(kRuleFlowMemoryWatermark, Severity::kWarning,
                 "endpoint '" + wm.endpoint + "'", os.str());
    }
    ++memory_findings;
  }

  // HV404: byte balance across each cluster cut, per closed channel.
  if (!options.resource_cluster.empty() && view.channel_count > 0) {
    report.mark_checked(kRuleChannelCutBalance);
    auto cluster_of = [&](ResourceId r) -> int {
      if (r < 0 ||
          static_cast<std::size_t>(r) >= options.resource_cluster.size()) {
        return -1;
      }
      return options.resource_cluster[static_cast<std::size_t>(r)];
    };
    struct CutFlow {
      Bytes forward = 0;   ///< bytes lo-cluster -> hi-cluster
      Bytes backward = 0;  ///< bytes hi-cluster -> lo-cluster
    };
    // channel -> unordered cluster pair (lo, hi) -> both directions' bytes.
    std::vector<std::map<std::pair<int, int>, CutFlow>> cut(view.channel_count);
    for (std::size_t i = 0; i < view.tasks->size(); ++i) {
      if (!channel_transfer(view, i)) continue;
      const Task& task = (*view.tasks)[i];
      const sim::TaskInfo& info = (*view.infos)[i];
      const int a = cluster_of(task.resource);
      const int b = cluster_of(task.dst_port);
      if (a >= 0 && b >= 0 && a != b) {
        CutFlow& cf = cut[static_cast<std::size_t>(info.channel)]
                         [{std::min(a, b), std::max(a, b)}];
        (a < b ? cf.forward : cf.backward) += info.bytes;
      }
    }
    const std::vector<bool> closed =
        tally_channels(view, intern_endpoints(view)).closed;
    std::size_t findings = 0;
    for (std::size_t c = 0; c < cut.size(); ++c) {
      if (cut[c].empty() || !closed[c]) continue;
      for (const auto& [pair, cf] : cut[c]) {
        const auto [a, b] = pair;
        if (cf.forward == cf.backward) continue;
        if (findings < kMaxDiagnosticsPerRule) {
          std::ostringstream os;
          os << "cluster cut " << a << "<->" << b << " moves " << cf.forward
             << " bytes forward but " << cf.backward
             << " back on a closed channel — the cut is unbalanced";
          report.add(kRuleChannelCutBalance, Severity::kWarning,
                     "channel " +
                         channel_name(view, static_cast<sim::ChannelId>(c)),
                     os.str());
        }
        ++findings;
      }
    }
  }
  return report;
}

LintReport lint_flow(const sim::TaskGraph& graph, const sim::SimResult& result,
                     const FlowLintOptions& options) {
  return lint_flow(as_ref(graph), &result, options);
}

}  // namespace holmes::verify
