#include "core/run_stats.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/tags.h"
#include "net/topology_parse.h"
#include "obs/accounting.h"
#include "obs/sensitivity.h"
#include "util/error.h"
#include "util/units.h"

namespace holmes::core {

namespace {

std::string format_g(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// Communicator kind of a transfer, from its canonical per-iteration tag
/// (tag = base + iteration * kIterationStride); falls back to the channel
/// name for transfers outside the canonical set.
std::string comm_kind_of(const sim::TaskGraph& graph,
                         const sim::TaskInfo& task) {
  switch (task.tag % tags::kIterationStride) {
    case tags::kActivationP2P: return "pp p2p";
    case tags::kGradReduceScatter: return "grad reduce-scatter";
    case tags::kGradAllReduce: return "grad all-reduce";
    case tags::kParamAllGather: return "param all-gather";
    default: break;
  }
  if (task.channel != sim::kInvalidChannel) {
    return graph.channel_name(task.channel);
  }
  return "other";
}

}  // namespace

obs::Window clip_window(const WindowSpec& window, double makespan) {
  const double begin = std::max(0.0, window.begin);
  const double end =
      window.end < 0 ? makespan : std::min(window.end, makespan);
  if (!(begin < end)) {
    throw ConfigError("window " + format_g(window.begin) + ":" +
                      (window.end < 0 ? "" : format_g(window.end)) +
                      " selects nothing of the run (makespan " +
                      format_g(makespan) + " s)");
  }
  return {begin, end};
}

std::string workload_label(const TrainingPlan& plan) {
  return "group " + std::to_string(plan.workload.id) + " (" +
         format_g(plan.workload.nominal_billions) + "B params)";
}

obs::RunSummary build_run_summary(const net::Topology& topo,
                                  const TrainingPlan& plan,
                                  const IterationMetrics& metrics,
                                  const SimArtifacts& artifacts,
                                  const RunSummaryOptions& options) {
  HOLMES_CHECK_MSG(artifacts.result.has_value(),
                   "run summary needs populated artifacts (pass a "
                   "SimArtifacts* to TrainingSimulator::run)");
  const sim::TaskGraph& graph = artifacts.graph;
  const sim::SimResult& result = *artifacts.result;
  const obs::Window window =
      options.window ? clip_window(*options.window, result.makespan())
                     : obs::Window{artifacts.window_begin(),
                                   artifacts.window_end()};
  const int last = artifacts.iterations - 1;
  auto last_tag = [last](sim::TaskTag base) {
    return tags::for_iteration(base, last);
  };

  obs::RunSummary s;
  s.topology = net::format_topology(topo);
  s.framework = plan.framework.name;
  s.workload = workload_label(plan);
  s.iterations = artifacts.iterations;
  s.window_begin_s = window.begin;
  s.window_end_s = window.end;
  s.iteration_s = metrics.iteration_time;
  s.tflops_per_gpu = metrics.tflops_per_gpu;
  s.throughput = metrics.throughput;

  // ---- per-resource accounts: devices and links ----
  const std::vector<obs::ResourceAccount> resources =
      obs::account_resources(graph, result, window);
  for (const obs::ResourceAccount& r : resources) {
    if (r.is_device) {
      obs::RunSummary::Device d;
      d.name = r.name;
      d.busy_s = r.busy;
      d.waiting_s = r.waiting;
      d.utilization = r.utilization(window);
      d.tasks = r.tasks;
      s.devices.push_back(std::move(d));
    } else if (r.is_link && (r.busy > 0 || r.bytes > 0)) {
      obs::RunSummary::Link l;
      l.name = r.name;
      l.busy_s = r.busy;
      l.waiting_s = r.waiting;
      l.utilization = r.utilization(window);
      l.bytes = r.bytes;
      l.transfers = r.tasks;
      l.effective_gbps =
          r.busy > 0
              ? units::bytes_per_sec_to_gbps(static_cast<double>(r.bytes) /
                                             r.busy)
              : 0.0;
      s.links.push_back(std::move(l));
    }
  }

  // ---- per-stage pipeline-bubble fraction, over the measured iteration ----
  const int p = plan.degrees.pipeline;
  const int virtual_stages = plan.virtual_stages();
  for (int stage = 0; stage < p; ++stage) {
    const std::vector<int> ranks = plan.groups.stage_ranks(stage);
    std::vector<bool> on_stage(graph.resource_count(), false);
    for (int rank : ranks) {
      on_stage[static_cast<std::size_t>(
          artifacts.compute_resource[static_cast<std::size_t>(rank)])] = true;
    }
    const sim::TaskTag fwd = last_tag(tags::kForward);
    const sim::TaskTag bwd = last_tag(tags::kBackward);
    const obs::SpanAccount acct = obs::account_tasks(
        graph, result,
        [&](sim::TaskId id) {
          const sim::TaskTag tag = graph.info(id).tag;
          const sim::Task& task = graph.task(id);
          return (tag == fwd || tag == bwd) &&
                 task.kind == sim::TaskKind::kCompute &&
                 on_stage[static_cast<std::size_t>(task.resource)];
        },
        window);
    obs::RunSummary::Stage st;
    st.stage = stage;
    st.devices = static_cast<int>(ranks.size());
    for (int v = stage; v < virtual_stages; v += p) {
      st.layers += plan.partition[static_cast<std::size_t>(v)];
    }
    st.compute_busy_s = acct.busy;
    st.span_s = acct.span;
    const double capacity = st.devices * acct.span;
    st.bubble_fraction = capacity > 0 ? 1.0 - acct.busy / capacity : 0.0;
    s.stages.push_back(st);
  }

  // ---- per-communicator traffic ----
  for (const obs::ChannelAccount& c :
       obs::account_channels(graph, result, window)) {
    if (c.transfers == 0) continue;
    obs::RunSummary::Comm comm;
    comm.name = c.name;
    comm.bytes = c.bytes;
    comm.transfers = c.transfers;
    comm.busy_s = c.busy;
    comm.span_s = c.span;
    comm.bus_gbps = units::bytes_per_sec_to_gbps(c.effective_bandwidth());
    s.comms.push_back(std::move(comm));
  }

  // ---- exposed vs overlapped communication, measured iteration ----
  const obs::TaskPredicate compute_cover = obs::tag_in(
      graph, {last_tag(tags::kForward), last_tag(tags::kBackward)});
  const obs::OverlapAccount grad = obs::account_overlap(
      graph, result,
      obs::tag_in(graph, {last_tag(tags::kGradReduceScatter),
                          last_tag(tags::kGradAllReduce)}),
      compute_cover, window);
  s.grad_sync = {grad.total, grad.overlapped, grad.exposed};
  const obs::OverlapAccount gather = obs::account_overlap(
      graph, result, obs::tag_in(graph, {last_tag(tags::kParamAllGather)}),
      compute_cover, window);
  s.param_allgather = {gather.total, gather.overlapped, gather.exposed};

  return s;
}

obs::CriticalPathSummary build_critical_path_summary(
    const net::Topology& topo, const TrainingPlan& plan,
    const IterationMetrics& metrics, const SimArtifacts& artifacts,
    const CriticalPathOptions& options, obs::CriticalPath* path_out) {
  HOLMES_CHECK_MSG(artifacts.result.has_value(),
                   "critical-path summary needs populated artifacts (pass a "
                   "SimArtifacts* to TrainingSimulator::run)");
  const sim::TaskGraph& graph = artifacts.graph;
  const sim::SimResult& result = *artifacts.result;

  const obs::CriticalPath path = obs::extract_critical_path(graph, result);
  if (path_out != nullptr) *path_out = path;

  const obs::Window window = clip_window(options.window, path.makespan);

  // Clip to the attribution window; the default window keeps everything, so
  // bucket seconds telescope to the full makespan.
  obs::CriticalPath clipped;
  clipped.makespan = path.makespan;
  clipped.tasks = path.tasks;
  for (obs::PathSegment segment : path.segments) {
    segment.begin = std::max(segment.begin, window.begin);
    segment.end = std::min(segment.end, window.end);
    if (segment.end > segment.begin) clipped.segments.push_back(segment);
  }

  // A compute engine's pipeline stage, via the plan's group matrices.
  const net::PortMap& ports = artifacts.ports;
  auto stage_bucket = [&](sim::ResourceId resource) -> std::string {
    const int rank = ports.owner(resource).rank;
    return rank >= 0 && resource == ports.compute(rank)
               ? "compute/stage" +
                     std::to_string(plan.groups.coord_of(rank).stage)
               : std::string("compute/other");
  };

  auto bucket_of = [&](const obs::PathSegment& segment) -> std::string {
    const std::string cls = ports.resource_class(segment.resource);
    switch (segment.kind) {
      case obs::SegmentKind::kCompute:
        return stage_bucket(segment.resource);
      case obs::SegmentKind::kCommBusy:
        return "comm/" + cls + "/" +
               comm_kind_of(graph, graph.info(segment.task));
      case obs::SegmentKind::kCommLatency:
        return "latency/" + cls;
      case obs::SegmentKind::kQueueWait:
        return "wait/" + cls;
    }
    return "other";
  };

  obs::CriticalPathSummary s;
  s.topology = net::format_topology(topo);
  s.framework = plan.framework.name;
  s.workload = workload_label(plan);
  s.makespan_s = path.makespan;
  s.iteration_s = metrics.iteration_time;
  s.window_begin_s = window.begin;
  s.window_end_s = window.end;
  s.total_segments = clipped.segments.size();

  // ---- attribution buckets (partition the window) ----
  std::map<std::string, obs::CriticalPathSummary::Bucket> buckets;
  for (const obs::PathSegment& segment : clipped.segments) {
    const std::string name = bucket_of(segment);
    obs::CriticalPathSummary::Bucket& b = buckets[name];
    if (b.name.empty()) {
      b.name = name;
      b.kind = obs::to_string(segment.kind);
    }
    b.seconds += segment.duration();
    ++b.segments;
  }
  const double window_span = window.length();
  for (auto& [name, bucket] : buckets) {
    bucket.share = window_span > 0 ? bucket.seconds / window_span : 0.0;
    s.buckets.push_back(bucket);
  }
  std::sort(s.buckets.begin(), s.buckets.end(),
            [](const obs::CriticalPathSummary::Bucket& a,
               const obs::CriticalPathSummary::Bucket& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.name < b.name;
            });

  // ---- longest segments ----
  std::vector<obs::PathSegment> longest = clipped.segments;
  std::sort(longest.begin(), longest.end(),
            [](const obs::PathSegment& a, const obs::PathSegment& b) {
              if (a.duration() != b.duration())
                return a.duration() > b.duration();
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.task < b.task;
            });
  if (longest.size() > options.top_segments) {
    longest.resize(options.top_segments);
  }
  s.top_segments.reserve(longest.size());
  for (const obs::PathSegment& segment : longest) {
    const std::string& label = graph.label(segment.task);
    obs::CriticalPathSummary::Segment out;
    out.task = segment.task;
    out.label = label.empty() ? "task" + std::to_string(segment.task) : label;
    out.kind = obs::to_string(segment.kind);
    out.edge = obs::to_string(segment.edge);
    out.resource =
        segment.resource >= 0 ? graph.resource_name(segment.resource) : "";
    out.bucket = bucket_of(segment);
    out.begin_s = segment.begin;
    out.end_s = segment.end;
    s.top_segments.push_back(std::move(out));
  }

  // ---- first-order what-if sensitivities over the windowed path ----
  const std::vector<obs::WhatIf> whatifs = obs::what_if_sensitivities(
      graph, clipped,
      // `kind` is the segment's controlling task's: its own for busy spans,
      // the blocking occupant for queue waits. Either way segment.resource
      // is the resource that task occupied (a wait's contended resource IS
      // the holder's), so the class lookups below work for both.
      [&](const obs::PathSegment& segment,
          sim::TaskKind kind) -> std::string {
        if (kind == sim::TaskKind::kCompute) {
          const std::string bucket = stage_bucket(segment.resource);
          return bucket == "compute/other" ? std::string() : bucket;
        }
        return "link/" + ports.resource_class(segment.resource);
      });
  s.sensitivities.reserve(whatifs.size());
  for (const obs::WhatIf& w : whatifs) {
    s.sensitivities.push_back(
        {w.target, w.critical_s, w.dmakespan_ds, w.predicted_savings(1.1)});
  }

  return s;
}

}  // namespace holmes::core
