#include "core/timeline_report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/run_stats.h"
#include "net/topology_parse.h"
#include "sim/rate_timeline.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/json.h"
#include "util/units.h"
#include "verify/rules.h"

namespace holmes::core {

namespace {

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

/// Ten-level ASCII sparkline of values already normalized to [0, 1].
std::string sparkline(const std::vector<double>& values) {
  static constexpr char kLevels[] = " .:-=+*#%@";
  std::string line;
  line.reserve(values.size());
  for (double v : values) {
    const double clamped = std::min(1.0, std::max(0.0, v));
    const int level =
        std::min(9, static_cast<int>(clamped * 10.0));
    line.push_back(kLevels[level]);
  }
  return line;
}

void write_array(std::ostream& out, const std::vector<double>& values,
                 double scale = 1.0) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ",";
    out << json_number(values[i] * scale);
  }
  out << "]";
}

bool keep_resource(const obs::ResourceTimeline& res,
                   const TimelineReportOptions& options) {
  if (!res.is_device && !res.is_link) return false;
  // Idle links (no busy time, no bytes) are elided, mirroring the stats
  // report, so hybrid-topology documents stay reviewable as goldens.
  if (res.is_link && res.busy_total <= 0 && res.bytes <= 0) return false;
  if (!options.resource_filter.empty() &&
      res.name.find(options.resource_filter) == std::string::npos) {
    return false;
  }
  return true;
}

}  // namespace

TimelineSummary build_timeline_summary(const net::Topology& topo,
                                       const TrainingPlan& plan,
                                       const IterationMetrics& metrics,
                                       const SimArtifacts& artifacts,
                                       const TimelineReportOptions& options) {
  HOLMES_CHECK_MSG(artifacts.result.has_value(),
                   "timeline needs populated artifacts (pass a SimArtifacts* "
                   "to TrainingSimulator::run)");
  const sim::SimResult& result = *artifacts.result;

  TimelineSummary summary;
  summary.topology = net::format_topology(topo);
  summary.framework = plan.framework.name;
  summary.workload = workload_label(plan);
  summary.iteration_s = metrics.iteration_time;
  summary.options = options;
  summary.options.buckets = std::max(1, options.buckets);
  summary.options.top_talkers = std::max(0, options.top_talkers);

  summary.artifacts = &artifacts;

  obs::TimelineOptions extract;
  extract.window = clip_window(options.window, result.makespan());
  extract.saturation_threshold = options.saturation_threshold;
  extract.buckets = summary.options.buckets;

  const sim::RateTimeline* rates =
      artifacts.rates.empty() ? nullptr : &artifacts.rates;
  summary.timeline = obs::extract_timeline(
      artifacts.graph, result, extract,
      [&ports = artifacts.ports](sim::ResourceId resource) {
        return ports.resource_class(resource);
      },
      rates);

  // HV406: the Fig. 3 diagnosis. The rule is always *checked* once a
  // timeline exists; it *fires* when the Ethernet fallback fabric is
  // saturated for more than the configured share of the observed window.
  summary.lint.mark_checked(verify::kRuleFabricSaturation);
  const double span =
      summary.timeline.window.end - summary.timeline.window.begin;
  for (const obs::ClassTimeline& cls : summary.timeline.classes) {
    if (cls.nic_class != "Ethernet") continue;
    const double share = span > 0 ? cls.saturated_total / span : 0.0;
    if (share > options.saturation_warn_share) {
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "the Ethernet fallback fabric is saturated (>= %.0f%% of its %zu "
          "ports busy) for %s of the observed window (threshold %s): the "
          "fallback NIC, not compute, bounds this run",
          options.saturation_threshold * 100.0, cls.ports,
          percent(share).c_str(), percent(options.saturation_warn_share).c_str());
      summary.lint.add(verify::kRuleFabricSaturation,
                       verify::Severity::kWarning, "Ethernet", buf);
    }
  }
  return summary;
}

void write_timeline_json(std::ostream& out, const TimelineSummary& summary) {
  const obs::Timeline& t = summary.timeline;
  const obs::Window& window = t.window;
  const int buckets = std::max(1, summary.options.buckets);
  const double span = window.end - window.begin;

  out << "{\"schema\":\"" << kTimelineSchema << "\",\"fingerprint\":";
  write_build_info_json(out, current_build_info());
  out << ",\"topology\":\"" << json_escape(summary.topology) << "\""
      << ",\"framework\":\"" << json_escape(summary.framework) << "\""
      << ",\"workload\":\"" << json_escape(summary.workload) << "\""
      << ",\"iteration_s\":" << json_number(summary.iteration_s)
      << ",\"makespan_s\":" << json_number(t.makespan)
      << ",\"window_begin_s\":" << json_number(window.begin)
      << ",\"window_end_s\":" << json_number(window.end)
      << ",\"buckets\":" << buckets
      << ",\"saturation_threshold\":"
      << json_number(summary.options.saturation_threshold)
      << ",\"saturation_warn_share\":"
      << json_number(summary.options.saturation_warn_share);

  out << ",\"resources\":[";
  HOLMES_CHECK_MSG(summary.artifacts != nullptr &&
                       summary.artifacts->result.has_value(),
                   "a timeline summary is written from the artifacts it was "
                   "built from");
  const obs::ResourceSeriesIndex curves(summary.artifacts->graph,
                                        *summary.artifacts->result);
  bool first = true;
  for (const obs::ResourceTimeline& res : t.resources) {
    if (!keep_resource(res, summary.options)) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << res.id << ",\"name\":\"" << json_escape(res.name)
        << "\",\"class\":\"" << json_escape(res.nic_class) << "\",\"kind\":\""
        << (res.is_device ? "device" : "link") << "\""
        << ",\"busy_s\":" << json_number(res.busy_total)
        << ",\"waiting_s\":" << json_number(res.waiting_total)
        << ",\"utilization\":"
        << json_number(span > 0 ? res.busy_total / span : 0.0)
        << ",\"bytes\":" << res.bytes << ",\"tasks\":" << res.tasks
        << ",\"occupancy\":";
    const obs::ResourceSeries series = curves.series(res.id);
    write_array(out, series.busy.bucketize(window.begin, window.end, buckets));
    out << ",\"queue_depth\":";
    write_array(out, series.queue.bucketize(window.begin, window.end, buckets));
    out << "}";
  }
  out << "]";

  out << ",\"channels\":[";
  first = true;
  for (const obs::ChannelTimeline& chan : t.channels) {
    if (chan.transfers == 0 && chan.bytes == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << chan.id << ",\"name\":\"" << json_escape(chan.name)
        << "\",\"bytes\":" << chan.bytes
        << ",\"transfers\":" << chan.transfers
        << ",\"busy_s\":" << json_number(chan.busy_total)
        << ",\"peak_in_flight_bytes\":" << json_number(chan.peak_in_flight)
        << ",\"peak_at_s\":" << json_number(chan.peak_at)
        << ",\"in_flight\":";
    write_array(out, chan.in_flight);
    out << ",\"cumulative\":";
    write_array(out, chan.cumulative);
    out << "}";
  }
  out << "]";

  out << ",\"classes\":[";
  first = true;
  for (const obs::ClassTimeline& cls : t.classes) {
    if (!first) out << ",";
    first = false;
    const double ports = static_cast<double>(cls.ports);
    out << "{\"class\":\"" << json_escape(cls.nic_class)
        << "\",\"ports\":" << cls.ports
        << ",\"busy_s\":" << json_number(cls.busy_total) << ",\"occupancy\":";
    write_array(out,
                cls.busy_ports.bucketize(window.begin, window.end, buckets),
                ports > 0 ? 1.0 / ports : 0.0);
    out << ",\"saturated_s\":" << json_number(cls.saturated_total)
        << ",\"saturated_share\":"
        << json_number(span > 0 ? cls.saturated_total / span : 0.0)
        << ",\"saturated_intervals\":[";
    for (std::size_t i = 0; i < cls.saturated.size(); ++i) {
      if (i != 0) out << ",";
      out << "{\"begin_s\":" << json_number(cls.saturated[i].first)
          << ",\"end_s\":" << json_number(cls.saturated[i].second) << "}";
    }
    out << "]}";
  }
  out << "]";

  out << ",\"rate_overlays\":[";
  first = true;
  for (const obs::RateOverlay& overlay : t.overlays) {
    if (!first) out << ",";
    first = false;
    out << "{\"resource\":" << overlay.resource << ",\"name\":\""
        << json_escape(overlay.name)
        << "\",\"degraded_s\":" << json_number(overlay.degraded_total)
        << ",\"effective_rate\":";
    write_array(out,
                overlay.effective.bucketize(window.begin, window.end, buckets));
    out << "}";
  }
  out << "]";

  out << ",\"top_talkers\":[";
  const std::size_t talkers =
      std::min(t.top_talkers.size(),
               static_cast<std::size_t>(summary.options.top_talkers));
  for (std::size_t i = 0; i < talkers; ++i) {
    const obs::TopTalker& talker = t.top_talkers[i];
    if (i != 0) out << ",";
    out << "{\"resource\":" << talker.resource << ",\"name\":\""
        << json_escape(talker.name) << "\",\"class\":\""
        << json_escape(talker.nic_class) << "\",\"bytes\":" << talker.bytes
        << ",\"busy_s\":" << json_number(talker.busy)
        << ",\"share\":" << json_number(talker.share) << "}";
  }
  out << "]";

  out << ",\"lint\":";
  verify::write_json(out, summary.lint);
  out << "}";
}

void print_timeline(std::ostream& out, const TimelineSummary& summary) {
  const obs::Timeline& t = summary.timeline;
  const obs::Window& window = t.window;
  const int buckets = std::max(1, summary.options.buckets);
  const double span = window.end - window.begin;

  out << "timeline: " << summary.framework << " on " << summary.topology
      << "\n  workload " << summary.workload << ", iteration "
      << format_time(summary.iteration_s) << "\n  window ["
      << json_number(window.begin) << ", " << json_number(window.end)
      << ") s of " << format_time(t.makespan) << " makespan, " << buckets
      << " buckets\n";

  out << "\nfabric occupancy (busy ports / class ports):\n";
  for (const obs::ClassTimeline& cls : t.classes) {
    const double ports = static_cast<double>(cls.ports);
    std::vector<double> values =
        cls.busy_ports.bucketize(window.begin, window.end, buckets);
    double peak = 0;
    for (double& v : values) {
      if (ports > 0) v /= ports;
      peak = std::max(peak, v);
    }
    const double avg =
        span > 0 && ports > 0 ? cls.busy_total / (span * ports) : 0.0;
    char head[64];
    std::snprintf(head, sizeof(head), "  %-10s %2zu port%s |",
                  cls.nic_class.c_str(), cls.ports,
                  cls.ports == 1 ? " " : "s");
    out << head << sparkline(values) << "| avg " << percent(avg) << " peak "
        << percent(peak);
    if (cls.saturated_total > 0) {
      out << " saturated " << format_time(cls.saturated_total) << " ("
          << percent(span > 0 ? cls.saturated_total / span : 0.0) << ")";
    }
    out << "\n";
  }

  const std::size_t talkers =
      std::min(t.top_talkers.size(),
               static_cast<std::size_t>(summary.options.top_talkers));
  if (talkers > 0) {
    out << "\ntop talkers (bytes on link, share of all link traffic):\n";
    for (std::size_t i = 0; i < talkers; ++i) {
      const obs::TopTalker& talker = t.top_talkers[i];
      char line[160];
      std::snprintf(line, sizeof(line), "  %2zu. %-28s %-10s %10s  %s busy  %s\n",
                    i + 1, talker.name.c_str(), talker.nic_class.c_str(),
                    format_bytes(talker.bytes).c_str(),
                    format_time(talker.busy).c_str(),
                    percent(talker.share).c_str());
      out << line;
    }
  }

  bool header = false;
  for (const obs::ChannelTimeline& chan : t.channels) {
    if (chan.transfers == 0 && chan.bytes == 0) continue;
    if (!header) {
      out << "\nchannels (peak bytes in flight):\n";
      header = true;
    }
    std::vector<double> values = chan.in_flight;
    if (chan.peak_in_flight > 0) {
      for (double& v : values) v /= chan.peak_in_flight;
    }
    char head[64];
    std::snprintf(head, sizeof(head), "  %-12s |", chan.name.c_str());
    out << head << sparkline(values) << "| "
        << format_bytes(chan.bytes) << " in " << chan.transfers
        << " transfers, peak "
        << format_bytes(static_cast<Bytes>(chan.peak_in_flight)) << " at "
        << format_time(chan.peak_at) << "\n";
  }

  if (!t.overlays.empty()) {
    out << "\neffective rate (1.0 = nominal; dips are degradation windows):\n";
    for (const obs::RateOverlay& overlay : t.overlays) {
      const std::vector<double> values =
          overlay.effective.bucketize(window.begin, window.end, buckets);
      char head[64];
      std::snprintf(head, sizeof(head), "  %-28s |", overlay.name.c_str());
      out << head << sparkline(values) << "| degraded "
          << format_time(overlay.degraded_total) << "\n";
    }
  }

  out << "\n";
  verify::print_text(out, summary.lint);
}

}  // namespace holmes::core
