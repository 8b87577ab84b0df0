#include "obs/self_profile.h"

#include <ostream>
#include <sstream>

#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace holmes::obs {

SelfProfile SelfProfiler::snapshot() const {
  SelfProfile copy = profile_;
  copy.peak_rss_bytes = current_peak_rss_bytes();
  return copy;
}

SelfProfile delta(const SelfProfile& before, const SelfProfile& after) {
  SelfProfile d = after;
  const SelfProfileCounters& b = before.counters;
  SelfProfileCounters& c = d.counters;
  c.tasks_created -= b.tasks_created;
  c.compute_tasks -= b.compute_tasks;
  c.transfer_tasks -= b.transfer_tasks;
  c.noop_tasks -= b.noop_tasks;
  c.deps_added -= b.deps_added;
  c.resources_created -= b.resources_created;
  c.channels_created -= b.channels_created;
  c.executor_runs -= b.executor_runs;
  c.ready_pushes -= b.ready_pushes;
  c.ready_pops -= b.ready_pops;
  // max_ready_queue is a gauge, not a count: the window's peak is the outer
  // peak unless the window raised it, so keep `after`'s value as-is.
  c.cost_model_evals -= b.cost_model_evals;
  d.phases.graph_build_s -= before.phases.graph_build_s;
  d.phases.event_loop_s -= before.phases.event_loop_s;
  d.phases.accounting_s -= before.phases.accounting_s;
  d.phases.total_s -= before.phases.total_s;
  return d;
}

std::int64_t current_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in kibibytes.
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

std::string counters_json(const SelfProfileCounters& c) {
  std::ostringstream out;
  out << "{\"tasks_created\":" << c.tasks_created
      << ",\"compute_tasks\":" << c.compute_tasks
      << ",\"transfer_tasks\":" << c.transfer_tasks
      << ",\"noop_tasks\":" << c.noop_tasks
      << ",\"deps_added\":" << c.deps_added
      << ",\"resources_created\":" << c.resources_created
      << ",\"channels_created\":" << c.channels_created
      << ",\"executor_runs\":" << c.executor_runs
      << ",\"ready_pushes\":" << c.ready_pushes
      << ",\"ready_pops\":" << c.ready_pops
      << ",\"max_ready_queue\":" << c.max_ready_queue
      << ",\"cost_model_evals\":" << c.cost_model_evals << "}";
  return out.str();
}

void write_json(std::ostream& out, const SelfProfile& profile) {
  out << "{\"schema\":\"" << kSelfProfileSchema
      << "\",\"counters\":" << counters_json(profile.counters)
      << ",\"phases\":{\"graph_build_s\":"
      << json_number(profile.phases.graph_build_s)
      << ",\"event_loop_s\":" << json_number(profile.phases.event_loop_s)
      << ",\"accounting_s\":" << json_number(profile.phases.accounting_s)
      << ",\"total_s\":" << json_number(profile.phases.total_s)
      << "},\"peak_rss_bytes\":" << profile.peak_rss_bytes << "}";
}

void print_text(std::ostream& out, const SelfProfile& profile) {
  const SelfProfileCounters& c = profile.counters;
  out << "engine self-profile\n"
      << "  phases      build " << format_time(profile.phases.graph_build_s)
      << "   event loop " << format_time(profile.phases.event_loop_s)
      << "   accounting " << format_time(profile.phases.accounting_s)
      << "   total " << format_time(profile.phases.total_s) << "\n"
      << "  tasks       " << c.tasks_created << " created (" << c.compute_tasks
      << " compute, " << c.transfer_tasks << " transfer, " << c.noop_tasks
      << " noop), " << c.deps_added << " deps\n"
      << "  ready queue " << c.ready_pops << " pops, peak depth "
      << c.max_ready_queue << " (" << c.executor_runs << " executor run"
      << (c.executor_runs == 1 ? "" : "s") << ")\n"
      << "  cost model  " << c.cost_model_evals << " evaluations\n"
      << "  peak RSS    " << format_bytes(profile.peak_rss_bytes) << "\n";
}

}  // namespace holmes::obs
