#include "obs/sensitivity.h"

#include <algorithm>
#include <map>

namespace holmes::obs {

std::vector<WhatIf> what_if_sensitivities(const sim::TaskGraph& graph,
                                          const CriticalPath& path,
                                          const SegmentClassifier& classify) {
  std::map<std::string, SimTime> totals;
  for (const PathSegment& segment : path.segments) {
    // Busy time is controlled by the segment's own task; queue wait by the
    // blocking occupant (its release frees the resource), so the wait is
    // credited to the occupant's class. Propagation latency has no
    // speedup-addressable owner.
    sim::TaskId source = sim::kInvalidTask;
    if (segment.kind == SegmentKind::kCompute ||
        segment.kind == SegmentKind::kCommBusy) {
      source = segment.task;
    } else if (segment.kind == SegmentKind::kQueueWait) {
      source = segment.holder;
    }
    if (source == sim::kInvalidTask) continue;
    const std::string target = classify(segment, graph.task(source).kind);
    if (target.empty()) continue;
    totals[target] += segment.duration();
  }

  std::vector<WhatIf> result;
  result.reserve(totals.size());
  for (const auto& [target, seconds] : totals) {
    if (seconds <= 0) continue;
    result.push_back({target, seconds, -seconds});
  }
  std::sort(result.begin(), result.end(), [](const WhatIf& a, const WhatIf& b) {
    if (a.critical_s != b.critical_s) return a.critical_s > b.critical_s;
    return a.target < b.target;
  });
  return result;
}

}  // namespace holmes::obs
