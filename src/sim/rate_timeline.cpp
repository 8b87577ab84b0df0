#include "sim/rate_timeline.h"

#include <algorithm>

#include "util/error.h"

namespace holmes::sim {

namespace {
/// Floor on the compound rate so a fully paused port still drains: a window
/// cannot stall the simulation forever, only stretch it by up to 1e6x.
constexpr double kMinRate = 1e-6;
}  // namespace

void RateTimeline::add_window(ResourceId resource, SimTime begin, SimTime end,
                              double factor) {
  if (resource < 0) throw ConfigError("rate window needs a valid resource");
  if (!(begin >= 0)) throw ConfigError("rate window begins before time zero");
  if (!(end >= begin)) {
    throw ConfigError("rate window must end after it begins");
  }
  if (!(factor > 0)) throw ConfigError("rate window factor must be positive");
  // A zero-length window covers no time: accept it as a no-op so generated
  // fault schedules may degenerate to empty intervals without special cases.
  if (end == begin) return;
  const auto r = static_cast<std::size_t>(resource);
  if (r >= per_resource_.size()) per_resource_.resize(r + 1);
  per_resource_[r].push_back({begin, end, factor});
  // Keep each resource's windows sorted by begin so queries are scan-stable
  // regardless of insertion order.
  std::sort(per_resource_[r].begin(), per_resource_[r].end(),
            [](const Window& a, const Window& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.end != b.end) return a.end < b.end;
              return a.factor < b.factor;
            });
  ++window_count_;
}

std::vector<RateTimeline::AppliedWindow> RateTimeline::windows() const {
  std::vector<AppliedWindow> out;
  out.reserve(window_count_);
  for (std::size_t r = 0; r < per_resource_.size(); ++r) {
    for (const Window& w : per_resource_[r]) {
      out.push_back({static_cast<ResourceId>(r), w.begin, w.end, w.factor});
    }
  }
  return out;  // per-resource lists are kept sorted; ids ascend by loop order
}

std::vector<RateTimeline::Staircase> RateTimeline::staircases() const {
  std::vector<Staircase> out;
  for (std::size_t r = 0; r < per_resource_.size(); ++r) {
    const std::vector<Window>& windows = per_resource_[r];
    if (windows.empty()) continue;
    std::vector<SimTime> edges;
    for (const Window& w : windows) {
      edges.push_back(w.begin);
      edges.push_back(w.end);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    Staircase& stairs = out.emplace_back(static_cast<ResourceId>(r));
    for (SimTime t : edges) {
      double factor = 1.0;
      for (const Window& w : windows) {
        if (w.begin <= t && t < w.end) factor *= w.factor;
      }
      stairs.steps.push_back({t, std::min(1.0, factor)});
    }
  }
  return out;
}

const std::vector<RateTimeline::Window>* RateTimeline::windows_of(
    ResourceId resource) const {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= per_resource_.size()) {
    return nullptr;
  }
  const auto& windows = per_resource_[static_cast<std::size_t>(resource)];
  return windows.empty() ? nullptr : &windows;
}

double RateTimeline::rate_at(ResourceId resource, SimTime t) const {
  const std::vector<Window>* windows = windows_of(resource);
  if (windows == nullptr) return 1.0;
  double rate = 1.0;
  for (const Window& w : *windows) {
    if (w.begin <= t && t < w.end) rate *= w.factor;
  }
  return std::max(rate, kMinRate);
}

SimTime RateTimeline::stretched(ResourceId a, ResourceId b, SimTime start,
                                SimTime cost) const {
  if (cost <= 0) return std::max<SimTime>(cost, 0);
  const std::vector<Window>* wa = windows_of(a);
  const std::vector<Window>* wb = a == b ? nullptr : windows_of(b);
  if (wa == nullptr && wb == nullptr) return cost;

  // Breakpoints after `start` where the combined rate may change. Windows
  // per resource are few (a fault plan holds a handful), so a small sort
  // beats anything cleverer.
  std::vector<SimTime> bps;
  auto push_bp = [&](SimTime t) {
    if (t <= start) return;
    bps.push_back(t);
  };
  auto collect = [&](const std::vector<Window>* w) {
    if (w == nullptr) return;
    for (const Window& win : *w) {
      push_bp(win.begin);
      push_bp(win.end);
    }
  };
  collect(wa);
  collect(wb);
  if (bps.empty()) return cost;  // all in the past

  auto combined_rate = [&](SimTime t) {
    double rate = 1.0;
    if (wa != nullptr) rate = std::min(rate, rate_at(a, t));
    if (wb != nullptr) rate = std::min(rate, rate_at(b, t));
    return rate;
  };

  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end()), bps.end());

  // Piecewise integration: serve `cost` at the combined rate segment by
  // segment; past the last breakpoint every window has closed and the rate
  // is exactly 1 again.
  double remaining = cost;
  SimTime t = start;
  for (SimTime next : bps) {
    const double rate = combined_rate(t);
    const SimTime span = next - t;
    const double served = span * rate;
    if (served >= remaining) return (t + remaining / rate) - start;
    remaining -= served;
    t = next;
  }
  return (t - start) + remaining;  // tail rate is 1 by construction
}

}  // namespace holmes::sim
