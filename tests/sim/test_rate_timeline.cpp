#include "sim/rate_timeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"

namespace holmes::sim {
namespace {

TEST(RateTimeline, EmptyTimelineIsExactIdentity) {
  RateTimeline rates;
  EXPECT_TRUE(rates.empty());
  EXPECT_TRUE(rates.windows().empty());
  // Bit-exact passthrough, not merely approximate: the executor relies on
  // occupancy == cost whenever no window intersects.
  const double cost = 0.1 + 0.2;  // a value with FP representation slack
  EXPECT_EQ(rates.stretched(0, 1, 5.0, cost), cost);
  EXPECT_EQ(rates.rate_at(0, 0.0), 1.0);
  EXPECT_EQ(rates.rate_at(12345, 1e9), 1.0);
}

TEST(RateTimeline, WindowHalvesServiceRateInsideItsSpan) {
  RateTimeline rates;
  rates.add_window(0, 1.0, 3.0, 0.5);
  EXPECT_FALSE(rates.empty());
  EXPECT_EQ(rates.rate_at(0, 0.5), 1.0);
  EXPECT_EQ(rates.rate_at(0, 1.0), 0.5);  // [begin, end): begin inclusive
  EXPECT_EQ(rates.rate_at(0, 2.9), 0.5);
  EXPECT_EQ(rates.rate_at(0, 3.0), 1.0);  // end exclusive
  // Cost 4 starting at 0: 1 declared second before the window, then the
  // window's 2 wall seconds deliver only 1, then 2 more after -> 5 wall.
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 0.0, 4.0), 5.0);
}

TEST(RateTimeline, WorkOutsideWindowsIsExactlyUnstretched) {
  RateTimeline rates;
  rates.add_window(0, 100.0, 200.0, 0.25);
  const double cost = 1.0 / 3.0;
  EXPECT_EQ(rates.stretched(0, 0, 0.0, cost), cost);   // ends before
  EXPECT_EQ(rates.stretched(0, 0, 250.0, cost), cost); // starts after
  EXPECT_EQ(rates.stretched(7, 7, 150.0, cost), cost); // other resource
}

TEST(RateTimeline, OverlappingWindowsCompoundMultiplicatively) {
  RateTimeline rates;
  rates.add_window(0, 0.0, 10.0, 0.5);
  rates.add_window(0, 0.0, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(rates.rate_at(0, 5.0), 0.25);
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 0.0, 1.0), 4.0);
}

TEST(RateTimeline, TransferIsPacedByTheSlowerEndpoint) {
  RateTimeline rates;
  rates.add_window(1, 0.0, 100.0, 0.5);  // only the destination degrades
  // A paused receiver back-pressures the sender: min(rate(a), rate(b)).
  EXPECT_DOUBLE_EQ(rates.stretched(0, 1, 0.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(rates.stretched(1, 0, 0.0, 2.0), 4.0);
  // Both endpoints degraded does not double-count.
  rates.add_window(0, 0.0, 100.0, 0.5);
  EXPECT_DOUBLE_EQ(rates.stretched(0, 1, 0.0, 2.0), 4.0);
}

TEST(RateTimeline, FactorsAboveOneNeverBeatNominalService) {
  RateTimeline rates;
  rates.add_window(0, 0.0, 10.0, 2.0);
  // rate_at reports the raw compound factor...
  EXPECT_DOUBLE_EQ(rates.rate_at(0, 5.0), 2.0);
  // ...but service is capped at nominal: hardware cannot run faster than
  // its data sheet, so a "recovery" window only cancels degradation.
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 0.0, 4.0), 4.0);
  // A 2.0 burst overlapping a 0.5 degradation restores nominal exactly.
  rates.add_window(0, 0.0, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 0.0, 4.0), 4.0);
}

TEST(RateTimeline, TinyFactorIsClampedSoProgressContinues) {
  RateTimeline rates;
  rates.add_window(0, 0.0, 1e-3, 1e-12);
  const double occupancy = rates.stretched(0, 0, 0.0, 1.0);
  EXPECT_TRUE(std::isfinite(occupancy));
  EXPECT_GT(occupancy, 1.0);
}

TEST(RateTimeline, RejectsDegenerateWindows) {
  RateTimeline rates;
  EXPECT_THROW(rates.add_window(0, 3.0, 2.0, 0.5), ConfigError);   // inverted
  EXPECT_THROW(rates.add_window(0, -1.0, 2.0, 0.5), ConfigError);  // negative
  EXPECT_THROW(rates.add_window(0, 0.0, 2.0, 0.0), ConfigError);   // rate 0
  EXPECT_THROW(rates.add_window(0, 0.0, 2.0, -1.0), ConfigError);  // negative
  EXPECT_THROW(rates.add_window(-1, 0.0, 2.0, 0.5), ConfigError);  // resource
  EXPECT_TRUE(rates.empty()) << "rejected windows must not be recorded";
}

TEST(RateTimeline, ZeroLengthWindowIsAcceptedAsNoOp) {
  RateTimeline rates;
  // A window covering no time is legal (generated schedules may degenerate
  // to empty intervals) but records nothing: the timeline stays empty and
  // the fast bit-exact passthrough stays in force.
  rates.add_window(0, 2.0, 2.0, 0.5);
  EXPECT_TRUE(rates.empty());
  EXPECT_TRUE(rates.windows().empty());
  EXPECT_EQ(rates.rate_at(0, 2.0), 1.0);
  const double cost = 1.0 / 3.0;
  EXPECT_EQ(rates.stretched(0, 0, 1.5, cost), cost);
}

TEST(RateTimeline, BackToBackAdjacentWindowsStretchContinuously) {
  RateTimeline rates;
  rates.add_window(0, 1.0, 2.0, 0.5);
  rates.add_window(0, 2.0, 3.0, 0.5);
  // The shared boundary belongs to exactly one window ([begin, end) is
  // half-open): no instant is uncovered and none is double-counted, so the
  // pair behaves exactly like a single [1, 3) half-rate window. 3 declared
  // seconds from t=0: one at full rate, one at half rate (2 wall seconds,
  // filling [1, 3) exactly), one at full rate again — 4 wall seconds.
  EXPECT_EQ(rates.rate_at(0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 0.0, 3.0), 4.0);
  // Work finishing exactly on the boundary is stable too: 0.5 declared
  // seconds at half rate fill [1, 2) precisely.
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 1.0, 0.5), 1.0);
  // A boundary-straddling task crosses without a seam: 1 declared second at
  // half rate takes 2 wall seconds regardless of where it starts in [1, 3).
  EXPECT_DOUBLE_EQ(rates.stretched(0, 0, 1.5, 0.5), 1.0);
}

TEST(RateTimeline, StaircasesChartTheUnflooredEffectiveRate) {
  RateTimeline rates;
  rates.add_window(1, 1.0, 3.0, 0.5);
  rates.add_window(1, 0.0, 2.0, 0.5);
  rates.add_window(1, 4.0, 5.0, 2.0);   // a recovery burst reads as 1
  rates.add_window(3, 5.0, 6.0, 1e-9);  // below stretched's 1e-6 floor
  const std::vector<RateTimeline::Staircase> stairs = rates.staircases();
  ASSERT_EQ(stairs.size(), 2u);
  EXPECT_EQ(stairs[0].resource, 1);
  std::vector<std::pair<SimTime, double>> steps;
  for (const RateTimeline::Step& step : stairs[0].steps) {
    steps.emplace_back(step.at, step.rate);
  }
  EXPECT_EQ(steps, (std::vector<std::pair<SimTime, double>>{
                       {0.0, 0.5}, {1.0, 0.25}, {2.0, 0.5}, {3.0, 1.0},
                       {4.0, 1.0}, {5.0, 1.0}}));
  EXPECT_EQ(stairs[1].resource, 3);
  ASSERT_EQ(stairs[1].steps.size(), 2u);
  EXPECT_EQ(stairs[1].steps[0].rate, 1e-9);
  EXPECT_EQ(rates.rate_at(3, 5.0), 1e-6);
  EXPECT_EQ(stairs[1].steps[1].rate, 1.0);
  EXPECT_TRUE(RateTimeline{}.staircases().empty());
}

TEST(RateTimeline, WindowsEnumerationIsSortedAndComplete) {
  RateTimeline rates;
  rates.add_window(3, 5.0, 6.0, 0.25);
  rates.add_window(1, 2.0, 4.0, 0.75);
  rates.add_window(1, 0.0, 2.0, 0.5);
  const auto windows = rates.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].resource, 1);
  EXPECT_EQ(windows[0].begin, 0.0);
  EXPECT_EQ(windows[0].end, 2.0);
  EXPECT_EQ(windows[0].factor, 0.5);
  EXPECT_EQ(windows[1].resource, 1);
  EXPECT_EQ(windows[1].begin, 2.0);
  EXPECT_EQ(windows[2].resource, 3);
  EXPECT_EQ(windows[2].factor, 0.25);
}

TEST(RateTimeline, ZeroCostTaskIsUntouched) {
  RateTimeline rates;
  rates.add_window(0, 0.0, 10.0, 0.5);
  EXPECT_EQ(rates.stretched(0, 0, 5.0, 0.0), 0.0);
}

}  // namespace
}  // namespace holmes::sim
