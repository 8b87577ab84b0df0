#include "util/math_util.h"

#include <gtest/gtest.h>

namespace holmes {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 1), 1);
  EXPECT_EQ(ceil_div(768, 64), 12);
}

TEST(MathUtil, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0));
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  // Relative tolerance for large magnitudes.
  EXPECT_TRUE(approx_equal(1e12, 1e12 + 1.0));
  EXPECT_FALSE(approx_equal(1e12, 1.001e12));
}

}  // namespace
}  // namespace holmes
