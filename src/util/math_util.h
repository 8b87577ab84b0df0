#pragma once

/// \file math_util.h
/// Small integer/float helpers used throughout the scheduling code.

#include <cmath>
#include <cstdint>

#include "util/error.h"

namespace holmes {

/// Ceiling division for non-negative integers.
inline constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// True when |a - b| <= tol * max(1, |a|, |b|). Used by numeric tests on
/// collective results and optimizer math.
inline bool approx_equal(double a, double b, double tol = 1e-9) {
  const double scale = std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace holmes
