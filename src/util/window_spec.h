#pragma once

/// \file window_spec.h
/// Shared parser for the `--window BEGIN:END` CLI option.
///
/// `stats`, `explain`, and `timeline` all accept a time window; this helper
/// gives them one grammar and one set of error messages. The spec is
/// "BEGIN:END" in seconds, each bound a whole finite number; END may be
/// empty ("2.5:") meaning "to the end of the run", encoded as -1 so callers
/// clip against their own horizon (core::clip_window).

#include <string>

namespace holmes {

struct WindowSpec {
  double begin = 0;
  double end = -1;  ///< -1 = unbounded; callers clip to their horizon.
};

/// Parses "BEGIN:END" (seconds; END may be empty for "to the end").
/// Throws holmes::ConfigError on a missing colon, a bound that is not a
/// whole finite number ("1abc", "nan", "inf"), a negative BEGIN or END, or
/// an empty window (begin >= end with a bounded end).
WindowSpec parse_window_spec(const std::string& spec);

}  // namespace holmes
