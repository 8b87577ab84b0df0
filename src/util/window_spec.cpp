#include "util/window_spec.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "util/error.h"

namespace holmes {

namespace {

/// Parses all of `token` as finite seconds: "1abc", "nan" and "inf" fail.
bool parse_bound(const std::string& token, double* value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return !token.empty() && ec == std::errc{} && ptr == end &&
         std::isfinite(*value);
}

}  // namespace

WindowSpec parse_window_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  WindowSpec window;
  if (colon == std::string::npos ||
      !parse_bound(spec.substr(0, colon), &window.begin) ||
      (colon + 1 < spec.size() &&
       !parse_bound(spec.substr(colon + 1), &window.end))) {
    throw ConfigError("--window expects BEGIN:END finite seconds, got '" +
                      spec + "'");
  }
  // Runs start at 0 s: a BEGIN before that is a typo, not "from the start".
  if (window.begin < 0) {
    throw ConfigError("--window BEGIN must not be negative: got '" + spec +
                      "'");
  }
  // -1 encodes "to the end"; a written END below zero selects nothing.
  if (colon + 1 < spec.size() && window.end < 0) {
    throw ConfigError("--window END must not be negative: got '" + spec +
                      "'");
  }
  if (window.end >= 0 && window.begin >= window.end) {
    throw ConfigError("--window is empty: got '" + spec +
                      "' (need BEGIN < END)");
  }
  return window;
}

}  // namespace holmes
