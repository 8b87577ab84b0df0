#include "util/window_spec.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace holmes {
namespace {

TEST(WindowSpec, ParsesBeginAndEnd) {
  const WindowSpec w = parse_window_spec("1.5:4.25");
  EXPECT_DOUBLE_EQ(w.begin, 1.5);
  EXPECT_DOUBLE_EQ(w.end, 4.25);
}

TEST(WindowSpec, EmptyEndMeansUnbounded) {
  const WindowSpec w = parse_window_spec("2:");
  EXPECT_DOUBLE_EQ(w.begin, 2.0);
  EXPECT_LT(w.end, 0.0);
}

TEST(WindowSpec, ZeroBeginToEnd) {
  const WindowSpec w = parse_window_spec("0:10");
  EXPECT_DOUBLE_EQ(w.begin, 0.0);
  EXPECT_DOUBLE_EQ(w.end, 10.0);
}

TEST(WindowSpec, RejectsMissingColon) {
  EXPECT_THROW(parse_window_spec("3.5"), ConfigError);
}

TEST(WindowSpec, RejectsNonNumeric) {
  EXPECT_THROW(parse_window_spec("a:b"), ConfigError);
  EXPECT_THROW(parse_window_spec(":2"), ConfigError);
  // Bounds parse whole and finite: no prefix, NaN or infinity.
  EXPECT_THROW(parse_window_spec("1abc:3x"), ConfigError);
  EXPECT_THROW(parse_window_spec("nan:3"), ConfigError);
  EXPECT_THROW(parse_window_spec("1:inf"), ConfigError);
}

TEST(WindowSpec, RejectsEmptyWindow) {
  // stats and explain share these exact semantics: BEGIN must precede a
  // bounded END; "5:" stays legal (unbounded).
  EXPECT_THROW(parse_window_spec("5:5"), ConfigError);
  EXPECT_THROW(parse_window_spec("6:5"), ConfigError);
  // A written END below zero selects nothing either: it is not the -1 an
  // empty END stands for.
  EXPECT_THROW(parse_window_spec("1:-3"), ConfigError);
  EXPECT_THROW(parse_window_spec("-5:-1"), ConfigError);
}

TEST(WindowSpec, RejectsNegativeBegin) {
  // Runs start at 0 s; a BEGIN before that is rejected, not clamped, with
  // or without an END.
  for (const char* spec : {"-5:3", "-1:"}) {
    try {
      parse_window_spec(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("config error: --window BEGIN must not be "
                            "negative: got '") +
                    spec + "'");
    }
  }
}

}  // namespace
}  // namespace holmes
