#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace holmes {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  // Exactly the escapes json_escape emits must round-trip.
  const std::string raw = "quote\" back\\ nl\n tab\t cr\r ctrl\x01 end";
  const std::string doc = "\"" + json_escape(raw) + "\"";
  EXPECT_EQ(json_parse(doc).as_string(), raw);
}

TEST(JsonParse, NestedStructure) {
  const JsonValue v =
      json_parse(R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), ConfigError);
}

TEST(JsonParse, ObjectKeepsDocumentOrder) {
  const JsonValue v = json_parse(R"({"z":1,"a":2,"m":3})");
  const auto& members = v.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(json_parse("[]").as_array().empty());
  EXPECT_TRUE(json_parse("{}").as_object().empty());
  EXPECT_TRUE(json_parse(" [ ] ").as_array().empty());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), ConfigError);
  EXPECT_THROW(json_parse("{"), ConfigError);
  EXPECT_THROW(json_parse("[1,]"), ConfigError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), ConfigError);
  EXPECT_THROW(json_parse("\"unterminated"), ConfigError);
  EXPECT_THROW(json_parse("nul"), ConfigError);
  EXPECT_THROW(json_parse("1 2"), ConfigError);  // trailing garbage
}

/// `depth` levels of alternating arrays and objects around a 1.
std::string nested(int depth) {
  std::string text;
  for (int level = 0; level < depth; ++level) {
    text += level % 2 == 0 ? "[" : "{\"k\":";
  }
  text += "1";
  for (int level = depth - 1; level >= 0; --level) {
    text += level % 2 == 0 ? "]" : "}";
  }
  return text;
}

TEST(JsonParse, NestingIsCappedAtTheDocumentedDepth) {
  // The cap is a limit, not an off-by-one: kMaxJsonDepth levels parse.
  const JsonValue deepest = json_parse(nested(kMaxJsonDepth));
  EXPECT_TRUE(deepest.is_array());
  EXPECT_EQ(json_serialize(deepest), nested(kMaxJsonDepth));
  EXPECT_NO_THROW(json_parse(std::string(kMaxJsonDepth, '[') +
                             std::string(kMaxJsonDepth, ']')));
  // One more level, in either container, is a config error naming the
  // limit; so is a document deep enough to overflow an unbounded
  // recursive parser's stack.
  for (const std::string& text :
       {nested(kMaxJsonDepth + 1), nested(kMaxJsonDepth + 2),
        std::string(50000, '['), nested(200000)}) {
    try {
      json_parse(text);
      ADD_FAILURE() << "accepted " << text.size() << " bytes";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "nest deeper than the limit of 64 levels"),
                std::string::npos)
          << e.what();
    }
  }
  // Depth counts open containers, not containers seen: siblings at the
  // cap do not add up.
  std::string wide = "[";
  for (int i = 0; i < 100; ++i) {
    wide += (i > 0 ? "," : "") + nested(kMaxJsonDepth - 1);
  }
  EXPECT_EQ(json_parse(wide + "]").as_array().size(), 100u);
}

TEST(JsonParse, AccessorKindMismatchThrows) {
  const JsonValue v = json_parse("[1]");
  EXPECT_THROW(v.as_object(), ConfigError);
  EXPECT_THROW(v.as_number(), ConfigError);
  EXPECT_EQ(v.find("x"), nullptr);  // not an object: lookup is just absent
}

TEST(JsonSerialize, RoundTripsNestedDocument) {
  const std::string doc =
      R"({"schema":"x.v1","a":[1,2.5,{"b":true}],"c":{"d":null},"e":"q\"q"})";
  const JsonValue parsed = json_parse(doc);
  const std::string emitted = json_serialize(parsed);
  // Serialization keeps document order, so parse→serialize is idempotent.
  EXPECT_EQ(emitted, json_serialize(json_parse(emitted)));
  const JsonValue again = json_parse(emitted);
  EXPECT_EQ(again.at("schema").as_string(), "x.v1");
  EXPECT_DOUBLE_EQ(again.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(again.at("a").as_array()[2].at("b").as_bool());
  EXPECT_TRUE(again.at("c").at("d").is_null());
  EXPECT_EQ(again.at("e").as_string(), "q\"q");
}

TEST(JsonSerialize, PreservesObjectOrderAndEscapes) {
  const JsonValue obj = JsonValue::object({
      {"z", JsonValue::number(1)},
      {"a", JsonValue::string("tab\there")},
      {"m", JsonValue::array({})},
  });
  EXPECT_EQ(json_serialize(obj), "{\"z\":1,\"a\":\"tab\\there\",\"m\":[]}");
}

TEST(JsonParse, RoundTripsEmitterNumbers) {
  // json_number's %.12g output must re-parse to a close value.
  for (double d : {0.0, 1.5, -2.75e-9, 3.14159265358979, 1e12}) {
    const JsonValue v = json_parse(json_number(d));
    EXPECT_NEAR(v.as_number(), d, std::abs(d) * 1e-11 + 1e-300);
  }
  // Non-finite values are emitted as 0, which parses fine.
  EXPECT_DOUBLE_EQ(json_parse(json_number(1.0 / 0.0)).as_number(), 0.0);
}

// ---- round-trip byte-identity ----
//
// The determinism checker byte-compares serialized documents across runs,
// so parse -> serialize -> parse -> serialize must be byte-identical: a
// re-serialized document may differ from the *original* text (number
// formatting, whitespace) but must be a fixpoint of its own emitter.

TEST(JsonRoundTrip, SerializeIsAFixpointOnNestedDocuments) {
  const char* docs[] = {
      R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})",
      R"([0.1,1e-9,-3.5e2,123456789012,0,-0])",
      R"({"empty_obj":{},"empty_arr":[],"s":""})",
      R"({"z":1,"a":2,"m":{"q":[false,null,"t"]}})",
  };
  for (const char* doc : docs) {
    const std::string once = json_serialize(json_parse(doc));
    const std::string twice = json_serialize(json_parse(once));
    EXPECT_EQ(once, twice) << doc;
  }
}

TEST(JsonRoundTrip, EscapesSurviveByteIdentically) {
  const std::string raw = "quote\" back\\ nl\n tab\t cr\r ctrl\x01 \x1f end";
  const std::string doc = "{\"k\":\"" + json_escape(raw) + "\"}";
  const std::string once = json_serialize(json_parse(doc));
  EXPECT_EQ(json_parse(once).at("k").as_string(), raw);
  EXPECT_EQ(json_serialize(json_parse(once)), once);
}

TEST(JsonRoundTrip, NumberFormattingIsStable) {
  // json_number drives every writer in the tree; its output must parse
  // back to the same double and re-serialize to the same bytes.
  for (double value : {0.0, 1.0, -1.5, 0.1, 1e-12, 9.87654321e8,
                       52.5905447891, 1.0 / 3.0}) {
    const std::string text = json_number(value);
    const double parsed = json_parse(text).as_number();
    EXPECT_EQ(json_number(parsed), text) << value;
  }

  // Every committed golden and digest was written by printf's "%.12g", so
  // json_number must print exactly those bytes for every finite double:
  // edge values (signed zeros, subnormals, the fixed/scientific switch at
  // 1e-5 and 1e12, rounding ties at the 12th digit) plus seeded random bit
  // patterns across the whole range.
  const auto printf_g12 = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return std::string(buf);
  };
  using limits = std::numeric_limits<double>;
  for (const double value :
       {0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        limits::min(), std::nextafter(limits::min(), 0.0), limits::max(),
        limits::lowest(), limits::epsilon(), 1e-5, 9.99999999999e-6,
        0.0001, 1e12, 999999999999.0, 999999999999.5, 999999999999.4,
        1e15, 1e16, 1e17, 123456789012.0, 1234567890123.0, 0.5, 2.5e-7,
        0.30000000000000004}) {
    EXPECT_EQ(json_number(value), printf_g12(value)) << value;
  }
  // Raw bit patterns mostly land far from 1 in magnitude, so every other
  // draw is a value in the range simulated seconds and bytes live in.
  Rng rng(0x6A50C0DE);
  for (int i = 0; i < 200000; ++i) {
    double value = 0;
    if (i % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&value, &bits, sizeof(value));
    } else {
      value = rng.uniform(-1.0, 1.0) *
              std::pow(10.0, static_cast<double>(rng.uniform_int(-7, 17)));
    }
    if (!std::isfinite(value)) {
      ASSERT_EQ(json_number(value), "0");
      continue;
    }
    ASSERT_EQ(json_number(value), printf_g12(value)) << value;
  }
}

TEST(JsonRoundTrip, ObjectKeyOrderIsPreservedNotSorted) {
  const std::string doc = R"({"z":1,"a":2,"0":3})";
  EXPECT_EQ(json_serialize(json_parse(doc)), doc);
}

}  // namespace
}  // namespace holmes
