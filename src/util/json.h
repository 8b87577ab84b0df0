#pragma once

/// \file json.h
/// Minimal JSON emission and parsing helpers.
///
/// Emission is shared by the Chrome-trace writer and the observability
/// summary exporters; parsing exists for the tools that *consume* our own
/// stable schemas back (`holmes_cli diff` comparing two run summaries, the
/// trace-validity tests). The parser handles exactly the JSON subset those
/// writers produce — objects, arrays, strings with the escapes json_escape
/// emits, numbers, booleans, null — and throws holmes::ConfigError on
/// malformed input. It is not a general-purpose JSON library.

#include <string>
#include <utility>
#include <vector>

#include "util/units.h"

namespace holmes {

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, ASCII control characters).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number: finite values as "%.12g" prints them
/// (stable across runs, round-trips the precisions we care about), written
/// with std::to_chars; non-finite values as 0 (JSON has no Inf/NaN
/// literals).
std::string json_number(double value);

/// A parsed JSON value. Objects keep their keys in *document order* so a
/// re-serialization or diff walks fields the way the writer emitted them.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each throws ConfigError when the kind mismatches.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws ConfigError when absent.
  const JsonValue& at(const std::string& key) const;

  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double n);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Deepest nesting of arrays and objects json_parse accepts. The parser
/// recurses once per level, so the cap keeps a hostile document from
/// overflowing the stack; the repo's own documents nest at most 5 deep.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document (throws holmes::ConfigError on syntax errors,
/// trailing garbage, or nesting deeper than kMaxJsonDepth).
JsonValue json_parse(const std::string& text);

/// Serializes a value back to compact JSON: object keys in document order,
/// numbers via json_number, strings via json_escape — so parse + serialize
/// of our own stable schemas is itself stable. Used by `holmes_cli bench`
/// to fold per-bench documents into the trajectory.
std::string json_serialize(const JsonValue& value);

}  // namespace holmes
