#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace holmes {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  // std::to_chars in general format with a precision prints exactly what
  // printf's "%.12g" does, without the locale and format-string parsing.
  char buf[32];
  const std::to_chars_result end = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 12);
  return std::string(buf, end.ptr);
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw ConfigError("JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw ConfigError("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw ConfigError("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw ConfigError("JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  if (kind_ != Kind::kObject) throw ConfigError("JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw ConfigError("JSON object has no member '" + key + "'");
  return *v;
}

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over the writer's JSON subset.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("JSON parse error at offset " + std::to_string(pos_) +
                      ": " + why);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      // One recursion per level: past the cap, fail instead of overflowing
      // the stack.
      if (++depth_ > kMaxJsonDepth) {
        fail("arrays and objects nest deeper than the limit of " +
             std::to_string(kMaxJsonDepth) + " levels");
      }
      JsonValue nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    if (c == '"') return JsonValue::string(parse_string());
    if (consume_literal("true")) return JsonValue::boolean(true);
    if (consume_literal("false")) return JsonValue::boolean(false);
    if (consume_literal("null")) return JsonValue::null();
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return JsonValue::object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return JsonValue::array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape digit");
          }
          // The writer only emits \u00xx for control characters; decode the
          // Latin-1 range and refuse anything needing real UTF-16 handling.
          if (code > 0xFF) fail("\\u escape above U+00FF is unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any_digit = false;
    auto digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        any_digit = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      digits();
    }
    if (!any_digit) fail("invalid number");
    const std::string token = text_.substr(start, pos_ - start);
    return JsonValue::number(std::strtod(token.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects currently open
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

namespace {

void serialize_to(std::string& out, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += json_number(value.as_number());
      return;
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(value.as_string());
      out += '"';
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      const auto& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        serialize_to(out, items[i]);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      const auto& members = value.as_object();
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += json_escape(members[i].first);
        out += "\":";
        serialize_to(out, members[i].second);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_to(out, value);
  return out;
}

}  // namespace holmes
