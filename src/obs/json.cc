#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qa::obs {

namespace {

void AppendEscaped(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::StatusOr<Json> ParseDocument() {
    util::StatusOr<Json> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  util::Status Error(const std::string& what) const {
    return util::Status::InvalidArgument(
        "JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  util::StatusOr<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Each level is a frame of this recursion: hostile input must not
        // get to choose the stack depth.
        if (depth_ == kMaxNesting) {
          return Error("nesting deeper than " + std::to_string(kMaxNesting) +
                       " levels");
        }
        ++depth_;
        util::StatusOr<Json> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        util::StatusOr<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Json(std::move(s).value());
      }
      case 't':
        if (ConsumeWord("true")) return Json(true);
        return Error("bad literal");
      case 'f':
        if (ConsumeWord("false")) return Json(false);
        return Error("bad literal");
      case 'n':
        if (ConsumeWord("null")) return Json(nullptr);
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  util::StatusOr<Json> ParseNumber() {
    size_t start = pos_;
    bool is_double = false;
    if (Consume('-')) {
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<int64_t>(v));
      }
      // Out-of-range integers fall through to double.
    }
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return Json(d);
  }

  util::StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (BMP only — the writer never emits
          // surrogate pairs; traces are ASCII plus control escapes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  util::StatusOr<Json> ParseArray() {
    Consume('[');
    Json::Array items;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(items));
    while (true) {
      util::StatusOr<Json> item = ParseValue();
      if (!item.ok()) return item;
      items.push_back(std::move(item).value());
      SkipWhitespace();
      if (Consume(']')) return Json(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  util::StatusOr<Json> ParseObject() {
    Consume('{');
    Json::Object fields;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(fields));
    while (true) {
      SkipWhitespace();
      util::StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      util::StatusOr<Json> value = ParseValue();
      if (!value.ok()) return value;
      fields.emplace_back(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume('}')) return Json(std::move(fields));
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  /// Far above anything the project writes or reads: its traces, metrics
  /// streams and compile_commands.json nest a few levels.
  static constexpr int kMaxNesting = 256;

  std::string_view text_;
  size_t pos_ = 0;
  /// Arrays and objects open around the cursor.
  int depth_ = 0;
};

}  // namespace

const std::string& Json::EmptyString() {
  static const std::string empty;
  return empty;
}

int64_t Json::AsInt(int64_t fallback) const {
  if (is_int()) return std::get<int64_t>(value_);
  if (is_double()) return static_cast<int64_t>(std::get<double>(value_));
  return fallback;
}

double Json::AsDouble(double fallback) const {
  if (is_double()) return std::get<double>(value_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(value_));
  return fallback;
}

bool Json::AsBool(bool fallback) const {
  if (is_bool()) return std::get<bool>(value_);
  return fallback;
}

const std::string& Json::AsString(const std::string& fallback) const {
  if (is_string()) return std::get<std::string>(value_);
  return fallback;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t Json::GetInt(std::string_view key, int64_t fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsInt(fallback) : fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsDouble(fallback) : fallback;
}

std::string Json::GetString(std::string_view key,
                            const std::string& fallback) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsString(fallback) : fallback;
}

void Json::Set(std::string key, Json value) {
  if (is_null()) value_ = Object{};
  Object& fields = std::get<Object>(value_);
  for (auto& [k, v] : fields) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  fields.emplace_back(std::move(key), std::move(value));
}

void Json::Append(Json value) {
  if (is_null()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
}

void Json::DumpTo(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<int64_t>(value_));
  } else if (is_double()) {
    double d = std::get<double>(value_);
    if (!std::isfinite(d)) {
      // JSON has no Infinity/NaN; null is the conventional stand-in.
      out += "null";
      return;
    }
    char buf[32];
    // Integral doubles print as "390.0", not "3.9e+02": just as exact,
    // far more readable, and still a double (not an int) when reparsed.
    // Exact integrality test on purpose: "is this double exactly an
    // integer" decides the printed form, and any epsilon would change
    // what reparsing yields.
    // qa-lint: allow(QA-NUM-001)
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%.1f", d);
      out += buf;
      return;
    }
    // Otherwise the shortest representation that parses back to the same
    // double.
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    double reparsed = std::strtod(buf, nullptr);
    // Round-trip checks must be bitwise: the shortest representation is
    // only acceptable if strtod returns the *identical* double.
    // qa-lint: allow(QA-NUM-001)
    if (reparsed == d) {
      for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, d);
        // qa-lint: allow(QA-NUM-001)
        if (std::strtod(shorter, nullptr) == d) {
          out += shorter;
          return;
        }
      }
    }
    out += buf;
  } else if (is_string()) {
    AppendEscaped(std::get<std::string>(value_), out);
  } else if (is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : array()) {
      if (!first) out.push_back(',');
      first = false;
      item.DumpTo(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : object()) {
      if (!first) out.push_back(',');
      first = false;
      AppendEscaped(k, out);
      out.push_back(':');
      v.DumpTo(out);
    }
    out.push_back('}');
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out);
  return out;
}

util::StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace qa::obs
