#include "dbms/lexer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <system_error>

namespace qa::dbms {

namespace {

/// Parses all of `token.text` as a T, or names the literal that does not
/// fit.
template <typename T>
util::Status ParseLiteral(const Token& token, const char* what, T* value) {
  const char* end = token.text.data() + token.text.size();
  std::from_chars_result result =
      std::from_chars(token.text.data(), end, *value);
  if (result.ec == std::errc() && result.ptr == end) {
    return util::Status::OK();
  }
  return util::Status::InvalidArgument(
      std::string(what) + " literal " + token.text +
      " is out of range at position " + std::to_string(token.offset));
}

const char* const kKeywords[] = {
    "SELECT", "FROM", "WHERE", "JOIN",  "ON",    "AND",   "GROUP",
    "BY",     "ORDER", "AS",   "COUNT", "SUM",   "MIN",   "MAX",
    "AVG",    "ASC",  "DESC",  "LIMIT",
};

bool IsKeywordWord(const std::string& upper) {
  for (const char* kw : kKeywords) {
    if (upper == kw) return true;
  }
  return false;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

util::StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    int offset = static_cast<int>(i) + 1;
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < sql.size() && IsIdentChar(sql[i])) ++i;
      std::string word = sql.substr(start, i - start);
      std::string upper = word;
      std::transform(upper.begin(), upper.end(), upper.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      if (IsKeywordWord(upper)) {
        tokens.push_back({TokenType::kKeyword, upper, offset});
      } else {
        tokens.push_back({TokenType::kIdentifier, word, offset});
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < sql.size() &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '.')) {
        if (sql[i] == '.') {
          if (is_float) break;  // second dot ends the number
          is_float = true;
        }
        ++i;
      }
      tokens.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                        sql.substr(start, i - start), offset});
      continue;
    }
    if (c == '\'') {
      size_t end = sql.find('\'', i + 1);
      if (end == std::string::npos) {
        return util::Status::InvalidArgument(
            "unterminated string literal at position " +
            std::to_string(offset));
      }
      tokens.push_back(
          {TokenType::kString, sql.substr(i + 1, end - i - 1), offset});
      i = end + 1;
      continue;
    }
    // Multi-char operators first.
    if (i + 1 < sql.size()) {
      std::string two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        tokens.push_back({TokenType::kSymbol, two, offset});
        i += 2;
        continue;
      }
    }
    if (std::string("=<>(),.*").find(c) != std::string::npos) {
      tokens.push_back({TokenType::kSymbol, std::string(1, c), offset});
      ++i;
      continue;
    }
    return util::Status::InvalidArgument(
        std::string("unexpected character '") + c + "' at position " +
        std::to_string(offset));
  }
  tokens.push_back({TokenType::kEnd, "", static_cast<int>(sql.size()) + 1});
  return tokens;
}

util::Status ParseIntegerLiteral(const Token& token, int64_t* value) {
  return ParseLiteral(token, "integer", value);
}

util::Status ParseFloatLiteral(const Token& token, double* value) {
  return ParseLiteral(token, "float", value);
}

}  // namespace qa::dbms
