#ifndef QAMARKET_DBMS_LEXER_H_
#define QAMARKET_DBMS_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qa::dbms {

enum class TokenType {
  kIdentifier,  // table/column names (case-preserved)
  kKeyword,     // SELECT, FROM, ... (upper-cased in `text`)
  kInteger,
  kFloat,
  kString,      // 'quoted literal', quotes stripped
  kSymbol,      // = <> != < <= > >= ( ) , . *
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  /// 1-based position in the input, for error messages.
  int offset = 0;

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(const char* sym) const {
    return type == TokenType::kSymbol && text == sym;
  }
};

/// Tokenizes a SQL string. Keywords are recognized case-insensitively and
/// normalized to upper case; identifiers keep their case. Returns
/// InvalidArgument on malformed input (unterminated string, stray char).
util::StatusOr<std::vector<Token>> Tokenize(const std::string& sql);

/// The value of a kInteger / kFloat token. The lexer accepts any digit
/// run, so a literal that does not fit an int64 (or overflows/underflows a
/// double) is InvalidArgument naming the literal and its position.
util::Status ParseIntegerLiteral(const Token& token, int64_t* value);
util::Status ParseFloatLiteral(const Token& token, double* value);

}  // namespace qa::dbms

#endif  // QAMARKET_DBMS_LEXER_H_
