#include "dbms/ddl.h"

#include <algorithm>
#include <cctype>

#include "dbms/lexer.h"
#include "dbms/parser.h"

namespace qa::dbms {

namespace {

std::string UpperPrefix(const std::string& sql) {
  std::string word;
  for (char c : sql) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!word.empty()) break;
      continue;
    }
    word.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    if (word.size() > 8) break;
  }
  return word;
}

/// Hand-rolled scanner for the (tiny) DDL/DML surface; uses the SQL lexer
/// but drives it with its own cursor since CREATE/INSERT/INTO/VALUES are
/// not SELECT keywords.
class DdlParser {
 public:
  explicit DdlParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  util::StatusOr<CreateTableStatement> ParseCreate() {
    QA_RETURN_IF_ERROR(ExpectWord("CREATE"));
    QA_RETURN_IF_ERROR(ExpectWord("TABLE"));
    CreateTableStatement stmt;
    QA_RETURN_IF_ERROR(Identifier(&stmt.name));
    QA_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      Column column;
      QA_RETURN_IF_ERROR(Identifier(&column.name));
      std::string type;
      QA_RETURN_IF_ERROR(Word(&type));
      if (type == "INT" || type == "INTEGER") {
        column.type = ValueType::kInt;
      } else if (type == "DOUBLE" || type == "FLOAT" || type == "REAL") {
        column.type = ValueType::kDouble;
      } else if (type == "STRING" || type == "TEXT" || type == "VARCHAR") {
        column.type = ValueType::kString;
      } else {
        return Error("unknown column type " + type);
      }
      stmt.columns.push_back(std::move(column));
      if (AcceptSymbol(",")) continue;
      QA_RETURN_IF_ERROR(ExpectSymbol(")"));
      break;
    }
    QA_RETURN_IF_ERROR(End());
    if (stmt.columns.empty()) {
      return Error("table needs at least one column");
    }
    return stmt;
  }

  util::StatusOr<InsertStatement> ParseInsert() {
    QA_RETURN_IF_ERROR(ExpectWord("INSERT"));
    QA_RETURN_IF_ERROR(ExpectWord("INTO"));
    InsertStatement stmt;
    QA_RETURN_IF_ERROR(Identifier(&stmt.table));
    QA_RETURN_IF_ERROR(ExpectWord("VALUES"));
    while (true) {
      QA_RETURN_IF_ERROR(ExpectSymbol("("));
      Row row;
      while (true) {
        const Token& token = Peek();
        switch (token.type) {
          case TokenType::kInteger: {
            int64_t value = 0;
            QA_RETURN_IF_ERROR(ParseIntegerLiteral(token, &value));
            row.push_back(Value(value));
            break;
          }
          case TokenType::kFloat: {
            double value = 0.0;
            QA_RETURN_IF_ERROR(ParseFloatLiteral(token, &value));
            row.push_back(Value(value));
            break;
          }
          case TokenType::kString:
            row.push_back(Value(token.text));
            break;
          case TokenType::kIdentifier:
            if (UpperOf(token.text) == "NULL") {
              row.push_back(Value::Null());
              break;
            }
            return Error("expected literal");
          default:
            return Error("expected literal");
        }
        ++pos_;
        if (AcceptSymbol(",")) continue;
        QA_RETURN_IF_ERROR(ExpectSymbol(")"));
        break;
      }
      stmt.rows.push_back(std::move(row));
      if (!AcceptSymbol(",")) break;
    }
    QA_RETURN_IF_ERROR(End());
    return stmt;
  }

 private:
  static std::string UpperOf(const std::string& word) {
    std::string upper = word;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return upper;
  }

  const Token& Peek() const { return tokens_[pos_]; }

  util::Status Error(const std::string& message) const {
    return util::Status::InvalidArgument(
        message + " at position " + std::to_string(Peek().offset));
  }

  /// Accepts a keyword-or-identifier word matching `expected`.
  util::Status ExpectWord(const char* expected) {
    const Token& token = Peek();
    if ((token.type == TokenType::kKeyword ||
         token.type == TokenType::kIdentifier) &&
        UpperOf(token.text) == expected) {
      ++pos_;
      return util::Status::OK();
    }
    return Error(std::string("expected ") + expected);
  }

  util::Status Word(std::string* out) {
    const Token& token = Peek();
    if (token.type != TokenType::kKeyword &&
        token.type != TokenType::kIdentifier) {
      return Error("expected word");
    }
    *out = UpperOf(token.text);
    ++pos_;
    return util::Status::OK();
  }

  util::Status Identifier(std::string* out) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier");
    }
    *out = tokens_[pos_++].text;
    return util::Status::OK();
  }

  bool AcceptSymbol(const char* sym) {
    if (Peek().IsSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  util::Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Error(std::string("expected '") + sym + "'");
    }
    return util::Status::OK();
  }
  util::Status End() {
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return util::Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

util::StatusOr<SqlStatement> ParseStatement(const std::string& sql) {
  std::string head = UpperPrefix(sql);
  if (head == "SELECT") {
    util::StatusOr<SelectStatement> select = ParseSelect(sql);
    if (!select.ok()) return select.status();
    return SqlStatement(std::move(select).value());
  }
  util::StatusOr<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  DdlParser parser(std::move(tokens).value());
  if (head == "CREATE") {
    util::StatusOr<CreateTableStatement> create = parser.ParseCreate();
    if (!create.ok()) return create.status();
    return SqlStatement(std::move(create).value());
  }
  if (head == "INSERT") {
    util::StatusOr<InsertStatement> insert = parser.ParseInsert();
    if (!insert.ok()) return insert.status();
    return SqlStatement(std::move(insert).value());
  }
  return util::Status::InvalidArgument(
      "expected SELECT, CREATE TABLE or INSERT INTO");
}

util::StatusOr<int64_t> ApplyStatement(Database* db,
                                       const SqlStatement& stmt) {
  if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    QA_RETURN_IF_ERROR(
        db->CreateTable(Table(create->name, Schema(create->columns))));
    return int64_t{0};
  }
  if (const auto* insert = std::get_if<InsertStatement>(&stmt)) {
    const Table* existing = db->GetTable(insert->table);
    if (existing == nullptr) {
      return util::Status::NotFound("no table named " + insert->table);
    }
    // Validate all rows before mutating (all-or-nothing insert).
    Table staged(existing->name(), existing->schema());
    for (const Row& row : insert->rows) {
      QA_RETURN_IF_ERROR(staged.Append(row));
    }
    Table* table = db->MutableTable(insert->table);
    for (const Row& row : staged.rows()) {
      table->AppendUnchecked(row);
    }
    return static_cast<int64_t>(insert->rows.size());
  }
  return util::Status::InvalidArgument(
      "SELECT statements execute via ExecuteStatement, not ApplyStatement");
}

}  // namespace qa::dbms
