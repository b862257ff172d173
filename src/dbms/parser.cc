#include "dbms/parser.h"

#include <vector>

#include "dbms/lexer.h"

namespace qa::dbms {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::StatusOr<SelectStatement> Parse() {
    QA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    QA_RETURN_IF_ERROR(ParseSelectList());
    QA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    QA_RETURN_IF_ERROR(ParseFromClause());
    QA_RETURN_IF_ERROR(ResolveSelectList());
    if (AcceptKeyword("WHERE")) {
      QA_RETURN_IF_ERROR(ParseWhereClause());
    }
    if (AcceptKeyword("GROUP")) {
      QA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      QA_RETURN_IF_ERROR(ParseColumnList(&stmt_.group_by));
    }
    if (AcceptKeyword("ORDER")) {
      QA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      QA_RETURN_IF_ERROR(ParseOrderList());
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected row count after LIMIT");
      }
      QA_RETURN_IF_ERROR(ParseIntegerLiteral(Next(), &stmt_.limit));
      if (stmt_.limit < 0) return Error("LIMIT must be non-negative");
    }
    if (!Peek().IsSymbol("") && Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt_;
  }

 private:
  /// A column reference captured before table names are known.
  struct RawColumn {
    std::string table;  // empty = unqualified
    std::string column;
    int offset = 0;
  };
  struct RawSelectItem {
    bool is_aggregate = false;
    Aggregate::Fn fn = Aggregate::Fn::kCount;
    bool count_star = false;
    RawColumn column;
  };

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  util::Status Error(const std::string& message) const {
    return util::Status::InvalidArgument(
        message + " at position " + std::to_string(Peek().offset));
  }

  bool AcceptKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* sym) {
    if (Peek().IsSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  util::Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Error(std::string("expected ") + kw);
    }
    return util::Status::OK();
  }
  util::Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Error(std::string("expected '") + sym + "'");
    }
    return util::Status::OK();
  }

  util::Status ParseIdentifier(std::string* out) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier");
    }
    *out = Next().text;
    return util::Status::OK();
  }

  /// ident | ident '.' ident
  util::Status ParseRawColumn(RawColumn* out) {
    out->offset = Peek().offset;
    std::string first;
    QA_RETURN_IF_ERROR(ParseIdentifier(&first));
    if (AcceptSymbol(".")) {
      out->table = std::move(first);
      QA_RETURN_IF_ERROR(ParseIdentifier(&out->column));
    } else {
      out->column = std::move(first);
    }
    return util::Status::OK();
  }

  util::Status ParseSelectList() {
    if (AcceptSymbol("*")) return util::Status::OK();  // SELECT *
    while (true) {
      RawSelectItem item;
      if (Peek().type == TokenType::kKeyword &&
          (Peek().text == "COUNT" || Peek().text == "SUM" ||
           Peek().text == "MIN" || Peek().text == "MAX" ||
           Peek().text == "AVG")) {
        item.is_aggregate = true;
        std::string fn = Next().text;
        if (fn == "COUNT") item.fn = Aggregate::Fn::kCount;
        if (fn == "SUM") item.fn = Aggregate::Fn::kSum;
        if (fn == "MIN") item.fn = Aggregate::Fn::kMin;
        if (fn == "MAX") item.fn = Aggregate::Fn::kMax;
        if (fn == "AVG") item.fn = Aggregate::Fn::kAvg;
        QA_RETURN_IF_ERROR(ExpectSymbol("("));
        if (item.fn == Aggregate::Fn::kCount && AcceptSymbol("*")) {
          item.count_star = true;
        } else {
          QA_RETURN_IF_ERROR(ParseRawColumn(&item.column));
        }
        QA_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else {
        QA_RETURN_IF_ERROR(ParseRawColumn(&item.column));
      }
      select_items_.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    return util::Status::OK();
  }

  util::Status ParseFromClause() {
    std::string table;
    QA_RETURN_IF_ERROR(ParseIdentifier(&table));
    stmt_.tables.push_back({std::move(table)});
    while (true) {
      if (AcceptKeyword("JOIN")) {
        std::string joined;
        QA_RETURN_IF_ERROR(ParseIdentifier(&joined));
        stmt_.tables.push_back({std::move(joined)});
        QA_RETURN_IF_ERROR(ExpectKeyword("ON"));
        RawColumn left;
        RawColumn right;
        QA_RETURN_IF_ERROR(ParseRawColumn(&left));
        QA_RETURN_IF_ERROR(ExpectSymbol("="));
        QA_RETURN_IF_ERROR(ParseRawColumn(&right));
        int lt = 0;
        int rt = 0;
        QA_RETURN_IF_ERROR(ResolveTable(left, &lt));
        QA_RETURN_IF_ERROR(ResolveTable(right, &rt));
        stmt_.joins.push_back({lt, left.column, rt, right.column});
      } else if (AcceptSymbol(",")) {
        // Comma join (cross product unless constrained in WHERE; minidb's
        // WHERE only supports column-vs-literal, so this is a plain cross
        // product).
        std::string joined;
        QA_RETURN_IF_ERROR(ParseIdentifier(&joined));
        stmt_.tables.push_back({std::move(joined)});
      } else {
        break;
      }
    }
    return util::Status::OK();
  }

  /// Maps a (possibly unqualified) raw column onto a FROM-table index.
  util::Status ResolveTable(const RawColumn& raw, int* table_index) const {
    if (raw.table.empty()) {
      if (stmt_.tables.size() != 1) {
        return util::Status::InvalidArgument(
            "column '" + raw.column +
            "' must be qualified (table.column) in a multi-table query, "
            "at position " +
            std::to_string(raw.offset));
      }
      *table_index = 0;
      return util::Status::OK();
    }
    for (size_t t = 0; t < stmt_.tables.size(); ++t) {
      if (stmt_.tables[t].name == raw.table) {
        *table_index = static_cast<int>(t);
        return util::Status::OK();
      }
    }
    return util::Status::InvalidArgument(
        "unknown table '" + raw.table + "' at position " +
        std::to_string(raw.offset));
  }

  util::Status ResolveSelectList() {
    for (const RawSelectItem& item : select_items_) {
      if (item.is_aggregate) {
        Aggregate agg;
        agg.fn = item.fn;
        if (!item.count_star) {
          int t = 0;
          QA_RETURN_IF_ERROR(ResolveTable(item.column, &t));
          agg.arg = {t, item.column.column};
        }
        stmt_.aggregates.push_back(std::move(agg));
      } else {
        int t = 0;
        QA_RETURN_IF_ERROR(ResolveTable(item.column, &t));
        // With aggregates present, plain columns are grouping outputs and
        // handled via GROUP BY; otherwise they are projections.
        stmt_.projections.push_back({t, item.column.column});
      }
    }
    return util::Status::OK();
  }

  util::Status ParseWhereClause() {
    while (true) {
      RawColumn column;
      QA_RETURN_IF_ERROR(ParseRawColumn(&column));
      int op = 0;
      if (AcceptSymbol("=")) {
        op = 0;
      } else if (AcceptSymbol("!=") || AcceptSymbol("<>")) {
        op = 1;
      } else if (AcceptSymbol("<=")) {
        op = 3;
      } else if (AcceptSymbol("<")) {
        op = 2;
      } else if (AcceptSymbol(">=")) {
        op = 5;
      } else if (AcceptSymbol(">")) {
        op = 4;
      } else {
        return Error("expected comparison operator");
      }
      Value constant;
      const Token& lit = Peek();
      switch (lit.type) {
        case TokenType::kInteger: {
          int64_t value = 0;
          QA_RETURN_IF_ERROR(ParseIntegerLiteral(lit, &value));
          constant = Value(value);
          break;
        }
        case TokenType::kFloat: {
          double value = 0.0;
          QA_RETURN_IF_ERROR(ParseFloatLiteral(lit, &value));
          constant = Value(value);
          break;
        }
        case TokenType::kString:
          constant = Value(lit.text);
          break;
        default:
          return Error("expected literal");
      }
      Next();
      int t = 0;
      QA_RETURN_IF_ERROR(ResolveTable(column, &t));
      stmt_.filters.push_back({t, column.column, op, std::move(constant)});
      if (!AcceptKeyword("AND")) break;
    }
    return util::Status::OK();
  }

  util::Status ParseColumnList(std::vector<ColumnRef>* out) {
    while (true) {
      RawColumn column;
      QA_RETURN_IF_ERROR(ParseRawColumn(&column));
      int t = 0;
      QA_RETURN_IF_ERROR(ResolveTable(column, &t));
      out->push_back({t, column.column});
      if (!AcceptSymbol(",")) break;
    }
    return util::Status::OK();
  }

  util::Status ParseOrderList() {
    while (true) {
      RawColumn column;
      QA_RETURN_IF_ERROR(ParseRawColumn(&column));
      int t = 0;
      QA_RETURN_IF_ERROR(ResolveTable(column, &t));
      bool descending = false;
      if (AcceptKeyword("DESC")) {
        descending = true;
      } else {
        AcceptKeyword("ASC");
      }
      stmt_.order_by.push_back({{t, column.column}, descending});
      if (!AcceptSymbol(",")) break;
    }
    return util::Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  SelectStatement stmt_;
  std::vector<RawSelectItem> select_items_;
};

}  // namespace

util::StatusOr<SelectStatement> ParseSelect(const std::string& sql) {
  util::StatusOr<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  util::StatusOr<SelectStatement> parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();

  // SELECT a, SUM(b) ... : the plain columns are group keys; when the user
  // wrote an explicit GROUP BY the projections double as its outputs and
  // are dropped (the planner emits keys + aggregates).
  SelectStatement stmt = std::move(parsed).value();
  if (!stmt.aggregates.empty() && stmt.group_by.empty() &&
      !stmt.projections.empty()) {
    stmt.group_by = stmt.projections;
  }
  if (stmt.has_grouping()) stmt.projections.clear();
  return stmt;
}

}  // namespace qa::dbms
