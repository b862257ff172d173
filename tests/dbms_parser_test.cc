#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dbms/engine.h"
#include "dbms/lexer.h"
#include "dbms/parser.h"

namespace qa::dbms {
namespace {

// ----------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesKeywordsIdentifiersAndLiterals) {
  auto tokens = Tokenize("SELECT name FROM t WHERE x >= 3.5 AND s = 'hi'");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[1].text, "name");
  EXPECT_TRUE(t[2].IsKeyword("FROM"));
  EXPECT_TRUE(t[4].IsKeyword("WHERE"));
  EXPECT_TRUE(t[6].IsSymbol(">="));
  EXPECT_EQ(t[7].type, TokenType::kFloat);
  EXPECT_TRUE(t[8].IsKeyword("AND"));
  EXPECT_EQ(t[11].type, TokenType::kString);
  EXPECT_EQ(t[11].text, "hi");
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select * from T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsSymbol("*"));
  // Identifier case preserved.
  EXPECT_EQ((*tokens)[3].text, "T");
}

TEST(LexerTest, NegativeNumbersAndOperators) {
  auto tokens = Tokenize("x <> -42 y != 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_EQ((*tokens)[2].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[2].text, "-42");
  EXPECT_TRUE((*tokens)[4].IsSymbol("!="));
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, SelectStarSingleTable) {
  auto stmt = ParseSelect("SELECT * FROM users");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->tables.size(), 1u);
  EXPECT_EQ(stmt->tables[0].name, "users");
  EXPECT_TRUE(stmt->projections.empty());
  EXPECT_TRUE(stmt->filters.empty());
}

TEST(ParserTest, ProjectionAndUnqualifiedColumns) {
  auto stmt = ParseSelect("SELECT name, age FROM users");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->projections.size(), 2u);
  EXPECT_EQ(stmt->projections[0].column, "name");
  EXPECT_EQ(stmt->projections[0].table, 0);
}

TEST(ParserTest, WhereConjunction) {
  auto stmt = ParseSelect(
      "SELECT * FROM t WHERE a = 1 AND b < 2.5 AND c <> 'x' AND d >= -3");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->filters.size(), 4u);
  EXPECT_EQ(stmt->filters[0].op, 0);
  EXPECT_EQ(stmt->filters[0].constant.AsInt(), 1);
  EXPECT_EQ(stmt->filters[1].op, 2);
  EXPECT_DOUBLE_EQ(stmt->filters[1].constant.AsDouble(), 2.5);
  EXPECT_EQ(stmt->filters[2].op, 1);
  EXPECT_EQ(stmt->filters[2].constant.AsString(), "x");
  EXPECT_EQ(stmt->filters[3].op, 5);
  EXPECT_EQ(stmt->filters[3].constant.AsInt(), -3);
}

TEST(ParserTest, JoinWithOnClause) {
  auto stmt = ParseSelect(
      "SELECT orders.id FROM orders JOIN customers "
      "ON orders.customer_id = customers.id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->tables.size(), 2u);
  ASSERT_EQ(stmt->joins.size(), 1u);
  EXPECT_EQ(stmt->joins[0].left_table, 0);
  EXPECT_EQ(stmt->joins[0].left_column, "customer_id");
  EXPECT_EQ(stmt->joins[0].right_table, 1);
  EXPECT_EQ(stmt->joins[0].right_column, "id");
}

TEST(ParserTest, MultiJoinChain) {
  auto stmt = ParseSelect(
      "SELECT f.id FROM f JOIN d1 ON f.a = d1.id JOIN d2 ON f.b = d2.id");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->tables.size(), 3u);
  EXPECT_EQ(stmt->joins.size(), 2u);
  EXPECT_EQ(stmt->joins[1].left_table, 0);
  EXPECT_EQ(stmt->joins[1].right_table, 2);
}

TEST(ParserTest, CommaCrossJoin) {
  auto stmt = ParseSelect("SELECT a.x FROM a, b");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->tables.size(), 2u);
  EXPECT_TRUE(stmt->joins.empty());
}

TEST(ParserTest, GroupByWithAggregates) {
  auto stmt = ParseSelect(
      "SELECT customers.region, SUM(orders.amount), COUNT(*) "
      "FROM orders JOIN customers ON orders.customer_id = customers.id "
      "GROUP BY customers.region ORDER BY customers.region");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->has_grouping());
  ASSERT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->group_by[0].column, "region");
  ASSERT_EQ(stmt->aggregates.size(), 2u);
  EXPECT_EQ(stmt->aggregates[0].fn, Aggregate::Fn::kSum);
  EXPECT_EQ(stmt->aggregates[1].fn, Aggregate::Fn::kCount);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  // Grouping queries do not keep plain projections around.
  EXPECT_TRUE(stmt->projections.empty());
}

TEST(ParserTest, ImplicitGroupByFromSelectList) {
  // SELECT cat, COUNT(*) FROM t — the plain column becomes the group key.
  auto stmt = ParseSelect("SELECT cat, COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->group_by[0].column, "cat");
  EXPECT_EQ(stmt->aggregates.size(), 1u);
}

TEST(ParserTest, GlobalAggregate) {
  auto stmt = ParseSelect("SELECT MIN(v), MAX(v), AVG(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->group_by.empty());
  EXPECT_EQ(stmt->aggregates.size(), 3u);
}

TEST(ParserTest, OrderByDescAndLimit) {
  auto stmt = ParseSelect(
      "SELECT a, b FROM t ORDER BY a DESC, b ASC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_FALSE(stmt->order_by[1].descending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, LimitRequiresInteger) {
  EXPECT_FALSE(ParseSelect("SELECT * FROM t LIMIT x").ok());
}

TEST(ParserTest, SyntaxErrorsCarryPositions) {
  for (const char* bad :
       {"SELECT", "SELECT * FROM", "SELECT * WHERE x = 1",
        "SELECT * FROM t WHERE x", "SELECT * FROM t WHERE x ==",
        "SELECT * FROM t GROUP x", "SELECT * FROM t extra stuff",
        "SELECT f( FROM t", "SELECT * FROM a JOIN b"}) {
    auto stmt = ParseSelect(bad);
    EXPECT_FALSE(stmt.ok()) << bad;
    EXPECT_NE(stmt.status().message().find("position"), std::string::npos)
        << bad << " -> " << stmt.status().ToString();
  }
}

TEST(ParserTest, UnqualifiedColumnRejectedWithJoins) {
  auto stmt =
      ParseSelect("SELECT id FROM a JOIN b ON a.x = b.y");
  EXPECT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("qualified"), std::string::npos);
}

TEST(ParserTest, UnknownQualifierRejected) {
  auto stmt = ParseSelect("SELECT zz.id FROM a");
  EXPECT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("unknown table"),
            std::string::npos);
}

// A literal the lexer accepts but no int64/double holds is a parse error
// naming it, not an uncaught std::out_of_range: one case per parse site
// (WHERE integer, WHERE float, LIMIT).
TEST(ParserTest, OutOfRangeLiteralsAreErrorsNamingTheLiteral) {
  const std::string huge_int = "99999999999999999999";
  const std::string huge_float = std::string(400, '9') + ".0";
  for (const auto& [sql, literal] :
       std::vector<std::pair<std::string, std::string>>{
           {"SELECT a FROM t WHERE a > " + huge_int, huge_int},
           {"SELECT a FROM t WHERE a > " + huge_float, huge_float},
           {"SELECT a FROM t LIMIT " + huge_int, huge_int}}) {
    auto stmt = ParseSelect(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(stmt.status().message().find(literal + " is out of range"),
              std::string::npos)
        << stmt.status();
  }
}

// ------------------------------------------------- Parse + execute e2e

TEST(ParserEndToEndTest, SqlTextThroughTheEngine) {
  Database db;
  Table t("items", Schema({{"id", ValueType::kInt},
                           {"cat", ValueType::kString},
                           {"price", ValueType::kDouble}}));
  t.AppendUnchecked({Value(int64_t{1}), Value(std::string("a")), Value(10.0)});
  t.AppendUnchecked({Value(int64_t{2}), Value(std::string("b")), Value(20.0)});
  t.AppendUnchecked({Value(int64_t{3}), Value(std::string("a")), Value(30.0)});
  ASSERT_TRUE(db.CreateTable(std::move(t)).ok());

  auto stmt = ParseSelect(
      "SELECT cat, SUM(price) FROM items WHERE price > 15 "
      "GROUP BY cat ORDER BY cat");
  ASSERT_TRUE(stmt.ok());
  auto result = ExecuteStatement(db, *stmt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 2);
  EXPECT_EQ(result->table.row(0)[0].AsString(), "a");
  EXPECT_DOUBLE_EQ(result->table.row(0)[1].AsDouble(), 30.0);
  EXPECT_EQ(result->table.row(1)[0].AsString(), "b");
  EXPECT_DOUBLE_EQ(result->table.row(1)[1].AsDouble(), 20.0);
}

TEST(ParserEndToEndTest, DescLimitThroughTheEngine) {
  Database db;
  Table t("nums", Schema({{"v", ValueType::kInt}}));
  for (int i = 0; i < 10; ++i) t.AppendUnchecked({Value(int64_t{i})});
  ASSERT_TRUE(db.CreateTable(std::move(t)).ok());
  auto stmt = ParseSelect("SELECT v FROM nums ORDER BY v DESC LIMIT 3");
  ASSERT_TRUE(stmt.ok());
  auto result = ExecuteStatement(db, *stmt);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows(), 3);
  EXPECT_EQ(result->table.row(0)[0].AsInt(), 9);
  EXPECT_EQ(result->table.row(2)[0].AsInt(), 7);
}

TEST(ParserEndToEndTest, JoinSqlMatchesBuilder) {
  Database db;
  Table orders("orders", Schema({{"id", ValueType::kInt},
                                 {"cid", ValueType::kInt}}));
  orders.AppendUnchecked({Value(int64_t{1}), Value(int64_t{10})});
  orders.AppendUnchecked({Value(int64_t{2}), Value(int64_t{20})});
  ASSERT_TRUE(db.CreateTable(std::move(orders)).ok());
  Table customers("customers", Schema({{"id", ValueType::kInt},
                                       {"name", ValueType::kString}}));
  customers.AppendUnchecked({Value(int64_t{10}), Value(std::string("x"))});
  ASSERT_TRUE(db.CreateTable(std::move(customers)).ok());

  auto parsed = ParseSelect(
      "SELECT customers.name FROM orders JOIN customers "
      "ON orders.cid = customers.id");
  ASSERT_TRUE(parsed.ok());
  auto via_sql = ExecuteStatement(db, *parsed);
  ASSERT_TRUE(via_sql.ok());

  SelectStatement built = StatementBuilder()
                              .From("orders")
                              .From("customers")
                              .Join(0, "cid", 1, "id")
                              .Select(1, "name")
                              .Build();
  auto via_builder = ExecuteStatement(db, built);
  ASSERT_TRUE(via_builder.ok());
  EXPECT_EQ(via_sql->table.num_rows(), via_builder->table.num_rows());
  EXPECT_EQ(via_sql->signature, via_builder->signature);
}

}  // namespace
}  // namespace qa::dbms
