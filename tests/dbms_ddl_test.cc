#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dbms/ddl.h"
#include "dbms/engine.h"
#include "dbms/parser.h"

namespace qa::dbms {
namespace {

TEST(DdlTest, ParseCreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE users (id INT, name STRING, score DOUBLE)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* create = std::get_if<CreateTableStatement>(&*stmt);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->name, "users");
  ASSERT_EQ(create->columns.size(), 3u);
  EXPECT_EQ(create->columns[0].type, ValueType::kInt);
  EXPECT_EQ(create->columns[1].type, ValueType::kString);
  EXPECT_EQ(create->columns[2].type, ValueType::kDouble);
}

TEST(DdlTest, TypeAliases) {
  auto stmt = ParseStatement(
      "create table t (a integer, b real, c text, d varchar)");
  ASSERT_TRUE(stmt.ok());
  const auto* create = std::get_if<CreateTableStatement>(&*stmt);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->columns[0].type, ValueType::kInt);
  EXPECT_EQ(create->columns[1].type, ValueType::kDouble);
  EXPECT_EQ(create->columns[2].type, ValueType::kString);
  EXPECT_EQ(create->columns[3].type, ValueType::kString);
}

TEST(DdlTest, ParseInsertMultipleRows) {
  auto stmt = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', 3.5), (3, NULL, NULL)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* insert = std::get_if<InsertStatement>(&*stmt);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->table, "t");
  ASSERT_EQ(insert->rows.size(), 3u);
  EXPECT_EQ(insert->rows[0][0].AsInt(), 1);
  EXPECT_EQ(insert->rows[1][1].AsString(), "b");
  EXPECT_TRUE(insert->rows[2][1].is_null());
}

TEST(DdlTest, ParseErrors) {
  EXPECT_FALSE(ParseStatement("CREATE TABLE t ()").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a BLOB)").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE (a INT)").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(ParseStatement("DROP TABLE t").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a INT) junk").ok());
}

// INSERT literals that fit no int64/double are errors naming the literal,
// not an uncaught std::out_of_range: one case per site (integer, float).
TEST(DdlTest, OutOfRangeInsertLiteralsAreErrors) {
  const std::string huge_int = "99999999999999999999";
  const std::string huge_float = std::string(400, '9') + ".0";
  for (const auto& [sql, literal] :
       std::vector<std::pair<std::string, std::string>>{
           {"INSERT INTO t VALUES (" + huge_int + ", 2.0)", huge_int},
           {"INSERT INTO t VALUES (1, " + huge_float + ")", huge_float}}) {
    auto stmt = ParseStatement(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(stmt.status().message().find(literal + " is out of range"),
              std::string::npos)
        << stmt.status();
  }
}

TEST(DdlTest, ApplyCreateAndInsertEndToEnd) {
  Database db;
  auto create = ParseStatement("CREATE TABLE t (id INT, v DOUBLE)");
  ASSERT_TRUE(create.ok());
  auto created = ApplyStatement(&db, *create);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(*created, 0);
  EXPECT_TRUE(db.HasTable("t"));

  auto insert =
      ParseStatement("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)");
  ASSERT_TRUE(insert.ok());
  auto inserted = ApplyStatement(&db, *insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(*inserted, 3);
  EXPECT_EQ(db.GetTable("t")->num_rows(), 3);

  // Query the inserted data through the SELECT path.
  auto select = ParseSelect("SELECT SUM(v) FROM t WHERE id > 1");
  ASSERT_TRUE(select.ok());
  auto result = ExecuteStatement(db, *select);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->table.row(0)[0].AsDouble(), 6.0);
}

TEST(DdlTest, InsertValidatesAllOrNothing) {
  Database db;
  ASSERT_TRUE(
      ApplyStatement(&db, *ParseStatement("CREATE TABLE t (id INT)")).ok());
  // Second row has wrong arity: nothing may be inserted.
  auto insert = ParseStatement("INSERT INTO t VALUES (1), (2, 3)");
  ASSERT_TRUE(insert.ok());
  auto applied = ApplyStatement(&db, *insert);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(db.GetTable("t")->num_rows(), 0);
  // Type mismatch likewise.
  auto bad_type = ParseStatement("INSERT INTO t VALUES ('x')");
  ASSERT_TRUE(bad_type.ok());
  EXPECT_FALSE(ApplyStatement(&db, *bad_type).ok());
}

TEST(DdlTest, InsertIntoMissingTable) {
  Database db;
  auto insert = ParseStatement("INSERT INTO nope VALUES (1)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(ApplyStatement(&db, *insert).status().code(),
            util::StatusCode::kNotFound);
}

TEST(DdlTest, SelectRoutedThroughParseStatement) {
  auto stmt = ParseStatement("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(std::get_if<SelectStatement>(&*stmt), nullptr);
  // And ApplyStatement refuses it (SELECT is not DDL/DML).
  Database db;
  EXPECT_FALSE(ApplyStatement(&db, *stmt).ok());
}

TEST(DdlTest, DuplicateCreateRejected) {
  Database db;
  auto create = ParseStatement("CREATE TABLE t (id INT)");
  ASSERT_TRUE(create.ok());
  ASSERT_TRUE(ApplyStatement(&db, *create).ok());
  EXPECT_EQ(ApplyStatement(&db, *create).status().code(),
            util::StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace qa::dbms
