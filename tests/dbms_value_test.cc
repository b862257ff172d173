#include <gtest/gtest.h>

#include "dbms/table.h"
#include "dbms/value.h"

namespace qa::dbms {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).type(), ValueType::kInt);
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("hi")).type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("hi")).AsString(), "hi");
}

TEST(ValueTest, IntPromotesToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
}

TEST(ValueTest, NullComparisons) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  // NULL sorts first.
  EXPECT_LT(Value::Null(), Value(int64_t{-100}));
  EXPECT_FALSE(Value(int64_t{1}) < Value::Null());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_LT(Value(std::string("a")), Value(std::string("b")));
  EXPECT_GE(Value(int64_t{5}), Value(5.0));
  EXPECT_GT(Value(int64_t{6}), Value(5.0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value(std::string("x")).Hash(), Value(std::string("x")).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(std::string("abc")).ToString(), "abc");
}

TEST(HashKeyTest, KeyColumnsOnly) {
  Row a = {Value(int64_t{1}), Value(int64_t{2})};
  Row b = {Value(int64_t{1}), Value(int64_t{99})};
  EXPECT_EQ(HashKey(a, {0}), HashKey(b, {0}));
  EXPECT_NE(HashKey(a, {0, 1}), HashKey(b, {0, 1}));
}

TEST(SchemaTest, FindColumn) {
  Schema schema({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  EXPECT_EQ(schema.FindColumn("id"), 0);
  EXPECT_EQ(schema.FindColumn("name"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", ValueType::kInt}});
  Schema b({{"y", ValueType::kDouble}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 2);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(TableTest, AppendValidates) {
  Table t("t", Schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}}));
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value(2.0)}).ok());
  // Int into double column is fine.
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value(int64_t{2})}).ok());
  // NULL fits anywhere.
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
  // Arity mismatch.
  EXPECT_FALSE(t.Append({Value(int64_t{1})}).ok());
  // Type mismatch.
  EXPECT_FALSE(t.Append({Value(std::string("x")), Value(1.0)}).ok());
  EXPECT_EQ(t.num_rows(), 3);
}

TEST(TableTest, EstimatedBytesGrowsWithRows) {
  Table t("t", Schema({{"id", ValueType::kInt}}));
  int64_t empty = t.EstimatedBytes();
  ASSERT_TRUE(t.Append({Value(int64_t{1})}).ok());
  EXPECT_GT(t.EstimatedBytes(), empty);
}

// The footprint stays exact across reads: rows appended after a read, by
// either append, count on the next one, and a copy carries its count.
TEST(TableTest, EstimatedBytesCountsRowsAppendedAfterARead) {
  Table t("t", Schema({{"id", ValueType::kInt}, {"name", ValueType::kString}}));
  EXPECT_EQ(t.EstimatedBytes(), 0);
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value(std::string("ab"))}).ok());
  EXPECT_EQ(t.EstimatedBytes(), 16 + 16 + 2);
  EXPECT_EQ(t.EstimatedBytes(), 34);
  t.AppendUnchecked({Value(int64_t{2}), Value(std::string("xyz"))});
  EXPECT_EQ(t.EstimatedBytes(), 34 + 16 + 16 + 3);
  ASSERT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.EstimatedBytes(), 69 + 32);

  Table copy = t;
  copy.AppendUnchecked({Value(int64_t{3}), Value(std::string("q"))});
  EXPECT_EQ(copy.EstimatedBytes(), 101 + 33);
  EXPECT_EQ(t.EstimatedBytes(), 101);
}

}  // namespace
}  // namespace qa::dbms
