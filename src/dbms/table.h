#ifndef QAMARKET_DBMS_TABLE_H_
#define QAMARKET_DBMS_TABLE_H_

#include <string>
#include <vector>

#include "dbms/value.h"
#include "util/status.h"

namespace qa::dbms {

/// One column of a schema.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// An ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Concatenation (join output schema), with column names prefixed as-is.
  static Schema Concat(const Schema& left, const Schema& right);

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// An in-memory row store. Rows are only ever appended. A table is read
/// and written by one thread at a time: even a const read may update the
/// footprint count (EstimatedBytes), so two threads must not read one
/// table at once. Each minidb node's tables are used only by the thread
/// that runs its federation.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const std::vector<Row>& rows() const { return rows_; }
  const Row& row(int64_t i) const { return rows_[static_cast<size_t>(i)]; }

  /// Appends after checking arity and types (NULL fits any column).
  util::Status Append(Row row);
  /// Appends without validation (internal operators build valid rows).
  void AppendUnchecked(Row row) { rows_.push_back(std::move(row)); }

  void Reserve(int64_t n) { rows_.reserve(static_cast<size_t>(n)); }

  /// Approximate on-disk footprint, used by the cost model & buffer pool:
  /// fixed 16 bytes per numeric value, string length + 16 for strings.
  /// Exact for the rows the table holds now. A call counts only the rows
  /// appended since the previous one, so a table's reads walk each row
  /// once in all and an append costs nothing extra.
  int64_t EstimatedBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  /// The footprint of rows_[0, counted_rows_), as EstimatedBytes last
  /// brought it up to date.
  mutable int64_t counted_bytes_ = 0;
  mutable size_t counted_rows_ = 0;
};

}  // namespace qa::dbms

#endif  // QAMARKET_DBMS_TABLE_H_
