#include "dbms/table.h"

namespace qa::dbms {

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> columns = left.columns();
  columns.insert(columns.end(), right.columns().begin(),
                 right.columns().end());
  return Schema(std::move(columns));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += ValueTypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

util::Status Table::Append(Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return util::Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    ValueType expected = schema_.column(static_cast<int>(i)).type;
    ValueType actual = row[i].type();
    bool numeric_ok = (expected == ValueType::kDouble &&
                       actual == ValueType::kInt);
    if (actual != expected && !numeric_ok) {
      return util::Status::InvalidArgument(
          "type mismatch in column " + schema_.column(static_cast<int>(i)).name +
          ": expected " + ValueTypeName(expected) + ", got " +
          ValueTypeName(actual));
    }
  }
  rows_.push_back(std::move(row));
  return util::Status::OK();
}

int64_t Table::EstimatedBytes() const {
  for (; counted_rows_ < rows_.size(); ++counted_rows_) {
    for (const Value& v : rows_[counted_rows_]) {
      counted_bytes_ += 16;
      if (v.type() == ValueType::kString) {
        counted_bytes_ += static_cast<int64_t>(v.AsString().size());
      }
    }
  }
  return counted_bytes_;
}

}  // namespace qa::dbms
