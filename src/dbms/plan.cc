#include "dbms/plan.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "dbms/database.h"

namespace qa::dbms {

namespace {

std::string Indent(int n) { return std::string(static_cast<size_t>(n), ' '); }

Row ConcatRows(const Row& left, const Row& right) {
  Row out = left;
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

}  // namespace

// ------------------------------------------------------------------ Scan

ScanNode::ScanNode(std::string table_name, Schema schema, ExprPtr filter)
    : table_name_(std::move(table_name)), filter_(std::move(filter)) {
  output_schema_ = std::move(schema);
}

Table ScanNode::Execute(const Database& db, ExecStats* stats) const {
  const Table* table = db.GetTable(table_name_);
  assert(table != nullptr && "planner validated table existence");
  Table out("scan", output_schema_);
  for (const Row& row : table->rows()) {
    if (filter_ == nullptr || filter_->EvalBool(row)) {
      out.AppendUnchecked(row);
    }
  }
  if (stats != nullptr) {
    stats->rows_scanned += table->num_rows();
    stats->table_bytes[table_name_] += table->EstimatedBytes();
  }
  return out;
}

std::string ScanNode::Describe(int indent) const {
  std::string out = Indent(indent) + "SCAN " + table_name_;
  if (filter_ != nullptr) {
    out += " filter=" + filter_->ToString(&output_schema_);
  }
  out += " (est_rows=" + std::to_string(static_cast<int64_t>(est_rows)) + ")";
  return out + "\n";
}

void ScanNode::AppendSignature(std::string* out) const {
  *out += "SCAN(" + table_name_;
  if (filter_ != nullptr) *out += "|F";
  *out += ")";
}

// -------------------------------------------------------------- HashJoin

HashJoinNode::HashJoinNode(PlanPtr left, PlanPtr right, int left_key,
                           int right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key) {
  output_schema_ =
      Schema::Concat(left_->output_schema(), right_->output_schema());
}

Table HashJoinNode::Execute(const Database& db, ExecStats* stats) const {
  Table left = left_->Execute(db, stats);
  Table right = right_->Execute(db, stats);
  Table out("hash_join", output_schema_);

  std::unordered_multimap<size_t, const Row*> build;
  build.reserve(static_cast<size_t>(left.num_rows()));
  for (const Row& row : left.rows()) {
    if (row[static_cast<size_t>(left_key_)].is_null()) continue;
    build.emplace(row[static_cast<size_t>(left_key_)].Hash(), &row);
  }
  for (const Row& probe : right.rows()) {
    const Value& key = probe[static_cast<size_t>(right_key_)];
    if (key.is_null()) continue;
    auto [lo, hi] = build.equal_range(key.Hash());
    for (auto it = lo; it != hi; ++it) {
      const Row& match = *it->second;
      if (match[static_cast<size_t>(left_key_)] == key) {
        out.AppendUnchecked(ConcatRows(match, probe));
      }
    }
  }
  if (stats != nullptr) {
    stats->hash_build_rows += left.num_rows();
    stats->hash_probe_rows += right.num_rows();
  }
  return out;
}

std::string HashJoinNode::Describe(int indent) const {
  std::string out = Indent(indent) + "HASH_JOIN key_l=" +
                    std::to_string(left_key_) +
                    " key_r=" + std::to_string(right_key_) + " (est_rows=" +
                    std::to_string(static_cast<int64_t>(est_rows)) + ")\n";
  out += left_->Describe(indent + 2);
  out += right_->Describe(indent + 2);
  return out;
}

void HashJoinNode::AppendSignature(std::string* out) const {
  *out += "HJ(";
  left_->AppendSignature(out);
  *out += ",";
  right_->AppendSignature(out);
  *out += ")";
}

// ------------------------------------------------------------- MergeJoin

MergeJoinNode::MergeJoinNode(PlanPtr left, PlanPtr right, int left_key,
                             int right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(left_key),
      right_key_(right_key) {
  output_schema_ =
      Schema::Concat(left_->output_schema(), right_->output_schema());
}

Table MergeJoinNode::Execute(const Database& db, ExecStats* stats) const {
  Table left = left_->Execute(db, stats);
  Table right = right_->Execute(db, stats);

  std::vector<const Row*> lrows;
  std::vector<const Row*> rrows;
  lrows.reserve(static_cast<size_t>(left.num_rows()));
  rrows.reserve(static_cast<size_t>(right.num_rows()));
  for (const Row& r : left.rows()) lrows.push_back(&r);
  for (const Row& r : right.rows()) rrows.push_back(&r);
  auto by_key = [](int key) {
    return [key](const Row* a, const Row* b) {
      return (*a)[static_cast<size_t>(key)] < (*b)[static_cast<size_t>(key)];
    };
  };
  std::sort(lrows.begin(), lrows.end(), by_key(left_key_));
  std::sort(rrows.begin(), rrows.end(), by_key(right_key_));

  Table out("merge_join", output_schema_);
  size_t i = 0;
  size_t j = 0;
  while (i < lrows.size() && j < rrows.size()) {
    const Value& lv = (*lrows[i])[static_cast<size_t>(left_key_)];
    const Value& rv = (*rrows[j])[static_cast<size_t>(right_key_)];
    if (lv.is_null()) {
      ++i;
      continue;
    }
    if (rv.is_null()) {
      ++j;
      continue;
    }
    if (lv < rv) {
      ++i;
    } else if (rv < lv) {
      ++j;
    } else {
      // Emit the cross product of the equal-key runs.
      size_t i_end = i;
      while (i_end < lrows.size() &&
             (*lrows[i_end])[static_cast<size_t>(left_key_)] == lv) {
        ++i_end;
      }
      size_t j_end = j;
      while (j_end < rrows.size() &&
             (*rrows[j_end])[static_cast<size_t>(right_key_)] == rv) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.AppendUnchecked(ConcatRows(*lrows[a], *rrows[b]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  if (stats != nullptr) {
    stats->rows_sorted += left.num_rows() + right.num_rows();
  }
  return out;
}

std::string MergeJoinNode::Describe(int indent) const {
  std::string out = Indent(indent) + "MERGE_JOIN key_l=" +
                    std::to_string(left_key_) +
                    " key_r=" + std::to_string(right_key_) + " (est_rows=" +
                    std::to_string(static_cast<int64_t>(est_rows)) + ")\n";
  out += left_->Describe(indent + 2);
  out += right_->Describe(indent + 2);
  return out;
}

void MergeJoinNode::AppendSignature(std::string* out) const {
  *out += "MJ(";
  left_->AppendSignature(out);
  *out += ",";
  right_->AppendSignature(out);
  *out += ")";
}

// -------------------------------------------------------- NestedLoopJoin

NestedLoopJoinNode::NestedLoopJoinNode(PlanPtr left, PlanPtr right,
                                       ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  output_schema_ =
      Schema::Concat(left_->output_schema(), right_->output_schema());
}

Table NestedLoopJoinNode::Execute(const Database& db,
                                  ExecStats* stats) const {
  Table left = left_->Execute(db, stats);
  Table right = right_->Execute(db, stats);
  Table out("nl_join", output_schema_);
  for (const Row& l : left.rows()) {
    for (const Row& r : right.rows()) {
      Row joined = ConcatRows(l, r);
      if (predicate_ == nullptr || predicate_->EvalBool(joined)) {
        out.AppendUnchecked(std::move(joined));
      }
    }
  }
  if (stats != nullptr) {
    stats->nested_loop_compares += left.num_rows() * right.num_rows();
  }
  return out;
}

std::string NestedLoopJoinNode::Describe(int indent) const {
  std::string out = Indent(indent) + "NL_JOIN";
  if (predicate_ != nullptr) {
    out += " pred=" + predicate_->ToString(&output_schema_);
  }
  out += " (est_rows=" + std::to_string(static_cast<int64_t>(est_rows)) +
         ")\n";
  out += left_->Describe(indent + 2);
  out += right_->Describe(indent + 2);
  return out;
}

void NestedLoopJoinNode::AppendSignature(std::string* out) const {
  *out += "NL(";
  left_->AppendSignature(out);
  *out += ",";
  right_->AppendSignature(out);
  *out += ")";
}

// ---------------------------------------------------------------- Filter

FilterNode::FilterNode(PlanPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  output_schema_ = child_->output_schema();
}

Table FilterNode::Execute(const Database& db, ExecStats* stats) const {
  Table in = child_->Execute(db, stats);
  Table out("filter", output_schema_);
  for (const Row& row : in.rows()) {
    if (predicate_->EvalBool(row)) out.AppendUnchecked(row);
  }
  return out;
}

std::string FilterNode::Describe(int indent) const {
  return Indent(indent) + "FILTER " +
         predicate_->ToString(&output_schema_) + " (est_rows=" +
         std::to_string(static_cast<int64_t>(est_rows)) + ")\n" +
         child_->Describe(indent + 2);
}

void FilterNode::AppendSignature(std::string* out) const {
  *out += "F(";
  child_->AppendSignature(out);
  *out += ")";
}

// --------------------------------------------------------------- Project

ProjectNode::ProjectNode(PlanPtr child, std::vector<int> columns,
                         std::vector<std::string> names)
    : child_(std::move(child)), columns_(std::move(columns)) {
  assert(names.empty() || names.size() == columns_.size());
  std::vector<Column> cols;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column c = child_->output_schema().column(columns_[i]);
    if (!names.empty()) c.name = names[i];
    cols.push_back(std::move(c));
  }
  output_schema_ = Schema(std::move(cols));
}

Table ProjectNode::Execute(const Database& db, ExecStats* stats) const {
  Table in = child_->Execute(db, stats);
  Table out("project", output_schema_);
  for (const Row& row : in.rows()) {
    Row projected;
    projected.reserve(columns_.size());
    for (int c : columns_) projected.push_back(row[static_cast<size_t>(c)]);
    out.AppendUnchecked(std::move(projected));
  }
  if (stats != nullptr) stats->output_rows += out.num_rows();
  return out;
}

std::string ProjectNode::Describe(int indent) const {
  std::string out = Indent(indent) + "PROJECT [";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) out += ", ";
    out += output_schema_.column(static_cast<int>(i)).name;
  }
  return out + "]\n" + child_->Describe(indent + 2);
}

void ProjectNode::AppendSignature(std::string* out) const {
  *out += "P(";
  child_->AppendSignature(out);
  *out += ")";
}

// ------------------------------------------------------------------ Sort

SortNode::SortNode(PlanPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  output_schema_ = child_->output_schema();
}

SortNode::SortNode(PlanPtr child, std::vector<int> columns)
    : child_(std::move(child)) {
  for (int c : columns) keys_.push_back({c, false});
  output_schema_ = child_->output_schema();
}

Table SortNode::Execute(const Database& db, ExecStats* stats) const {
  Table in = child_->Execute(db, stats);
  std::vector<Row> rows = in.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& key : keys_) {
                       const Value& va = a[static_cast<size_t>(key.column)];
                       const Value& vb = b[static_cast<size_t>(key.column)];
                       if (va < vb) return !key.descending;
                       if (vb < va) return key.descending;
                     }
                     return false;
                   });
  Table out("sort", output_schema_);
  for (Row& row : rows) out.AppendUnchecked(std::move(row));
  if (stats != nullptr) stats->rows_sorted += out.num_rows();
  return out;
}

std::string SortNode::Describe(int indent) const {
  std::string out = Indent(indent) + "SORT [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i != 0) out += ", ";
    out += output_schema_.column(keys_[i].column).name;
    if (keys_[i].descending) out += " DESC";
  }
  return out + "]\n" + child_->Describe(indent + 2);
}

void SortNode::AppendSignature(std::string* out) const {
  *out += "S(";
  child_->AppendSignature(out);
  *out += ")";
}

// ----------------------------------------------------------------- Limit

LimitNode::LimitNode(PlanPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  output_schema_ = child_->output_schema();
}

Table LimitNode::Execute(const Database& db, ExecStats* stats) const {
  Table in = child_->Execute(db, stats);
  Table out("limit", output_schema_);
  int64_t n = std::min<int64_t>(limit_, in.num_rows());
  for (int64_t i = 0; i < n; ++i) out.AppendUnchecked(in.row(i));
  return out;
}

std::string LimitNode::Describe(int indent) const {
  return Indent(indent) + "LIMIT " + std::to_string(limit_) + "\n" +
         child_->Describe(indent + 2);
}

void LimitNode::AppendSignature(std::string* out) const {
  *out += "L(";
  child_->AppendSignature(out);
  *out += ")";
}

// --------------------------------------------------------------- GroupBy

GroupByNode::GroupByNode(PlanPtr child, std::vector<int> keys,
                         std::vector<Agg> aggs)
    : child_(std::move(child)), keys_(std::move(keys)),
      aggs_(std::move(aggs)) {
  std::vector<Column> cols;
  for (int k : keys_) cols.push_back(child_->output_schema().column(k));
  for (const Agg& agg : aggs_) {
    ValueType type = ValueType::kDouble;
    if (agg.fn == Aggregate::Fn::kCount) type = ValueType::kInt;
    if ((agg.fn == Aggregate::Fn::kMin || agg.fn == Aggregate::Fn::kMax) &&
        agg.column >= 0) {
      type = child_->output_schema().column(agg.column).type;
    }
    cols.push_back({agg.output_name, type});
  }
  output_schema_ = Schema(std::move(cols));
}

Table GroupByNode::Execute(const Database& db, ExecStats* stats) const {
  Table in = child_->Execute(db, stats);

  struct GroupState {
    Row key;
    std::vector<int64_t> counts;
    std::vector<double> sums;
    std::vector<Value> mins;
    std::vector<Value> maxs;
  };
  std::unordered_map<size_t, std::vector<GroupState>> groups;

  for (const Row& row : in.rows()) {
    Row key;
    key.reserve(keys_.size());
    for (int k : keys_) key.push_back(row[static_cast<size_t>(k)]);
    size_t h = HashKey(row, keys_);
    std::vector<GroupState>& bucket = groups[h];
    GroupState* state = nullptr;
    for (GroupState& g : bucket) {
      if (g.key == key) {
        state = &g;
        break;
      }
    }
    if (state == nullptr) {
      bucket.push_back(GroupState{});
      state = &bucket.back();
      state->key = std::move(key);
      state->counts.assign(aggs_.size(), 0);
      state->sums.assign(aggs_.size(), 0.0);
      state->mins.assign(aggs_.size(), Value::Null());
      state->maxs.assign(aggs_.size(), Value::Null());
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const Agg& agg = aggs_[a];
      if (agg.column < 0) {
        ++state->counts[a];
        continue;
      }
      const Value& v = row[static_cast<size_t>(agg.column)];
      if (v.is_null()) continue;
      ++state->counts[a];
      if (v.type() == ValueType::kInt || v.type() == ValueType::kDouble) {
        state->sums[a] += v.AsDouble();
      }
      if (state->mins[a].is_null() || v < state->mins[a]) state->mins[a] = v;
      if (state->maxs[a].is_null() || state->maxs[a] < v) state->maxs[a] = v;
    }
  }

  Table out("group_by", output_schema_);
  auto emit = [&](const GroupState& g) {
    Row row = g.key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].fn) {
        case Aggregate::Fn::kCount:
          row.push_back(Value(g.counts[a]));
          break;
        case Aggregate::Fn::kSum:
          row.push_back(Value(g.sums[a]));
          break;
        case Aggregate::Fn::kAvg:
          row.push_back(g.counts[a] > 0
                            ? Value(g.sums[a] /
                                    static_cast<double>(g.counts[a]))
                            : Value::Null());
          break;
        case Aggregate::Fn::kMin:
          row.push_back(g.mins[a]);
          break;
        case Aggregate::Fn::kMax:
          row.push_back(g.maxs[a]);
          break;
      }
    }
    out.AppendUnchecked(std::move(row));
  };
  for (const auto& [h, bucket] : groups) {
    for (const GroupState& g : bucket) emit(g);
  }
  // A global aggregate over zero rows still emits one row (SQL semantics
  // for COUNT/SUM over an empty input).
  if (keys_.empty() && out.num_rows() == 0) {
    GroupState g;
    g.counts.assign(aggs_.size(), 0);
    g.sums.assign(aggs_.size(), 0.0);
    g.mins.assign(aggs_.size(), Value::Null());
    g.maxs.assign(aggs_.size(), Value::Null());
    emit(g);
  }
  if (stats != nullptr) stats->rows_grouped += in.num_rows();
  return out;
}

std::string GroupByNode::Describe(int indent) const {
  std::string out = Indent(indent) + "GROUP_BY keys=" +
                    std::to_string(keys_.size()) +
                    " aggs=" + std::to_string(aggs_.size()) + "\n";
  return out + child_->Describe(indent + 2);
}

void GroupByNode::AppendSignature(std::string* out) const {
  *out += "G(";
  child_->AppendSignature(out);
  *out += ")";
}

}  // namespace qa::dbms
