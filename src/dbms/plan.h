#ifndef QAMARKET_DBMS_PLAN_H_
#define QAMARKET_DBMS_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dbms/expr.h"
#include "dbms/query_ast.h"
#include "dbms/table.h"

namespace qa::dbms {

class Database;

/// Counters collected while executing a physical plan. The per-table byte
/// counts feed the buffer-pool model: a node's actual I/O time depends on
/// which of these tables were cached (exactly the effect the paper saw
/// EXPLAIN PLAN miss, §5.2).
struct ExecStats {
  int64_t rows_scanned = 0;
  /// Bytes read per base table (before cache adjustment).
  std::map<std::string, int64_t> table_bytes;
  int64_t hash_build_rows = 0;
  int64_t hash_probe_rows = 0;
  int64_t nested_loop_compares = 0;
  int64_t rows_sorted = 0;
  int64_t rows_grouped = 0;
  int64_t output_rows = 0;
};

/// A node of a physical query plan. Execution is materialized: each
/// operator consumes its children's full output tables.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  const Schema& output_schema() const { return output_schema_; }

  /// Cardinality/size estimates filled in by the planner (these are what
  /// EXPLAIN reports; they deliberately know nothing about caching).
  double est_rows = 0.0;
  double est_bytes = 0.0;

  virtual Table Execute(const Database& db, ExecStats* stats) const = 0;

  /// Multi-line EXPLAIN-style rendering.
  virtual std::string Describe(int indent = 0) const = 0;

  /// Appends this subtree's shape (operators + table names, no constants)
  /// to `out`; equal signatures identify "queries with the same plan" for
  /// the execution-history estimator (§5.2).
  virtual void AppendSignature(std::string* out) const = 0;

  std::string Signature() const {
    std::string s;
    AppendSignature(&s);
    return s;
  }

 protected:
  Schema output_schema_;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// Sequential scan of a base table, with an optional pushed-down filter.
class ScanNode : public PlanNode {
 public:
  ScanNode(std::string table_name, Schema schema, ExprPtr filter);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

  const std::string& table_name() const { return table_name_; }

 private:
  std::string table_name_;
  ExprPtr filter_;  // may be null
};

/// Hash join on single-column equi keys (build = left input).
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right, int left_key, int right_key);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  int left_key_;
  int right_key_;
};

/// Sort-merge join on single-column equi keys (the fallback when a node
/// lacks hash-join capability; also exercised directly by tests).
class MergeJoinNode : public PlanNode {
 public:
  MergeJoinNode(PlanPtr left, PlanPtr right, int left_key, int right_key);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  int left_key_;
  int right_key_;
};

/// Nested-loop join with an arbitrary predicate (null = cross product).
class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanPtr left, PlanPtr right, ExprPtr predicate);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  ExprPtr predicate_;
};

/// Filter over an arbitrary child.
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

/// Projection to a list of child-output columns (optionally renamed).
class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanPtr child, std::vector<int> columns,
              std::vector<std::string> names);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr child_;
  std::vector<int> columns_;
};

/// Sort key: a child column plus direction.
struct SortKey {
  int column = 0;
  bool descending = false;
};

/// Full sort on a key list.
class SortNode : public PlanNode {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys);
  /// Convenience: ascending sort on a plain column list.
  SortNode(PlanPtr child, std::vector<int> columns);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
};

/// Emits at most `limit` rows of its child.
class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr child, int64_t limit);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr child_;
  int64_t limit_;
};

/// Hash aggregation: GROUP BY `keys` computing `aggregates` over child
/// columns. With empty keys, a single global group.
class GroupByNode : public PlanNode {
 public:
  struct Agg {
    Aggregate::Fn fn;
    /// Child column the aggregate reads (-1 for COUNT(*)).
    int column;
    std::string output_name;
  };

  GroupByNode(PlanPtr child, std::vector<int> keys, std::vector<Agg> aggs);

  Table Execute(const Database& db, ExecStats* stats) const override;
  std::string Describe(int indent) const override;
  void AppendSignature(std::string* out) const override;

 private:
  PlanPtr child_;
  std::vector<int> keys_;
  std::vector<Agg> aggs_;
};

}  // namespace qa::dbms

#endif  // QAMARKET_DBMS_PLAN_H_
