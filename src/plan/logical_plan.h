#pragma once

#include <string>
#include <vector>

#include "common/status.h"

/// \file logical_plan.h
/// \brief Logical query plans as operator DAGs, plus the compile-time
/// "subQ" decomposition from Section 4.1 of the paper: a subQ is the group
/// of logical operators that will correspond to one query stage once the
/// plan is physically planned.

namespace sparkopt {

/// Logical operator kinds. The set mirrors what the paper's plans contain
/// (TPC-H/TPC-DS join trees with filters, projections, aggregates, sorts).
enum class OpType {
  kScan = 0,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kUnion,
  kNumOpTypes
};

const char* OpTypeName(OpType t);

/// Statistics of one base table (set by the workload generators).
struct TableStats {
  std::string name;
  double rows = 0.0;
  double row_bytes = 64.0;
  /// Zipf-like key-skew factor in [0,1]: 0 = uniform partition sizes,
  /// 1 = heavily skewed. Drives the beta non-decision features and the
  /// skew-join rules (s6/s7).
  double skew = 0.0;
};

/// \brief One logical operator. Cardinality fields are filled by
/// CardinalityModel: `true_*` is what execution will observe, `est_*` is
/// what the cost-based optimizer believes at compile time.
struct LogicalOperator {
  int id = -1;
  OpType type = OpType::kScan;
  std::vector<int> children;  ///< ids of input operators

  int table_id = -1;          ///< for kScan: index into the catalog
  double selectivity = 1.0;   ///< kFilter: fraction of rows kept
  /// kJoin: output rows = factor * max(child rows); kAggregate: output
  /// rows = factor * input rows (group-count ratio); kLimit: absolute rows.
  double cardinality_factor = 1.0;
  double out_row_bytes = 64.0;  ///< output row width in bytes
  /// kJoin / kAggregate: whether the operator repartitions its input
  /// (false when grouping keys match the incoming partitioning, in which
  /// case it pipelines into the child's stage).
  bool requires_shuffle = false;
  /// Key-skew factor of the shuffle this operator induces, in [0,1].
  double shuffle_skew = 0.0;
  /// Predicate / expression tokens, hashed into model features (the
  /// stand-in for the paper's word-embedding predicate channel).
  std::vector<std::string> predicate_tokens;

  // ---- filled by CardinalityModel ----
  double true_rows = 0.0;
  double true_bytes = 0.0;
  double est_rows = 0.0;
  double est_bytes = 0.0;
};

/// \brief A compile-time stage: group of logical operators mapping to one
/// query stage (Section 4.1). subQs form a DAG via `deps`.
struct SubQuery {
  int id = -1;
  std::vector<int> op_ids;   ///< member operators, topological order
  std::vector<int> deps;     ///< upstream subQ ids (data dependencies)
  int root_op = -1;          ///< last operator in the group
  bool has_scan = false;     ///< reads base tables (leaf stage)
  bool has_join = false;     ///< contains the probe side of a join
};

/// \brief A logical plan: an operator DAG with a single root.
///
/// Operators are stored by id; the structure is immutable after Build()
/// except for cardinality annotations.
class LogicalPlan {
 public:
  LogicalPlan() = default;

  /// Adds an operator; its `id` is assigned and returned.
  int AddOperator(LogicalOperator op);

  LogicalOperator& op(int id) { return ops_[id]; }
  const LogicalOperator& op(int id) const { return ops_[id]; }
  size_t num_ops() const { return ops_.size(); }
  int root() const { return root_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Finalizes the DAG: validates child references, finds the root
  /// (unique op that is no one's child), computes the topological order.
  Status Build();

  /// Operator ids in topological (children-first) order.
  const std::vector<int>& TopologicalOrder() const { return topo_; }

  /// Ids of operators that consume op `id` (filled by Build()).
  const std::vector<int>& Parents(int id) const { return parents_[id]; }

  /// \brief Decomposes the plan into subQs (compile-time stages): a new
  /// subQ starts at every scan and at every shuffle-inducing operator;
  /// other operators pipeline into their child's subQ. Requires Build().
  std::vector<SubQuery> DecomposeSubQueries() const;

  /// \brief op id -> id of the subQ in `subqs` holding it (-1 when none
  /// does; DCHECKed not to happen for a decomposition of this plan).
  std::vector<int> SubQueryOfOp(const std::vector<SubQuery>& subqs) const;

  /// Number of joins in the plan (used by workload stats and benches).
  int CountOps(OpType t) const;

 private:
  std::string name_;
  std::vector<LogicalOperator> ops_;
  std::vector<std::vector<int>> parents_;
  std::vector<int> topo_;
  int root_ = -1;
};

}  // namespace sparkopt
