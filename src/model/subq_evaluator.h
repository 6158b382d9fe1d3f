#pragma once

#include <cstddef>
#include <vector>

#include "exec/cost_model.h"
#include "physical/partitioner.h"
#include "physical/stage_lowering.h"
#include "workload/builder.h"

/// \file subq_evaluator.h
/// \brief Per-subQ objective evaluation: the phi_j(subQ_i, theta_c,
/// theta_p_i, theta_s_i) functions that HMOOC optimizes (Definition 5.1).
///
/// Each subQ is costed as the query stage it will become, lowered by the
/// physical planner's own function (physical/stage_lowering.h): input
/// sizes come from child subQ roots (CBO estimates at compile time, true
/// values at runtime), the join algorithm follows the parametric
/// thresholds, and the objectives are the paper's analytical latency
/// (sum of task latencies / total cores) plus the decomposable
/// cloud-cost share (CPU-hour + memory-hour + IO priced per subQ).
///
/// Because operator cardinalities do not depend on the configuration,
/// subQ objectives are exactly separable given theta_c — the property
/// HMOOC's hierarchical decomposition relies on.

namespace sparkopt {

/// Objective values of one subQ under one configuration.
struct SubQObjectives {
  double analytical_latency = 0.0;  ///< seconds
  double io_bytes = 0.0;
  double cost = 0.0;                ///< dollars (decomposable share)
};

/// \brief Evaluates subQs of one query as standalone stages.
class SubQEvaluator {
 public:
  /// The trailing size_t is ignored; perfbench/trace.cc and
  /// perfbench/service.cc still pass it.
  SubQEvaluator(const Query* query, const ClusterSpec& cluster,
                const CostModelParams& cost_params,
                const PriceBook& prices = PriceBook(), size_t = 0);

  int num_subqs() const { return static_cast<int>(subqs_.size()); }
  const std::vector<SubQuery>& subqueries() const { return subqs_; }
  /// op id -> subQ id.
  const std::vector<int>& subq_of_op() const { return subq_of_op_; }
  const Query& query() const { return *query_; }

  /// \brief Builds the query stage this subQ becomes under the given
  /// parameters (used both for costing and for feature extraction):
  /// the planner's own lowering (LowerSubQuery, stage_lowering.h) with
  /// the analytic CPU-work rule.
  ///
  /// `completed_subqs`, if non-null, marks subQs whose true statistics
  /// are known at runtime: operators inside them read true cardinalities
  /// regardless of `source` (the information the runtime optimizer
  /// actually has mid-query).
  QueryStage BuildStage(int subq_id, const ContextParams& theta_c,
                        const PlanParams& theta_p,
                        const StageParams& theta_s,
                        CardinalitySource source,
                        const std::vector<bool>* completed_subqs =
                            nullptr) const;

  /// Objectives of one subQ. Compile time: source = kEstimated, uniform
  /// partition assumption is still subject to operator skew annotations
  /// (matching the planner). Costs the stage BuildStage returns, but
  /// lowers it without materializing partitions (LowerStageRuns) and
  /// prices each run of equal partitions once: after the first call on
  /// a thread it allocates nothing.
  SubQObjectives Evaluate(int subq_id, const ContextParams& theta_c,
                          const PlanParams& theta_p,
                          const StageParams& theta_s,
                          CardinalitySource source,
                          const std::vector<bool>* completed_subqs =
                              nullptr) const;

  const TaskCostModel& cost_model() const { return cost_model_; }

 private:
  StageLowering Lowering(const ContextParams& theta_c,
                         const PlanParams& theta_p,
                         const StageParams& theta_s, CardinalitySource source,
                         const std::vector<bool>* completed_subqs) const;

  const Query* query_;
  std::vector<SubQuery> subqs_;
  std::vector<int> subq_of_op_;
  ZipfTables zipf_;
  TaskCostModel cost_model_;
  PriceBook prices_;
};

}  // namespace sparkopt
