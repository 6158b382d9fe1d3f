#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "physical/partitioner.h"
#include "physical/physical_plan.h"

/// \file stage_lowering.h
/// \brief The one per-stage lowering, shared by the physical planner and
/// the analytic subQ model (SubQEvaluator): the cardinality view, the
/// join-algorithm rule, input/shuffle/broadcast accounting, CPU work,
/// output size and partitioning (scan splits, then Zipf sizes, skew
/// split and coalesce in the one-pass partitioner, partitioner.h).
///
/// The planner lowers every stage it forms, BHJ-merged ones included
/// (stage formation stays the planner's); the model lowers each subQ as
/// a stage of its own (LowerSubQuery). The one thing that differs by
/// purpose is the CPU-work rule, a named argument of every call.

namespace sparkopt {

/// Per-operator CPU-work rule of a lowering. stage_lowering.cc keeps both
/// rule sets side by side and says why they are not merged.
enum class CpuWorkRule {
  kExecuted,  ///< what the simulator runs: the planner's stages
  kAnalytic,  ///< the analytic model's rule (SubQEvaluator)
};

/// Outcome of the join-algorithm rule for one join operator.
struct JoinChoice {
  JoinAlgo algo = JoinAlgo::kSortMergeJoin;
  int build = -1;         ///< build-side child: the smaller believed side
  double build_mb = 0.0;  ///< believed build-side size
};

/// \brief Everything a lowering reads besides the stage's member
/// operators. A bundle of borrowed pointers: building one allocates
/// nothing.
struct StageLowering {
  const LogicalPlan* plan = nullptr;
  /// op id -> subQ id (LogicalPlan::SubQueryOfOp).
  const std::vector<int>* subq_of_op = nullptr;
  /// Cardinality view: true values under kTrue and for operators of the
  /// subQs marked in `completed` (may be null); CBO estimates otherwise.
  CardinalitySource source = CardinalitySource::kEstimated;
  const std::vector<bool>* completed = nullptr;
  const ContextParams* theta_c = nullptr;
  /// One entry per subQ, or a single entry shared by every subQ.
  const PlanParams* theta_p = nullptr;
  size_t num_theta_p = 1;
  const StageParams* theta_s = nullptr;
  size_t num_theta_s = 1;
  /// subQ id -> stage id when stages merge subQs (the planner); the
  /// lowering then also fills `deps` and `broadcast_deps`. Null: every
  /// subQ is its own stage and the stage id is the subQ id.
  const std::vector<int>* stage_of_subq = nullptr;
  /// The plan's Zipf tables, built once by the owner of this lowering.
  /// Null (or missing a stage's skew): the lowering builds the table it
  /// needs on each call.
  const ZipfTables* zipf = nullptr;

  bool Known(int op) const {
    if (source == CardinalitySource::kTrue) return true;
    if (completed == nullptr) return false;
    const int sq = (*subq_of_op)[op];
    return sq >= 0 && sq < static_cast<int>(completed->size()) &&
           (*completed)[sq];
  }
  double Rows(int op) const {
    const auto& o = plan->op(op);
    return Known(op) ? o.true_rows : o.est_rows;
  }
  double Bytes(int op) const {
    const auto& o = plan->op(op);
    return Known(op) ? o.true_bytes : o.est_bytes;
  }
  const PlanParams& ThetaP(int subq) const {
    return theta_p[num_theta_p == 1
                       ? 0
                       : std::min<size_t>(subq, num_theta_p - 1)];
  }
  const StageParams& ThetaS(int subq) const {
    return theta_s[num_theta_s == 1
                       ? 0
                       : std::min<size_t>(subq, num_theta_s - 1)];
  }
};

/// \brief The join-algorithm rule (s3/s4 thresholds plus AQE's BHJ
/// demotion) for join operator `op`, under the theta_p of its subQ.
JoinChoice ChooseJoin(const StageLowering& lw, int op);

/// \brief Lowers a stage whose `id`, `subq_id` and `op_ids` (member
/// operators in topological order) are set: fills every other field.
/// `scratch`, when given, is reused for the partitioner's runs.
void LowerStage(const StageLowering& lw, CpuWorkRule cpu_rule,
                QueryStage* st, PartitionScratch* scratch = nullptr);

/// \brief LowerStage without materializing the partitions: lowers the
/// member operators `op_ids` into `st` (whose own `op_ids` is not read)
/// and leaves the partitions as runs in scratch->runs, with
/// `st->partition_bytes` untouched. With a ZipfTables in `lw` and a
/// reused scratch this allocates nothing (the analytic model's path).
void LowerStageRuns(const StageLowering& lw, CpuWorkRule cpu_rule,
                    std::span<const int> op_ids, QueryStage* st,
                    PartitionScratch* scratch);

/// \brief The stage `subq` becomes on its own (stage id = subQ id).
QueryStage LowerSubQuery(const StageLowering& lw, const SubQuery& subq,
                         CpuWorkRule cpu_rule);

}  // namespace sparkopt
