#pragma once

#include <vector>

#include "common/status.h"
#include "params/spark_params.h"
#include "physical/partitioner.h"
#include "plan/logical_plan.h"

/// \file physical_plan.h
/// \brief Physical query plans: the result of applying Spark's parametric
/// optimization rules (join-algorithm selection via s3/s4, partition
/// sizing via s1/s5/s8/s9, skew splitting via s6/s7) to a logical plan
/// under a concrete configuration.
///
/// A physical plan is a DAG of query stages (QS). Broadcast hash joins
/// merge the join into its probe child's stage and turn the build child's
/// stage into a broadcast dependency, exactly the structural change AQE
/// exploits at runtime.

namespace sparkopt {

/// Join algorithm chosen by the parametric rules.
enum class JoinAlgo {
  kSortMergeJoin = 0,   ///< SMJ: shuffle both sides, sort, merge
  kShuffledHashJoin,    ///< SHJ: shuffle both sides, hash the build side
  kBroadcastHashJoin    ///< BHJ: broadcast the build side, pipeline probe
};

const char* JoinAlgoName(JoinAlgo a);

/// Per-join decision record (op id -> algorithm), for inspection and for
/// the Figure 3(b) analysis.
struct JoinDecision {
  int op_id = -1;
  JoinAlgo algo = JoinAlgo::kSortMergeJoin;
  double build_side_mb = 0.0;  ///< believed build-side size at decision time
  int build_op = -1;           ///< logical op id of the chosen build side
};

/// \brief One executable query stage.
struct QueryStage {
  int id = -1;
  int subq_id = -1;            ///< canonical subQ this stage realizes
  std::vector<int> op_ids;     ///< logical operators executed here
  std::vector<int> deps;       ///< stages shuffled into this one
  std::vector<int> broadcast_deps;  ///< stages broadcast into this one

  int num_partitions = 1;      ///< number of parallel tasks
  /// Per-partition input bytes after partitioning rules (skew split,
  /// coalesce, rebalance). Drives task latencies and the beta features.
  std::vector<double> partition_bytes;

  double input_rows = 0.0;     ///< total rows entering the stage
  double input_bytes = 0.0;    ///< total bytes entering the stage
  double output_rows = 0.0;    ///< rows produced by the stage root
  double output_bytes = 0.0;
  double shuffle_read_bytes = 0.0;   ///< bytes read over the network
  double broadcast_bytes = 0.0;      ///< bytes received via broadcast
  bool is_scan_stage = false;
  bool exchanges_output = true;      ///< writes a shuffle (non-root stages)

  /// Sum over member operators of (per-row CPU weight x rows processed);
  /// the task cost model divides this across partitions.
  double cpu_work = 0.0;
  /// Extra n log n work (sorts, SMJ) already folded into cpu_work, kept
  /// separately for inspection.
  double sort_work = 0.0;
  JoinAlgo join_algo = JoinAlgo::kSortMergeJoin;
  bool has_join = false;
};

/// \brief A physical plan: stage DAG plus join decisions.
struct PhysicalPlan {
  std::vector<QueryStage> stages;
  std::vector<JoinDecision> join_decisions;

  int CountJoins(JoinAlgo algo) const;
};

/// How the planner should read operator cardinalities.
enum class CardinalitySource {
  kEstimated,  ///< compile time: CBO estimates
  kTrue        ///< runtime/oracle: observed cardinalities
};

/// \brief Applies the parametric physical-planning rules.
///
/// `theta_p_per_subq` supplies one PlanParams per canonical subQ
/// (fine-grained tuning); pass a single-element vector for query-level
/// (coarse) control — it is then used for every subQ. `theta_s_per_subq`
/// likewise. `completed_subqs`, if non-empty, marks subQs whose true
/// cardinalities are known (AQE re-planning): operators inside them read
/// true stats regardless of `source`.
///
/// The planner decides join algorithms, merges BHJ subQs into their probe
/// stage, and lowers each stage it forms through LowerStage
/// (stage_lowering.h), the lowering the analytic model shares. The
/// plan's Zipf tables are built once, here, for every Plan call.
class PhysicalPlanner {
 public:
  PhysicalPlanner(const LogicalPlan* plan, std::vector<SubQuery> subqs)
      : plan_(plan),
        subqs_(std::move(subqs)),
        subq_of_(plan->SubQueryOfOp(subqs_)),
        zipf_(*plan) {}

  Result<PhysicalPlan> Plan(const ContextParams& theta_c,
                            const std::vector<PlanParams>& theta_p_per_subq,
                            const std::vector<StageParams>& theta_s_per_subq,
                            CardinalitySource source,
                            const std::vector<bool>& completed_subqs = {}) const;

  const std::vector<SubQuery>& subqueries() const { return subqs_; }
  /// op id -> subQ id.
  const std::vector<int>& subq_of_op() const { return subq_of_; }

 private:
  const LogicalPlan* plan_;
  std::vector<SubQuery> subqs_;
  std::vector<int> subq_of_;  ///< op id -> subQ id
  ZipfTables zipf_;
};

// ---- Materializing partitioning rules: test oracles --------------------
// The lowering partitions through PartitionRuns (partitioner.h), which
// must match ApplyCoalesce(ApplySkewSplit(SkewedPartitionSizes(...))) bit
// for bit. These stay as the readable reference it is tested against;
// no production code calls them (lint rule stage-lowering).

/// \brief Builds the per-partition byte distribution for `total_bytes`
/// split into `n` partitions with Zipf-like skew `z` in [0,1] (0 =
/// uniform). Deterministic.
std::vector<double> SkewedPartitionSizes(double total_bytes, int n, double z);

/// \brief Runtime skew-split rule (s6/s7): splits any partition larger
/// than max(threshold_mb, factor x median) into advisory-sized chunks.
std::vector<double> ApplySkewSplit(std::vector<double> partition_bytes,
                                   double threshold_mb, double factor,
                                   double advisory_mb);

/// \brief Runtime coalesce/rebalance rule (s1, s10, s11): greedily merges
/// adjacent partitions smaller than max(min_size_mb,
/// small_factor x advisory_mb) up to the advisory size.
std::vector<double> ApplyCoalesce(std::vector<double> partition_bytes,
                                  double advisory_mb, double small_factor,
                                  double min_size_mb);

}  // namespace sparkopt
