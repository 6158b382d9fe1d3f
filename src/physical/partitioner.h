#pragma once

#include <cstdint>
#include <vector>

#include "plan/logical_plan.h"

/// \file partitioner.h
/// \brief The one-pass partitioner behind the shared stage lowering
/// (stage_lowering.h): Zipf partition sizes, the AQE skew split (s6/s7)
/// and coalesce (s1/s10/s11) folded into a single streaming pass that
/// writes run-length partitions into caller-owned scratch.
///
/// Sizes come from a ZipfTable built once per plan owner (the planner,
/// the analytic model) instead of one std::pow per partition, and the
/// skew split's median is read off the table instead of a sorted copy.
/// Output is bit-identical to the materializing rules it replaces,
/// `ApplyCoalesce(ApplySkewSplit(SkewedPartitionSizes(...)))`
/// (physical_plan.h), which stay as test oracles;
/// tests/physical/partitioning_property_test.cc pins the equivalence.

namespace sparkopt {

/// Largest number of partitions a stage is lowered with (before the
/// skew split); also the length of every ZipfTable.
inline constexpr int kMaxStagePartitions = 4096;

/// \brief Immutable Zipf weights p[i] = (i+1)^{-2z} and their running
/// sums S[n] = p[0] + ... + p[n-1], added in index order, for
/// i, n <= kMaxStagePartitions. Partition i of n then holds
/// total * (p[i] / S[n]) bytes, bit for bit what a per-call pow-and-sum
/// yields.
class ZipfTable {
 public:
  explicit ZipfTable(double z, int size = kMaxStagePartitions);
  /// A table over explicit weights (tests of the non-monotone median
  /// fallback); `z` is only its lookup key.
  ZipfTable(double z, std::vector<double> weights);

  double z() const { return z_; }
  int size() const { return static_cast<int>(weight_.size()); }
  double Weight(int i) const { return weight_[i]; }
  /// Sum of the first `n` weights; Sum(0) == 0.
  double Sum(int n) const { return sum_[n]; }
  /// Whether the weights never increase, checked once at construction:
  /// the skew-split median is then p[n-1-n/2] instead of a selection.
  bool non_increasing() const { return non_increasing_; }

 private:
  void Finish();

  double z_;
  std::vector<double> weight_;
  std::vector<double> sum_;  ///< size() + 1 running sums
  bool non_increasing_ = true;
};

/// \brief The Zipf tables of one plan: one per distinct nonzero
/// `shuffle_skew` among its operators. A stage's skew is the max over
/// its operators, so every stage of the plan finds its table here.
class ZipfTables {
 public:
  ZipfTables() = default;
  explicit ZipfTables(const LogicalPlan& plan);

  /// The table for skew `z`, or nullptr when the plan has none.
  const ZipfTable* Find(double z) const;

 private:
  std::vector<ZipfTable> tables_;
};

/// `count` consecutive partitions of `bytes` each.
struct PartitionRun {
  double bytes = 0.0;
  int64_t count = 0;
};

/// AQE's skew-split rule (s6/s7); see ApplySkewSplit.
struct SkewSplitRule {
  double threshold_mb = 0.0;
  double factor = 0.0;
  double advisory_mb = 0.0;
};

/// AQE's coalesce/rebalance rule (s1, s10, s11); see ApplyCoalesce.
struct CoalesceRule {
  double advisory_mb = 0.0;
  double small_factor = 0.0;
  double min_size_mb = 0.0;
};

/// \brief Caller-owned buffers of the partitioner. Reused across calls,
/// they stop allocating once grown to their high-water mark.
struct PartitionScratch {
  /// Output: the partitions in order, adjacent runs differing in bytes.
  std::vector<PartitionRun> runs;
  /// Median fallback for a table whose weights increase somewhere.
  std::vector<double> sizes;
};

/// \brief Splits `total` bytes into `n` (1..kMaxStagePartitions) Zipf
/// partitions drawn from `zipf` (nullptr: uniform, z = 0), then applies
/// `split` and `coalesce` when given, in one pass. Writes the result to
/// scratch->runs and returns the partition count.
int64_t PartitionRuns(double total, int n, const ZipfTable* zipf,
                      const SkewSplitRule* split,
                      const CoalesceRule* coalesce,
                      PartitionScratch* scratch);

/// Expands `runs` into one entry per partition.
void ExpandRuns(const std::vector<PartitionRun>& runs,
                std::vector<double>* partition_bytes);

}  // namespace sparkopt
