/// \file partitioning_property_test.cc
/// \brief Property tests for the partitioning rules (the s1/s5-s7/s10/s11
/// machinery): mass conservation, size bounds, and monotonicity across
/// randomized sweeps; the one-pass partitioner checked, bit for bit,
/// against the materializing rules it replaces; and the analytic model's
/// costing of a subQ checked, bit for bit, against the stage BuildStage
/// materializes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>

#include "common/rng.h"
#include "model/subq_evaluator.h"
#include "params/sampler.h"
#include "physical/partitioner.h"
#include "physical/physical_plan.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

class PartitionRulesPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(PartitionRulesPropertyTest, SkewedSizesConserveMassAndOrder) {
  for (int trial = 0; trial < 20; ++trial) {
    const double total = rng_.Uniform(1.0, 1e11);
    const int n = 1 + static_cast<int>(rng_.NextBounded(2048));
    const double z = rng_.Uniform();
    auto sizes = SkewedPartitionSizes(total, n, z);
    ASSERT_EQ(sizes.size(), static_cast<size_t>(n));
    EXPECT_NEAR(Sum(sizes), total, total * 1e-9);
    // Zipf weights are non-increasing.
    for (size_t i = 1; i < sizes.size(); ++i) {
      EXPECT_LE(sizes[i], sizes[i - 1] + 1e-9);
    }
    for (double s : sizes) EXPECT_GE(s, 0.0);
  }
}

TEST_P(PartitionRulesPropertyTest, HigherSkewRaisesMaxPartition) {
  const double total = 1e9;
  const int n = 64;
  double prev_max = 0.0;
  for (double z = 0.0; z <= 1.0; z += 0.25) {
    auto sizes = SkewedPartitionSizes(total, n, z);
    EXPECT_GE(sizes[0], prev_max - 1e-6);
    prev_max = sizes[0];
  }
}

TEST_P(PartitionRulesPropertyTest, SkewSplitConservesMassAndBoundsPieces) {
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng_.NextBounded(256));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.1, 4096.0) * kMb;
    const double threshold = rng_.Uniform(32, 1024);
    const double factor = rng_.Uniform(2, 10);
    const double advisory = rng_.Uniform(8, 256);
    auto out = ApplySkewSplit(parts, threshold, factor, advisory);
    EXPECT_NEAR(Sum(out), Sum(parts), Sum(parts) * 1e-9);
    EXPECT_GE(out.size(), parts.size());
    // Split pieces never exceed the split trigger size itself.
    std::vector<double> sorted = parts;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double limit = std::max(threshold * kMb, factor * median);
    for (double b : out) EXPECT_LE(b, std::max(limit, advisory * kMb) + 1);
  }
}

TEST_P(PartitionRulesPropertyTest, CoalesceConservesMassNeverGrowsCount) {
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng_.NextBounded(512));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.01, 256.0) * kMb;
    const double advisory = rng_.Uniform(8, 256);
    const double small_factor = rng_.Uniform(0.1, 0.5);
    const double min_size = rng_.Uniform(1, 64);
    auto out = ApplyCoalesce(parts, advisory, small_factor, min_size);
    EXPECT_NEAR(Sum(out), Sum(parts), Sum(parts) * 1e-9 + 1e-6);
    EXPECT_LE(out.size(), parts.size());
    EXPECT_GE(out.size(), 1u);
  }
}

TEST_P(PartitionRulesPropertyTest, SplitThenCoalesceStableMass) {
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng_.NextBounded(128));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.1, 2048.0) * kMb;
    const double before = Sum(parts);
    auto out = ApplyCoalesce(
        ApplySkewSplit(parts, 256, 5, 64), 64, 0.2, 1);
    EXPECT_NEAR(Sum(out), before, before * 1e-9 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRulesPropertyTest,
                         ::testing::Values(3, 7, 31, 127, 8191));

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::vector<Query> AllPlans(const std::vector<TableStats>* tpch,
                            const std::vector<TableStats>* tpcds) {
  std::vector<Query> queries = TpchBenchmark(tpch);
  for (Query& q : TpcdsBenchmark(tpcds)) queries.push_back(std::move(q));
  return queries;
}

// The objectives of a materialized stage, costed one partition at a time
// (every partition at once when all are equal).
SubQObjectives CostMaterializedStage(const SubQEvaluator& eval,
                                     const QueryStage& st,
                                     const ContextParams& tc) {
  const TaskCostModel& cm = eval.cost_model();
  const std::vector<double>& pb = st.partition_bytes;
  const bool uniform =
      std::all_of(pb.begin(), pb.end(), [&](double b) { return b == pb[0]; });
  double task_sum = 0.0;
  if (uniform && st.num_partitions > 1) {
    task_sum = st.num_partitions * cm.TaskLatency(st, 0, tc, /*seed=*/0);
  } else {
    for (int t = 0; t < st.num_partitions; ++t) {
      task_sum += cm.TaskLatency(st, t, tc, /*seed=*/0);
    }
  }
  const int cores = std::min(tc.TotalCores(), cm.cluster().TotalCores());
  SubQObjectives obj;
  obj.analytical_latency =
      task_sum / std::max(cores, 1) + cm.StageSetupLatency(st, tc);
  obj.io_bytes = cm.StageIoBytes(st, tc);
  obj.cost = CloudCost(PriceBook(), cores,
                       tc.executor_memory_gb * tc.executor_instances,
                       obj.analytical_latency,
                       obj.io_bytes / (1024.0 * 1024.0 * 1024.0));
  return obj;
}

// Evaluate must cost exactly the stage BuildStage returns, over every
// subQ of the 124 plans, LHS confs, and the estimated and mid-query
// (first half of the subQs completed) cardinality views.
TEST(AnalyticEvaluateTest, MatchesPartitionSumOverBuiltStage) {
  const std::vector<TableStats> tpch = TpchCatalog(100.0);
  const std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  const std::vector<Query> queries = AllPlans(&tpch, &tpcds);
  ASSERT_EQ(queries.size(), 124u);
  Rng rng(23);
  std::vector<std::vector<double>> confs = {DefaultSparkConfig()};
  for (auto& c : SampleLatinHypercube(SparkParamSpace(), 4, &rng)) {
    confs.push_back(std::move(c));
  }
  int compared = 0, mismatched = 0;
  std::string first;
  for (const Query& q : queries) {
    const SubQEvaluator eval(&q, ClusterSpec{}, CostModelParams{});
    std::vector<bool> half(eval.num_subqs(), false);
    std::fill(half.begin(), half.begin() + half.size() / 2, true);
    const std::vector<bool>* const views[] = {nullptr, &half};
    for (size_t c = 0; c < confs.size(); ++c) {
      const ContextParams tc = DecodeContext(confs[c]);
      const PlanParams tp = DecodePlan(confs[c]);
      const StageParams ts = DecodeStage(confs[c]);
      for (const std::vector<bool>* completed : views) {
        for (int sq = 0; sq < eval.num_subqs(); ++sq) {
          const SubQObjectives got = eval.Evaluate(
              sq, tc, tp, ts, CardinalitySource::kEstimated, completed);
          const SubQObjectives want = CostMaterializedStage(
              eval,
              eval.BuildStage(sq, tc, tp, ts, CardinalitySource::kEstimated,
                              completed),
              tc);
          ++compared;
          if (SameBits(got.analytical_latency, want.analytical_latency) &&
              SameBits(got.io_bytes, want.io_bytes) &&
              SameBits(got.cost, want.cost)) {
            continue;
          }
          if (mismatched++ == 0) {
            first = q.name + " conf " + std::to_string(c) + " subQ " +
                    std::to_string(sq);
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 10000);
  EXPECT_EQ(mismatched, 0) << "first mismatch: " << first;
}

// Adds the distinct nonzero operator skews of `plan` to `skews`.
void AddSkews(const LogicalPlan& plan, std::vector<double>* skews) {
  for (int id : plan.TopologicalOrder()) {
    const double z = plan.op(id).shuffle_skew;
    if (z != 0.0 && std::find(skews->begin(), skews->end(), z) == skews->end()) {
      skews->push_back(z);
    }
  }
}

// Compares the expanded runs of the last PartitionRuns call (which
// returned `count`) against `want`; returns "" or the first difference.
std::string CompareRuns(const PartitionScratch& scratch, int64_t count,
                        const std::vector<double>& want) {
  for (size_t i = 1; i < scratch.runs.size(); ++i) {
    if (scratch.runs[i].bytes == scratch.runs[i - 1].bytes) {
      return "adjacent runs with equal bytes";
    }
  }
  std::vector<double> got;
  ExpandRuns(scratch.runs, &got);
  if (count != static_cast<int64_t>(got.size())) return "returned count";
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i], want[i])) return "partition " + std::to_string(i);
  }
  return "";
}

// The one-pass partitioner against ApplyCoalesce(ApplySkewSplit(
// SkewedPartitionSizes(...))) for every n in 1..kMaxStagePartitions:
// z cycles through 0, the workload's skews and uniform [0, 1]; the rule
// thresholds, advisory size and theta_s factors come from an LHS sweep.
TEST(OnePassPartitionerTest, MatchesMaterializedRulesBitForBit) {
  const std::vector<TableStats> tpch = TpchCatalog(100.0);
  const std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  std::vector<double> skews;
  for (const Query& q : AllPlans(&tpch, &tpcds)) AddSkews(q.plan, &skews);
  ASSERT_FALSE(skews.empty());
  std::vector<ZipfTable> workload_tables;
  for (double z : skews) workload_tables.emplace_back(z);

  Rng rng(29);
  const auto lhs =
      SampleLatinHypercube(SparkParamSpace(), kMaxStagePartitions, &rng);
  PartitionScratch scratch;
  int split_cases = 0, coalesced_cases = 0, mismatched = 0;
  std::string first;
  for (int n = 1; n <= kMaxStagePartitions; ++n) {
    double z = 0.0;
    const ZipfTable* table = nullptr;
    std::optional<ZipfTable> own;
    if (n % 3 == 1) {
      table = &workload_tables[(n / 3) % workload_tables.size()];
      z = table->z();
    } else if (n % 3 == 2) {
      z = rng.Uniform();
      table = &own.emplace(z, n);
    }
    const PlanParams tp = DecodePlan(lhs[n - 1]);
    const StageParams ts = DecodeStage(lhs[n - 1]);
    const double total = std::exp(rng.Uniform(std::log(1e6), std::log(1e12)));
    const SkewSplitRule split{tp.skewed_partition_threshold_mb,
                              tp.skewed_partition_factor,
                              tp.advisory_partition_size_mb};
    const CoalesceRule coalesce{tp.advisory_partition_size_mb,
                                ts.rebalance_small_factor,
                                ts.coalesce_min_partition_size_mb};
    const std::vector<double> sizes = SkewedPartitionSizes(total, n, z);
    const std::vector<double> split_sizes =
        ApplySkewSplit(sizes, split.threshold_mb, split.factor,
                       split.advisory_mb);
    split_cases += split_sizes.size() != sizes.size();

    struct Case {
      const char* name;
      const SkewSplitRule* split;
      const CoalesceRule* coalesce;
      std::vector<double> want;
    };
    const Case cases[] = {
        {"scan", nullptr, nullptr, sizes},
        {"coalesce", nullptr, &coalesce,
         ApplyCoalesce(sizes, coalesce.advisory_mb, coalesce.small_factor,
                       coalesce.min_size_mb)},
        {"split+coalesce", &split, &coalesce,
         ApplyCoalesce(split_sizes, coalesce.advisory_mb,
                       coalesce.small_factor, coalesce.min_size_mb)},
    };
    for (const Case& c : cases) {
      const int64_t count =
          PartitionRuns(total, n, table, c.split, c.coalesce, &scratch);
      const std::string diff = CompareRuns(scratch, count, c.want);
      if (c.coalesce != nullptr && c.want.size() < sizes.size()) {
        ++coalesced_cases;
      }
      if (!diff.empty() && mismatched++ == 0) {
        first = std::string(c.name) + " n " + std::to_string(n) + " z " +
                std::to_string(z) + ": " + diff;
      }
    }
  }
  EXPECT_EQ(mismatched, 0) << "first mismatch: " << first;
  // The sweep must exercise both rules, not just pass sizes through.
  EXPECT_GT(split_cases, 100);
  EXPECT_GT(coalesced_cases, 1000);
}

// A table whose weights rise somewhere takes the selection fallback for
// the skew-split median; the result still matches the oracle rules.
TEST(OnePassPartitionerTest, NonMonotoneTableFallsBackToSelection) {
  Rng rng(31);
  PartitionScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(512));
    std::vector<double> w(n);
    for (double& x : w) x = rng.Uniform(0.01, 1.0);
    w[n - 1] = 2.0;  // rises at the end
    const ZipfTable table(0.5, w);
    ASSERT_FALSE(table.non_increasing());
    const double total = rng.Uniform(1e8, 1e11);
    std::vector<double> sizes(n);
    for (int i = 0; i < n; ++i) {
      sizes[i] = total * (table.Weight(i) / table.Sum(n));
    }
    const SkewSplitRule split{rng.Uniform(16, 256), rng.Uniform(1, 4),
                              rng.Uniform(8, 128)};
    const CoalesceRule coalesce{split.advisory_mb, rng.Uniform(0.1, 0.5),
                                rng.Uniform(1, 16)};
    const int64_t count =
        PartitionRuns(total, n, &table, &split, &coalesce, &scratch);
    const std::vector<double> want = ApplyCoalesce(
        ApplySkewSplit(sizes, split.threshold_mb, split.factor,
                       split.advisory_mb),
        coalesce.advisory_mb, coalesce.small_factor, coalesce.min_size_mb);
    EXPECT_EQ(CompareRuns(scratch, count, want), "") << "trial " << trial;
  }
}

// Every table the 124 plans build has non-increasing weights, so the
// partitioner never needs the selection fallback on the workload.
TEST(OnePassPartitionerTest, WorkloadTablesAreNonIncreasing) {
  const std::vector<TableStats> tpch = TpchCatalog(100.0);
  const std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  const std::vector<Query> queries = AllPlans(&tpch, &tpcds);
  size_t tables = 0;
  for (const Query& q : queries) {
    const ZipfTables zipf(q.plan);
    std::vector<double> skews;
    AddSkews(q.plan, &skews);
    for (double z : skews) {
      const ZipfTable* t = zipf.Find(z);
      ASSERT_NE(t, nullptr) << q.name << " z " << z;
      EXPECT_TRUE(t->non_increasing()) << q.name << " z " << z;
      EXPECT_EQ(t->size(), kMaxStagePartitions);
      ++tables;
    }
  }
  EXPECT_GT(tables, 0u);
}

}  // namespace
}  // namespace sparkopt
