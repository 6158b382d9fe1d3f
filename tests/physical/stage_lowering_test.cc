/// \file stage_lowering_test.cc
/// \brief Agreement between the physical planner and the analytic model:
/// every stage the planner forms from a single subQ must be, bit for bit,
/// the stage `SubQEvaluator::BuildStage` costs for that subQ. The model
/// charges CPU work by its own rule, so `cpu_work` is the one field left
/// out of that comparison; the shared lowering called with the executed
/// rule must match it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/subq_evaluator.h"
#include "params/sampler.h"
#include "physical/physical_plan.h"
#include "physical/stage_lowering.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Name of the first field (cpu_work aside) where `model` differs from
// `planned`, or "" when they agree.
std::string FirstDifference(const QueryStage& planned,
                            const QueryStage& model) {
  if (planned.op_ids != model.op_ids) return "op_ids";
  if (planned.is_scan_stage != model.is_scan_stage) return "is_scan_stage";
  if (planned.has_join != model.has_join) return "has_join";
  if (planned.join_algo != model.join_algo) return "join_algo";
  if (!SameBits(planned.input_rows, model.input_rows)) return "input_rows";
  if (!SameBits(planned.input_bytes, model.input_bytes)) return "input_bytes";
  if (!SameBits(planned.output_rows, model.output_rows)) return "output_rows";
  if (!SameBits(planned.output_bytes, model.output_bytes)) {
    return "output_bytes";
  }
  if (!SameBits(planned.shuffle_read_bytes, model.shuffle_read_bytes)) {
    return "shuffle_read_bytes";
  }
  if (!SameBits(planned.broadcast_bytes, model.broadcast_bytes)) {
    return "broadcast_bytes";
  }
  if (planned.exchanges_output != model.exchanges_output) {
    return "exchanges_output";
  }
  if (planned.num_partitions != model.num_partitions) return "num_partitions";
  if (planned.partition_bytes.size() != model.partition_bytes.size()) {
    return "partition_bytes.size";
  }
  for (size_t i = 0; i < planned.partition_bytes.size(); ++i) {
    if (!SameBits(planned.partition_bytes[i], model.partition_bytes[i])) {
      return "partition_bytes";
    }
  }
  if (!SameBits(planned.sort_work, model.sort_work)) return "sort_work";
  return "";
}

TEST(StageLoweringTest, ModelStageMatchesUnmergedPlannerStage) {
  const std::vector<TableStats> tpch = TpchCatalog(100.0);
  const std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  std::vector<Query> queries = TpchBenchmark(&tpch);
  for (Query& q : TpcdsBenchmark(&tpcds)) queries.push_back(std::move(q));
  ASSERT_EQ(queries.size(), 124u);

  Rng rng(17);
  std::vector<std::vector<double>> confs = {DefaultSparkConfig()};
  for (auto& c : SampleLatinHypercube(SparkParamSpace(), 8, &rng)) {
    confs.push_back(std::move(c));
  }

  int compared = 0;
  int mismatched = 0;
  std::string first;
  for (const Query& q : queries) {
    const SubQEvaluator eval(&q, ClusterSpec{}, CostModelParams{});
    const std::vector<SubQuery>& subqs = eval.subqueries();
    const PhysicalPlanner planner(&q.plan, subqs);
    const std::vector<int> subq_of = q.plan.SubQueryOfOp(subqs);
    // Three cardinality views: estimates, estimates with the first half
    // of the subQs completed (mid-query AQE), and the truth.
    std::vector<bool> half(subqs.size(), false);
    std::fill(half.begin(), half.begin() + half.size() / 2, true);
    const std::vector<bool> none;
    struct View {
      CardinalitySource source;
      const std::vector<bool>* completed;
    };
    const View views[] = {{CardinalitySource::kEstimated, nullptr},
                          {CardinalitySource::kEstimated, &half},
                          {CardinalitySource::kTrue, nullptr}};

    for (size_t c = 0; c < confs.size(); ++c) {
      const ContextParams tc = DecodeContext(confs[c]);
      const PlanParams tp = DecodePlan(confs[c]);
      const StageParams ts = DecodeStage(confs[c]);
      for (size_t v = 0; v < 3; ++v) {
        const View& view = views[v];
        auto pplan = planner.Plan(tc, {tp}, {ts}, view.source,
                                  view.completed ? *view.completed : none);
        ASSERT_TRUE(pplan.ok()) << q.name << ": "
                                << pplan.status().ToString();
        for (const QueryStage& st : pplan->stages) {
          const int sq = subq_of[st.op_ids.front()];
          if (std::any_of(st.op_ids.begin(), st.op_ids.end(),
                          [&](int op) { return subq_of[op] != sq; })) {
            continue;  // a BHJ-merged stage: planner only
          }
          const QueryStage model =
              eval.BuildStage(sq, tc, tp, ts, view.source, view.completed);
          const StageLowering lw{.plan = &q.plan,
                                 .subq_of_op = &subq_of,
                                 .source = view.source,
                                 .completed = view.completed,
                                 .theta_c = &tc,
                                 .theta_p = &tp,
                                 .theta_s = &ts};
          const QueryStage executed =
              LowerSubQuery(lw, subqs[sq], CpuWorkRule::kExecuted);
          ++compared;
          std::string diff = FirstDifference(st, model);
          if (diff.empty() && !SameBits(st.cpu_work, executed.cpu_work)) {
            diff = "cpu_work under the executed rule";
          }
          if (!diff.empty() && mismatched++ == 0) {
            std::ostringstream ss;
            ss << q.name << " conf " << c << " view " << v << " subQ " << sq
               << ": " << diff;
            first = ss.str();
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 20000);
  EXPECT_EQ(mismatched, 0) << "first mismatch: " << first;
}

}  // namespace
}  // namespace sparkopt
