/// \file integration_test.cc
/// \brief Cross-module integration checks: the full pipeline from
/// workload construction through compile-time MOO, submission
/// aggregation, adaptive execution and runtime re-optimization.

#include <gtest/gtest.h>

#include "common/stats.h"
#include "model/trainer.h"
#include "moo/objective_models.h"
#include "tuner/tuner.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

TunerOptions FastOptions() {
  TunerOptions o;
  o.hmooc.theta_c_samples = 24;
  o.hmooc.clusters = 6;
  o.hmooc.theta_p_samples = 32;
  o.hmooc.enriched_samples = 8;
  return o;
}

TEST(IntegrationTest, TpchSweepAllMethodsProduceValidExecutions) {
  auto catalog = TpchCatalog(10);
  Tuner tuner(FastOptions());
  for (int qid = 1; qid <= 22; qid += 3) {
    auto q = *MakeTpchQuery(qid, &catalog);
    for (auto method :
         {TuningMethod::kDefault, TuningMethod::kHmooc3,
          TuningMethod::kHmooc3Plus}) {
      auto out = tuner.Run(q, method);
      ASSERT_TRUE(out.ok())
          << q.name << " " << TuningMethodName(method) << ": "
          << out.status().ToString();
      EXPECT_GT(out->execution.exec.latency, 0.0) << q.name;
      // Broadcast joins can merge stages, so executed stages <= subQs.
      EXPECT_LE(out->execution.exec.stages.size(),
                q.plan.DecomposeSubQueries().size())
          << q.name << " " << TuningMethodName(method);
      EXPECT_GE(out->execution.exec.stages.size(), 1u);
    }
  }
}

TEST(IntegrationTest, TpcdsSubsetExecutes) {
  auto catalog = TpcdsCatalog(10);
  Tuner tuner(FastOptions());
  for (int qid = 1; qid <= 102; qid += 17) {
    auto q = *MakeTpcdsQuery(qid, &catalog);
    auto def = tuner.Run(q, TuningMethod::kDefault);
    auto h3 = tuner.Run(q, TuningMethod::kHmooc3);
    ASSERT_TRUE(def.ok()) << q.name;
    ASSERT_TRUE(h3.ok()) << q.name;
    EXPECT_GT(def->execution.exec.latency, 0.0);
    EXPECT_GT(h3->execution.exec.latency, 0.0);
  }
}

TEST(IntegrationTest, AnalyticalLatencyCorrelatesWithActual) {
  // Figure 5's premise: analytical latency tracks wall-clock latency
  // across the benchmark under the default configuration.
  auto catalog = TpchCatalog(10);
  Tuner tuner(FastOptions());
  std::vector<double> analytical, actual;
  for (int qid = 1; qid <= 22; ++qid) {
    auto q = *MakeTpchQuery(qid, &catalog);
    auto out = *tuner.Run(q, TuningMethod::kDefault);
    analytical.push_back(out.execution.exec.analytical_latency);
    actual.push_back(out.execution.exec.latency);
  }
  EXPECT_GT(PearsonCorrelation(analytical, actual), 0.8);
}

TEST(IntegrationTest, RequestPruningSkipsUnactionableCollapses) {
  // Appendix C.2.2: a collapsed-plan request is sent only when a remaining
  // subQ has a join whose inputs have all completed. Every wave boundary
  // makes one request, sent or pruned; without pruning every one is sent.
  auto catalog = TpchCatalog(10);
  auto opts = FastOptions();
  Tuner pruned_tuner(opts);
  opts.runtime.enable_pruning = false;
  Tuner unpruned_tuner(opts);
  int sent_pruned = 0, skipped = 0, sent_unpruned = 0;
  for (int qid : {3, 5, 8, 9, 21}) {
    auto q = *MakeTpchQuery(qid, &catalog);
    auto a = *pruned_tuner.Run(q, TuningMethod::kHmooc3Plus);
    auto b = *unpruned_tuner.Run(q, TuningMethod::kHmooc3Plus);
    EXPECT_EQ(a.runtime_stats.lqp_sent + a.runtime_stats.lqp_pruned,
              a.execution.waves - 1)
        << q.name;
    EXPECT_EQ(b.runtime_stats.lqp_sent, b.execution.waves - 1) << q.name;
    EXPECT_EQ(b.runtime_stats.lqp_pruned, 0) << q.name;
    sent_pruned += a.runtime_stats.lqp_sent;
    skipped += a.runtime_stats.lqp_pruned;
    sent_unpruned += b.runtime_stats.lqp_sent;
  }
  EXPECT_GT(skipped, 0);
  EXPECT_LT(sent_pruned, sent_unpruned);
}

TEST(IntegrationTest, LearnedModelDrivesHmoocEndToEnd) {
  // Train a small subQ model, then hand it to the tuner: the learned
  // pipeline must run and still beat the default configuration in sum.
  auto catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  TraceCollector collector(cluster, cost);
  ModelDataset subq, qs, lqp;
  TraceOptions topts;
  topts.runs = 60;
  topts.seed = 5;
  ASSERT_TRUE(collector
                  .Collect(
                      [&](int qid, uint64_t v) {
                        return MakeTpchQuery(qid, &catalog, v);
                      },
                      22, topts, &subq, &qs, &lqp)
                  .ok());
  ModelSuite suite;
  Mlp::TrainOptions mopts;
  mopts.epochs = 40;
  ASSERT_TRUE(suite.Train(subq, qs, lqp, 3, mopts).ok());

  auto opts = FastOptions();
  opts.learned_subq_model = &suite.subq_model();
  Tuner tuner(opts);
  double def = 0, h3 = 0;
  for (int qid : {3, 5, 10, 12}) {
    auto q = *MakeTpchQuery(qid, &catalog);
    def += tuner.Run(q, TuningMethod::kDefault)->execution.exec.latency;
    h3 += tuner.Run(q, TuningMethod::kHmooc3)->execution.exec.latency;
  }
  EXPECT_LT(h3, def);
}

TEST(IntegrationTest, FineGrainedSolutionsExecutable) {
  // Every Pareto solution HMOOC returns must execute without error when
  // aggregated and submitted.
  auto catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  auto q = *MakeTpchQuery(9, &catalog);
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.theta_c_samples = 16;
  ho.clusters = 4;
  ho.theta_p_samples = 24;
  ho.enriched_samples = 4;
  auto result = HmoocSolver(&model, ho).Solve();
  ASSERT_FALSE(result.pareto.empty());
  Simulator sim(cluster, cost);
  AqeDriver driver(&q.plan, &sim);
  for (const auto& sol : result.pareto) {
    PlanParams tp;
    StageParams ts;
    SubQEvaluator eval(&q, cluster, cost);
    AggregateForSubmission(sol.per_subq_conf, eval.subqueries(), &tp, &ts);
    auto exec = driver.Run(DecodeContext(sol.conf), {tp}, {ts}, nullptr, 1);
    ASSERT_TRUE(exec.ok());
    EXPECT_GT(exec->exec.latency, 0.0);
  }
}

}  // namespace
}  // namespace sparkopt
