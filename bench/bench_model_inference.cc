/// \file bench_model_inference.cc
/// \brief Micro-benchmarks of the components on the MOO critical path:
/// analytic subQ evaluation (the compile-time phi), MLP inference (the
/// learned phi — the paper's Xput column), feature extraction, and the
/// physical planner. The paper's 1-2 s solving budget rests on these
/// being 10^4-10^5 evaluations/second. The `analytic_eval` RESULT rows
/// time SubQEvaluator::Evaluate over every subQ of a benchmark's plans
/// under a seeded LHS sweep, so partition counts and skews vary the way
/// they do inside a solve.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "common/rng.h"
#include "model/features.h"
#include "model/mlp.h"
#include "model/subq_evaluator.h"
#include "moo/objective_models.h"
#include "params/sampler.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(100);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q9 = *MakeTpchQuery(9, &catalog);
  SubQEvaluator eval{&q9, cluster, cost};
  AnalyticSubQModel model{&q9, cluster, cost};
  std::vector<double> conf = DefaultSparkConfig();
};

Fixture& Fx() {
  static Fixture fx;
  return fx;
}

void BM_AnalyticSubQEvaluate(benchmark::State& state) {
  auto& fx = Fx();
  int subq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.model.Evaluate(subq, fx.conf));
    subq = (subq + 1) % fx.model.num_subqs();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticSubQEvaluate);

void BM_StageFeatureExtraction(benchmark::State& state) {
  auto& fx = Fx();
  const auto st = fx.eval.BuildStage(
      5, DecodeContext(fx.conf), DecodePlan(fx.conf), DecodeStage(fx.conf),
      CardinalitySource::kEstimated);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StageFeatures(fx.q9.plan, st, fx.conf, false,
                                           {}, {}, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageFeatureExtraction);

void BM_MlpInference(benchmark::State& state) {
  const int dim = FeatureLayout::Total();
  Mlp net({dim, 64, 64, 2}, 3);
  std::vector<double> x(dim, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpInference);

void BM_MlpBatchInference(benchmark::State& state) {
  const int dim = FeatureLayout::Total();
  const size_t rows = static_cast<size_t>(state.range(0));
  Mlp net({dim, 64, 64, 2}, 3);
  std::vector<double> x(rows * dim);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * (i % 97);
  std::vector<double> out(rows * 2);
  Mlp::BatchScratch scratch;
  for (auto _ : state) {
    net.PredictBatchInto(x.data(), rows, out.data(), &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MlpBatchInference)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_PhysicalPlanning(benchmark::State& state) {
  auto& fx = Fx();
  PhysicalPlanner planner(&fx.q9.plan, fx.q9.plan.DecomposeSubQueries());
  const ContextParams tc = DecodeContext(fx.conf);
  const PlanParams tp = DecodePlan(fx.conf);
  const StageParams ts = DecodeStage(fx.conf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(
        tc, {tp}, {ts}, CardinalitySource::kEstimated));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysicalPlanning);

void BM_SimulateQuery(benchmark::State& state) {
  auto& fx = Fx();
  Simulator sim(fx.cluster, fx.cost);
  PhysicalPlanner planner(&fx.q9.plan, fx.q9.plan.DecomposeSubQueries());
  const ContextParams tc = DecodeContext(fx.conf);
  auto pp = *planner.Plan(tc, {DecodePlan(fx.conf)}, {DecodeStage(fx.conf)},
                          CardinalitySource::kTrue);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunAll(pp, tc, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateQuery);

// Directly measured per-row vs batched MLP throughput, emitted as
// RESULT-line JSON for the driver's before/after comparisons.
void EmitInferenceResults() {
  const int dim = FeatureLayout::Total();
  Mlp net({dim, 64, 64, 2}, 3);
  const size_t total = benchutil::FastMode() ? 20000 : 200000;

  std::vector<double> x(256 * dim);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * (i % 97);
  std::vector<double> out(256 * 2);

  // Per-row baseline.
  {
    const std::vector<double> row(x.begin(), x.begin() + dim);
    benchutil::Timer timer;
    for (size_t i = 0; i < total; ++i) {
      benchmark::DoNotOptimize(net.Predict(row));
    }
    const double s = timer.Seconds();
    obs::JsonObject o;
    o.emplace_back("batch", obs::Json(1));
    o.emplace_back("rows_per_sec", obs::Json(total / s));
    o.emplace_back("ns_per_row", obs::Json(s / total * 1e9));
    benchutil::EmitJson("mlp_inference", obs::Json(std::move(o)));
  }
  Mlp::BatchScratch scratch;
  for (size_t batch : {size_t{64}, size_t{256}}) {
    const size_t iters = total / batch;
    benchutil::Timer timer;
    for (size_t i = 0; i < iters; ++i) {
      net.PredictBatchInto(x.data(), batch, out.data(), &scratch);
      benchmark::DoNotOptimize(out.data());
    }
    const double s = timer.Seconds();
    const double rows = static_cast<double>(iters * batch);
    obs::JsonObject o;
    o.emplace_back("batch", obs::Json(static_cast<uint64_t>(batch)));
    o.emplace_back("rows_per_sec", obs::Json(rows / s));
    o.emplace_back("ns_per_row", obs::Json(s / rows * 1e9));
    benchutil::EmitJson("mlp_inference", obs::Json(std::move(o)));
  }
}

// ns per SubQEvaluator::Evaluate over a fixed seeded LHS sweep of every
// subQ of one benchmark's plans (SF 100), one RESULT row per workload.
void EmitAnalyticEvalResult(const char* workload,
                            const std::vector<Query>& queries) {
  Rng rng(41);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 16, &rng);
  struct Params {
    ContextParams tc;
    PlanParams tp;
    StageParams ts;
  };
  std::vector<Params> params;
  for (const auto& c : confs) {
    params.push_back({DecodeContext(c), DecodePlan(c), DecodeStage(c)});
  }
  const ClusterSpec cluster;
  const CostModelParams cost;
  std::vector<SubQEvaluator> evals;
  evals.reserve(queries.size());
  for (const Query& q : queries) evals.emplace_back(&q, cluster, cost);
  auto sweep = [&] {
    size_t n = 0;
    for (const Params& p : params) {
      for (const SubQEvaluator& e : evals) {
        for (int sq = 0; sq < e.num_subqs(); ++sq) {
          benchmark::DoNotOptimize(e.Evaluate(sq, p.tc, p.tp, p.ts,
                                              CardinalitySource::kEstimated));
          ++n;
        }
      }
    }
    return n;
  };
  sweep();  // warm-up
  const int reps = benchutil::FastMode() ? 3 : 20;
  size_t total = 0;
  benchutil::Timer timer;
  for (int r = 0; r < reps; ++r) total += sweep();
  const double s = timer.Seconds();
  obs::JsonObject o;
  o.emplace_back("workload", obs::Json(workload));
  o.emplace_back("ns_per_eval", obs::Json(s / total * 1e9));
  o.emplace_back("evaluations", obs::Json(static_cast<uint64_t>(total)));
  benchutil::EmitJson("analytic_eval", obs::Json(std::move(o)));
}

void EmitAnalyticEvalResults() {
  const std::vector<TableStats> tpch = TpchCatalog(100);
  const std::vector<TableStats> tpcds = TpcdsCatalog(100);
  EmitAnalyticEvalResult("tpch", TpchBenchmark(&tpch));
  EmitAnalyticEvalResult("tpcds", TpcdsBenchmark(&tpcds));
}

}  // namespace
}  // namespace sparkopt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparkopt::EmitInferenceResults();
  sparkopt::EmitAnalyticEvalResults();
  return 0;
}
