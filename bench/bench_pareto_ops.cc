/// \file bench_pareto_ops.cc
/// \brief Micro-benchmarks of the Pareto primitives every MOO solver sits
/// on: non-dominated filtering (the 2-D and 3-D O(n log n) sweeps),
/// hypervolume, WUN recommendation, and the Minkowski merge of HMOOC1's
/// divide-and-conquer aggregation (`FlatMerge2`/`FlatMerge3` on a reused
/// `ParetoScratch`, as `DagAggregator` calls them, against the
/// materializing `MergeFrontsNaive` oracle).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "common/pareto.h"
#include "common/pareto_flat.h"
#include "common/rng.h"

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(k));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform();
  }
  return pts;
}

// A synthetic Pareto front of exactly n points (x strictly increasing, y
// strictly decreasing). Filtering random uniforms keeps only ~log n
// points, which under-exercises the merge; real HMOOC fronts are capped
// staircases like this one.
std::vector<ObjectiveVector> StaircaseFront(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(2));
  double x = 0.0;
  double y = static_cast<double>(n);
  for (auto& p : pts) {
    x += rng.Uniform(0.1, 1.0);
    y -= rng.Uniform(0.1, 1.0);
    p = {x, y};
  }
  return pts;
}

// A synthetic 3-D front of exactly n points: x strictly increasing and
// y strictly decreasing makes every pair mutually non-dominated for any
// z, so the third axis can be free-ranging without shrinking the front.
std::vector<ObjectiveVector> StaircaseFront3(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(3));
  double x = 0.0;
  double y = static_cast<double>(n);
  for (auto& p : pts) {
    x += rng.Uniform(0.1, 1.0);
    y -= rng.Uniform(0.1, 1.0);
    p = {x, y, rng.Uniform(0.0, static_cast<double>(n))};
  }
  return pts;
}

void Append(Front2* f, const ObjectiveVector& p) { f->Append(p[0], p[1], 0); }
void Append(Front3* f, const ObjectiveVector& p) {
  f->Append(p[0], p[1], p[2], 0);
}

template <typename Front>
Front ToFront(const std::vector<ObjectiveVector>& pts) {
  Front f;
  for (const auto& p : pts) Append(&f, p);
  return f;
}

void Merge(const Front2& a, const Front2& b, Front2* out,
           ParetoScratch* scratch) {
  FlatMerge2(a, b, out, scratch);
}
void Merge(const Front3& a, const Front3& b, Front3* out,
           ParetoScratch* scratch) {
  FlatMerge3(a, b, out, scratch);
}

template <typename Front>
void RunFlatMerge(benchmark::State& state,
                  const std::vector<ObjectiveVector>& pa,
                  const std::vector<ObjectiveVector>& pb) {
  const Front a = ToFront<Front>(pa);
  const Front b = ToFront<Front>(pb);
  Front out;
  ParetoScratch scratch;
  for (auto _ : state) {
    Merge(a, b, &out, &scratch);
    benchmark::DoNotOptimize(out.x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}

void BM_ParetoFilter2D(benchmark::State& state) {
  const auto pts = RandomPoints(state.range(0), 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParetoIndices(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoFilter2D)->Range(64, 65536);

void BM_ParetoFilter3D(benchmark::State& state) {
  const auto pts = RandomPoints(state.range(0), 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParetoIndices(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoFilter3D)->Range(64, 4096);

void BM_Hypervolume2D(benchmark::State& state) {
  auto pts = RandomPoints(state.range(0), 2, 7);
  auto front = ParetoFilter(pts);
  ObjectiveVector ref = {1.2, 1.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hypervolume2D(front, ref));
  }
}
BENCHMARK(BM_Hypervolume2D)->Range(64, 16384);

void BM_WunRecommendation(benchmark::State& state) {
  auto front = ParetoFilter(RandomPoints(state.range(0), 2, 11));
  std::vector<double> w = {0.9, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedUtopiaNearest(front, w));
  }
}
BENCHMARK(BM_WunRecommendation)->Range(64, 16384);

void BM_MinkowskiMerge(benchmark::State& state) {
  RunFlatMerge<Front2>(state, ParetoFilter(RandomPoints(state.range(0), 2, 3)),
                       ParetoFilter(RandomPoints(state.range(0), 2, 5)));
}
BENCHMARK(BM_MinkowskiMerge)->Range(256, 16384);

// Dense staircase fronts: the output-sensitive path vs the materialized
// cross product, on inputs shaped like HMOOC1's capped intermediates.
void BM_MinkowskiMergeFront(benchmark::State& state) {
  RunFlatMerge<Front2>(state, StaircaseFront(state.range(0), 3),
                       StaircaseFront(state.range(0), 5));
}
BENCHMARK(BM_MinkowskiMergeFront)->Range(256, 8192);

// 3-objective staircase merge: the kd-staircase path of FlatMerge3
// against inputs shaped like HMOOC1's 3-objective intermediates.
void BM_MinkowskiMerge3Front(benchmark::State& state) {
  RunFlatMerge<Front3>(state, StaircaseFront3(state.range(0), 3),
                       StaircaseFront3(state.range(0), 5));
}
BENCHMARK(BM_MinkowskiMerge3Front)->Range(256, 4096);

void BM_MinkowskiMergeFrontNaive(benchmark::State& state) {
  const auto a = StaircaseFront(state.range(0), 3);
  const auto b = StaircaseFront(state.range(0), 5);
  std::vector<MergePair> pairs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeFrontsNaive(a, b, &pairs));
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_MinkowskiMergeFrontNaive)->Range(256, 2048);

// One RESULT row per front size: merge ns per output point, flat kernel
// (`Front` = Front2 or Front3) vs the naive cross-product oracle, on
// staircase fronts from `gen`.
template <typename Front>
std::vector<obs::Json> MergeRows(
    std::vector<ObjectiveVector> (*gen)(size_t, uint64_t)) {
  const bool fast = benchutil::FastMode();
  const int reps = fast ? 3 : 10;
  ParetoScratch scratch;
  std::vector<obs::Json> rows;
  for (const size_t n : {size_t{256}, size_t{1024}, size_t{4096}}) {
    const auto pa = gen(n, 3);
    const auto pb = gen(n, 5);
    const Front a = ToFront<Front>(pa);
    const Front b = ToFront<Front>(pb);
    Front merged;
    double flat_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      benchutil::Timer timer;
      Merge(a, b, &merged, &scratch);
      flat_s = std::min(flat_s, timer.Seconds());
    }
    const size_t out_size = merged.size();
    // The naive oracle materializes n^2 points; keep it to sizes where
    // that is still measurable in seconds, not minutes.
    double naive_s = -1.0;
    if (n <= (fast ? 1024u : 4096u)) {
      naive_s = 1e300;
      const int naive_reps = n <= 1024 ? reps : 1;
      std::vector<MergePair> pairs;
      for (int r = 0; r < naive_reps; ++r) {
        benchutil::Timer timer;
        const auto naive = MergeFrontsNaive(pa, pb, &pairs);
        naive_s = std::min(naive_s, timer.Seconds());
      }
    }
    obs::JsonObject o;
    o.emplace_back("front_size", obs::Json(static_cast<uint64_t>(n)));
    o.emplace_back("out_size", obs::Json(static_cast<uint64_t>(out_size)));
    o.emplace_back("flat_ns_per_point",
                   obs::Json(flat_s * 1e9 / out_size));
    if (naive_s >= 0.0) {
      o.emplace_back("naive_ns_per_point",
                     obs::Json(naive_s * 1e9 / out_size));
      o.emplace_back("speedup", obs::Json(naive_s / flat_s));
    }
    rows.emplace_back(std::move(o));
  }
  return rows;
}

}  // namespace

// RESULT-line JSON for the perf trajectory. Runs after the
// google-benchmark loops (and alone in CI, where the loops are filtered
// out).
void EmitMergeResults() {
  for (const auto& row : MergeRows<Front2>(StaircaseFront)) {
    benchutil::EmitJson("pareto_merge", row);
  }
  for (const auto& row : MergeRows<Front3>(StaircaseFront3)) {
    benchutil::EmitJson("pareto_merge3", row);
  }
}

}  // namespace sparkopt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparkopt::EmitMergeResults();
  return 0;
}
