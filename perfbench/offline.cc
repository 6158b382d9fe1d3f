/// \file offline.cc
/// \brief Workload offline_tune: the paper's Table 4 path. One caller
/// tunes each of the 22 TPC-H and 102 TPC-DS canonical plans (SF 100)
/// with Tuner::Run(kHmooc3Plus) under default TunerOptions (analytic
/// model, preference (0.9, 0.1)) and executes it in the simulator, in a
/// closed loop: the next call is due when the previous one returns.

#include <memory>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "trace.h"
#include "tuner/tuner.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace perfbench {

using namespace sparkopt;

namespace {

/// The paper's solve-time SLO behind Table 4's coverage column.
constexpr double kSloSeconds = 1.0;
constexpr int kSetupReps = 5;
/// Seconds one pass over the plan set takes on the reference host; a run
/// makes round(seconds / kPassSeconds) passes.
constexpr double kPassSeconds = 8.0;
constexpr size_t kNumQueries = 22 + 102;

/// Everything set-up builds. Queries point into the catalogs, so a world
/// is heap-allocated once and never moved.
struct OfflineWorld {
  std::vector<TableStats> tpch = TpchCatalog(100.0);
  std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  std::vector<Query> queries;
  std::vector<double> default_latency, default_cost;
};

/// Catalogs, plans, Spark-default baselines, and a warm-up: one untimed
/// tuning call on the first two plans of each benchmark.
std::unique_ptr<OfflineWorld> SetUp(const Tuner& tuner, RunResult* out) {
  auto w = std::make_unique<OfflineWorld>();
  w->queries = TpchBenchmark(&w->tpch);
  for (Query& q : TpcdsBenchmark(&w->tpcds)) w->queries.push_back(std::move(q));
  if (w->queries.size() != kNumQueries) {
    out->Fail("expected 124 canonical plans, built " +
              std::to_string(w->queries.size()));
  }
  for (const Query& q : w->queries) {
    auto def = tuner.Run(q, TuningMethod::kDefault);
    if (!def.ok()) {
      out->Fail(q.name + " default run: " + def.status().ToString());
    }
    w->default_latency.push_back(def.ok() ? def->execution.exec.latency : 0);
    w->default_cost.push_back(def.ok() ? def->execution.exec.cost : 0);
  }
  for (const size_t i : {0, 1, 22, 23}) {
    if (i < w->queries.size()) {
      (void)tuner.Run(w->queries[i], TuningMethod::kHmooc3Plus);
    }
  }
  return w;
}

/// Exactly what a tuned query must reproduce on every pass.
struct Outcome {
  double latency = 0.0, cost = 0.0;
  uint64_t front = 0;
};

}  // namespace

RunResult RunOfflineTune(const Args& args) {
  RunResult res;
  const TunerOptions options;  // the shipped configuration
  const Tuner tuner(options);

  std::vector<double> setups;
  std::unique_ptr<OfflineWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const auto t0 = Clock::now();
    world = SetUp(tuner, &res);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  res.setup_s = Median(setups);
  const std::vector<Query>& queries = world->queries;
  const size_t n = queries.size();

  // Closed loop over the plan set, in a seeded order per pass. Trace runs
  // make one pass and replay each call, traced, right after it: the
  // untraced Tuner::Run is the reference for the bitwise check and for
  // the tracing overhead, and host noise hits both alike.
  const int passes =
      args.trace ? 1
                 : std::max(1, static_cast<int>(std::lround(
                                   args.seconds / kPassSeconds)));
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<Outcome> first(n);
  // Per pass: calls per second of call time, and the call-time median and
  // p90; the run reports the median over passes.
  std::vector<double> call_ms, pass_qps, pass_p50, pass_p90;
  std::vector<std::pair<double, double>> reference;
  Tracer tracer;
  std::vector<ReplayOutcome> replays;
  double busy_s = 0.0;
  uint64_t within_slo = 0;
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    Rng rng(HashCombine(args.seed, static_cast<uint64_t>(pass)));
    rng.Shuffle(&order);
    std::vector<double> ms;
    double pass_busy_s = 0.0;
    uint64_t pass_ok = 0;
    for (const size_t i : order) {
      const auto t0 = Clock::now();
      auto out = tuner.Run(queries[i], TuningMethod::kHmooc3Plus);
      const double s = Seconds(t0, Clock::now());
      ++res.attempted;
      ms.push_back(1e3 * s);
      pass_busy_s += s;
      if (!out.ok()) {
        ++res.failed;
        res.Fail(queries[i].name + ": " + out.status().ToString());
        continue;
      }
      ++pass_ok;
      if (s <= kSloSeconds) ++within_slo;
      const Outcome o{out->execution.exec.latency, out->execution.exec.cost,
                      FrontHash(out->moo, out->chosen)};
      if (pass == 0) {
        CheckFront(queries[i].name, out->moo, out->chosen, &res);
        first[i] = o;
        reference.emplace_back(o.latency, o.cost);
        if (args.trace) {
          replays.push_back(Replay(queries[i], options,
                                   /*runtime_executed=*/true, &tracer,
                                   replays.size() + 1));
        }
      } else if (!SameBits(o.latency, first[i].latency) ||
                 !SameBits(o.cost, first[i].cost) ||
                 o.front != first[i].front) {
        res.Fail(queries[i].name + ": pass " + std::to_string(pass) +
                 " differs from pass 0");
      }
    }
    busy_s += pass_busy_s;
    pass_qps.push_back(static_cast<double>(pass_ok) / pass_busy_s);
    pass_p50.push_back(Quantile(ms, 0.50));
    pass_p90.push_back(Quantile(ms, 0.90));
    call_ms.insert(call_ms.end(), ms.begin(), ms.end());
  }
  const double wall_s = Seconds(wall0, Clock::now());
  const double cpu_util =
      (ProcessCpuSeconds() - cpu0) / (wall_s * Nproc());

  double tuned_lat = 0, default_lat = 0, tuned_cost = 0, default_cost = 0;
  for (size_t i = 0; i < n; ++i) {
    tuned_lat += first[i].latency;
    tuned_cost += first[i].cost;
    default_lat += world->default_latency[i];
    default_cost += world->default_cost[i];
  }
  const double qps = Median(pass_qps), p50 = Median(pass_p50),
               p90 = Median(pass_p90), p99 = Quantile(call_ms, 0.99);
  const double coverage =
      res.attempted > 0 ? static_cast<double>(within_slo) / res.attempted : 0;
  const double lat_red = 100.0 * (1.0 - tuned_lat / default_lat);
  const double cost_ratio = tuned_cost / default_cost;
  const double error_rate =
      res.attempted > 0 ? static_cast<double>(res.failed) / res.attempted : 1;

  if (!args.trace) {
    res.Add("success_rate", 1.0 - error_rate, "share");
    res.Add("throughput_rps", qps, "1/s");
    res.Add("latency_ms_p50", p50, "ms");
    res.Add("slo_attainment", coverage, "share");
    res.Add("latency_reduction_pct", lat_red, "%");
    res.Add("cost_ratio", cost_ratio, "ratio");
  } else {
    const std::vector<std::vector<double>> prefs(replays.size(),
                                                 options.preference);
    ServiceLayer layer;
    layer.cpu_util = cpu_util;
    AddServiceLayerMetrics(layer, &res);
    AddLayerMetrics(replays, reference, busy_s, prefs, &res);
    const std::string path = args.trace_dir + "/offline_tune-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (tracer.Write(path)) res.Meta("trace_file", path);
    res.Meta("spans", static_cast<double>(tracer.size()));
  }

  res.Report("tune_qps", qps, "queries/s");
  res.Report("tune_ms_p50", p50, "ms");
  res.Report("tune_ms_p90", p90, "ms");
  res.Report("tune_ms_p99", p99, "ms");
  res.Report("coverage_1s", coverage, "share");
  res.Report("latency_reduction_pct", lat_red, "%");
  res.Report("cost_reduction_pct", 100.0 * (1.0 - cost_ratio), "%");
  res.Report("error_rate", error_rate, "share");
  res.Report("service.cpu_util", cpu_util, "share");

  res.Meta("passes", passes);
  res.Meta("queries", static_cast<double>(n));
  res.Meta("samples", static_cast<double>(call_ms.size()));
  res.Meta("solver_threads", Nproc());
  res.Meta("setup_reps", kSetupReps);
  return res;
}

}  // namespace perfbench
