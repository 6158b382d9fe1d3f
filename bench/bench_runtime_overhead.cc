/// \file bench_runtime_overhead.cc
/// \brief Reproduces the request-pruning experiment of Section 5.2 /
/// Appendix C.2.2: how many runtime optimization calls the rule that
/// bypasses non-actionable collapsed-plan (LQP) requests removes, plus
/// the per-query optimizer-call overhead with and without pruning. The
/// paper reports 86% (TPC-H) / 92% (TPC-DS) over LQP and query-stage
/// requests together; the runtime optimizer here sends LQP requests only
/// (query-stage theta_s requests are not made, DESIGN.md §5 item 9), so the
/// counts cover LQP requests alone: 45 of 78 TPC-H calls sent (42.3%
/// eliminated, 0.031 s overhead per query) and 55 of 179 on the 40-query
/// TPC-DS subset (69.3%; 18 of 50, 64.0%, on the 10-query fast subset).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "tuner/tuner.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

using namespace sparkopt;
using namespace sparkopt::benchutil;

namespace {

void RunBenchmarkSet(const char* name, const std::vector<Query>& queries) {
  TunerOptions with;
  with.preference = {0.9, 0.1};
  TunerOptions without = with;
  without.runtime.enable_pruning = false;
  Tuner pruned(with), unpruned(without);

  long sent_with = 0, potential = 0;
  std::vector<double> overhead_with, overhead_without;
  for (const auto& q : queries) {
    auto a = pruned.Run(q, TuningMethod::kHmooc3Plus);
    auto b = unpruned.Run(q, TuningMethod::kHmooc3Plus);
    if (!a.ok() || !b.ok()) continue;
    sent_with += a->runtime_stats.TotalSent();
    // Without pruning every candidate request is sent: the total call
    // count the rules would otherwise face.
    potential += b->runtime_stats.TotalSent() +
                 b->runtime_stats.TotalPruned();
    overhead_with.push_back(a->runtime_overhead_seconds);
    overhead_without.push_back(b->runtime_overhead_seconds);
  }
  std::printf("%s:\n", name);
  Table t({"metric", "with pruning", "without pruning"});
  t.AddRow({"optimizer calls", std::to_string(sent_with),
            std::to_string(potential)});
  t.AddRow({"avg overhead/query (s)", Fmt("%.3f", Mean(overhead_with)),
            Fmt("%.3f", Mean(overhead_without))});
  t.Print();
  const double eliminated =
      1.0 - static_cast<double>(sent_with) / potential;
  std::printf("calls eliminated: %.1f%%\n\n", 100.0 * eliminated);

  obs::Json record{obs::JsonObject{}};
  record.Set("benchmark", name);
  record.Set("queries", queries.size());
  record.Set("calls_with_pruning", static_cast<int64_t>(sent_with));
  record.Set("calls_without_pruning", static_cast<int64_t>(potential));
  record.Set("calls_eliminated_frac", eliminated);
  record.Set("avg_overhead_with_s", Mean(overhead_with));
  record.Set("avg_overhead_without_s", Mean(overhead_without));
  EmitJson("runtime_overhead", record);
}

// ---- Observability overhead + phase-profile coverage (DESIGN.md §12) ----
//
// Two claims the profiler subsystem must keep honest:
//  1. With no obs::Session installed, every instrumentation site costs one
//     relaxed atomic load — estimated total overhead on a TPC-H Q9 solve
//     must stay <= 1% of the solve's wall-clock.
//  2. With a session installed, the phase profile's exclusive times must
//     telescope back to >= 95% of the externally timed wall-clock, i.e.
//     the span tree actually covers the solve path.
void RunObsOverhead() {
  auto catalog = TpchCatalog(100.0);
  auto q = *MakeTpchQuery(9, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  auto solve_once = [&]() {
    AnalyticSubQModel model(&q, cluster, cost);
    HmoocOptions ho;
    ho.seed = 3;
    ho.num_threads = 1;
    HmoocSolver solver(&model, ho);
    Timer t;
    const auto r = solver.Solve();
    (void)r;
    return t.Seconds();
  };

  // Dormant per-site cost: time a tight loop over an instrumentation
  // helper with no session installed, against an identical loop without
  // the helper. The volatile sink keeps both loops alive; the delta is
  // the one-relaxed-load fast path. Skipped when the harness itself was
  // launched with --trace-out etc. — an installed outer session would
  // make the loop measure the *active* path instead.
  const bool outer_session = obs::Session::Current() != nullptr;
  double dormant_ns = 0.0;
  if (!outer_session) {
    constexpr uint64_t kCalls = 1 << 24;
    volatile uint64_t sink = 0;
    Timer empty_timer;
    for (uint64_t i = 0; i < kCalls; ++i) sink = i;
    const double empty_s = empty_timer.Seconds();
    Timer obs_timer;
    for (uint64_t i = 0; i < kCalls; ++i) {
      obs::Observe("bench.selfcost", static_cast<double>(i));
      sink = i;
    }
    const double obs_s = obs_timer.Seconds();
    const uint64_t last = sink;  // keep the volatile observable
    (void)last;
    dormant_ns = std::max(0.0, (obs_s - empty_s) / kCalls * 1e9);
  }

  const int reps = FastMode() ? 1 : 3;
  solve_once();  // warm up catalog-independent state / allocator
  double baseline_s = 1e300;
  for (int i = 0; i < reps; ++i) baseline_s = std::min(baseline_s, solve_once());

  // Traced run: count how many times instrumentation actually fired (span
  // events + histogram samples) to scale the dormant per-site cost into a
  // whole-solve overhead estimate, and fold the span stream into a phase
  // profile to check coverage against the external wall clock.
  double traced_s = 0.0;
  double profile_total_us = 0.0;
  uint64_t instrument_hits = 0;
  size_t span_events = 0;
  std::string profile_text;
  {
    obs::Session session;
    traced_s = solve_once();
    const auto profile = obs::PhaseProfile::FromTrace(session.trace());
    profile_total_us = profile.total_us();
    profile_text = profile.ToText();
    span_events = session.trace().size();
    instrument_hits = span_events;
    for (const auto& [name, hist] : session.metrics().HistogramEntries()) {
      (void)name;
      instrument_hits += hist->count();
    }
    for (const auto& [name, value] : session.metrics().CounterEntries()) {
      (void)name;
      (void)value;
      ++instrument_hits;  // lower bound: >= 1 Count() call per counter
    }
  }
  const double est_overhead_frac =
      instrument_hits * dormant_ns * 1e-9 / baseline_s;
  const double coverage_frac = profile_total_us / (traced_s * 1e6);

  std::printf("==== Observability: dormant overhead & profile coverage ====\n\n");
  if (outer_session) {
    std::printf("dormant fast path: skipped (outer session installed)\n");
  } else {
    std::printf("dormant fast path: %.2f ns/site (%llu sites hit/solve)\n",
                dormant_ns, static_cast<unsigned long long>(instrument_hits));
  }
  std::printf("solve: %.2f ms untraced, %.2f ms traced\n", baseline_s * 1e3,
              traced_s * 1e3);
  std::printf("estimated no-session overhead: %.3f%% of solve\n",
              100.0 * est_overhead_frac);
  std::printf("phase-profile coverage: %.1f%% of traced wall-clock\n\n",
              100.0 * coverage_frac);
  std::printf("%s\n", profile_text.c_str());

  obs::Json overhead{obs::JsonObject{}};
  overhead.Set("query", "tpch_q9");
  overhead.Set("baseline_solve_ms", baseline_s * 1e3);
  overhead.Set("traced_solve_ms", traced_s * 1e3);
  overhead.Set("dormant_measured", !outer_session);
  overhead.Set("dormant_ns_per_site", dormant_ns);
  overhead.Set("instrument_hits", instrument_hits);
  overhead.Set("est_dormant_overhead_frac", est_overhead_frac);
  EmitJson("obs_overhead", overhead);

  obs::Json prof{obs::JsonObject{}};
  prof.Set("query", "tpch_q9");
  prof.Set("wall_ms", traced_s * 1e3);
  prof.Set("profile_total_ms", profile_total_us / 1e3);
  prof.Set("exclusive_coverage_frac", coverage_frac);
  prof.Set("span_events", static_cast<uint64_t>(span_events));
  EmitJson("phase_profile", prof);
}

}  // namespace

int main(int argc, char** argv) {
  TraceExport trace(&argc, argv);
  std::printf(
      "==== Section 5.2: runtime optimization request pruning ====\n\n");
  const auto tpch = TpchCatalog(100.0);
  RunBenchmarkSet("TPC-H", TpchBenchmark(&tpch));
  const auto tpcds = TpcdsCatalog(100.0);
  auto ds = TpcdsBenchmark(&tpcds);
  ds.resize(FastMode() ? 10 : 40);
  RunBenchmarkSet("TPC-DS (subset)", ds);
  RunObsOverhead();
  return 0;
}
