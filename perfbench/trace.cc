#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "exec/aqe.h"
#include "exec/simulator.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "params/spark_params.h"

namespace perfbench {

using namespace sparkopt;

// ---- Tracer ----------------------------------------------------------------

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

uint32_t Tracer::ThreadIndexLocked() {
  const size_t h = std::hash<std::thread::id>()(std::this_thread::get_id());
  for (const auto& [hash, idx] : threads_) {
    if (hash == h) return idx;
  }
  threads_.emplace_back(h, static_cast<uint32_t>(threads_.size()));
  return threads_.back().second;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  spans_.back().tid = ThreadIndexLocked();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid, 1e-3 * s.start_ns,
                 1e-3 * (s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = tracer_->NowNs();
}

double ScopedSpan::End() {
  if (open_) {
    open_ = false;
    span_.end_ns = tracer_->NowNs();
    tracer_->Record(span_);
  }
  return seconds();
}

namespace {

// ---- decorators around the public layer interfaces -------------------------

/// Times every call into the wrapped objective model. Forwarding is
/// exact, so the solve is bitwise identical to the undecorated one.
class TimedModel final : public SubQObjectiveModel {
 public:
  TimedModel(const SubQObjectiveModel* base, Tracer* tracer, uint64_t parent,
             uint64_t request)
      : base_(base), tracer_(tracer), parent_(parent), request_(request) {}

  int num_subqs() const override { return base_->num_subqs(); }
  int num_objectives() const override { return base_->num_objectives(); }
  size_t eval_count() const override { return base_->eval_count(); }
  const SubQEvaluator* screen_evaluator() const override {
    return base_->screen_evaluator();
  }

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override {
    const int64_t start = tracer_->NowNs();
    ObjectiveVector v = base_->Evaluate(subq, conf);
    Note(start, 1);
    return v;
  }

  void EvaluateBatch(int subq, const std::vector<std::vector<double>>& confs,
                     std::vector<ObjectiveVector>* out) const override {
    const int64_t start = tracer_->NowNs();
    base_->EvaluateBatch(subq, confs, out);
    Note(start, confs.size());
  }

  uint64_t calls() const { return calls_; }
  uint64_t rows() const { return rows_; }
  /// Summed call time over all threads.
  double busy_s() const { return 1e-9 * static_cast<double>(busy_ns_); }
  /// Length of the union of the call intervals: the part of the solve's
  /// wall time during which at least one thread was inside the model.
  double wall_s() {
    std::sort(intervals_.begin(), intervals_.end());
    int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [s, e] : intervals_) {
      if (s > hi) {
        if (hi > lo) covered += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    return 1e-9 * static_cast<double>(covered);
  }

 private:
  void Note(int64_t start, size_t rows) const {
    Span span;
    span.name = "model.eval";
    span.id = tracer_->NextId();
    span.parent = parent_;
    span.request = request_;
    span.start_ns = start;
    span.end_ns = tracer_->NowNs();
    tracer_->Record(span);
    std::lock_guard<std::mutex> lock(mu_);
    intervals_.emplace_back(span.start_ns, span.end_ns);
    busy_ns_ += span.end_ns - span.start_ns;
    ++calls_;
    rows_ += rows;
  }

  const SubQObjectiveModel* base_;
  Tracer* tracer_;
  const uint64_t parent_, request_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<int64_t, int64_t>> intervals_;
  mutable int64_t busy_ns_ = 0;
  mutable uint64_t calls_ = 0, rows_ = 0;
};

/// Times the runtime optimizer's two AQE interception points.
class TimedHooks final : public AqeHooks {
 public:
  TimedHooks(AqeHooks* base, Tracer* tracer, uint64_t parent,
             uint64_t request)
      : base_(base), tracer_(tracer), parent_(parent), request_(request) {}

  void OnPlanCollapsed(const LogicalPlan& plan,
                       const std::vector<SubQuery>& subqs,
                       const std::vector<bool>& completed_subqs,
                       std::vector<PlanParams>* theta_p) override {
    ScopedSpan span(tracer_, "runtime.plan_collapsed", parent_, request_);
    base_->OnPlanCollapsed(plan, subqs, completed_subqs, theta_p);
    busy_s_ += span.End();
  }

  void OnStagesReady(const PhysicalPlan& plan,
                     const std::vector<int>& ready_stage_ids,
                     const std::vector<SubQuery>& subqs,
                     std::vector<StageParams>* theta_s) override {
    ScopedSpan span(tracer_, "runtime.stages_ready", parent_, request_);
    base_->OnStagesReady(plan, ready_stage_ids, subqs, theta_s);
    busy_s_ += span.End();
  }

  double busy_s() const { return busy_s_; }

 private:
  AqeHooks* base_;
  Tracer* tracer_;
  const uint64_t parent_, request_;
  double busy_s_ = 0.0;
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

// ---- replay ----------------------------------------------------------------

ReplayOutcome Replay(const Query& query, const TunerOptions& opts,
                     bool runtime_executed, Tracer* tracer,
                     uint64_t request) {
  ReplayOutcome r;
  ScopedSpan root(tracer, "request", 0, request);

  // The objective-model stack and seed derivation of Tuner::Run.
  AnalyticSubQModel analytic(&query, opts.cluster, opts.cost_params,
                             opts.prices, opts.eval_cache_capacity);
  std::unique_ptr<LearnedSubQModel> learned;
  const SubQObjectiveModel* base = &analytic;
  if (opts.learned_subq_model != nullptr &&
      opts.learned_subq_model->trained()) {
    learned = std::make_unique<LearnedSubQModel>(
        &query, opts.cluster, opts.cost_params, opts.learned_subq_model,
        opts.prices, opts.eval_cache_capacity);
    base = learned.get();
  }
  HmoocOptions ho = opts.hmooc;
  ho.seed = HashCombine(opts.seed, query.seed);
  if (opts.num_threads >= 0) ho.num_threads = opts.num_threads;
  if (ho.fidelity.mode != FidelityMode::kOff) {
    r.error = "replay covers the single-fidelity solve only";
    return r;
  }

  MooRunResult moo;
  {
    ScopedSpan solve(tracer, "moo.solve", root.id(), request);
    TimedModel timed(base, tracer, solve.id(), request);
    moo = HmoocSolver(&timed, ho).Solve();
    r.solve_s = solve.End();
    r.model_calls = timed.calls();
    r.model_rows = timed.rows();
    r.model_busy_s = timed.busy_s();
    r.model_wall_s = timed.wall_s();
  }
  if (moo.pareto.empty()) {
    r.error = "empty Pareto set";
    return r;
  }
  r.evaluations = moo.evaluations;
  r.pareto_size = moo.pareto.size();

  size_t pick = 0;
  {
    ScopedSpan span(tracer, "moo.recommend", root.id(), request);
    pick = moo.Recommend(opts.preference);
    r.recommend_s = span.End();
  }
  const MooSolution& chosen = moo.pareto[pick];
  const ContextParams tc = DecodeContext(chosen.conf);
  PlanParams tp = DecodePlan(chosen.conf);
  StageParams ts = DecodeStage(chosen.conf);
  SubQEvaluator eval(&query, opts.cluster, opts.cost_params, opts.prices,
                     opts.eval_cache_capacity);
  {
    ScopedSpan span(tracer, "runtime.aggregate", root.id(), request);
    if (!chosen.per_subq_conf.empty()) {
      AggregateForSubmission(chosen.per_subq_conf, eval.subqueries(), &tp,
                             &ts);
    }
    r.aggregate_s = span.End();
  }

  Simulator sim(opts.cluster, opts.cost_params, opts.prices);
  AqeDriver driver(&query.plan, &sim);
  AqeResult plain, adaptive;
  {
    ScopedSpan span(tracer, "exec.plain", root.id(), request);
    auto exec = driver.Run(tc, {tp}, {ts}, nullptr, query.seed);
    r.plain_run_s = span.End();
    if (!exec.ok()) {
      r.error = exec.status().ToString();
      return r;
    }
    plain = std::move(*exec);
  }
  {
    ScopedSpan span(tracer, "exec.adaptive", root.id(), request);
    RuntimeOptimizerOptions ro = opts.runtime;
    ro.preference = opts.preference;
    if (opts.num_threads >= 0) ro.num_threads = opts.num_threads;
    RuntimeOptimizer hooks(&eval, ro);
    hooks.set_context(tc);
    if (!chosen.per_subq_conf.empty()) {
      std::vector<PlanParams> init_p;
      std::vector<StageParams> init_s;
      for (const auto& c : chosen.per_subq_conf) {
        init_p.push_back(DecodePlan(c));
        init_s.push_back(DecodeStage(c));
      }
      hooks.set_compile_time_solution(std::move(init_p), std::move(init_s));
    }
    TimedHooks timed_hooks(&hooks, tracer, span.id(), request);
    auto exec = driver.Run(tc, {tp}, {ts}, &timed_hooks, query.seed);
    r.adaptive_run_s = span.End();
    if (!exec.ok()) {
      r.error = exec.status().ToString();
      return r;
    }
    adaptive = std::move(*exec);
    r.runtime_stats = hooks.stats();
    r.hooks_s = timed_hooks.busy_s();
  }
  r.request_s = root.End();

  r.plain_latency = plain.exec.latency;
  r.plain_cost = plain.exec.cost;
  r.adaptive_latency = adaptive.exec.latency;
  r.adaptive_cost = adaptive.exec.cost;
  const AqeResult& executed = runtime_executed ? adaptive : plain;
  r.latency = executed.exec.latency;
  r.cost = executed.exec.cost;
  r.waves = executed.waves;
  r.replans = executed.replans;
  r.path_s =
      r.request_s - (runtime_executed ? r.plain_run_s : r.adaptive_run_s);
  return r;
}

void AddServiceLayerMetrics(const ServiceLayer& s, RunResult* out) {
  out->Add("service.cpu_util", s.cpu_util, "share");
  out->Add("service.shared_cache_hit_rate", s.shared_cache_hit_rate,
           "share");
  out->Add("service.shared_cache_evictions",
           static_cast<double>(s.shared_cache_evictions), "count");
  out->Add("service.batcher_coalesced_share", s.batcher_coalesced_share,
           "share");
  out->Add("service.batcher_rows_per_flush", s.batcher_rows_per_flush,
           "rows");
  out->Add("service.batcher_timeout_flushes",
           static_cast<double>(s.batcher_timeout_flushes), "count");
}

void AddLayerMetrics(const std::vector<ReplayOutcome>& replays,
                     const std::vector<std::pair<double, double>>& reference,
                     double direct_s,
                     const std::vector<std::vector<double>>& preferences,
                     RunResult* out) {
  std::vector<double> solve, moo_self, model_busy, model_wall, overhead,
      runtime_self, simulate, exec_self;
  double sum_solve = 0.0, sum_model_wall = 0.0, sum_path = 0.0;
  uint64_t evaluations = 0, pareto = 0, calls = 0, rows = 0, sent = 0,
           pruned = 0, regressed = 0, waves = 0, replans = 0;
  for (size_t i = 0; i < replays.size(); ++i) {
    const ReplayOutcome& r = replays[i];
    if (!r.error.empty()) {
      out->Fail("traced replay " + std::to_string(i) + ": " + r.error);
      continue;
    }
    if (i < reference.size() && (!SameBits(r.latency, reference[i].first) ||
                                 !SameBits(r.cost, reference[i].second))) {
      out->Fail("traced replay " + std::to_string(i) +
                " does not reproduce Tuner::Run's executed latency/cost");
    }
    solve.push_back(r.solve_s);
    moo_self.push_back(r.solve_s - r.model_wall_s);
    model_busy.push_back(r.model_busy_s);
    model_wall.push_back(r.model_wall_s);
    overhead.push_back(r.adaptive_run_s - r.plain_run_s);
    runtime_self.push_back(r.aggregate_s + r.hooks_s);
    simulate.push_back(r.plain_run_s);
    exec_self.push_back(r.plain_run_s + r.adaptive_run_s - r.hooks_s);
    sum_solve += r.solve_s;
    sum_model_wall += r.model_wall_s;
    sum_path += r.path_s;
    evaluations += r.evaluations;
    pareto += r.pareto_size;
    calls += r.model_calls;
    rows += r.model_rows;
    sent += r.runtime_stats.TotalSent();
    pruned += r.runtime_stats.TotalPruned();
    waves += r.waves;
    replans += r.replans;
    // Regressed: the runtime stage left the request's own weighted
    // objective worse than executing the compile-time pick as submitted.
    const std::vector<double>& w = preferences[i];
    const double ratio = w[0] * r.adaptive_latency / r.plain_latency +
                         w[1] * r.adaptive_cost / r.plain_cost;
    if (ratio > w[0] + w[1]) ++regressed;
  }
  const double ms = 1e3;
  out->Add("moo.solve_ms", ms * Median(solve), "ms");
  out->Add("moo.self_ms", ms * Mean(moo_self), "ms");
  out->Add("moo.evaluations", static_cast<double>(evaluations), "count");
  out->Add("moo.pareto_size", static_cast<double>(pareto), "count");
  out->Add("model.eval_ms", ms * Median(model_busy), "ms");
  out->Add("model.self_ms", ms * Mean(model_wall), "ms");
  out->Add("model.eval_share", sum_solve > 0 ? sum_model_wall / sum_solve : 0,
           "share");
  out->Add("model.rows_per_call",
           calls > 0 ? static_cast<double>(rows) / calls : 0.0, "rows");
  out->Add("runtime.overhead_ms", ms * Median(overhead), "ms");
  out->Add("runtime.self_ms", ms * Mean(runtime_self), "ms");
  out->Add("runtime.requests_sent", static_cast<double>(sent), "count");
  out->Add("runtime.pruned_share",
           sent + pruned > 0 ? static_cast<double>(pruned) / (sent + pruned)
                             : 0.0,
           "share");
  out->Add("runtime.regressed_queries", static_cast<double>(regressed),
           "count");
  out->Add("exec.simulate_ms", ms * Median(simulate), "ms");
  out->Add("exec.self_ms", ms * Mean(exec_self), "ms");
  out->Add("exec.waves", static_cast<double>(waves), "count");
  out->Add("exec.replans", static_cast<double>(replans), "count");
  out->Add("trace.overhead_pct",
           direct_s > 0 ? 100.0 * (sum_path - direct_s) / direct_s : 0.0,
           "%");
  out->Report("trace.replayed_requests", static_cast<double>(replays.size()),
              "count");
}

}  // namespace perfbench
