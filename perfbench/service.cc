/// \file service.cc
/// \brief Workloads service_repeat and service_churn: a seeded Poisson
/// open loop into one TuningService (default options, batcher and shared
/// cache on) serving the learned subQ model.
///
/// service_repeat draws Zipf-popular requests over twelve recurring
/// TPC-H/TPC-DS plans and three preference vectors under one artifact
/// version. service_churn sends every request with a plan of its own
/// (a variant of the same twelve templates) and publishes a new artifact
/// version, with the same regressor, before every overload burst and
/// every `publish_every` fixed-rate requests.
///
/// After set-up a run measures in kParts rounds: an overload burst (every
/// request due at once; the queue admits all of them) that measures
/// capacity, then a window of the open loop at the workload's fixed
/// offered rate, timed per request from its due time to the resolution
/// of its future.

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include <sys/prctl.h>

#include "bench.h"
#include "common/rng.h"
#include "exec/aqe.h"
#include "exec/simulator.h"
#include "params/spark_params.h"
#include "service/load_gen.h"
#include "service/model_bootstrap.h"
#include "service/tuning_service.h"
#include "trace.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace perfbench {

using namespace sparkopt;

namespace {

/// Session workers; with the load generator thread they fill a 4-core
/// host without oversubscribing it.
constexpr int kSessions = 3;
constexpr int kSetupReps = 3;
/// The timed phases run as this many rounds of an overload burst and a
/// fixed-rate window. Capacity is the median burst rate and each latency
/// percentile the median over windows, so a transient stall of a shared
/// host moves one part, not the run.
constexpr size_t kParts = 5;
/// service_churn warm-up: distinct plans available to fill the shared
/// cache, submitted kWarmChunk at a time.
constexpr size_t kChurnWarmPool = 480;
constexpr size_t kWarmChunk = 24;
/// service_churn: correctness-checked requests per phase.
constexpr size_t kChurnCheckedCapacity = 8;
constexpr size_t kChurnCheckedLatency = 32;
/// Longest the load generator sleeps between checks for resolved futures.
constexpr auto kPollInterval = std::chrono::microseconds(50);

/// The twelve recurring templates, in Zipf popularity order.
struct Template {
  bool tpch;
  int qid;
};
constexpr Template kTemplates[] = {
    {true, 3},  {false, 7},  {true, 4},  {false, 50},
    {true, 10}, {false, 4},  {true, 13}, {false, 96},
    {true, 18}, {false, 53}, {true, 12}, {false, 86}};
constexpr size_t kNumTemplates = std::size(kTemplates);

const std::vector<std::vector<double>>& Preferences() {
  static const std::vector<std::vector<double>> prefs = {
      {0.9, 0.1}, {0.5, 0.5}, {0.1, 0.9}};
  return prefs;
}

/// Service-sized solver budget shipped in every artifact version:
/// concurrency comes from sessions, so each solve is single-threaded, and
/// the budget is small enough that a 4-core host serves ~100 distinct
/// plans per second, so a 25 s run holds over 1000 churn requests.
HmoocOptions ServiceBudget() {
  HmoocOptions h;
  h.theta_c_samples = 12;
  h.clusters = 3;
  h.theta_p_samples = 16;
  h.enriched_samples = 4;
  h.num_threads = 1;
  return h;
}

struct Request {
  const Query* query = nullptr;
  int pref = 0;
};

/// A request the correctness gate re-solved directly, with the options
/// of that direct Tuner::Run (replayed by the traced run).
struct ReplayKey {
  Request request;
  TunerOptions options;
};

/// What the load generator keeps of one resolved request.
struct Served {
  bool ok = false;
  double queue_wait_ms = 0.0, solve_ms = 0.0;
  Clock::time_point due, submitted, done;
  uint64_t front = 0;  ///< FrontHash of the served result
  MooSolution chosen;  ///< service_churn: executed for the quality metrics
};

/// Everything set-up builds. Requests point into the plan pools and the
/// plans into the catalogs, so a world is heap-allocated and never moved;
/// the service is declared last so it is destroyed first.
struct ServiceWorld {
  std::vector<TableStats> tpch = TpchCatalog(100.0);
  std::vector<TableStats> tpcds = TpcdsCatalog(100.0);
  std::vector<Query> templates;
  /// service_churn plan pools (one plan per request).
  std::vector<Query> warm_pool, capacity_pool, latency_pool;
  std::vector<Request> warm, capacity, latency;
  /// Spark-default execution of each latency-pool plan (churn) or of
  /// each template (repeat), in pool order.
  std::vector<double> default_latency, default_cost;
  Regressor regressor;
  double train_s = 0.0;
  /// service_churn artifact versions: one per overload burst, and one per
  /// block of the fixed-rate windows keyed by its first request.
  std::vector<std::shared_ptr<ServiceArtifacts>> capacity_versions;
  std::vector<std::pair<size_t, std::shared_ptr<ServiceArtifacts>>>
      latency_versions;
  ArtifactRegistry registry;
  std::unique_ptr<TuningService> service;
};

Result<Query> MakePlan(const ServiceWorld& w, const Template& t,
                       uint64_t variant) {
  auto q = t.tpch ? MakeTpchQuery(t.qid, &w.tpch, variant)
                  : MakeTpcdsQuery(t.qid, &w.tpcds, variant);
  if (q.ok() && variant != 0) q->name += "#v" + std::to_string(variant);
  return q;
}

TunerOptions DirectOptions(const ServiceArtifacts& a, int pref) {
  TunerOptions to;
  to.cluster = a.cluster;
  to.cost_params = a.cost_params;
  to.prices = a.prices;
  to.hmooc = a.hmooc;
  to.eval_cache_capacity = a.eval_cache_capacity;
  to.seed = TuningServiceOptions().seed;
  to.preference = Preferences()[pref];
  if (a.subq_model.trained()) to.learned_subq_model = &a.subq_model;
  return to;
}

std::shared_ptr<ServiceArtifacts> MakeVersion(
    const ServiceWorld& w, const std::vector<const Query*>& queries,
    RunResult* out) {
  auto a = std::make_shared<ServiceArtifacts>();
  a->name = "perfbench";
  a->hmooc = ServiceBudget();
  a->subq_model = w.regressor;
  for (const Query* q : queries) {
    const Status st = a->AddQuery(*q);
    if (!st.ok()) out->Fail("artifact " + q->name + ": " + st.ToString());
  }
  return a;
}

/// Plan pool of one churn phase: entry j is a fresh variant of template
/// j mod 12 with preference (j / 12) mod 3, so the set of (plan,
/// preference) pairs is fixed; the seed only sets the submission order.
void BuildChurnPool(ServiceWorld* w, size_t n, uint64_t variant_base,
                    uint64_t order_seed, std::vector<Query>* pool,
                    std::vector<Request>* requests, RunResult* out) {
  pool->reserve(n);
  std::vector<int> prefs;
  for (size_t j = 0; j < n; ++j) {
    auto q = MakePlan(*w, kTemplates[j % kNumTemplates], variant_base + j);
    if (!q.ok()) {
      out->Fail("churn plan: " + q.status().ToString());
      continue;
    }
    pool->push_back(std::move(*q));
    prefs.push_back(static_cast<int>((j / kNumTemplates) % 3));
  }
  std::vector<size_t> order(pool->size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(order_seed);
  rng.Shuffle(&order);
  for (const size_t j : order) requests->push_back({&(*pool)[j], prefs[j]});
}

/// Zipf(s = 1) over the templates in popularity order, uniform over the
/// preference vectors.
void DrawRepeatRequests(const ServiceWorld& w, size_t n, uint64_t seed,
                        std::vector<Request>* requests) {
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < w.templates.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform() * total;
    const size_t t = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        w.templates.size() - 1);
    const int pref = static_cast<int>(rng.NextBounded(3));
    requests->push_back({&w.templates[t], pref});
  }
}

/// Artifact versions of the timed phases (see RunService): one per
/// overload burst, holding that burst's plans, and one before every
/// `every` requests of each fixed-rate window, holding the plans of that
/// block and of its neighbours in the window, so requests still queued
/// across a publish resolve.
void BuildChurnVersions(ServiceWorld* w, size_t every, RunResult* out) {
  const size_t n_cap = w->capacity.size(), n_lat = w->latency.size();
  for (size_t part = 0; part < kParts; ++part) {
    std::vector<const Query*> qs;
    for (size_t i = n_cap * part / kParts; i < n_cap * (part + 1) / kParts;
         ++i) {
      qs.push_back(w->capacity[i].query);
    }
    w->capacity_versions.push_back(MakeVersion(*w, qs, out));
    const size_t lo = n_lat * part / kParts, hi = n_lat * (part + 1) / kParts;
    for (size_t start = lo; start < hi; start += every) {
      std::vector<const Query*> window;
      const size_t from = start >= lo + every ? start - every : lo;
      for (size_t i = from; i < std::min(hi, start + 2 * every); ++i) {
        window.push_back(w->latency[i].query);
      }
      w->latency_versions.emplace_back(start, MakeVersion(*w, window, out));
    }
  }
}

Result<AqeResult> ExecuteAsSubmitted(const Query& query,
                                     const TunerOptions& opts,
                                     const MooSolution& chosen) {
  // Tuner::Run's HMOOC3 execution of a recommended solution.
  const ContextParams tc = DecodeContext(chosen.conf);
  PlanParams tp = DecodePlan(chosen.conf);
  StageParams ts = DecodeStage(chosen.conf);
  if (!chosen.per_subq_conf.empty()) {
    SubQEvaluator eval(&query, opts.cluster, opts.cost_params, opts.prices,
                       opts.eval_cache_capacity);
    AggregateForSubmission(chosen.per_subq_conf, eval.subqueries(), &tp, &ts);
  }
  Simulator sim(opts.cluster, opts.cost_params, opts.prices);
  AqeDriver driver(&query.plan, &sim);
  return driver.Run(tc, {tp}, {ts}, nullptr, query.seed);
}

void SubmitAndWait(TuningService* service, const std::vector<Request>& reqs,
                   RunResult* out) {
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (const Request& r : reqs) {
    futures.push_back(service->Submit(TuningRequest(
        r.query->name, "default", Preferences()[r.pref])));
  }
  for (auto& f : futures) {
    auto res = f.get();
    if (!res.ok()) out->Fail("warm-up request: " + res.status().ToString());
  }
}

std::unique_ptr<ServiceWorld> SetUp(const Args& args, bool churn,
                                    size_t latency_requests,
                                    RunResult* out) {
  auto w = std::make_unique<ServiceWorld>();
  for (const Template& t : kTemplates) {
    auto q = MakePlan(*w, t, 0);
    if (!q.ok()) {
      out->Fail("template plan: " + q.status().ToString());
      return w;
    }
    w->templates.push_back(std::move(*q));
  }

  // Model bootstrap: one regressor over the twelve canonical templates.
  std::vector<const Query*> train;
  for (const Query& q : w->templates) train.push_back(&q);
  const ServiceArtifacts defaults;
  BootstrapOptions bo;
  bo.samples_per_query = 16;
  bo.hidden = {24, 12};
  bo.epochs = 30;
  const auto t_train = Clock::now();
  auto reg = FitSubQRegressor(train, defaults.cluster, defaults.cost_params,
                              defaults.prices, bo);
  w->train_s = Seconds(t_train, Clock::now());
  if (!reg.ok()) {
    out->Fail("model bootstrap: " + reg.status().ToString());
    return w;
  }
  w->regressor = std::move(*reg);

  std::vector<const Query*> initial;
  if (churn) {
    const size_t cap = static_cast<size_t>(args.capacity_requests);
    BuildChurnPool(w.get(), kChurnWarmPool, 1000000,
                   HashCombine(args.seed, 1), &w->warm_pool, &w->warm, out);
    BuildChurnPool(w.get(), cap, 2000000, HashCombine(args.seed, 2),
                   &w->capacity_pool, &w->capacity, out);
    BuildChurnPool(w.get(), latency_requests, 3000000,
                   HashCombine(args.seed, 3), &w->latency_pool, &w->latency,
                   out);
    for (const Query& q : w->warm_pool) initial.push_back(&q);
    BuildChurnVersions(w.get(), static_cast<size_t>(args.publish_every), out);
  } else {
    for (const Query& q : w->templates) initial.push_back(&q);
    for (size_t t = 0; t < w->templates.size(); ++t) {
      for (int p = 0; p < 3; ++p) w->warm.push_back({&w->templates[t], p});
    }
    DrawRepeatRequests(*w, static_cast<size_t>(args.capacity_requests),
                       HashCombine(args.seed, 2), &w->capacity);
    DrawRepeatRequests(*w, latency_requests, HashCombine(args.seed, 3),
                       &w->latency);
  }

  // Spark-default baselines of every plan the quality metrics cover.
  const Tuner def{TunerOptions()};
  for (const Query& q : churn ? w->latency_pool : w->templates) {
    auto d = def.Run(q, TuningMethod::kDefault);
    if (!d.ok()) out->Fail(q.name + " default: " + d.status().ToString());
    w->default_latency.push_back(d.ok() ? d->execution.exec.latency : 0.0);
    w->default_cost.push_back(d.ok() ? d->execution.exec.cost : 0.0);
  }

  w->registry.Publish(MakeVersion(*w, initial, out));
  TuningServiceOptions so;
  so.sessions = kSessions;
  // The overload phase queues every request at once; admit them all.
  so.queue_capacity = std::max(so.queue_capacity,
                               static_cast<size_t>(args.capacity_requests));
  w->service = std::make_unique<TuningService>(&w->registry, so);
  // Warm-up pass: every recurring key once (repeat); distinct plans until
  // the shared cache is full and evicting, its steady state (churn).
  const SharedEvalCache* cache = w->service->shared_cache();
  for (size_t lo = 0; lo < w->warm.size(); lo += kWarmChunk) {
    const size_t hi = std::min(w->warm.size(), lo + kWarmChunk);
    SubmitAndWait(w->service.get(),
                  std::vector<Request>(w->warm.begin() + static_cast<long>(lo),
                                       w->warm.begin() + static_cast<long>(hi)),
                  out);
    if (churn && cache != nullptr &&
        cache->occupancy() * 10 >= cache->capacity() * 9) {
      break;
    }
  }
  return w;
}

struct CounterSnapshot {
  uint64_t hits = 0, misses = 0, evictions = 0;
  InferenceBatcher::Stats batcher;
};

CounterSnapshot Snapshot(const TuningService& s) {
  CounterSnapshot c;
  if (s.shared_cache() != nullptr) {
    c.hits = s.shared_cache()->hits();
    c.misses = s.shared_cache()->misses();
    c.evictions = s.shared_cache()->evictions();
  }
  c.batcher = s.batcher().stats();
  return c;
}

ServiceLayer LayerDelta(const CounterSnapshot& a, const CounterSnapshot& b,
                        double cpu_util) {
  ServiceLayer l;
  l.cpu_util = cpu_util;
  const uint64_t lookups = (b.hits - a.hits) + (b.misses - a.misses);
  l.shared_cache_hit_rate =
      lookups > 0 ? static_cast<double>(b.hits - a.hits) / lookups : 0.0;
  l.shared_cache_evictions = b.evictions - a.evictions;
  const uint64_t rows = b.batcher.rows - a.batcher.rows;
  const uint64_t flushes =
      (b.batcher.full_flushes - a.batcher.full_flushes) +
      (b.batcher.timeout_flushes - a.batcher.timeout_flushes) +
      (b.batcher.solo - a.batcher.solo);
  l.batcher_coalesced_share =
      rows > 0 ? static_cast<double>(b.batcher.coalesced_rows -
                                     a.batcher.coalesced_rows) /
                     rows
               : 0.0;
  l.batcher_rows_per_flush =
      flushes > 0 ? static_cast<double>(rows) / flushes : 0.0;
  l.batcher_timeout_flushes =
      b.batcher.timeout_flushes - a.batcher.timeout_flushes;
  return l;
}

/// Folds one resolved future into `s`; keeps the full result of the
/// requests the correctness gate re-solves.
void Resolve(Result<TuningServiceResult> res, bool keep_chosen,
             bool keep_full, Served* s,
             std::map<size_t, TuningServiceResult>* full, size_t index) {
  s->ok = res.ok();
  if (!res.ok()) return;
  s->queue_wait_ms = 1e3 * res->queue_wait_seconds;
  s->solve_ms = 1e3 * res->solve_seconds;
  s->front = FrontHash(res->moo, res->chosen);
  if (keep_chosen) s->chosen = res->chosen;
  if (keep_full) full->emplace(index, std::move(*res));
}

}  // namespace

RunResult RunService(const Args& args, bool churn) {
  RunResult res;
  const size_t n_lat = static_cast<size_t>(
      std::max(1.0, std::round(args.rate * args.seconds)));
  const size_t n_cap = static_cast<size_t>(args.capacity_requests);
  const size_t every = static_cast<size_t>(std::max(1, args.publish_every));

  std::vector<double> setups;
  std::unique_ptr<ServiceWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const auto t0 = Clock::now();
    world = SetUp(args, churn, n_lat, &res);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  res.setup_s = Median(setups);
  if (!res.errors.empty() || world->service == nullptr) return res;
  ServiceWorld& w = *world;
  TuningService& service = *w.service;

  // Requests whose full result the correctness gate compares with a
  // direct solve: a seeded sample on service_churn, the first of each
  // key on service_repeat (all others are compared by front hash).
  std::vector<bool> check_cap(n_cap, false), check_lat(n_lat, false);
  std::map<size_t, TuningServiceResult> full_cap, full_lat;
  std::set<std::pair<const Query*, int>> kept_keys;
  auto keep_lat = [&](size_t i) {
    if (churn) return static_cast<bool>(check_lat[i]);
    return kept_keys.insert({w.latency[i].query, w.latency[i].pref}).second;
  };
  if (churn) {
    Rng rng(HashCombine(args.seed, 4));
    for (size_t k = 0; k < kChurnCheckedCapacity && n_cap > 0; ++k) {
      check_cap[rng.NextBounded(n_cap)] = true;
    }
    for (size_t k = 0; k < kChurnCheckedLatency; ++k) {
      check_lat[rng.NextBounded(n_lat)] = true;
    }
  }
  std::vector<double> publish_ms;
  auto publish = [&](const std::shared_ptr<ServiceArtifacts>& v) {
    const auto t0 = Clock::now();
    w.registry.Publish(v);
    publish_ms.push_back(1e3 * Seconds(t0, Clock::now()));
  };

  Tracer tracer;  // spans are recorded on trace runs only
  const CounterSnapshot before = Snapshot(service);
  const size_t warm_occupancy =
      service.shared_cache() ? service.shared_cache()->occupancy() : 0;

  // ---- Timed phases ---------------------------------------------------------
  // kParts rounds, each an overload burst (capacity) followed by a window
  // of the fixed-rate open loop (latency), so both metrics sample the
  // whole run rather than one stretch of it.
  std::vector<Served> cap(n_cap), lat(n_lat);
  std::vector<std::future<Result<TuningServiceResult>>> futures(n_lat);
  const std::vector<double> schedule =
      PoissonArrivalSchedule(args.rate, n_lat, HashCombine(args.seed, 5));
  std::vector<double> burst_rps;
  double cap_wall = 0.0, cap_cpu = 0.0;
  uint64_t cap_ok = 0;
  size_t next_version = 0;
  for (size_t part = 0; part < kParts; ++part) {
    // Overload burst: every request of the burst is due at once.
    {
      const size_t lo = n_cap * part / kParts;
      const size_t hi = n_cap * (part + 1) / kParts;
      if (churn) publish(w.capacity_versions[part]);
      const double cpu0 = ProcessCpuSeconds();
      const auto start = Clock::now();
      std::vector<std::future<Result<TuningServiceResult>>> burst;
      for (size_t i = lo; i < hi; ++i) {
        const Request& r = w.capacity[i];
        burst.push_back(service.Submit(TuningRequest(
            r.query->name, "default", Preferences()[r.pref])));
      }
      uint64_t ok = 0;
      for (size_t i = lo; i < hi; ++i) {
        Resolve(burst[i - lo].get(), false, churn && check_cap[i], &cap[i],
                &full_cap, i);
        ok += cap[i].ok ? 1 : 0;
      }
      const double wall = Seconds(start, Clock::now());
      cap_wall += wall;
      cap_cpu += ProcessCpuSeconds() - cpu0;
      cap_ok += ok;
      burst_rps.push_back(static_cast<double>(ok) / wall);
    }
    // Fixed-rate window: one thread submits each request at its due time
    // and, while waiting for the next, records when futures resolve.
    const size_t lo = n_lat * part / kParts, hi = n_lat * (part + 1) / kParts;
    if (lo == hi) continue;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const double offset = lo > 0 ? schedule[lo - 1] : 0.0;
    for (size_t i = lo; i < hi; ++i) {
      lat[i].due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(schedule[i] -
                                                             offset));
    }
    // Sleep no longer than asked: the default 50 us timer slack of this
    // thread would otherwise add to every due time and completion stamp.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<size_t> pending;
    size_t next = lo;
    while (next < hi || !pending.empty()) {
      while (next < hi && lat[next].due <= Clock::now()) {
        if (churn && next_version < w.latency_versions.size() &&
            w.latency_versions[next_version].first == next) {
          publish(w.latency_versions[next_version++].second);
        }
        const Request& r = w.latency[next];
        lat[next].submitted = Clock::now();
        futures[next] = service.Submit(
            TuningRequest(r.query->name, "default", Preferences()[r.pref]));
        pending.push_back(next++);
      }
      for (size_t k = 0; k < pending.size();) {
        const size_t i = pending[k];
        if (futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        lat[i].done = Clock::now();
        Resolve(futures[i].get(), churn, keep_lat(i), &lat[i], &full_lat, i);
        pending.erase(pending.begin() + static_cast<long>(k));
      }
      auto wake = Clock::now() + kPollInterval;
      if (next < hi) wake = std::min(wake, lat[next].due);
      if (!pending.empty()) {
        futures[pending.front()].wait_until(wake);
      } else {
        std::this_thread::sleep_until(wake);
      }
    }
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  }
  const double cpu_util = cap_cpu / (cap_wall * kSessions);
  const double capacity_rps = Median(burst_rps);
  const CounterSnapshot after = Snapshot(service);

  std::vector<double> sojourn, lateness, queue_wait, solve, window_p50,
      window_p90;
  uint64_t lat_ok = 0, within = 0;
  for (size_t k = 0; k < kParts; ++k) {
    std::vector<double> window;
    for (size_t i = n_lat * k / kParts; i < n_lat * (k + 1) / kParts; ++i) {
      const Served& s = lat[i];
      lateness.push_back(1e3 * Seconds(s.due, s.submitted));
      if (!s.ok) continue;
      ++lat_ok;
      const double sojourn_ms = 1e3 * Seconds(s.due, s.done);
      window.push_back(sojourn_ms);
      queue_wait.push_back(s.queue_wait_ms);
      solve.push_back(s.solve_ms);
      if (sojourn_ms <= args.limit_ms) ++within;
    }
    window_p50.push_back(Quantile(window, 0.50));
    window_p90.push_back(Quantile(window, 0.90));
    sojourn.insert(sojourn.end(), window.begin(), window.end());
  }
  res.attempted = n_cap + n_lat;
  res.failed = (n_cap - cap_ok) + (n_lat - lat_ok);
  if (res.failed > 0) {
    res.Fail(std::to_string(res.failed) +
             " requests failed or were refused");
  }

  // ---- Correctness gate and quality ---------------------------------------
  // Each checked request is re-solved by a direct Tuner::Run of the same
  // (query, preference, artifact version) and must match bit for bit.
  const auto artifacts = w.registry.Current();
  std::vector<ReplayKey> keys;
  // Trace runs replay each checked request, traced, right after its
  // untraced direct run (see offline.cc).
  std::vector<ReplayOutcome> replays;
  double direct_s = 0.0;
  std::vector<std::pair<double, double>> direct_exec;
  double tuned_lat = 0.0, tuned_cost = 0.0, def_lat = 0.0, def_cost = 0.0;
  auto direct = [&](const Request& r) -> Result<TuningOutcome> {
    TunerOptions to = DirectOptions(*artifacts, r.pref);
    const auto t0 = Clock::now();
    auto out = Tuner(to).Run(*r.query, TuningMethod::kHmooc3);
    direct_s += Seconds(t0, Clock::now());
    if (out.ok()) {
      keys.push_back({r, to});
      direct_exec.emplace_back(out->execution.exec.latency,
                               out->execution.exec.cost);
      if (args.trace) {
        replays.push_back(Replay(*r.query, to, /*runtime_executed=*/false,
                                 &tracer, n_lat + keys.size()));
      }
    }
    return out;
  };
  if (!churn) {
    // Every distinct (template, preference) key: the first served result
    // in full, every other served result by its front hash.
    std::map<std::pair<const Query*, int>, size_t> first_served;
    std::map<std::pair<const Query*, int>, std::vector<uint64_t>> hashes;
    for (size_t i = 0; i < n_lat; ++i) {
      const auto key = std::make_pair(w.latency[i].query, w.latency[i].pref);
      if (lat[i].ok) hashes[key].push_back(lat[i].front);
      if (full_lat.count(i) && !first_served.count(key)) first_served[key] = i;
    }
    for (size_t i = 0; i < n_cap; ++i) {
      const auto key = std::make_pair(w.capacity[i].query, w.capacity[i].pref);
      if (cap[i].ok) hashes[key].push_back(cap[i].front);
    }
    for (size_t t = 0; t < w.templates.size(); ++t) {
      for (int p = 0; p < 3; ++p) {
        const Request r{&w.templates[t], p};
        const auto key = std::make_pair(r.query, p);
        auto out = direct(r);
        if (!out.ok()) {
          res.Fail(r.query->name + " direct: " + out.status().ToString());
          continue;
        }
        CheckFront(r.query->name, out->moo, out->chosen, &res);
        const uint64_t want = FrontHash(out->moo, out->chosen);
        for (const uint64_t h : hashes[key]) {
          if (h != want) {
            res.Fail(r.query->name +
                     ": a served front differs from Tuner::Run");
            break;
          }
        }
        auto it = first_served.find(key);
        if (it != first_served.end()) {
          const TuningServiceResult& got = full_lat.at(it->second);
          if (!SameFront(got.moo, out->moo) ||
              !SameSolution(got.chosen, out->chosen)) {
            res.Fail(r.query->name + ": served front is not bitwise equal");
          }
        }
        tuned_lat += out->execution.exec.latency;
        tuned_cost += out->execution.exec.cost;
        def_lat += w.default_latency[t];
        def_cost += w.default_cost[t];
      }
    }
  } else {
    auto check = [&](const Request& r, const TuningServiceResult& got) {
      auto out = direct(r);
      if (!out.ok()) {
        res.Fail(r.query->name + " direct: " + out.status().ToString());
        return;
      }
      if (!SameFront(got.moo, out->moo) ||
          !SameSolution(got.chosen, out->chosen)) {
        res.Fail(r.query->name + ": served front is not bitwise equal");
      }
    };
    for (const auto& [i, got] : full_cap) check(w.capacity[i], got);
    for (const auto& [i, got] : full_lat) check(w.latency[i], got);
    // Quality of every served latency-phase answer, executed as submitted
    // and summed in pool order, so the sums do not depend on the seed.
    std::vector<std::pair<double, double>> tuned(w.latency_pool.size(),
                                                 {-1.0, -1.0});
    for (size_t i = 0; i < n_lat; ++i) {
      if (!lat[i].ok) continue;
      const Request& r = w.latency[i];
      auto exec = ExecuteAsSubmitted(
          *r.query, DirectOptions(*artifacts, r.pref), lat[i].chosen);
      if (!exec.ok()) {
        res.Fail(r.query->name + " execute: " + exec.status().ToString());
        continue;
      }
      if (full_lat.count(i)) {
        // The sampled direct run executed the same pick.
        for (size_t k = 0; k < keys.size(); ++k) {
          if (keys[k].request.query == r.query &&
              (!SameBits(direct_exec[k].first, exec->exec.latency) ||
               !SameBits(direct_exec[k].second, exec->exec.cost))) {
            res.Fail(r.query->name +
                     ": executed pick differs from Tuner::Run");
          }
        }
      }
      tuned[static_cast<size_t>(r.query - w.latency_pool.data())] = {
          exec->exec.latency, exec->exec.cost};
    }
    for (size_t j = 0; j < tuned.size(); ++j) {
      if (tuned[j].first < 0) continue;
      tuned_lat += tuned[j].first;
      tuned_cost += tuned[j].second;
      def_lat += w.default_latency[j];
      def_cost += w.default_cost[j];
    }
  }

  const double p50 = Median(window_p50), p90 = Median(window_p90),
               p99 = Quantile(sojourn, 0.99);
  const double slo = static_cast<double>(within) / n_lat;
  const double lat_red = 100.0 * (1.0 - tuned_lat / def_lat);
  const double cost_ratio = tuned_cost / def_cost;
  const double error_rate =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);

  if (!args.trace) {
    res.Add("success_rate", 1.0 - error_rate, "share");
    res.Add("throughput_rps", capacity_rps, "1/s");
    res.Add("latency_ms_p50", p50, "ms");
    res.Add("slo_attainment", slo, "share");
    res.Add("latency_reduction_pct", lat_red, "%");
    res.Add("cost_ratio", cost_ratio, "ratio");
  } else {
    // Client-side request timeline, from the generator's own timestamps
    // and the queue wait / solve time each result reports.
    for (size_t i = 0; i < n_lat; ++i) {
      const Served& s = lat[i];
      Span span;
      span.name = "service.request";
      span.id = tracer.NextId();
      span.request = i + 1;
      span.start_ns = tracer.ToNs(s.due);
      span.end_ns = tracer.ToNs(s.done);
      tracer.Record(span);
      Span wait = span;
      wait.name = "service.queue_wait";
      wait.id = tracer.NextId();
      wait.parent = span.id;
      wait.start_ns = tracer.ToNs(s.submitted);
      wait.end_ns =
          wait.start_ns + static_cast<int64_t>(1e6 * s.queue_wait_ms);
      tracer.Record(wait);
    }
    std::vector<std::vector<double>> prefs;
    for (const ReplayKey& k : keys) prefs.push_back(k.options.preference);
    AddServiceLayerMetrics(LayerDelta(before, after, cpu_util), &res);
    AddLayerMetrics(replays, direct_exec, direct_s, prefs, &res);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (tracer.Write(path)) res.Meta("trace_file", path);
    res.Meta("spans", static_cast<double>(tracer.size()));
  }

  res.Report("capacity_rps", capacity_rps, "req/s");
  res.Report("sojourn_ms_p50", p50, "ms");
  res.Report("sojourn_ms_p90", p90, "ms");
  res.Report("sojourn_ms_p99", p99, "ms");
  res.Report("slo_attainment", slo, "share");
  res.Report("error_rate", error_rate, "share");
  res.Report("latency_reduction_pct", lat_red, "%");
  res.Report("cost_reduction_pct", 100.0 * (1.0 - cost_ratio), "%");
  res.Report("service.cpu_util", cpu_util, "share");
  res.Report("service.queue_wait_ms_p99", Quantile(queue_wait, 0.99), "ms");
  res.Report("service.solve_ms_p50", Quantile(solve, 0.50), "ms");
  res.Report("service.publish_ms",
             publish_ms.empty() ? 0.0 : Median(publish_ms), "ms");
  res.Report("loadgen.lateness_ms_p99", Quantile(lateness, 0.99), "ms");
  res.Report("model.train_s", w.train_s, "s");

  auto join = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) {
      if (!out.empty()) out += ' ';
      out += std::to_string(x);
    }
    return out;
  };
  res.Meta("burst_rps", join(burst_rps));
  res.Meta("window_p50_ms", join(window_p50));
  res.Meta("window_p90_ms", join(window_p90));
  res.Meta("sessions", kSessions);
  if (service.shared_cache() != nullptr) {
    res.Meta("cache_occupancy_after_warmup",
             static_cast<double>(warm_occupancy));
  }
  res.Meta("offered_rps", args.rate);
  res.Meta("limit_ms", args.limit_ms);
  res.Meta("capacity_requests", static_cast<double>(n_cap));
  res.Meta("latency_requests", static_cast<double>(n_lat));
  res.Meta("latency_samples", static_cast<double>(sojourn.size()));
  res.Meta("publish_every", churn ? static_cast<double>(every) : 0.0);
  res.Meta("publishes", static_cast<double>(publish_ms.size()));
  res.Meta("checked_requests", static_cast<double>(keys.size()));
  res.Meta("setup_reps", kSetupReps);
  return res;
}

}  // namespace perfbench
