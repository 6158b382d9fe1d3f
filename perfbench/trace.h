#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "moo/problem.h"
#include "runtime/runtime_optimizer.h"
#include "tuner/tuner.h"

/// \file trace.h
/// \brief Benchmark-side tracing for the traced (--trace 1) run.
///
/// Spans are recorded only from perfbench's own code, around calls into
/// the public API of each layer: HmoocSolver::Solve (moo), every
/// SubQObjectiveModel call through the TimedModel decorator (model),
/// AggregateForSubmission and the RuntimeOptimizer hooks (runtime), and
/// AqeDriver::Run (exec). Spans stay in memory and are written out when
/// the run ends.

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< spans of one request share this id
  uint32_t tid = 0;
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NowNs() const { return ToNs(Clock::now()); }
  int64_t ToNs(Clock::time_point t) const;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  size_t size() const;
  /// Writes every span as one Chrome trace-event JSON document.
  bool Write(const std::string& path) const;

 private:
  uint32_t ThreadIndexLocked();

  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<size_t, uint32_t>> threads_;  ///< thread hash -> idx
};

/// RAII span; End() closes it early.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();
  double seconds() const { return 1e-9 * (span_.end_ns - span_.start_ns); }

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
};

/// What one traced replay of a request measured (times in seconds).
struct ReplayOutcome {
  std::string error;  ///< empty = ok
  /// Executed path: what Tuner::Run executes for the workload's method.
  double latency = 0.0, cost = 0.0;
  int waves = 0, replans = 0;
  /// Compile-time pick executed without, and with, the runtime hooks.
  double plain_latency = 0.0, plain_cost = 0.0;
  double adaptive_latency = 0.0, adaptive_cost = 0.0;
  size_t evaluations = 0, pareto_size = 0;
  sparkopt::RequestStats runtime_stats;
  uint64_t model_calls = 0, model_rows = 0;

  double request_s = 0.0;     ///< whole replay of the request
  double path_s = 0.0;        ///< request minus the non-executed run
  double solve_s = 0.0;       ///< HmoocSolver::Solve
  double model_busy_s = 0.0;  ///< model calls, summed over threads
  double model_wall_s = 0.0;  ///< union of model-call intervals
  double recommend_s = 0.0;
  double aggregate_s = 0.0;
  double plain_run_s = 0.0;     ///< AqeDriver::Run without hooks
  double adaptive_run_s = 0.0;  ///< AqeDriver::Run with hooks
  double hooks_s = 0.0;         ///< inside the RuntimeOptimizer hooks
};

/// Replays Tuner::Run's compile-time + execution path step by step
/// through the public calls named in the file comment, with spans.
/// `runtime_executed` selects which execution is the executed path
/// (true: HMOOC3+, with hooks; false: HMOOC3).
ReplayOutcome Replay(const sparkopt::Query& query,
                     const sparkopt::TunerOptions& opts,
                     bool runtime_executed, Tracer* tracer,
                     uint64_t request);

/// Service-layer counters of one run (all zero except cpu_util on the
/// offline workload, which bypasses the service).
struct ServiceLayer {
  /// Process CPU time / (wall time x worker threads).
  double cpu_util = 0.0;
  double shared_cache_hit_rate = 0.0;
  uint64_t shared_cache_evictions = 0;
  double batcher_coalesced_share = 0.0;
  double batcher_rows_per_flush = 0.0;
  uint64_t batcher_timeout_flushes = 0;
};

/// Adds the service.* per-layer metrics to `out` (first in the list).
void AddServiceLayerMetrics(const ServiceLayer& s, RunResult* out);

/// Adds the per-layer metrics over a set of replays to `out`, and checks
/// each replay against the matching Tuner::Run outcome (`reference`,
/// executed latency and cost) bit for bit. `direct_s` is the summed wall
/// time of those untraced Tuner::Run calls.
void AddLayerMetrics(const std::vector<ReplayOutcome>& replays,
                     const std::vector<std::pair<double, double>>& reference,
                     double direct_s,
                     const std::vector<std::vector<double>>& preferences,
                     RunResult* out);

}  // namespace perfbench
