#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file report.h
/// \brief `TuningReport`: the end-to-end record of one tuning session —
/// where the time went, what the models cost, what the simulator did,
/// and what was chosen from the Pareto front — rendered as
/// human-readable text and JSON (round-trippable via FromJson).
///
/// The report is plain data plus serialization so `obs` stays a leaf
/// library; `BuildTuningReport` in tuner/tuner.h fills it from a
/// `TuningOutcome` and the session's metrics and trace.

namespace sparkopt {
namespace obs {

/// One runtime re-solve observed during adaptive execution.
struct ResolveRecord {
  std::string kind;       ///< "lqp" (collapsed-plan), the only kind sent
  double seconds = 0.0;   ///< time spent inside the re-solve
  double at_seconds = 0.0;  ///< session time when it started
};

/// \brief Aggregated observability record of one optimize→execute session.
struct TuningReport {
  // ---- Identity --------------------------------------------------------
  std::string query;
  std::string method;

  // ---- Compile-time solving -------------------------------------------
  double compile_solve_seconds = 0.0;
  uint64_t compile_evaluations = 0;

  // ---- Runtime re-optimization ----------------------------------------
  std::vector<ResolveRecord> runtime_resolves;
  double runtime_overhead_seconds = 0.0;
  int64_t lqp_sent = 0, lqp_pruned = 0;

  // ---- Model inference -------------------------------------------------
  uint64_t model_inferences = 0;
  HistogramStats inference_us;

  // ---- Simulated execution --------------------------------------------
  int64_t sim_stages = 0;
  int64_t sim_tasks = 0;
  int64_t sim_spilled_tasks = 0;
  double sim_shuffle_read_bytes = 0.0;
  double sim_io_bytes = 0.0;
  int64_t aqe_waves = 0;
  int64_t aqe_replans = 0;

  // ---- Outcome ---------------------------------------------------------
  size_t pareto_size = 0;
  std::vector<std::array<double, 2>> pareto;  ///< {latency, cost} points
  std::array<double, 2> chosen{0.0, 0.0};     ///< WUN-picked objectives
  double exec_latency_seconds = 0.0;
  double exec_cost_dollars = 0.0;

  /// Total time spent in runtime re-solves (sum over runtime_resolves).
  double RuntimeResolveSeconds() const;

  std::string ToText() const;
  Json ToJsonValue() const;
  std::string ToJson(int indent = 2) const { return ToJsonValue().Dump(indent); }
  static Result<TuningReport> FromJson(const std::string& text);
};

}  // namespace obs
}  // namespace sparkopt
