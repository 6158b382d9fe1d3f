#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "moo/problem.h"

/// \file bench.h
/// \brief Shared types of the repository benchmark (perfbench/README.md):
/// command-line arguments, the result every workload returns, and the
/// small measurement helpers the workloads share.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Parsed command line. run.py fills the workload constants (offered
/// rate, latency limit, ...) from perfbench/workloads.json.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string trace_dir = ".";
  std::string git_sha = "unknown";
  /// Service workloads: fixed offered rate (req/s) of the latency phase.
  double rate = 0.0;
  /// Service workloads: latency limit (ms) behind slo_attainment.
  double limit_ms = 0.0;
  /// Service workloads: requests in the overload capacity phase.
  int capacity_requests = 0;
  /// service_churn: publish a new artifact version every N requests.
  int publish_every = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` is the gated set printed on
/// the final JSON line (end-to-end metrics untraced, per-layer metrics
/// traced); `report` holds further named numbers printed on report lines.
struct RunResult {
  /// Median wall time of the run's repeated set-ups (seconds).
  double setup_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  /// Run metadata: key -> already-JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> meta;
  /// One line per failed correctness check (empty = correct).
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Report(const std::string& name, double value,
              const std::string& unit) {
    report.push_back({name, value, unit});
  }
  void Meta(const std::string& key, double value);
  void Meta(const std::string& key, const std::string& value);
  void Fail(const std::string& what) { errors.push_back(what); }
};

RunResult RunOfflineTune(const Args& args);
RunResult RunService(const Args& args, bool churn);

// ---- measurement helpers (util.cc) ---------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b);
double ProcessCpuSeconds();
/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
std::string CpuModel();
int Nproc();

/// Exact quantile of `v` with linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Bitwise equality of two solutions (objectives, conf, per-subQ confs).
bool SameSolution(const sparkopt::MooSolution& a,
                  const sparkopt::MooSolution& b);
/// Bitwise equality of two Pareto sets, solution by solution.
bool SameFront(const sparkopt::MooRunResult& a,
               const sparkopt::MooRunResult& b);
/// FNV-1a over the bytes of every solution in the front plus the pick.
uint64_t FrontHash(const sparkopt::MooRunResult& moo,
                   const sparkopt::MooSolution& chosen);
bool SameBits(double a, double b);

/// Checks that `moo` is a valid Pareto set (analysis::ParetoVerifier) and
/// that `chosen` is one of its members; appends failures to `out`.
void CheckFront(const std::string& what, const sparkopt::MooRunResult& moo,
                const sparkopt::MooSolution& chosen, RunResult* out);

std::string JsonString(const std::string& s);

}  // namespace perfbench
