/// \file main.cc
/// \brief Entry point of the repository benchmark. perfbench/run.py builds
/// this binary and passes it the workload constants from
/// perfbench/workloads.json; see perfbench/README.md for the contract.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [consts]
///
/// Prints report and metadata lines, then one JSON object as the last
/// line of stdout. Exits 1 when a correctness check fails, 2 on bad
/// arguments or an unexpected error (then without a JSON line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a->trace = std::string(v) == "1";
    else if (k == "--trace-dir") a->trace_dir = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--rate") a->rate = std::strtod(v, nullptr);
    else if (k == "--limit-ms") a->limit_ms = std::strtod(v, nullptr);
    else if (k == "--capacity-requests") a->capacity_requests = std::atoi(v);
    else if (k == "--publish-every") a->publish_every = std::atoi(v);
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

void PrintJsonMetrics(const std::vector<perfbench::Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--rate R --limit-ms L --capacity-requests N "
                 "--publish-every N --trace-dir D "
                 "--git-sha SHA]\n");
    return 2;
  }
  RunResult r;
  try {
    if (args.workload == "offline_tune") {
      r = perfbench::RunOfflineTune(args);
    } else if (args.workload == "service_repeat" ||
               args.workload == "service_churn") {
      if (args.rate <= 0 || args.limit_ms <= 0 || args.capacity_requests < 1 ||
          (args.workload == "service_churn" && args.publish_every < 1)) {
        std::fprintf(stderr, "%s needs --rate, --limit-ms, "
                     "--capacity-requests (and --publish-every)\n",
                     args.workload.c_str());
        return 2;
      }
      r = perfbench::RunService(args, args.workload == "service_churn");
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::vector<perfbench::Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", r.setup_s, "s"});
    metrics.push_back({"peak_rss_mb", perfbench::PeakRssMb(), "MB"});
  }
  metrics.insert(metrics.end(), r.metrics.begin(), r.metrics.end());
  for (perfbench::Metric& m : metrics) {
    if (!std::isfinite(m.value)) {  // JSON has no NaN; a hole is a failure
      r.Fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const auto& m : r.report) {
    std::printf("report %s %s = %.6g %s\n", args.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::printf("FAILED check: %s\n", e.c_str());
  }
  r.Meta("workload", args.workload);
  r.Meta("seed", static_cast<double>(args.seed));
  r.Meta("seconds", args.seconds);
  r.Meta("trace", args.trace ? 1.0 : 0.0);
  r.Meta("nproc", perfbench::Nproc());
  r.Meta("cpu_model", perfbench::CpuModel());
  r.Meta("build_type", PERFBENCH_BUILD_TYPE);
  r.Meta("git_sha", args.git_sha);
  r.Meta("setup_s", r.setup_s);
  r.Meta("attempted", static_cast<double>(r.attempted));
  r.Meta("failed", static_cast<double>(r.failed));
  std::printf("meta {");
  for (size_t i = 0; i < r.meta.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", r.meta[i].first.c_str(),
                r.meta[i].second.c_str());
  }
  std::printf("}\n");

  const bool correct = r.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  PrintJsonMetrics(metrics);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
