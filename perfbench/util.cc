/// \file util.cc
/// \brief Measurement, comparison and JSON helpers declared in bench.h.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/pareto_verifier.h"
#include "bench.h"
#include "common/rng.h"

namespace perfbench {

void RunResult::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  meta.emplace_back(key, buf);
}

void RunResult::Meta(const std::string& key, const std::string& value) {
  meta.emplace_back(key, JsonString(value));
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  // The processor brand string, from CPUID leaves 0x80000002-4.
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void HashDoubles(const std::vector<double>& v, uint64_t* h) {
  *h = sparkopt::HashCombine(*h, v.size());
  if (!v.empty()) {
    *h = sparkopt::HashCombine(
        *h, sparkopt::Fnv1a(v.data(), v.size() * sizeof(double)));
  }
}

void HashSolution(const sparkopt::MooSolution& s, uint64_t* h) {
  HashDoubles(s.objectives, h);
  HashDoubles(s.conf, h);
  *h = sparkopt::HashCombine(*h, s.per_subq_conf.size());
  for (const auto& c : s.per_subq_conf) HashDoubles(c, h);
}

}  // namespace

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameSolution(const sparkopt::MooSolution& a,
                  const sparkopt::MooSolution& b) {
  if (!SameDoubles(a.objectives, b.objectives) ||
      !SameDoubles(a.conf, b.conf) ||
      a.per_subq_conf.size() != b.per_subq_conf.size()) {
    return false;
  }
  for (size_t i = 0; i < a.per_subq_conf.size(); ++i) {
    if (!SameDoubles(a.per_subq_conf[i], b.per_subq_conf[i])) return false;
  }
  return true;
}

bool SameFront(const sparkopt::MooRunResult& a,
               const sparkopt::MooRunResult& b) {
  if (a.pareto.size() != b.pareto.size()) return false;
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    if (!SameSolution(a.pareto[i], b.pareto[i])) return false;
  }
  return true;
}

uint64_t FrontHash(const sparkopt::MooRunResult& moo,
                   const sparkopt::MooSolution& chosen) {
  uint64_t h = sparkopt::HashCombine(0x5eedULL, moo.pareto.size());
  for (const auto& s : moo.pareto) HashSolution(s, &h);
  HashSolution(chosen, &h);
  return h;
}

void CheckFront(const std::string& what, const sparkopt::MooRunResult& moo,
                const sparkopt::MooSolution& chosen, RunResult* out) {
  std::vector<sparkopt::ObjectiveVector> front;
  front.reserve(moo.pareto.size());
  for (const auto& s : moo.pareto) front.push_back(s.objectives);
  sparkopt::analysis::VerifyInput in;
  in.front = &front;
  in.site = "perfbench";
  const auto report = sparkopt::analysis::ParetoVerifier().Verify(in);
  if (front.empty()) {
    out->Fail(what + ": empty Pareto set");
  } else if (!report.ok()) {
    out->Fail(what + ": " + report.ToStatus().ToString());
  }
  bool member = false;
  for (const auto& s : moo.pareto) member = member || SameSolution(s, chosen);
  if (!member) out->Fail(what + ": recommended solution is not on the front");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
