#include "analysis/pareto_verifier.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/pareto.h"

namespace sparkopt {
namespace analysis {

namespace {

std::string PointLoc(size_t i, size_t n) {
  return "point " + std::to_string(i) + "/" + std::to_string(n);
}

}  // namespace

bool ParetoVerifier::applicable(const VerifyInput& in) const {
  return in.front != nullptr;
}

VerifyReport ParetoVerifier::Verify(const VerifyInput& in) const {
  VerifyReport report = MakeReport(in);
  const std::vector<ObjectiveVector>& front = *in.front;
  if (front.empty()) return report;

  const size_t n = front.size();
  const size_t k = front.front().size();
  if (k == 0) {
    report.Add(StatusCode::kInvalidArgument, PointLoc(0, n),
               "objective vector is empty");
    return report;
  }
  bool dims_ok = true;
  for (size_t i = 0; i < n; ++i) {
    if (front[i].size() != k) {
      report.Add(StatusCode::kInvalidArgument, PointLoc(i, n),
                 "dimension " + std::to_string(front[i].size()) +
                     " differs from the front's dimension " +
                     std::to_string(k));
      dims_ok = false;
    }
    for (size_t d = 0; d < front[i].size(); ++d) {
      if (!std::isfinite(front[i][d])) {
        report.Add(StatusCode::kOutOfRange, PointLoc(i, n),
                   "objective " + std::to_string(d) + " is " +
                       std::to_string(front[i][d]));
      }
    }
  }
  if (!dims_ok) return report;

  // Mutual non-dominance. For k = 2 and k = 3 the flat kernel behind
  // ParetoIndices decides the common all-clear case in O(n log n); the
  // quadratic scan below only runs to name the offending pairs in the
  // report (and for any other k). Dominates() is strict, so exact
  // duplicates (stable-order ties kept by ParetoIndices) never flag each
  // other.
  if ((k == 2 || k == 3) && ParetoIndices(front).size() == n) return report;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && Dominates(front[i], front[j])) {
        report.Add(StatusCode::kInternal, PointLoc(j, n),
                   "dominated by point " + std::to_string(i) +
                       " — the front is not mutually non-dominated");
      }
    }
  }
  return report;
}

}  // namespace analysis
}  // namespace sparkopt
