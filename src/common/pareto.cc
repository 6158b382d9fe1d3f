#include "common/pareto.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/pareto_flat.h"

namespace sparkopt {

namespace {

// Per-thread SoA staging columns and kernel scratch: solver worker
// threads call the wrappers below concurrently, and the buffers reach a
// steady state after the first few calls on each thread. The columns
// live outside the scratch, so no kernel can overwrite its own input.
struct Staging {
  std::vector<double> x, y, z;
  ParetoScratch scratch;
};

Staging& TlsStaging() {
  thread_local Staging staging;
  return staging;
}

}  // namespace

bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  bool strictly_better = false;
  const size_t k = a.size();
  for (size_t i = 0; i < k; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points) {
  if (points.empty()) return {};
  const size_t n = points.size();
  const size_t k = points[0].size();
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "ParetoIndices supports 2 or 3 objectives, got " << k;
  Staging& st = TlsStaging();
  st.x.resize(n);
  st.y.resize(n);
  st.z.resize(k == 3 ? n : 0);
  for (size_t i = 0; i < n; ++i) {
    st.x[i] = points[i][0];
    st.y[i] = points[i][1];
    if (k == 3) st.z[i] = points[i][2];
  }
  std::vector<uint32_t>& kept = st.scratch.kept;
  if (k == 2) {
    FlatParetoPositions(st.x.data(), st.y.data(), n, &kept, &st.scratch);
  } else {
    FlatParetoPositions3(st.x.data(), st.y.data(), st.z.data(), n, &kept,
                         &st.scratch);
  }
  return {kept.begin(), kept.end()};
}

std::vector<ObjectiveVector> ParetoFilter(
    const std::vector<ObjectiveVector>& points) {
  std::vector<ObjectiveVector> out;
  for (size_t i : ParetoIndices(points)) out.push_back(points[i]);
  return out;
}

double Hypervolume2D(const std::vector<ObjectiveVector>& front,
                     const ObjectiveVector& ref) {
  if (front.empty()) return 0.0;
  // Staircase sweep in the flat kernel: dominated/duplicate points fail
  // the strict-improvement test there, so no filter or dedup pass is
  // needed and the accumulated terms are identical.
  Staging& st = TlsStaging();
  st.x.resize(front.size());
  st.y.resize(front.size());
  for (size_t i = 0; i < front.size(); ++i) {
    st.x[i] = front[i][0];
    st.y[i] = front[i][1];
  }
  return FlatHypervolume2(st.x.data(), st.y.data(), front.size(), ref[0],
                          ref[1], &st.scratch);
}

size_t WeightedUtopiaNearest(const std::vector<ObjectiveVector>& front,
                             const std::vector<double>& weights) {
  if (front.empty()) return std::numeric_limits<size_t>::max();
  const size_t k = front[0].size();
  ObjectiveVector lo(k, std::numeric_limits<double>::infinity());
  ObjectiveVector hi(k, -std::numeric_limits<double>::infinity());
  for (const auto& p : front) {
    for (size_t i = 0; i < k; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < front.size(); ++j) {
    double d = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double range = hi[i] - lo[i];
      const double norm = range > 0 ? (front[j][i] - lo[i]) / range : 0.0;
      const double w = i < weights.size() ? weights[i] : 1.0;
      d += (w * norm) * (w * norm);
    }
    if (d < best_d) {
      best_d = d;
      best = j;
    }
  }
  return best;
}

std::vector<ObjectiveVector> MergeFrontsNaive(
    const std::vector<ObjectiveVector>& a,
    const std::vector<ObjectiveVector>& b, std::vector<MergePair>* pairs) {
  pairs->clear();
  std::vector<ObjectiveVector> product;
  product.reserve(a.size() * b.size());
  const size_t k = a.empty() ? 0 : a[0].size();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      ObjectiveVector sum(k);
      for (size_t d = 0; d < k; ++d) sum[d] = a[i][d] + b[j][d];
      product.push_back(std::move(sum));
    }
  }
  std::vector<ObjectiveVector> out;
  for (size_t idx : ParetoIndices(product)) {
    out.push_back(std::move(product[idx]));
    pairs->push_back({static_cast<uint32_t>(idx / b.size()),
                      static_cast<uint32_t>(idx % b.size())});
  }
  return out;
}

}  // namespace sparkopt
