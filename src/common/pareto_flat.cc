#include "common/pareto_flat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/trace.h"

namespace sparkopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sorts `order` (resized/iota'd here) by (x, y, position). This is the
// canonical sweep order shared by every kernel primitive: x ascending,
// ties by y ascending, exact duplicates by position so the sweep is
// deterministic.
void SortByXY(const double* x, const double* y, size_t n,
              std::vector<uint32_t>* order) {
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t i, uint32_t j) {
    if (x[i] != x[j]) return x[i] < x[j];
    if (y[i] != y[j]) return y[i] < y[j];
    return i < j;
  });
}

}  // namespace

void FlatParetoPositions(const double* x, const double* y, size_t n,
                         std::vector<uint32_t>* kept,
                         ParetoScratch* scratch) {
  kept->clear();
  if (n == 0) return;
  SortByXY(x, y, n, &scratch->order);
  // Sweep keeping the running minimum of y. A point survives when it
  // strictly improves the minimum, or is an exact duplicate of the last
  // survivor (duplicates sort adjacently) — the non-dominated multiset.
  double best_y = kInf;
  double prev_x = std::numeric_limits<double>::quiet_NaN();
  double prev_y = std::numeric_limits<double>::quiet_NaN();
  for (uint32_t idx : scratch->order) {
    if (!kept->empty() && x[idx] == prev_x && y[idx] == prev_y) {
      kept->push_back(idx);
      continue;
    }
    if (y[idx] < best_y) {
      kept->push_back(idx);
      best_y = y[idx];
      prev_x = x[idx];
      prev_y = y[idx];
    }
  }
  std::sort(kept->begin(), kept->end());
}

namespace {

// Min-heap on sum-x. std::push_heap builds a max-heap, so the
// comparator is inverted.
struct CellGreater {
  bool operator()(const ParetoScratch::HeapCell& a,
                  const ParetoScratch::HeapCell& b) const {
    return a.x > b.x;
  }
};

// True when y is non-increasing along the (x, y)-sorted order — i.e.
// the input is a clean staircase, which licenses the binary-search row
// skip inside the merge.
bool IsMonotoneStaircase(const std::vector<double>& ys) {
  for (size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] > ys[i - 1]) return false;
  }
  return true;
}

}  // namespace

void FlatMerge2(const Front2& a, const Front2& b, Front2* out,
                ParetoScratch* scratch) {
  out->clear();
  scratch->pairs.clear();
  const size_t an = a.size();
  const size_t bn = b.size();
  if (an == 0 || bn == 0) return;

  // Stage both inputs sorted by (x, y, position) into contiguous scratch,
  // remembering sorted-position -> original-position maps.
  SortByXY(a.x.data(), a.y.data(), an, &scratch->order);
  scratch->ax.resize(an);
  scratch->ay.resize(an);
  scratch->amap.resize(an);
  for (size_t i = 0; i < an; ++i) {
    const uint32_t src = scratch->order[i];
    scratch->ax[i] = a.x[src];
    scratch->ay[i] = a.y[src];
    scratch->amap[i] = src;
  }
  SortByXY(b.x.data(), b.y.data(), bn, &scratch->order);
  scratch->bx.resize(bn);
  scratch->by.resize(bn);
  scratch->bmap.resize(bn);
  for (size_t j = 0; j < bn; ++j) {
    const uint32_t src = scratch->order[j];
    scratch->bx[j] = b.x[src];
    scratch->by[j] = b.y[src];
    scratch->bmap[j] = src;
  }
  const double* ax = scratch->ax.data();
  const double* ay = scratch->ay.data();
  const double* bx = scratch->bx.data();
  const double* by = scratch->by.data();
  // A front's staircase has y monotone in sorted order; only then can a
  // row binary-search past cells that can no longer survive. Non-front
  // inputs (never produced by the solvers) still merge correctly, one
  // cell at a time.
  const bool can_skip = IsMonotoneStaircase(scratch->by);

  auto& heap = scratch->heap;
  auto& group = scratch->group;
  auto& keys = scratch->keys;
  heap.clear();
  keys.clear();

  // The sum matrix M[i][j] = sorted_a[i] + sorted_b[j] is monotone in x
  // along both axes, so popping a min-heap of per-row frontier cells
  // enumerates cells in nondecreasing sum-x. best_y is the minimum sum-y
  // over all cells with strictly smaller sum-x; a cell whose sum-y
  // reaches best_y can never be kept later (kept y values only
  // decrease), which is what the row skip exploits.
  double best_y = kInf;

  // Pushes row i's next viable cell at position >= j, or retires the row.
  auto push_row = [&](uint32_t i, uint32_t j) {
    if (can_skip && j < bn && ay[i] + by[j] >= best_y) {
      // First j' with sum-y < best_y; sum-y is non-increasing in j.
      size_t lo = j + 1, hi = bn;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (ay[i] + by[mid] < best_y) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      j = static_cast<uint32_t>(lo);
    }
    if (j >= bn) return;
    heap.push_back({ax[i] + bx[j], ay[i] + by[j], i, j});
    std::push_heap(heap.begin(), heap.end(), CellGreater{});
  };

  for (uint32_t i = 0; i < an; ++i) push_row(i, 0);

  while (!heap.empty()) {
    // Drain the equal-sum-x group: within it, survivors are the cells
    // achieving the group minimum sum-y (there may be several — exact
    // duplicates are kept), provided they beat best_y from strictly
    // smaller x.
    const double gx = heap.front().x;
    group.clear();
    double gmin = kInf;
    while (!heap.empty() && heap.front().x == gx) {
      std::pop_heap(heap.begin(), heap.end(), CellGreater{});
      const ParetoScratch::HeapCell cell = heap.back();
      heap.pop_back();
      gmin = std::min(gmin, cell.y);
      group.push_back(cell);
      push_row(cell.i, cell.j + 1);
    }
    if (gmin < best_y) {
      for (const auto& cell : group) {
        if (cell.y == gmin) {
          keys.push_back(static_cast<uint64_t>(scratch->amap[cell.i]) * bn +
                         scratch->bmap[cell.j]);
        }
      }
      best_y = gmin;
    }
  }

  // Emit in cross-product order — the order the naive path's stable
  // filter produces — recomputing each sum with the same expression.
  std::sort(keys.begin(), keys.end());
  out->reserve(keys.size());
  scratch->pairs.reserve(keys.size());
  for (uint64_t key : keys) {
    const uint32_t i = static_cast<uint32_t>(key / bn);
    const uint32_t j = static_cast<uint32_t>(key % bn);
    out->Append(a.x[i] + b.x[j], a.y[i] + b.y[j], out->size());
    scratch->pairs.push_back({i, j});
  }
  // Merge-size distributions for the profiler (worker-thread safe; one
  // relaxed load each when no session is installed).
  obs::Observe("pareto.merge_in_points", static_cast<double>(an + bn));
  obs::Observe("pareto.merge_out_points", static_cast<double>(out->size()));
}

double FlatHypervolume2(const double* x, const double* y, size_t n,
                        double ref_x, double ref_y, ParetoScratch* scratch) {
  if (n == 0) return 0.0;
  SortByXY(x, y, n, &scratch->order);
  // Left-to-right staircase strips [x_i, ref_x] x [y_i, last_y].
  // Dominated and duplicate points fail the strict-improvement test and
  // contribute no term, so the accumulation order and terms are exactly
  // those of the filter-then-sum path.
  double hv = 0.0;
  double last_y = ref_y;
  for (uint32_t idx : scratch->order) {
    if (x[idx] >= ref_x) break;
    const double clipped_y = std::min(y[idx], last_y);
    if (clipped_y < last_y) {
      hv += (ref_x - x[idx]) * (last_y - clipped_y);
      last_y = clipped_y;
    }
  }
  return hv;
}

bool ParetoInsert(Front2* front, double px, double py, size_t id) {
  // Position of the first point lex->= (px, py); everything before is
  // strictly lex-smaller.
  const size_t n = front->size();
  size_t lo = 0, hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const bool less = front->x[mid] < px ||
                      (front->x[mid] == px && front->y[mid] < py);
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t pos = lo;
  // In a sorted front y is non-increasing, so the tightest potential
  // dominator is the immediate predecessor: lex-smaller with y <= py
  // always strictly dominates (strict in x, or equal x with strictly
  // smaller y).
  if (pos > 0 && front->y[pos - 1] <= py) return false;
  // Points from pos on have x >= px; those with y >= py are dominated
  // unless they are exact duplicates of (px, py), which sort first and
  // are kept. They form a contiguous run.
  size_t cut = pos;
  while (cut < n && front->x[cut] == px && front->y[cut] == py) ++cut;
  size_t end = cut;
  while (end < n && front->y[end] >= py) ++end;
  front->x.erase(front->x.begin() + cut, front->x.begin() + end);
  front->y.erase(front->y.begin() + cut, front->y.begin() + end);
  front->payload.erase(front->payload.begin() + cut,
                       front->payload.begin() + end);
  front->x.insert(front->x.begin() + pos, px);
  front->y.insert(front->y.begin() + pos, py);
  front->payload.insert(front->payload.begin() + pos, id);
  return true;
}

// ---- k = 3 primitives ----------------------------------------------------

namespace {

// Canonical 3-D sweep order: (x, y, z, position). Exact duplicates sort
// adjacently, and any strict dominator of a point sorts before it.
void SortByXYZ(const double* x, const double* y, const double* z, size_t n,
               std::vector<uint32_t>* order) {
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t i, uint32_t j) {
    if (x[i] != x[j]) return x[i] < x[j];
    if (y[i] != y[j]) return y[i] < y[j];
    if (z[i] != z[j]) return z[i] < z[j];
    return i < j;
  });
}

// (y, z) minima staircase over the kept points of a lexicographic sweep:
// sy strictly ascending, sz strictly descending, so the best (smallest)
// z among kept points with y' <= py is the entry at the largest y' <= py.

// True when some staircase point weakly dominates (py, pz) on (y, z).
bool StairCovers(const std::vector<double>& sy, const std::vector<double>& sz,
                 double py, double pz) {
  const auto it = std::upper_bound(sy.begin(), sy.end(), py);
  if (it == sy.begin()) return false;
  return sz[static_cast<size_t>(it - sy.begin()) - 1] <= pz;
}

// Inserts a kept point's (py, pz), preserving the invariant. A point
// already weakly covered contributes nothing and is skipped.
void StairInsert(std::vector<double>* sy, std::vector<double>* sz, double py,
                 double pz) {
  const auto it = std::upper_bound(sy->begin(), sy->end(), py);
  size_t pos = static_cast<size_t>(it - sy->begin());
  if (pos > 0 && (*sz)[pos - 1] <= pz) return;  // covered: useless entry
  if (pos > 0 && (*sy)[pos - 1] == py) {
    // Same y, strictly better z: tighten in place.
    --pos;
    (*sz)[pos] = pz;
  } else {
    sy->insert(sy->begin() + pos, py);
    sz->insert(sz->begin() + pos, pz);
  }
  // Entries after pos with z >= pz are now covered.
  size_t end = pos + 1;
  while (end < sz->size() && (*sz)[end] >= pz) ++end;
  sy->erase(sy->begin() + pos + 1, sy->begin() + end);
  sz->erase(sz->begin() + pos + 1, sz->begin() + end);
}

}  // namespace

void FlatParetoPositions3(const double* x, const double* y, const double* z,
                          size_t n, std::vector<uint32_t>* kept,
                          ParetoScratch* scratch) {
  kept->clear();
  if (n == 0) return;
  SortByXYZ(x, y, z, n, &scratch->order);
  auto& sy = scratch->sy;
  auto& sz = scratch->sz;
  sy.clear();
  sz.clear();
  // Lexicographic sweep: any strict dominator of point p sorts before p,
  // and a kept earlier point with y' <= y and z' <= z dominates (x' <= x
  // is implied; the tuples are distinct because exact duplicates are
  // handled by decision-sharing below). Dominated earlier points never
  // need to be consulted: their own kept dominator covers transitively.
  double prev_x = std::numeric_limits<double>::quiet_NaN();
  double prev_y = prev_x, prev_z = prev_x;
  bool prev_kept = false;
  bool first = true;
  for (uint32_t idx : scratch->order) {
    if (!first && x[idx] == prev_x && y[idx] == prev_y && z[idx] == prev_z) {
      if (prev_kept) kept->push_back(idx);
      continue;
    }
    first = false;
    prev_x = x[idx];
    prev_y = y[idx];
    prev_z = z[idx];
    prev_kept = !StairCovers(sy, sz, y[idx], z[idx]);
    if (prev_kept) {
      kept->push_back(idx);
      StairInsert(&sy, &sz, y[idx], z[idx]);
    }
  }
  std::sort(kept->begin(), kept->end());
}

namespace {

struct Cell3Greater {
  bool operator()(const ParetoScratch::HeapCell3& a,
                  const ParetoScratch::HeapCell3& b) const {
    return a.x > b.x;
  }
};

}  // namespace

void FlatMerge3(const Front3& a, const Front3& b, Front3* out,
                ParetoScratch* scratch) {
  out->clear();
  scratch->pairs.clear();
  const size_t an = a.size();
  const size_t bn = b.size();
  if (an == 0 || bn == 0) return;

  // Stage both inputs sorted by (x, y, z, position).
  SortByXYZ(a.x.data(), a.y.data(), a.z.data(), an, &scratch->order);
  scratch->ax.resize(an);
  scratch->ay.resize(an);
  scratch->az.resize(an);
  scratch->amap.resize(an);
  for (size_t i = 0; i < an; ++i) {
    const uint32_t src = scratch->order[i];
    scratch->ax[i] = a.x[src];
    scratch->ay[i] = a.y[src];
    scratch->az[i] = a.z[src];
    scratch->amap[i] = src;
  }
  SortByXYZ(b.x.data(), b.y.data(), b.z.data(), bn, &scratch->order);
  scratch->bx.resize(bn);
  scratch->by.resize(bn);
  scratch->bz.resize(bn);
  scratch->bmap.resize(bn);
  for (size_t j = 0; j < bn; ++j) {
    const uint32_t src = scratch->order[j];
    scratch->bx[j] = b.x[src];
    scratch->by[j] = b.y[src];
    scratch->bz[j] = b.z[src];
    scratch->bmap[j] = src;
  }
  const double* ax = scratch->ax.data();
  const double* ay = scratch->ay.data();
  const double* az = scratch->az.data();
  const double* bx = scratch->bx.data();
  const double* by = scratch->by.data();
  const double* bz = scratch->bz.data();

  auto& heap = scratch->heap3;
  auto& group = scratch->group3;
  auto& keys = scratch->keys;
  auto& sy = scratch->sy;
  auto& sz = scratch->sz;
  heap.clear();
  keys.clear();
  sy.clear();
  sz.clear();

  // Per-row frontier cells on a min-heap keyed by sum-x: row i's cells
  // (i, 0..bn) have nondecreasing sum-x, so popping the heap enumerates
  // the whole product grouped by nondecreasing sum-x — without the 2-D
  // kernel's binary-search row skip (no single scalar prunes a 3-D row).
  auto push_row = [&](uint32_t i, uint32_t j) {
    if (j >= bn) return;
    heap.push_back({ax[i] + bx[j], ay[i] + by[j], az[i] + bz[j], i, j});
    std::push_heap(heap.begin(), heap.end(), Cell3Greater{});
  };
  for (uint32_t i = 0; i < an; ++i) push_row(i, 0);

  auto& gy = scratch->gy;
  auto& gz = scratch->gz;
  while (!heap.empty()) {
    // Drain the equal-sum-x group.
    const double gx = heap.front().x;
    group.clear();
    while (!heap.empty() && heap.front().x == gx) {
      std::pop_heap(heap.begin(), heap.end(), Cell3Greater{});
      const ParetoScratch::HeapCell3 cell = heap.back();
      heap.pop_back();
      group.push_back(cell);
      push_row(cell.i, cell.j + 1);
    }
    // Within the group the first coordinates are equal, so 3-D dominance
    // reduces to 2-D dominance on (sum-y, sum-z) — multiset semantics
    // included (equal cells never dominate each other).
    gy.resize(group.size());
    gz.resize(group.size());
    for (size_t g = 0; g < group.size(); ++g) {
      gy[g] = group[g].y;
      gz[g] = group[g].z;
    }
    FlatParetoPositions(gy.data(), gz.data(), group.size(), &scratch->kept,
                        scratch);
    // Survivors must also escape every kept cell from strictly smaller
    // sum-x: weak (y, z)-coverage there is strict 3-D dominance. Query
    // all survivors first, then insert — same-group survivors with equal
    // (y, z) are duplicates, not dominators.
    size_t new_from = keys.size();
    for (uint32_t g : scratch->kept) {
      if (StairCovers(sy, sz, group[g].y, group[g].z)) continue;
      keys.push_back(static_cast<uint64_t>(scratch->amap[group[g].i]) * bn +
                     scratch->bmap[group[g].j]);
      // Stash the staircase coordinates after the key so the insert pass
      // below does not re-derive them: reuse gy/gz slots indexed from 0.
      gy[keys.size() - 1 - new_from] = group[g].y;
      gz[keys.size() - 1 - new_from] = group[g].z;
    }
    for (size_t p = 0; p < keys.size() - new_from; ++p) {
      StairInsert(&sy, &sz, gy[p], gz[p]);
    }
  }

  // Emit in cross-product order with the naive path's exact sums.
  std::sort(keys.begin(), keys.end());
  out->reserve(keys.size());
  scratch->pairs.reserve(keys.size());
  for (uint64_t key : keys) {
    const uint32_t i = static_cast<uint32_t>(key / bn);
    const uint32_t j = static_cast<uint32_t>(key % bn);
    out->Append(a.x[i] + b.x[j], a.y[i] + b.y[j], a.z[i] + b.z[j],
                out->size());
    scratch->pairs.push_back({i, j});
  }
  obs::Observe("pareto.merge_in_points", static_cast<double>(an + bn));
  obs::Observe("pareto.merge_out_points", static_cast<double>(out->size()));
}

bool ParetoInsert3(Front3* front, double px, double py, double pz, size_t id) {
  const size_t n = front->size();
  // Position of the first point lex->= (px, py, pz).
  size_t lo = 0, hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const double mx = front->x[mid], my = front->y[mid], mz = front->z[mid];
    const bool less = mx < px || (mx == px && (my < py ||
                                  (my == py && mz < pz)));
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t pos = lo;
  // A dominator is lexicographically smaller (strictly — equal tuples do
  // not dominate), so it lives in [0, pos): any such point with y <= py
  // and z <= pz dominates. Unlike 2-D there is no single tightest
  // predecessor, so scan the prefix.
  for (size_t q = 0; q < pos; ++q) {
    if (front->y[q] <= py && front->z[q] <= pz) return false;
  }
  // Exact duplicates of the new point sort at [pos, cut) and are kept.
  size_t cut = pos;
  while (cut < n && front->x[cut] == px && front->y[cut] == py &&
         front->z[cut] == pz) {
    ++cut;
  }
  // Points from cut on have x >= px; the new point dominates those with
  // y >= py and z >= pz (distinct by construction). They are not
  // contiguous in 3-D: compact in one forward pass.
  size_t w = cut;
  for (size_t q = cut; q < n; ++q) {
    if (front->y[q] >= py && front->z[q] >= pz) continue;  // dominated
    front->x[w] = front->x[q];
    front->y[w] = front->y[q];
    front->z[w] = front->z[q];
    front->payload[w] = front->payload[q];
    ++w;
  }
  front->x.resize(w);
  front->y.resize(w);
  front->z.resize(w);
  front->payload.resize(w);
  front->x.insert(front->x.begin() + pos, px);
  front->y.insert(front->y.begin() + pos, py);
  front->z.insert(front->z.begin() + pos, pz);
  front->payload.insert(front->payload.begin() + pos, id);
  return true;
}

}  // namespace sparkopt
