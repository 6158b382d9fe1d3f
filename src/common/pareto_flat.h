#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file pareto_flat.h
/// \brief The flat Pareto kernel: allocation-free structure-of-arrays
/// primitives for the dominant 2- and 3-objective cases.
///
/// Every MOO solver in this repo bottoms out in three operations —
/// non-dominated filtering, Minkowski-sum merging (HMOOC1's
/// divide-and-conquer DAG aggregation, Algorithm 3), and the incremental
/// archive — and the AoS `ObjectiveVector` representation pays one heap
/// allocation per point for each of them. This kernel keeps a front as three
/// contiguous arrays (x, y, payload), reuses caller-owned scratch
/// buffers, and never materializes the |a| x |b| cross product of a
/// merge.
///
/// Semantics contract (shared with common/pareto.h): all objectives are
/// minimized; a "front" is the *non-dominated multiset* of its input —
/// exact duplicates of a non-dominated point are all kept — and every
/// operation preserves the caller's point order (for the merge: the
/// cross-product order i * |b| + j). These are exactly the semantics of
/// the quadratic dominance filter and of the materializing oracle
/// `MergeFrontsNaive`, so the kernel produces bitwise-identical fronts;
/// `tests/common/pareto_flat_test.cc` and `pareto_flat3_test.cc` pin the
/// equivalence property.

namespace sparkopt {

/// \brief A 2-objective front in structure-of-arrays layout.
///
/// `x[i]`/`y[i]` are the two (minimized) objectives of point i;
/// `payload[i]` is an opaque caller id (combination-table row, pool
/// index, candidate index). The three arrays always have equal size.
struct Front2 {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<size_t> payload;

  size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void clear() {
    x.clear();
    y.clear();
    payload.clear();
  }
  void reserve(size_t n) {
    x.reserve(n);
    y.reserve(n);
    payload.reserve(n);
  }
  void Append(double px, double py, size_t id) {
    x.push_back(px);
    y.push_back(py);
    payload.push_back(id);
  }
};

/// \brief A 3-objective front in structure-of-arrays layout.
///
/// The k = 3 sibling of Front2: `x[i]`/`y[i]`/`z[i]` are the three
/// (minimized) objectives of point i, `payload[i]` an opaque caller id.
struct Front3 {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  std::vector<size_t> payload;

  size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void clear() {
    x.clear();
    y.clear();
    z.clear();
    payload.clear();
  }
  void reserve(size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    payload.reserve(n);
  }
  void Append(double px, double py, double pz, size_t id) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    payload.push_back(id);
  }
};

/// One surviving cell of a Minkowski merge: positions into the two input
/// fronts (not payloads — the caller maps positions however it likes).
struct MergePair {
  uint32_t i = 0;  ///< position in front `a`
  uint32_t j = 0;  ///< position in front `b`

  friend bool operator==(const MergePair&, const MergePair&) = default;
};

/// \brief Reusable scratch for the kernel. Create one per thread (or per
/// solver task) and pass it to every call; buffers grow to the
/// high-water mark and are never shrunk, so steady-state kernel calls
/// perform no allocation. Contents are invalidated by the next call
/// that uses them (`pairs` in particular: consume it before the next
/// FlatMerge2 on the same scratch).
struct ParetoScratch {
  /// Output of the last FlatMerge2: one (i, j) position pair per kept
  /// point, aligned with the output front, in cross-product order.
  std::vector<MergePair> pairs;

  // -- internal buffers -------------------------------------------------
  struct HeapCell {
    double x = 0.0;  ///< sum x (heap key)
    double y = 0.0;  ///< sum y
    uint32_t i = 0;  ///< sorted position in a
    uint32_t j = 0;  ///< sorted position in b
  };
  std::vector<HeapCell> heap;
  std::vector<HeapCell> group;
  std::vector<uint32_t> order;    ///< generic index-sort buffer
  std::vector<uint32_t> kept;     ///< kept positions buffer
  std::vector<uint64_t> keys;     ///< kept cross-product keys
  std::vector<double> ax, ay;     ///< a sorted into SoA staging
  std::vector<double> bx, by;     ///< b sorted into SoA staging
  std::vector<uint32_t> amap, bmap;  ///< sorted position -> original

  // -- k = 3 buffers ----------------------------------------------------
  struct HeapCell3 {
    double x = 0.0;  ///< sum x (heap key)
    double y = 0.0;  ///< sum y
    double z = 0.0;  ///< sum z
    uint32_t i = 0;  ///< sorted position in a
    uint32_t j = 0;  ///< sorted position in b
  };
  std::vector<HeapCell3> heap3;
  std::vector<HeapCell3> group3;
  std::vector<double> az, bz;  ///< third-axis staging
  /// (y, z) minima staircase of kept points: sy strictly ascending, sz
  /// strictly descending. Shared by the 3-D filter and merge.
  std::vector<double> sy, sz;
  std::vector<double> gy, gz;  ///< equal-sum-x group staging
};

/// \brief Non-dominated positions of the multiset {(x[i], y[i])}.
///
/// Appends to `*kept` (cleared first) the positions of all points not
/// strictly dominated by any other point, in ascending position order —
/// the same set and order `ParetoIndices` produces for 2-objective
/// input. O(n log n), no allocation beyond scratch growth.
void FlatParetoPositions(const double* x, const double* y, size_t n,
                         std::vector<uint32_t>* kept, ParetoScratch* scratch);

/// \brief Output-sensitive Minkowski-sum merge (Algorithm 3 without the
/// cross product).
///
/// Writes to `*out` (cleared first) the non-dominated multiset of
/// {(a.x[i] + b.x[j], a.y[i] + b.y[j])} in cross-product order
/// (i * b.size() + j ascending), with `out->payload[p] = p`;
/// `scratch->pairs[p]` holds the originating (i, j) positions. The sums
/// and the kept set/order are bitwise identical to materializing the
/// product and filtering with `ParetoIndices`.
///
/// The sweep sorts both inputs by (x, y), pushes each a-row's first
/// viable cell into a min-heap keyed on sum-x, and pops cells in sum-x
/// groups, advancing each row past provably-dominated cells by binary
/// search (a front's y is monotone in its sorted x). With Pareto-front
/// inputs of sizes n = |a|, m = |b| and output size r this performs
/// O((n + m + r + d) log(n + m)) work, where d — the dominated cells the
/// heap still surfaces — is small in practice instead of n * m. Inputs
/// that are not fronts are still merged correctly (the binary-search
/// skip just disables itself on the non-monotone side).
void FlatMerge2(const Front2& a, const Front2& b, Front2* out,
                ParetoScratch* scratch);

/// \brief Exact hypervolume dominated by the staircase of {(x, y)} and
/// bounded by (ref_x, ref_y). Accepts any point multiset (dominated
/// points contribute nothing); bitwise identical to `Hypervolume2D` on
/// the same input. O(n log n), scratch-buffered.
double FlatHypervolume2(const double* x, const double* y, size_t n,
                        double ref_x, double ref_y, ParetoScratch* scratch);

/// \brief Incrementally inserts (px, py, id) into `*front`, which must
/// be (and stays) sorted by (x, y) ascending — the canonical staircase
/// order with exact duplicates adjacent.
///
/// Returns false (front untouched) when an existing point strictly
/// dominates the new one; otherwise removes the points the new one
/// strictly dominates and inserts it, returning true. Maintaining an
/// archive this way yields exactly the sorted non-dominated multiset of
/// all points ever offered — the value sequence of
/// `sort(ParetoFilter(all))`.
bool ParetoInsert(Front2* front, double px, double py, size_t id);

// ---- k = 3 primitives ----------------------------------------------------
//
// Each is the exact 3-objective sibling of the 2-D operation above, with
// the same semantics contract: non-dominated *multiset* (exact
// duplicates kept), stable caller order, bitwise-identical points to the
// quadratic filter and `MergeFrontsNaive`. The sweep replaces the 2-D running-min
// with a (y, z) minima staircase: after sorting by (x, y, z, position),
// a point is dominated iff some *kept* lexicographically earlier point
// has y' <= y and z' <= z (x' <= x is implied by the sort, and any
// dominated witness is itself covered by a kept one, so querying the
// kept staircase is sufficient).

/// \brief Non-dominated positions of the multiset {(x[i], y[i], z[i])};
/// appended to `*kept` (cleared first) in ascending position order — the
/// same set and order `ParetoIndices` produces for 3-objective input.
/// O(n log n) comparisons plus staircase maintenance (O(n) worst-case
/// shifts per insert, amortized small for front-like inputs).
void FlatParetoPositions3(const double* x, const double* y, const double* z,
                          size_t n, std::vector<uint32_t>* kept,
                          ParetoScratch* scratch);

/// \brief Output-sensitive 3-D Minkowski-sum merge.
///
/// Writes to `*out` (cleared first) the non-dominated multiset of
/// {(a.x[i]+b.x[j], a.y[i]+b.y[j], a.z[i]+b.z[j])} in cross-product
/// order (i * b.size() + j ascending), with `out->payload[p] = p`;
/// `scratch->pairs[p]` holds the originating (i, j) positions — the
/// same contract as FlatMerge2, bitwise identical to materializing the
/// product and filtering with `ParetoIndices`.
///
/// The sweep enumerates cells grouped by nondecreasing sum-x via a
/// per-row min-heap; each equal-sum-x group is filtered internally with
/// the 2-D kernel on (sum-y, sum-z) (equal first coordinates reduce
/// dominance to the remaining two), then checked against the kd
/// staircase of all kept cells from strictly smaller sum-x (weak
/// (y, z)-dominance there is strict overall). Never materializes the
/// |a| x |b| product; O(nm log(n+m)) worst case but output-sensitive in
/// the staircase pruning for front-shaped inputs.
void FlatMerge3(const Front3& a, const Front3& b, Front3* out,
                ParetoScratch* scratch);

/// \brief Incrementally inserts (px, py, pz, id) into `*front`, which
/// must be (and stays) sorted by (x, y, z) ascending.
///
/// Returns false (front untouched) when an existing point strictly
/// dominates the new one; otherwise removes the points the new one
/// strictly dominates (not necessarily contiguous in 3-D — a single
/// compaction pass) and inserts it, returning true. Maintains exactly
/// the sorted non-dominated multiset of all points ever offered.
bool ParetoInsert3(Front3* front, double px, double py, double pz, size_t id);

}  // namespace sparkopt
