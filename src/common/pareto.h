#pragma once

#include <cstddef>
#include <vector>

#include "common/pareto_flat.h"

/// \file pareto.h
/// \brief Pareto-set primitives over `ObjectiveVector` points: dominance,
/// the non-dominated filter, 2-D hypervolume, and the
/// Weighted-Utopia-Nearest (WUN) recommendation. The Minkowski-sum merge
/// of HMOOC's divide-and-conquer DAG aggregation (Algorithm 3) runs on
/// the flat kernel (`FlatMerge2`/`FlatMerge3` in pareto_flat.h);
/// `MergeFrontsNaive` below is its materializing oracle.
///
/// All objectives are minimized. A point with k objectives is a
/// std::vector<double> of size k, and the solvers produce k ∈ {2, 3}
/// only. The filter and hypervolume delegate to the structure-of-arrays
/// kernel through a per-thread scratch.

namespace sparkopt {

/// One point in objective space. Minimization in every component.
using ObjectiveVector = std::vector<double>;

/// \brief True iff `a` Pareto-dominates `b`: a <= b componentwise and
/// a < b in at least one component (Definition 3.2 in the paper).
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// \brief Indices of the non-dominated points in `points`.
///
/// k = 2 runs the sort-based Kung sweep, k = 3 the flat kernel's
/// staircase sweep, both O(n log n); any other k is a CHECK failure.
/// Ties: duplicate non-dominated points are all kept (ascending index
/// order).
std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points);

/// \brief Filters `points` to its Pareto front (convenience wrapper).
std::vector<ObjectiveVector> ParetoFilter(
    const std::vector<ObjectiveVector>& points);

/// \brief Exact 2D hypervolume of the region dominated by `front` and
/// bounded above by `ref` (the reference/nadir point). Points outside the
/// reference box contribute their clipped part. Returns 0 for an empty
/// front.
double Hypervolume2D(const std::vector<ObjectiveVector>& front,
                     const ObjectiveVector& ref);

/// \brief Weighted-Utopia-Nearest recommendation (Section 3.3.2).
///
/// Objectives are min-max normalized over the front; the utopia point is
/// the componentwise minimum (0 after normalization). Returns the index of
/// the front point minimizing the weighted Euclidean distance
/// sqrt(sum_i (w_i * f_i_norm)^2). Returns SIZE_MAX for an empty front.
size_t WeightedUtopiaNearest(const std::vector<ObjectiveVector>& front,
                             const std::vector<double>& weights);

/// \brief Reference Minkowski-sum merge that materializes the full
/// |a| x |b| cross product and filters it with `ParetoIndices`. Returns
/// the kept sums in cross-product order (i * |b| + j ascending) and
/// writes their originating positions to `*pairs` (cleared first) — the
/// `FlatMerge2`/`FlatMerge3` contract, so the kernel's points and
/// `ParetoScratch::pairs` compare against it bit for bit. The oracle of
/// the kernel's property tests and the naive side of `bench_pareto_ops`.
///
/// By Proposition B.1, Pf(Pf(F) ⊕ Pf(G)) = Pf(F x G), so merging the
/// children's fronts loses no query-level Pareto solution.
std::vector<ObjectiveVector> MergeFrontsNaive(
    const std::vector<ObjectiveVector>& a,
    const std::vector<ObjectiveVector>& b, std::vector<MergePair>* pairs);

}  // namespace sparkopt
