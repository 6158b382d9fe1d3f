#pragma once

#include <cstdint>
#include <vector>

#include "moo/problem.h"

/// \file hmooc.h
/// \brief Hierarchical MOO with Constraints (Section 5.1) — the paper's
/// compile-time optimizer.
///
/// The large problem over (theta_c, {theta_p}, {theta_s}) is decomposed
/// into per-subQ problems constrained to share theta_c:
///
///  1. subQ tuning (Algorithm 1): sample theta_c candidates, cluster them
///     (k-means) and solve the theta_p MOO only for each cluster
///     representative against a shared theta_p sample pool; assign each
///     member its representative's optimal theta_p set; enrich theta_c by
///     crossover (Appendix C.1) and reuse the cluster assignments.
///  2. DAG aggregation (Section 5.1.2): recover query-level Pareto
///     solutions from the per-subQ effective sets under the identical-
///     theta_c constraint, by one of
///       - HMOOC1: exact divide-and-conquer Minkowski merging,
///       - HMOOC2: weighted-sum approximation (Algorithm 4),
///       - HMOOC3: boundary (extreme-point) approximation.
///  3. WUN recommendation over the recovered front.

namespace sparkopt {

/// DAG-aggregation strategy.
enum class DagAggregation {
  kDivideAndConquer = 0,  ///< HMOOC1: exact, highest cost
  kWeightedSum,           ///< HMOOC2: subset of the true front
  kBoundary               ///< HMOOC3: kn extreme points, fastest
};

const char* DagAggregationName(DagAggregation a);

struct HmoocOptions {
  int theta_c_samples = 96;    ///< initial theta_c candidates (random/LHS)
  int clusters = 12;           ///< theta_c clusters (Algorithm 1, line 2)
  int theta_p_samples = 128;   ///< theta_p/theta_s pool per representative
  int enriched_samples = 48;   ///< crossover-generated theta_c candidates
  bool grid_init = false;      ///< grid instead of random theta_c init
  /// Search-range refinement (Section 6.3): samples stay within
  /// [margin, 1-margin] of each normalized parameter range so model
  /// predictions at the domain extremes do not mislead the optimizer.
  double search_margin = 0.08;
  DagAggregation aggregation = DagAggregation::kBoundary;
  int ws_pairs = 11;           ///< weight pairs for HMOOC2
  /// HMOOC2 only: normalize objectives per subQ before the weighted pick
  /// (Algorithm 4, line 5). Normalization spreads the weight sweep more
  /// evenly but voids the exact-Pareto guarantee of Lemma 1, which holds
  /// for raw-objective weighted sums; disable for the exact variant.
  bool hmooc2_normalize_per_subq = true;
  /// Worker threads for the independent fan-outs (per-cluster
  /// representative solves, per-member pool evaluation, per-candidate DAG
  /// aggregation). 0 = hardware concurrency, 1 = sequential. Results are
  /// bitwise identical at any thread count: every parallel region writes
  /// index-addressed slots and all RNG draws stay on the calling thread.
  int num_threads = 0;
  /// Kept only because perfbench/trace.cc reads `fidelity.mode`.
  FidelityOptions fidelity;
  uint64_t seed = 1;
};

/// \brief The HMOOC compile-time solver.
class HmoocSolver {
 public:
  HmoocSolver(const SubQObjectiveModel* model, HmoocOptions opts)
      : model_(model), opts_(opts) {}

  /// Runs subQ tuning + DAG aggregation; returns the query-level Pareto
  /// set with fine-grained per-subQ configurations.
  MooRunResult Solve() const;

 private:
  const SubQObjectiveModel* model_;
  HmoocOptions opts_;
};

}  // namespace sparkopt
