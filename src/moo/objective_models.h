#pragma once

#include <atomic>
#include <memory>

#include "model/features.h"
#include "model/mlp.h"
#include "model/subq_evaluator.h"
#include "moo/problem.h"

/// \file objective_models.h
/// \brief Concrete phi implementations backing the MOO solvers.
///
/// AnalyticSubQModel evaluates the white-box compile-time cost directly
/// (CBO-estimated cardinalities, uniform-partition and no-contention
/// assumptions — exactly the paper's compile-time modeling constraints).
/// LearnedSubQModel runs the trained subQ regressor on extracted features,
/// reproducing the paper's learned-model optimization loop including its
/// model error.

namespace sparkopt {

/// \brief White-box compile-time phi: wraps SubQEvaluator.
class AnalyticSubQModel : public SubQObjectiveModel {
 public:
  /// The trailing size_t is ignored; perfbench/trace.cc still passes it.
  AnalyticSubQModel(const Query* query, const ClusterSpec& cluster,
                    const CostModelParams& cost,
                    const PriceBook& prices = PriceBook(), size_t = 0)
      : evaluator_(query, cluster, cost, prices) {}

  int num_subqs() const override { return evaluator_.num_subqs(); }
  int num_objectives() const override { return num_objectives_; }

  /// Switches between {latency, cost} (k = 2, default) and
  /// {latency, cost, io_gb} (k = 3). Call before solving; k = 2 output
  /// is unchanged by the existence of this knob.
  void set_num_objectives(int k);

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override;

  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

  const SubQEvaluator& evaluator() const { return evaluator_; }
  SubQEvaluator& evaluator() { return evaluator_; }

 private:
  SubQEvaluator evaluator_;
  int num_objectives_ = 2;
  // Relaxed atomic: solver worker threads evaluate concurrently.
  mutable std::atomic<size_t> evals_{0};
};

/// \brief Learned phi: features from the hypothesized stage, predictions
/// from the trained subQ regressor; cost derived from predicted latency
/// and IO via the price book (the paper's cost objective construction).
class LearnedSubQModel : public SubQObjectiveModel {
 public:
  /// The trailing size_t is ignored; perfbench/trace.cc still passes it.
  LearnedSubQModel(const Query* query, const ClusterSpec& cluster,
                   const CostModelParams& cost, const Regressor* subq_model,
                   const PriceBook& prices = PriceBook(), size_t = 0)
      : evaluator_(query, cluster, cost, prices),
        model_(subq_model),
        prices_(prices) {}

  int num_subqs() const override { return evaluator_.num_subqs(); }
  int num_objectives() const override { return num_objectives_; }

  /// See AnalyticSubQModel::set_num_objectives. The learned third
  /// objective is the regressor's predicted IO converted to gigabytes.
  void set_num_objectives(int k);

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override;

  /// True batched path: per-conf feature extraction into one flat
  /// row-major buffer, a single Regressor::PredictBatchInto call, then
  /// the per-row latency/cost derivation. Bitwise identical to the
  /// per-call Evaluate loop.
  void EvaluateBatch(int subq,
                     const std::vector<std::vector<double>>& confs,
                     std::vector<ObjectiveVector>* out) const override;

  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

  SubQEvaluator& evaluator() { return evaluator_; }

 private:
  SubQEvaluator evaluator_;
  const Regressor* model_;
  PriceBook prices_;
  int num_objectives_ = 2;
  mutable std::atomic<size_t> evals_{0};
};

}  // namespace sparkopt
