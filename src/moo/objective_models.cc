#include "moo/objective_models.h"

#include <algorithm>

#include "common/check.h"

namespace sparkopt {

void AnalyticSubQModel::set_num_objectives(int k) {
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "AnalyticSubQModel supports 2 or 3 objectives, got " << k;
  num_objectives_ = k;
}

void LearnedSubQModel::set_num_objectives(int k) {
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "LearnedSubQModel supports 2 or 3 objectives, got " << k;
  num_objectives_ = k;
}

ObjectiveVector AnalyticSubQModel::Evaluate(
    int subq, const std::vector<double>& conf) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  const ContextParams tc = DecodeContext(conf);
  const PlanParams tp = DecodePlan(conf);
  const StageParams ts = DecodeStage(conf);
  const auto obj =
      evaluator_.Evaluate(subq, tc, tp, ts, CardinalitySource::kEstimated);
  if (num_objectives_ == 3) {
    return {obj.analytical_latency, obj.cost, obj.io_bytes / 1e9};
  }
  return {obj.analytical_latency, obj.cost};
}

namespace {

/// Latency/cost derivation shared by the single and batched learned
/// paths (`pred` = {latency, io_mb} from the regressor). With k = 3 the
/// predicted IO itself becomes the third objective (gigabytes).
ObjectiveVector DeriveObjectives(const PriceBook& prices,
                                 const ContextParams& tc, const double* pred,
                                 int k) {
  const double latency = std::max(pred[0], 1e-4);
  const double io_mb = std::max(pred[1], 0.0);
  const int cores = tc.TotalCores();
  const double mem_gb = tc.executor_memory_gb * tc.executor_instances;
  const double cost =
      CloudCost(prices, cores, mem_gb, latency, io_mb / 1024.0);
  if (k == 3) return {latency, cost, io_mb / 1024.0};
  return {latency, cost};
}

}  // namespace

ObjectiveVector LearnedSubQModel::Evaluate(
    int subq, const std::vector<double>& conf) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  const ContextParams tc = DecodeContext(conf);
  const PlanParams tp = DecodePlan(conf);
  const StageParams ts = DecodeStage(conf);
  const QueryStage stage = evaluator_.BuildStage(
      subq, tc, tp, ts, CardinalitySource::kEstimated);
  const auto features = StageFeatures(
      evaluator_.query().plan, stage, conf, /*use_true_cards=*/false,
      /*beta=*/{}, /*gamma=*/{}, /*drop_theta_p=*/false);
  const auto pred = model_->Predict(features);
  return DeriveObjectives(prices_, tc, pred.data(), num_objectives_);
}

void LearnedSubQModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  out->resize(confs.size());
  if (confs.empty()) return;
  evals_.fetch_add(confs.size(), std::memory_order_relaxed);

  const size_t d = model_->input_dim();
  const size_t k = model_->output_dim();
  thread_local std::vector<double> features;
  thread_local std::vector<double> preds;
  thread_local Mlp::BatchScratch scratch;
  features.resize(confs.size() * d);
  preds.resize(confs.size() * k);

  for (size_t i = 0; i < confs.size(); ++i) {
    const ContextParams tc = DecodeContext(confs[i]);
    const PlanParams tp = DecodePlan(confs[i]);
    const StageParams ts = DecodeStage(confs[i]);
    const QueryStage stage = evaluator_.BuildStage(
        subq, tc, tp, ts, CardinalitySource::kEstimated);
    const auto row = StageFeatures(
        evaluator_.query().plan, stage, confs[i], /*use_true_cards=*/false,
        /*beta=*/{}, /*gamma=*/{}, /*drop_theta_p=*/false);
    std::copy(row.begin(), row.end(), features.begin() + i * d);
  }
  model_->PredictBatchInto(features.data(), confs.size(), preds.data(),
                           &scratch);
  for (size_t i = 0; i < confs.size(); ++i) {
    (*out)[i] = DeriveObjectives(prices_, DecodeContext(confs[i]),
                                 preds.data() + i * k, num_objectives_);
  }
}

}  // namespace sparkopt
