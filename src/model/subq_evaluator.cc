#include "model/subq_evaluator.h"

#include <algorithm>

#include "obs/trace.h"
#include "physical/stage_lowering.h"

namespace sparkopt {

namespace {

CostModelParams NoiseFree(CostModelParams p) {
  p.noise_sigma = 0.0;
  return p;
}

}  // namespace

SubQEvaluator::SubQEvaluator(const Query* query, const ClusterSpec& cluster,
                             const CostModelParams& cost_params,
                             const PriceBook& prices, size_t)
    : query_(query),
      subqs_(query->plan.DecomposeSubQueries()),
      subq_of_op_(query->plan.SubQueryOfOp(subqs_)),
      cost_model_(cluster, NoiseFree(cost_params)),
      prices_(prices) {}

QueryStage SubQEvaluator::BuildStage(
    int subq_id, const ContextParams& theta_c, const PlanParams& tp,
    const StageParams& ts, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  const StageLowering lw{.plan = &query_->plan,
                         .subq_of_op = &subq_of_op_,
                         .source = source,
                         .completed = completed_subqs,
                         .theta_c = &theta_c,
                         .theta_p = &tp,
                         .theta_s = &ts};
  return LowerSubQuery(lw, subqs_[subq_id], CpuWorkRule::kAnalytic);
}

SubQObjectives SubQEvaluator::Evaluate(
    int subq_id, const ContextParams& theta_c, const PlanParams& theta_p,
    const StageParams& theta_s, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  obs::Count("model.inferences");
  obs::ScopedHistogramTimer timer(obs::HistogramFor("model.inference_us"));
  const QueryStage st = BuildStage(subq_id, theta_c, theta_p, theta_s,
                                   source, completed_subqs);
  double task_sum = 0.0;
  // Fast path: with uniform partitions every task costs the same.
  bool uniform = true;
  for (size_t t = 1; t < st.partition_bytes.size(); ++t) {
    if (st.partition_bytes[t] != st.partition_bytes[0]) {
      uniform = false;
      break;
    }
  }
  if (uniform && st.num_partitions > 1) {
    task_sum = st.num_partitions *
               cost_model_.TaskLatency(st, 0, theta_c, /*seed=*/0);
  } else {
    for (int t = 0; t < st.num_partitions; ++t) {
      task_sum += cost_model_.TaskLatency(st, t, theta_c, /*seed=*/0);
    }
  }
  const int cores = std::min(theta_c.TotalCores(),
                             cost_model_.cluster().TotalCores());
  SubQObjectives obj;
  obj.analytical_latency =
      task_sum / std::max(cores, 1) +
      cost_model_.StageSetupLatency(st, theta_c);
  obj.io_bytes = cost_model_.StageIoBytes(st, theta_c);
  const double mem_gb =
      theta_c.executor_memory_gb * theta_c.executor_instances;
  obj.cost = CloudCost(prices_, cores, mem_gb, obj.analytical_latency,
                       obj.io_bytes / (1024.0 * 1024.0 * 1024.0));
  return obj;
}

}  // namespace sparkopt
