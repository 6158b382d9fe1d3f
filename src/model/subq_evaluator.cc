#include "model/subq_evaluator.h"

#include <algorithm>

#include "obs/trace.h"

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
      zipf_(query->plan),
      cost_model_(cluster, NoiseFree(cost_params)),
      prices_(prices) {}

StageLowering SubQEvaluator::Lowering(
    const ContextParams& theta_c, const PlanParams& theta_p,
    const StageParams& theta_s, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  return {.plan = &query_->plan,
          .subq_of_op = &subq_of_op_,
          .source = source,
          .completed = completed_subqs,
          .theta_c = &theta_c,
          .theta_p = &theta_p,
          .theta_s = &theta_s,
          .zipf = &zipf_};
}

QueryStage SubQEvaluator::BuildStage(
    int subq_id, const ContextParams& theta_c, const PlanParams& tp,
    const StageParams& ts, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  return LowerSubQuery(Lowering(theta_c, tp, ts, source, completed_subqs),
                       subqs_[subq_id], CpuWorkRule::kAnalytic);
}

SubQObjectives SubQEvaluator::Evaluate(
    int subq_id, const ContextParams& theta_c, const PlanParams& theta_p,
    const StageParams& theta_s, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  obs::Count("model.inferences");
  obs::ScopedHistogramTimer timer(obs::HistogramFor("model.inference_us"));
  const StageLowering lw =
      Lowering(theta_c, theta_p, theta_s, source, completed_subqs);
  // Per thread: solver workers evaluate concurrently.
  thread_local PartitionScratch scratch;
  QueryStage st;
  st.id = subq_id;
  st.subq_id = subq_id;
  LowerStageRuns(lw, CpuWorkRule::kAnalytic, subqs_[subq_id].op_ids, &st,
                 &scratch);
  // Equal partitions cost the same: one TaskLatency per run. A single
  // run is the uniform case, priced as count x latency; otherwise the
  // latencies are added partition by partition, in order.
  const std::vector<PartitionRun>& runs = scratch.runs;
  double task_sum = 0.0;
  if (runs.size() == 1) {
    task_sum = static_cast<double>(runs[0].count) *
               cost_model_.TaskLatency(st, runs[0].bytes, theta_c);
  } else {
    for (const PartitionRun& run : runs) {
      const double lat = cost_model_.TaskLatency(st, run.bytes, theta_c);
      for (int64_t i = 0; i < run.count; ++i) task_sum += lat;
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
