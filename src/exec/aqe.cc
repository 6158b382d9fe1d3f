#include "exec/aqe.h"

#include <algorithm>

#include "analysis/invariants.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace sparkopt {

Result<AqeResult> AqeDriver::Run(const ContextParams& theta_c,
                                 std::vector<PlanParams> theta_p,
                                 const std::vector<StageParams>& theta_s,
                                 AqeHooks* hooks, uint64_t seed,
                                 bool adaptive) const {
  AqeResult result;
#ifdef SPARKOPT_VERIFY
  const int verify_cores = std::min(
      theta_c.TotalCores(), simulator_->cost_model().cluster().TotalCores());
#endif
  const std::vector<SubQuery>& subqs = planner_.subqueries();
  const std::vector<int>& subq_of = planner_.subq_of_op();
  std::vector<bool> completed(subqs.size(), false);

  AqeHooks default_hooks;
  if (hooks == nullptr) hooks = &default_hooks;

  obs::Span run_span("aqe.run");
  if (!adaptive) {
    // Plan once from estimates, execute the whole DAG in one simulation
    // (random task interleaving across independent stages).
    auto plan_or = planner_.Plan(theta_c, theta_p, theta_s,
                                CardinalitySource::kEstimated);
    if (!plan_or.ok()) return plan_or.status();
    // Random task interleaving across independent stages: with AQE off,
    // the whole DAG is scheduled asynchronously (Figure 16).
    result.exec = simulator_->RunAll(*plan_or, theta_c, seed,
                                     HashCombine(seed, 0x1F0FF));
    result.waves = 1;
    result.final_joins = plan_or->join_decisions;
    SPARKOPT_VERIFY_TRACE(result.exec, &*plan_or, verify_cores,
                          "AqeDriver::Run (non-adaptive)");
    return result;
  }

  int wave = 0;
  while (true) {
    obs::Span wave_span("aqe.wave");
    wave_span.Arg("wave", wave);
    // Re-plan the remaining query with true stats for completed subQs.
    obs::Span replan_span("aqe.replan");
    auto plan_or = planner_.Plan(theta_c, theta_p, theta_s,
                                CardinalitySource::kEstimated, completed);
    replan_span.End();
    obs::Count("aqe.replans");
    if (!plan_or.ok()) return plan_or.status();
    const PhysicalPlan& pplan = *plan_or;
    ++result.replans;

    // A stage is completed when every subQ of its member operators is.
    auto stage_completed = [&](const QueryStage& st) {
      for (int op : st.op_ids) {
        if (!completed[subq_of[op]]) return false;
      }
      return true;
    };
    std::vector<int> ready;
    for (const auto& st : pplan.stages) {
      if (stage_completed(st)) continue;
      bool deps_ok = true;
      for (int d : st.deps) {
        if (!stage_completed(pplan.stages[d])) deps_ok = false;
      }
      for (int d : st.broadcast_deps) {
        if (!stage_completed(pplan.stages[d])) deps_ok = false;
      }
      if (deps_ok) ready.push_back(st.id);
    }
    if (ready.empty()) break;

    // Execute the wave.
    QueryExecution wave_exec = simulator_->RunStages(
        pplan, ready, theta_c, HashCombine(seed, 0xA0E + wave));
    result.exec.latency += wave_exec.latency;
    result.exec.analytical_latency += wave_exec.analytical_latency;
    result.exec.io_bytes += wave_exec.io_bytes;
    for (auto& se : wave_exec.stages) {
      se.start += result.exec.latency - wave_exec.latency;
      se.end += result.exec.latency - wave_exec.latency;
      se.wave = wave;
      // Count the distinct subQs merged into this stage (BHJ collapses).
      std::vector<int> distinct;
      for (int op : pplan.stages[se.stage_id].op_ids) {
        if (std::find(distinct.begin(), distinct.end(), subq_of[op]) ==
            distinct.end()) {
          distinct.push_back(subq_of[op]);
        }
      }
      se.merged_subqs = static_cast<int>(distinct.size());
      result.exec.stages.push_back(se);
    }

    // Record the join decisions of joins executed this wave.
    for (const auto& st : pplan.stages) {
      if (std::find(ready.begin(), ready.end(), st.id) == ready.end()) {
        continue;
      }
      for (int op : st.op_ids) {
        if (plan_->op(op).type != OpType::kJoin) continue;
        for (const auto& jd : pplan.join_decisions) {
          if (jd.op_id == op) result.final_joins.push_back(jd);
        }
      }
    }

    // Mark completion.
    for (int sid : ready) {
      for (int op : pplan.stages[sid].op_ids) {
        completed[subq_of[op]] = true;
      }
    }
    ++wave;
    ++result.waves;
    obs::Count("aqe.waves");

    bool all_done = true;
    for (bool c : completed) {
      if (!c) all_done = false;
    }
    if (all_done) break;

    // Step 6: collapsed-plan optimization hook (theta_p for what remains).
    hooks->OnPlanCollapsed(*plan_, subqs, completed, &theta_p);
  }

  // Join census + cost from the executed record.
  for (const auto& jd : result.final_joins) {
    switch (jd.algo) {
      case JoinAlgo::kSortMergeJoin: ++result.exec.smj; break;
      case JoinAlgo::kShuffledHashJoin: ++result.exec.shj; break;
      case JoinAlgo::kBroadcastHashJoin: ++result.exec.bhj; break;
    }
  }
  simulator_->FinalizeCost(theta_c, &result.exec);
  // Adaptive traces span several physical plans, so only the plan-free
  // trace invariants (wave ordering, totals) apply here.
  SPARKOPT_VERIFY_TRACE(result.exec, nullptr, verify_cores, "AqeDriver::Run");
  return result;
}

}  // namespace sparkopt
