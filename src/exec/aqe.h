#pragma once

#include <cstdint>
#include <vector>

#include "exec/simulator.h"
#include "physical/physical_plan.h"

/// \file aqe.h
/// \brief Adaptive Query Execution driver (Figure 2 in the paper).
///
/// Executes a query wave by wave: after each wave of query stages
/// completes, the logical plan is "collapsed" (completed subQs now expose
/// their true cardinalities), an optimizer hook may adjust theta_p for the
/// collapsed plan (step 6 of Figure 2), and the remaining plan is
/// re-planned once by the parametric rules. The paper's second
/// interception point, a theta_s request per query stage (step 9), is not
/// made: re-tuning theta_s changed no executed query enough to pay for its
/// requests (DESIGN.md §5 item 9), so theta_s is fixed at submission.

namespace sparkopt {

/// \brief Runtime-optimizer interception points. The default
/// implementation is a no-op (plain Spark AQE with static parameters).
class AqeHooks {
 public:
  virtual ~AqeHooks() = default;

  /// Called after each wave with the updated completion mask, before the
  /// remaining plan is re-planned. May rewrite the per-subQ theta_p
  /// (step 6: collapsed-LQP optimization request).
  virtual void OnPlanCollapsed(const LogicalPlan& plan,
                               const std::vector<SubQuery>& subqs,
                               const std::vector<bool>& completed_subqs,
                               std::vector<PlanParams>* theta_p) {
    (void)plan; (void)subqs; (void)completed_subqs; (void)theta_p;
  }

  /// Never called; kept because perfbench/trace.cc overrides it.
  virtual void OnStagesReady(const PhysicalPlan& plan,
                             const std::vector<int>& ready_stage_ids,
                             const std::vector<SubQuery>& subqs,
                             std::vector<StageParams>* theta_s) {
    (void)plan; (void)ready_stage_ids; (void)subqs; (void)theta_s;
  }
};

/// Outcome of an adaptive execution.
struct AqeResult {
  QueryExecution exec;        ///< aggregated over all waves
  int waves = 0;              ///< number of stage waves
  int replans = 0;            ///< physical re-planning rounds
  std::vector<JoinDecision> final_joins;  ///< decisions actually executed
};

/// \brief Drives adaptive execution of one query.
class AqeDriver {
 public:
  /// Decomposes `plan` and builds the one planner every Run re-plans
  /// with.
  AqeDriver(const LogicalPlan* plan, const Simulator* simulator)
      : plan_(plan), simulator_(simulator),
        planner_(plan, plan->DecomposeSubQueries()) {}

  /// Runs the query to completion, re-planning once per wave.
  /// `theta_p`/`theta_s` hold one entry per subQ (fine-grained) or a
  /// single entry (query-level); hooks may mutate theta_p between waves.
  /// `adaptive` = false plans once from estimates and never re-plans (AQE
  /// off).
  Result<AqeResult> Run(const ContextParams& theta_c,
                        std::vector<PlanParams> theta_p,
                        const std::vector<StageParams>& theta_s,
                        AqeHooks* hooks, uint64_t seed,
                        bool adaptive = true) const;

  const std::vector<SubQuery>& subqueries() const {
    return planner_.subqueries();
  }

 private:
  const LogicalPlan* plan_;
  const Simulator* simulator_;
  PhysicalPlanner planner_;
};

}  // namespace sparkopt
