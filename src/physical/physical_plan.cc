#include "physical/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "analysis/invariants.h"
#include "common/check.h"
#include "physical/stage_lowering.h"

namespace sparkopt {

const char* JoinAlgoName(JoinAlgo a) {
  switch (a) {
    case JoinAlgo::kSortMergeJoin: return "SMJ";
    case JoinAlgo::kShuffledHashJoin: return "SHJ";
    case JoinAlgo::kBroadcastHashJoin: return "BHJ";
  }
  return "?";
}

int PhysicalPlan::CountJoins(JoinAlgo algo) const {
  int n = 0;
  for (const auto& jd : join_decisions) {
    if (jd.algo == algo) ++n;
  }
  return n;
}

std::vector<double> SkewedPartitionSizes(double total_bytes, int n,
                                         double z) {
  n = std::max(n, 1);
  std::vector<double> w(n);
  // Zipf-like weights (i+1)^{-2z}: z=0 -> uniform, z=1 -> strong skew.
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -2.0 * z);
    sum += w[i];
  }
  for (int i = 0; i < n; ++i) {
    w[i] = total_bytes * (w[i] / sum);
  }
  return w;
}

std::vector<double> ApplySkewSplit(std::vector<double> partition_bytes,
                                   double threshold_mb, double factor,
                                   double advisory_mb) {
  if (partition_bytes.empty()) return partition_bytes;
  const double mb = 1024.0 * 1024.0;
  std::vector<double> sorted = partition_bytes;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double limit =
      std::max(threshold_mb * mb, factor * median);
  const double chunk = std::max(advisory_mb * mb, 1.0 * mb);
  std::vector<double> out;
  out.reserve(partition_bytes.size());
  for (double b : partition_bytes) {
    if (b > limit && b > chunk) {
      const int pieces = static_cast<int>(std::ceil(b / chunk));
      for (int i = 0; i < pieces; ++i) {
        out.push_back(b / pieces);
      }
    } else {
      out.push_back(b);
    }
  }
  return out;
}

std::vector<double> ApplyCoalesce(std::vector<double> partition_bytes,
                                  double advisory_mb, double small_factor,
                                  double min_size_mb) {
  const double mb = 1024.0 * 1024.0;
  const double small =
      std::max(min_size_mb * mb, small_factor * advisory_mb * mb);
  const double target = advisory_mb * mb;
  std::vector<double> out;
  double acc = 0.0;
  for (double b : partition_bytes) {
    if (b < small) {
      acc += b;
      if (acc >= target) {
        out.push_back(acc);
        acc = 0.0;
      }
    } else {
      out.push_back(b);
    }
  }
  if (acc > 0.0) out.push_back(acc);
  if (out.empty()) out.push_back(0.0);
  return out;
}

Result<PhysicalPlan> PhysicalPlanner::Plan(
    const ContextParams& theta_c,
    const std::vector<PlanParams>& theta_p_per_subq,
    const std::vector<StageParams>& theta_s_per_subq,
    CardinalitySource source,
    const std::vector<bool>& completed_subqs) const {
  const auto& plan = *plan_;
  const size_t m = subqs_.size();
  if (theta_p_per_subq.empty() || theta_s_per_subq.empty()) {
    return Status::InvalidArgument("need at least one theta_p and theta_s");
  }
  // subQ id -> stage id, filled by stage formation (step 2).
  std::vector<int> stage_of_subq(m, -1);
  const StageLowering lw{.plan = plan_,
                         .subq_of_op = &subq_of_,
                         .source = source,
                         .completed = &completed_subqs,
                         .theta_c = &theta_c,
                         .theta_p = theta_p_per_subq.data(),
                         .num_theta_p = theta_p_per_subq.size(),
                         .theta_s = theta_s_per_subq.data(),
                         .num_theta_s = theta_s_per_subq.size(),
                         .stage_of_subq = &stage_of_subq,
                         .zipf = &zipf_};

  // ---- 1. Join algorithm decisions ------------------------------------
  PhysicalPlan result;
  std::vector<JoinAlgo> algo_of_op(plan.num_ops(), JoinAlgo::kSortMergeJoin);
  std::vector<int> build_child_of(plan.num_ops(), -1);
  for (int id : plan.TopologicalOrder()) {
    const auto& op = plan.op(id);
    if (op.type != OpType::kJoin || op.children.size() < 2) continue;
    const JoinChoice jc = ChooseJoin(lw, id);
    algo_of_op[id] = jc.algo;
    build_child_of[id] = jc.build;
    result.join_decisions.push_back({id, jc.algo, jc.build_mb, jc.build});
  }

  // ---- 2. Stage formation: merge BHJ subQs into their probe stage -----
  // Union-find over subq ids.
  std::vector<int> uf(m);
  std::iota(uf.begin(), uf.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  auto subq_completed = [&](int sq) {
    return sq < static_cast<int>(completed_subqs.size()) &&
           completed_subqs[sq];
  };
  // subQ-level producer -> consumer edges, for the cycle guard below.
  std::vector<std::vector<int>> subq_consumers(m);
  for (int id = 0; id < static_cast<int>(plan.num_ops()); ++id) {
    for (int c : plan.op(id).children) {
      if (subq_of_[c] != subq_of_[id]) {
        subq_consumers[subq_of_[c]].push_back(subq_of_[id]);
      }
    }
  }
  // True when merging producer group `gp` into consumer group `gj` would
  // create a cycle in the stage graph, i.e. when some other path gp -> gj
  // exists besides the direct edge. This happens when the probe side's
  // exchange is reused by another consumer (e.g. a correlated aggregate
  // over the same join output): the BHJ stage must then read the
  // materialized exchange output instead of collapsing into the probe
  // stage.
  auto would_cycle = [&](int gp, int gj) {
    std::vector<char> seen(m, 0);
    std::vector<int> stack;
    auto push_successors = [&](int g, bool from_start) {
      for (int sq = 0; sq < static_cast<int>(m); ++sq) {
        if (find(sq) != g) continue;
        for (int consumer : subq_consumers[sq]) {
          const int gc = find(consumer);
          if (gc == g || (from_start && gc == gj) || seen[gc]) continue;
          seen[gc] = 1;
          stack.push_back(gc);
        }
      }
    };
    push_successors(gp, /*from_start=*/true);
    while (!stack.empty()) {
      const int g = stack.back();
      stack.pop_back();
      if (g == gj) return true;
      push_successors(g, /*from_start=*/false);
    }
    return false;
  };
  for (int id : plan.TopologicalOrder()) {
    const auto& op = plan.op(id);
    if (op.type != OpType::kJoin ||
        algo_of_op[id] != JoinAlgo::kBroadcastHashJoin) {
      continue;
    }
    const int build = build_child_of[id];
    for (int c : op.children) {
      if (c == build) continue;
      // Merge the join's subQ into the probe child's stage group — but
      // never into a stage that has already executed (AQE re-planning
      // cannot rewrite completed stages; the BHJ then runs in its own
      // stage reading the probe side's materialized shuffle output).
      if (subq_completed(subq_of_[id]) || subq_completed(subq_of_[c])) {
        continue;
      }
      const int gj = find(subq_of_[id]);
      const int gp = find(subq_of_[c]);
      if (gj == gp || would_cycle(gp, gj)) continue;
      uf[gj] = gp;
    }
  }

  // Group subQs into stages.
  for (size_t i = 0; i < m; ++i) {
    const int r = find(static_cast<int>(i));
    if (stage_of_subq[r] == -1) {
      QueryStage st;
      st.id = static_cast<int>(result.stages.size());
      st.subq_id = r;
      result.stages.push_back(st);
      stage_of_subq[r] = st.id;
    }
    stage_of_subq[i] = stage_of_subq[r];
  }
  // Fill member ops in topological order.
  for (int id : plan.TopologicalOrder()) {
    result.stages[stage_of_subq[subq_of_[id]]].op_ids.push_back(id);
  }

  // ---- 3. Dependencies, IO totals, CPU work, partitioning -------------
  PartitionScratch scratch;
  for (auto& st : result.stages) {
    LowerStage(lw, CpuWorkRule::kExecuted, &st, &scratch);
  }
  SPARKOPT_VERIFY_PHYSICAL(result, plan_, "PhysicalPlanner::Plan");
  return result;
}

}  // namespace sparkopt
