#include "physical/stage_lowering.h"

#include <cmath>
#include <optional>

#include "common/check.h"

namespace sparkopt {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

double NLogN(double n) { return n * std::log2(std::max(n, 2.0)); }

// Per-row CPU weight by operator type (arbitrary but fixed units; the
// cost model converts to seconds via its rows-per-second throughput).
// Joins and sorts are charged per algorithm / as n log n instead.
double OpWeight(OpType t, CpuWorkRule rule) {
  switch (t) {
    case OpType::kScan: return 1.0;
    case OpType::kFilter: return 0.25;
    case OpType::kProject: return 0.15;
    case OpType::kAggregate: return 0.9;
    case OpType::kLimit:
      return rule == CpuWorkRule::kExecuted ? 0.05 : 0.15;
    case OpType::kUnion:
      return rule == CpuWorkRule::kExecuted ? 0.1 : 0.15;
    default:
      return rule == CpuWorkRule::kExecuted ? 0.5 : 0.15;
  }
}

// CPU work of operator `id` under its join choice `jc`, added to `st`.
//
// Two rule sets, side by side. kExecuted is what the simulator runs.
// kAnalytic, the model's, differs in four ways:
//   - sort and SMJ charge only their own n log n, not the stage's
//     running sort_work;
//   - filter charges out / selectivity rows;
//   - aggregate charges the stage's input rows;
//   - limit, union and other operators weigh 0.15.
// They stay apart because the learned model is trained on the analytic
// model's outputs (FitSubQRegressor). Moving the model onto the executed
// rule left offline_tune quality unchanged or slightly better
// (latency_reduction_pct 56.1236 -> 56.1370) but dropped service_repeat's
// learned latency_reduction_pct from 59.13 to between 52.16 and 58.55,
// depending on which rules moved (sort alone 57.97, aggregate alone
// 57.50): far past that metric's 1% bound.
void ChargeCpu(const StageLowering& lw, CpuWorkRule rule, int id,
               const JoinChoice& jc, QueryStage* st) {
  const auto& op = lw.plan->op(id);
  const bool executed = rule == CpuWorkRule::kExecuted;
  const double out_rows = lw.Rows(id);
  switch (op.type) {
    case OpType::kJoin: {
      double build_rows = 0.0, probe_rows = 0.0;
      for (int c : op.children) {
        (c == jc.build ? build_rows : probe_rows) += lw.Rows(c);
      }
      switch (jc.algo) {
        case JoinAlgo::kSortMergeJoin: {
          const double sw = 0.35 * (NLogN(build_rows) + NLogN(probe_rows)) /
                            std::log2(1e6);
          st->sort_work += sw;
          st->cpu_work += 0.6 * (build_rows + probe_rows) +
                          (executed ? st->sort_work : sw);
          break;
        }
        case JoinAlgo::kShuffledHashJoin:
          st->cpu_work += 1.0 * build_rows + 0.35 * probe_rows;
          break;
        case JoinAlgo::kBroadcastHashJoin:
          // Hash table built once per executor core group; charged per
          // executor by the cost model via broadcast fields.
          st->cpu_work += 0.4 * probe_rows;
          break;
      }
      st->cpu_work += 0.15 * out_rows;  // output materialization
      return;
    }
    case OpType::kSort: {
      const double sw = 0.5 * NLogN(out_rows) / std::log2(1e6);
      st->sort_work += sw;
      st->cpu_work += executed ? st->sort_work : sw;
      return;
    }
    case OpType::kFilter:
      if (executed) break;
      st->cpu_work += 0.25 * out_rows / std::max(op.selectivity, 1e-9);
      return;
    case OpType::kAggregate:
      if (executed) break;
      st->cpu_work += 0.9 * (st->input_rows > 0 ? st->input_rows : out_rows);
      return;
    default:
      break;
  }
  double in_rows = 0.0;
  if (op.type == OpType::kScan) {
    in_rows = lw.Rows(id) / std::max(op.selectivity, 1e-9);
  } else {
    for (int c : op.children) in_rows += lw.Rows(c);
  }
  st->cpu_work += OpWeight(op.type, rule) * std::max(in_rows, out_rows);
}

// Appends `v` to `ids` unless already present.
void AddUnique(std::vector<int>* ids, int v) {
  if (std::find(ids->begin(), ids->end(), v) == ids->end()) ids->push_back(v);
}

}  // namespace

JoinChoice ChooseJoin(const StageLowering& lw, int op_id) {
  const auto& op = lw.plan->op(op_id);
  JoinChoice jc;
  if (op.children.size() < 2) return jc;
  const PlanParams& tp = lw.ThetaP((*lw.subq_of_op)[op_id]);
  // Build side = smaller believed side.
  int build = op.children[0];
  int probe = op.children[1];
  if (lw.Bytes(build) > lw.Bytes(probe)) std::swap(build, probe);
  jc.build = build;
  jc.build_mb = lw.Bytes(build) / kMb;
  // Non-empty partition ratio of the build side under the planned
  // shuffle partition count: demote BHJ when too few partitions are
  // non-empty relative to s2 (AQE demotion rule).
  const double non_empty_ratio = std::min(
      1.0, lw.Rows(build) / std::max(1.0, double(tp.shuffle_partitions)));
  if (jc.build_mb <= tp.broadcast_join_threshold_mb &&
      non_empty_ratio >= tp.non_empty_partition_ratio) {
    jc.algo = JoinAlgo::kBroadcastHashJoin;
  } else if (jc.build_mb <= tp.shuffled_hash_join_threshold_mb) {
    jc.algo = JoinAlgo::kShuffledHashJoin;
  }
  return jc;
}

void LowerStageRuns(const StageLowering& lw, CpuWorkRule cpu_rule,
                    std::span<const int> op_ids, QueryStage* st,
                    PartitionScratch* scratch) {
  SPARKOPT_DCHECK(!op_ids.empty()) << "stage " << st->id;
  const LogicalPlan& plan = *lw.plan;
  auto stage_of = [&](int op) {
    const int sq = (*lw.subq_of_op)[op];
    return lw.stage_of_subq ? (*lw.stage_of_subq)[sq] : sq;
  };

  // ---- IO totals, CPU work ---------------------------------------------
  double skew = 0.0;
  for (int id : op_ids) {
    const auto& op = plan.op(id);
    JoinChoice jc;
    if (op.type == OpType::kScan) {
      st->is_scan_stage = true;
      if (op.table_id >= 0) {
        st->input_rows += lw.Rows(id) / std::max(op.selectivity, 1e-9);
        st->input_bytes += lw.Bytes(id) / std::max(op.selectivity, 1e-9);
      }
    } else if (op.type == OpType::kJoin) {
      jc = ChooseJoin(lw, id);
      st->has_join = true;
      st->join_algo = jc.algo;
    }
    skew = std::max(skew, op.shuffle_skew);
    for (int c : op.children) {
      if (stage_of(c) == st->id) continue;
      if (jc.algo == JoinAlgo::kBroadcastHashJoin && c == jc.build) {
        if (lw.stage_of_subq) AddUnique(&st->broadcast_deps, stage_of(c));
        st->broadcast_bytes += lw.Bytes(c);
      } else {
        if (lw.stage_of_subq) AddUnique(&st->deps, stage_of(c));
        st->shuffle_read_bytes += lw.Bytes(c);
        st->input_rows += lw.Rows(c);
        st->input_bytes += lw.Bytes(c);
      }
    }
    ChargeCpu(lw, cpu_rule, id, jc, st);
  }
  const int root_op = op_ids.back();
  st->output_rows = lw.Rows(root_op);
  st->output_bytes = lw.Bytes(root_op);
  // Only the stage holding the plan root writes no shuffle.
  st->exchanges_output = root_op != plan.root();

  // ---- Partitioning ------------------------------------------------------
  const PlanParams& tp = lw.ThetaP(st->subq_id);
  const StageParams& ts = lw.ThetaS(st->subq_id);
  if (st->is_scan_stage) {
    // Spark's file-split formula: maxSplitBytes = min(s8,
    // max(s9, total/defaultParallelism)).
    const double total = std::max(st->input_bytes, 1.0);
    const double split = std::min(
        tp.max_partition_bytes_mb * kMb,
        std::max(tp.file_open_cost_mb * kMb,
                 total / std::max(lw.theta_c->default_parallelism, 1)));
    st->num_partitions = std::max(
        1, static_cast<int>(std::ceil(total / std::max(split, 1.0))));
  } else {
    st->num_partitions = std::max(1, tp.shuffle_partitions);
  }
  st->num_partitions = std::min(st->num_partitions, kMaxStagePartitions);
  const ZipfTable* zipf = nullptr;
  std::optional<ZipfTable> own_table;
  if (skew != 0.0) {
    zipf = lw.zipf != nullptr ? lw.zipf->Find(skew) : nullptr;
    if (zipf == nullptr) zipf = &own_table.emplace(skew, st->num_partitions);
  }
  if (st->is_scan_stage) {
    PartitionRuns(st->input_bytes, st->num_partitions, zipf, nullptr, nullptr,
                  scratch);
  } else {
    // AQE post-shuffle optimizations on this stage's input partitions.
    const SkewSplitRule split{tp.skewed_partition_threshold_mb,
                              tp.skewed_partition_factor,
                              tp.advisory_partition_size_mb};
    const CoalesceRule coalesce{tp.advisory_partition_size_mb,
                                ts.rebalance_small_factor,
                                ts.coalesce_min_partition_size_mb};
    st->num_partitions = static_cast<int>(
        PartitionRuns(st->input_bytes, st->num_partitions, zipf,
                      st->has_join ? &split : nullptr, &coalesce, scratch));
  }
  SPARKOPT_DCHECK_GE(st->num_partitions, 1) << "stage " << st->id;
}

void LowerStage(const StageLowering& lw, CpuWorkRule cpu_rule,
                QueryStage* st, PartitionScratch* scratch) {
  PartitionScratch own_scratch;
  if (scratch == nullptr) scratch = &own_scratch;
  LowerStageRuns(lw, cpu_rule, st->op_ids, st, scratch);
  ExpandRuns(scratch->runs, &st->partition_bytes);
  SPARKOPT_DCHECK_EQ(st->num_partitions,
                     static_cast<int>(st->partition_bytes.size()))
      << "stage " << st->id;
}

QueryStage LowerSubQuery(const StageLowering& lw, const SubQuery& subq,
                         CpuWorkRule cpu_rule) {
  QueryStage st;
  st.id = subq.id;
  st.subq_id = subq.id;
  st.op_ids = subq.op_ids;
  LowerStage(lw, cpu_rule, &st);
  return st;
}

}  // namespace sparkopt
