#pragma once

#include <cstdint>

#include "exec/cluster.h"
#include "params/spark_params.h"
#include "physical/physical_plan.h"

/// \file cost_model.h
/// \brief Task-level cost model: the ground truth the simulator executes
/// and the predictive models learn.
///
/// A task's latency combines CPU work (operator weights scaled by the
/// partition's share of stage input), scan IO, shuffle read/write
/// (affected by compression k7, in-flight buffer k5, and the bypass-merge
/// threshold k6), memory-pressure spills (k2, k8 vs. the partition's
/// working set), and per-task scheduling overhead. Broadcast joins charge
/// a per-executor hash-build plus broadcast network transfer.

namespace sparkopt {

/// Calibration constants of the simulated engine.
struct CostModelParams {
  double cpu_rows_per_sec = 8.0e6;     ///< weighted rows/s per core
  double scan_mbps_per_task = 350.0;   ///< effective scan bandwidth/task
  double shuffle_write_mbps = 220.0;
  double shuffle_read_mbps = 260.0;
  double broadcast_mbps = 700.0;
  double compress_ratio = 0.38;        ///< compressed/uncompressed bytes
  double compress_cpu_factor = 1.18;   ///< CPU overhead of compression
  double task_overhead_s = 0.025;      ///< per-task scheduling overhead
  double stage_overhead_s = 0.12;      ///< per-stage launch overhead
  double spill_penalty = 1.8;          ///< slope of the spill multiplier
  double gc_pressure_penalty = 0.35;   ///< penalty at memory_fraction -> 1
  double noise_sigma = 0.04;           ///< log-normal task noise
};

/// \brief Computes individual task latencies and stage-level auxiliary
/// costs for one query stage under a context configuration.
class TaskCostModel {
 public:
  TaskCostModel(const ClusterSpec& cluster, const CostModelParams& params)
      : cluster_(cluster), params_(params) {}

  /// Latency (seconds) of task `task_idx` of `stage`. `seed` controls the
  /// deterministic noise stream; pass 0 noise via params.noise_sigma = 0.
  double TaskLatency(const QueryStage& stage, int task_idx,
                     const ContextParams& theta_c, uint64_t seed) const;

  /// Noise-free latency (seconds) of a task of `stage` reading
  /// `part_bytes`; the overload above wraps it. It reads the stage's
  /// final `num_partitions` (the shuffle-write share), so a stage's
  /// partitions can be costed only after all of them are known.
  double TaskLatency(const QueryStage& stage, double part_bytes,
                     const ContextParams& theta_c) const;

  /// One-off stage setup cost paid before tasks run (stage launch plus
  /// broadcast distribution and per-executor hash-table builds for BHJ).
  double StageSetupLatency(const QueryStage& stage,
                           const ContextParams& theta_c) const;

  /// Bytes this stage reads from disk + network (for the IO objective).
  double StageIoBytes(const QueryStage& stage,
                      const ContextParams& theta_c) const;

  /// Whether task `task_idx` of `stage` exceeds its execution memory and
  /// spills (the memory-pressure rule inside TaskLatency), for
  /// observability counters.
  bool TaskSpills(const QueryStage& stage, int task_idx,
                  const ContextParams& theta_c) const;

  const CostModelParams& params() const { return params_; }
  const ClusterSpec& cluster() const { return cluster_; }

 private:
  ClusterSpec cluster_;
  CostModelParams params_;
};

}  // namespace sparkopt
