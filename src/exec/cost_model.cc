#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace sparkopt {

namespace {
constexpr double kMb = 1024.0 * 1024.0;
}

double TaskCostModel::TaskLatency(const QueryStage& stage, int task_idx,
                                  const ContextParams& theta_c,
                                  uint64_t seed) const {
  const double part_bytes =
      task_idx < static_cast<int>(stage.partition_bytes.size())
          ? stage.partition_bytes[task_idx]
          : std::max(stage.input_bytes, 1.0) /
                std::max(stage.num_partitions, 1);
  double latency = TaskLatency(stage, part_bytes, theta_c);
  if (params_.noise_sigma > 0.0) {
    Rng rng(HashCombine(seed, HashCombine(stage.id * 1315423911ULL,
                                          static_cast<uint64_t>(task_idx))));
    latency *= rng.LogNormal(0.0, params_.noise_sigma);
  }
  return latency;
}

double TaskCostModel::TaskLatency(const QueryStage& stage, double part_bytes,
                                  const ContextParams& theta_c) const {
  const double stage_bytes = std::max(stage.input_bytes, 1.0);
  const double share = part_bytes / stage_bytes;

  // ---- CPU ---------------------------------------------------------------
  // Work is proportional to the partition's share of the stage input.
  double cpu_s = stage.cpu_work * share / params_.cpu_rows_per_sec;
  // GC pressure: very high memory.fraction leaves little execution
  // headroom; very low wastes cache. Mild U-shape around 0.6.
  const double mf = theta_c.memory_fraction;
  cpu_s *= 1.0 + params_.gc_pressure_penalty * (mf - 0.6) * (mf - 0.6) / 0.09;

  // ---- IO ------------------------------------------------------------
  double io_s = 0.0;
  if (stage.is_scan_stage) {
    // Scans compete for node disk bandwidth when many tasks per node.
    const double tasks_per_node =
        std::max(1.0, static_cast<double>(theta_c.TotalCores()) /
                          std::max(cluster_.nodes, 1));
    const double eff_mbps =
        std::min(params_.scan_mbps_per_task,
                 cluster_.disk_mbps / std::max(1.0, tasks_per_node * 0.25));
    io_s += part_bytes / kMb / eff_mbps;
  }
  if (stage.shuffle_read_bytes > 0.0) {
    const double frac = stage.shuffle_read_bytes / stage_bytes;
    double read_bytes = part_bytes * frac;
    double read_mbps = params_.shuffle_read_mbps;
    // Bigger in-flight buffers (k5) improve fetch pipelining, saturating
    // around 96 MB.
    read_mbps *= 0.65 + 0.35 * std::min(
                            1.0, theta_c.reducer_max_size_in_flight_mb / 96.0);
    double cpu_factor = 1.0;
    if (theta_c.shuffle_compress) {
      read_bytes *= params_.compress_ratio;
      cpu_factor = params_.compress_cpu_factor;
    }
    io_s += read_bytes / kMb / read_mbps;
    cpu_s *= cpu_factor;
  }
  if (stage.exchanges_output && stage.output_bytes > 0.0) {
    double write_bytes =
        stage.output_bytes / std::max(stage.num_partitions, 1);
    double write_mbps = params_.shuffle_write_mbps;
    // Bypass-merge (k6): when the downstream partition count is small the
    // sort-based merge is skipped, improving write throughput.
    if (stage.num_partitions <= theta_c.shuffle_bypass_merge_threshold) {
      write_mbps *= 1.25;
    }
    if (theta_c.shuffle_compress) {
      write_bytes *= params_.compress_ratio;
    }
    io_s += write_bytes / kMb / write_mbps;
  }

  // ---- Memory pressure -------------------------------------------------
  // Hash joins and aggregates hold a working set ~1.6x the partition; a
  // partition exceeding the per-task execution memory spills.
  double working_mb = part_bytes / kMb;
  if (stage.has_join || stage.sort_work > 0.0) working_mb *= 1.6;
  working_mb += stage.broadcast_bytes / kMb;  // resident broadcast table
  const double mem_mb = std::max(theta_c.MemoryPerTaskMb(), 64.0);
  double spill_mult = 1.0;
  if (working_mb > mem_mb) {
    spill_mult +=
        params_.spill_penalty * std::min(3.0, working_mb / mem_mb - 1.0);
  }

  return params_.task_overhead_s + (cpu_s + io_s) * spill_mult;
}

bool TaskCostModel::TaskSpills(const QueryStage& stage, int task_idx,
                               const ContextParams& theta_c) const {
  const double stage_bytes = std::max(stage.input_bytes, 1.0);
  const double part_bytes =
      task_idx < static_cast<int>(stage.partition_bytes.size())
          ? stage.partition_bytes[task_idx]
          : stage_bytes / std::max(stage.num_partitions, 1);
  // Must mirror the memory-pressure rule in TaskLatency.
  double working_mb = part_bytes / kMb;
  if (stage.has_join || stage.sort_work > 0.0) working_mb *= 1.6;
  working_mb += stage.broadcast_bytes / kMb;
  const double mem_mb = std::max(theta_c.MemoryPerTaskMb(), 64.0);
  return working_mb > mem_mb;
}

double TaskCostModel::StageSetupLatency(const QueryStage& stage,
                                        const ContextParams& theta_c) const {
  double setup = params_.stage_overhead_s;
  if (stage.broadcast_bytes > 0.0) {
    // Driver collects the build side, then every executor pulls a copy;
    // contention grows with sqrt(instances).
    const double copies = std::sqrt(
        std::max(1.0, static_cast<double>(theta_c.executor_instances)));
    setup += stage.broadcast_bytes * copies / kMb / params_.broadcast_mbps;
    // Per-executor hash-table build (rows approximated by bytes / 96B).
    const double build_rows = stage.broadcast_bytes / 96.0;
    setup += build_rows / params_.cpu_rows_per_sec;
  }
  return setup;
}

double TaskCostModel::StageIoBytes(const QueryStage& stage,
                                   const ContextParams& theta_c) const {
  double io = 0.0;
  if (stage.is_scan_stage) io += stage.input_bytes;
  double shuffle = stage.shuffle_read_bytes;
  double write = stage.exchanges_output ? stage.output_bytes : 0.0;
  if (theta_c.shuffle_compress) {
    shuffle *= params_.compress_ratio;
    write *= params_.compress_ratio;
  }
  io += shuffle + write;
  io += stage.broadcast_bytes *
        std::max(1, theta_c.executor_instances);
  return io;
}

}  // namespace sparkopt
