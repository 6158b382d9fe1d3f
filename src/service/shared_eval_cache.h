#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/subq_evaluator.h"

/// \file shared_eval_cache.h
/// \brief Cross-query, cross-session evaluation memo shared by every
/// concurrent tuning session of the service.
///
/// A thin sharded wrapper over EvalCache: the shard is picked from the
/// key's high bits (EvalCache probes with the low bits, so the two
/// selections stay independent), which spreads concurrent sessions over
/// independent tables and keeps CAS traffic per cache line low. Each
/// shard inherits EvalCache's lock-free seqlock reads and second-chance
/// eviction, so the shared cache is capacity-bounded with real
/// replacement rather than drop-on-full.
///
/// Keys must be salted per (artifact version, query identity) by the
/// caller — raw evaluation keys would collide across queries that share
/// subQ ids.
///
/// The tuning service no longer uses this class: its request-level
/// FrontMemo (front_memo.h) replaced the eval-level cache. The class and
/// its unit test stay because the repository benchmark
/// (perfbench/service.cc) names it through TuningService::shared_cache(),
/// which now returns nullptr.

namespace sparkopt {

struct SharedEvalCacheOptions {
  /// Number of shards, rounded up to a power of two (>= 1).
  size_t shards = 8;
  /// EvalCache slots per shard (rounded up to a power of two, min 1024).
  size_t capacity_per_shard = size_t{1} << 14;
};

class SharedEvalCache {
 public:
  explicit SharedEvalCache(SharedEvalCacheOptions opts = {});

  /// Thread-safe; counts a hit/miss.
  bool Lookup(uint64_t key, SubQObjectives* out);
  /// Thread-safe; eviction on shard pressure.
  void Insert(uint64_t key, const SubQObjectives& value);
  /// Not thread-safe against concurrent access.
  void Clear();

  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const;
  size_t occupancy() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const;
  double hit_rate() const;

 private:
  size_t ShardOf(uint64_t key) const {
    // High bits: EvalCache's probe sequence consumes the low bits.
    return (key >> 48) & shard_mask_;
  }

  // EvalCache holds atomics (not movable), hence by-pointer shards.
  std::vector<std::unique_ptr<EvalCache>> shards_;
  size_t shard_mask_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace sparkopt
