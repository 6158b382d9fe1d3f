#include "service/shared_eval_cache.h"

namespace sparkopt {

SharedEvalCache::SharedEvalCache(SharedEvalCacheOptions opts) {
  size_t n = 1;
  while (n < opts.shards) n <<= 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<EvalCache>(opts.capacity_per_shard));
  }
  shard_mask_ = n - 1;
}

bool SharedEvalCache::Lookup(uint64_t key, SubQObjectives* out) {
  const bool hit = shards_[ShardOf(key)]->Lookup(key, out);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void SharedEvalCache::Insert(uint64_t key, const SubQObjectives& value) {
  shards_[ShardOf(key)]->Insert(key, value);
}

void SharedEvalCache::Clear() {
  for (auto& s : shards_) s->Clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

size_t SharedEvalCache::capacity() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->capacity();
  return total;
}

size_t SharedEvalCache::occupancy() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->occupancy();
  return total;
}

uint64_t SharedEvalCache::evictions() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->evictions();
  return total;
}

double SharedEvalCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double m = static_cast<double>(misses());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

}  // namespace sparkopt
