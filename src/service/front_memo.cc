#include "service/front_memo.h"

#include <chrono>

namespace sparkopt {

Result<FrontMemo::Front> FrontMemo::GetOrSolve(uint64_t version,
                                               const std::string& key,
                                               const Solver& solve,
                                               Source* source) {
  std::promise<Result<Front>> promise;
  Slot slot;
  bool leader = false;
  {
    MutexLock lock(mu_);
    if (version > version_) {
      slots_.clear();
      version_ = version;
    }
    if (version == version_) {
      auto [it, inserted] = slots_.try_emplace(key);
      leader = inserted;
      if (inserted) {
        it->second = promise.get_future().share();
      } else {
        slot = it->second;
      }
    }
  }

  if (slot.valid()) {
    const bool ready = slot.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    (ready ? hits_ : waits_).fetch_add(1, std::memory_order_relaxed);
    *source = ready ? Source::kHit : Source::kJoined;
    return slot.get();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (!leader) {
    *source = Source::kStale;
    return solve();
  }
  *source = Source::kSolved;

  // Resolves the slot for every joiner. A failure leaves the memo first,
  // so the next caller retries instead of reading the error. While the
  // memo is still at `version` the key's slot can only be this one: a
  // slot leaves only on a version change or through this path.
  auto finish = [&](const Result<Front>& r) {
    if (!r.ok()) {
      MutexLock lock(mu_);
      if (version_ == version) slots_.erase(key);
    }
    promise.set_value(r);
  };
  Result<Front> result = Status::Internal("front solve threw");
  try {
    result = solve();
  } catch (...) {
    finish(result);
    throw;
  }
  finish(result);
  return result;
}

size_t FrontMemo::size() const {
  MutexLock lock(mu_);
  return slots_.size();
}

}  // namespace sparkopt
