#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_safety.h"
#include "moo/problem.h"

/// \file front_memo.h
/// \brief Request-level memo of compile-time Pareto fronts, keyed by
/// (artifact version, query name), with single-flight solves.
///
/// The caller guarantees the key determines the front bit for bit (the
/// service's version fixes every solve input and its seed derives from
/// the query), so one entry serves every preference exactly. The memo
/// stays bounded with no option to tune (DESIGN.md section 15):
///  - Concurrent misses on one key run one solve; the others wait on it.
///  - Only the newest version seen is kept: its first call drops every
///    older entry, and a call on an older version solves without
///    inserting. So at most one entry per query of one version.
///  - A failed solve is not stored: its leader removes the entry (callers
///    that already joined receive the same, key-determined error).

namespace sparkopt {

class FrontMemo {
 public:
  using Front = std::shared_ptr<const MooRunResult>;
  using Solver = std::function<Result<Front>()>;

  enum class Source {
    kHit,     ///< a finished entry
    kJoined,  ///< waited on another caller's in-flight solve
    kSolved,  ///< ran `solve`; the front is stored if it succeeded
    kStale,   ///< ran `solve` for an older version; nothing stored
  };

  /// Returns the front for (version, key), running `solve` only when no
  /// entry for the key exists at the newest version seen. Thread-safe.
  Result<Front> GetOrSolve(uint64_t version, const std::string& key,
                           const Solver& solve, Source* source)
      SPARKOPT_EXCLUDES(mu_);

  /// Entries (finished or in flight) held for the newest version.
  size_t size() const SPARKOPT_EXCLUDES(mu_);
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Calls that ran their own solve (kSolved + kStale).
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Calls that joined an in-flight solve (kJoined).
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

 private:
  using Slot = std::shared_future<Result<Front>>;

  mutable Mutex mu_;
  uint64_t version_ SPARKOPT_GUARDED_BY(mu_) = 0;
  std::map<std::string, Slot> slots_ SPARKOPT_GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> waits_{0};
};

}  // namespace sparkopt
