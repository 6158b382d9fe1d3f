#include "service/front_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sparkopt {
namespace {

using Front = FrontMemo::Front;
using Source = FrontMemo::Source;

Front MakeFront(double latency) {
  auto moo = std::make_shared<MooRunResult>();
  moo->pareto.push_back(MooSolution{{latency, 1.0}, {}, {}});
  return moo;
}

/// A solver the test expects never to run.
Result<Front> MustNotSolve() {
  ADD_FAILURE() << "unexpected solve";
  return Status::Internal("unexpected solve");
}

void SpinUntil(const std::function<bool()>& done) {
  while (!done()) std::this_thread::yield();
}

TEST(FrontMemoTest, HitsAfterTheFirstSolve) {
  FrontMemo memo;
  const Front f = MakeFront(1.0);
  Source src;
  auto first = memo.GetOrSolve(1, "q", [&] { return Result<Front>(f); }, &src);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(src, Source::kSolved);
  auto second = memo.GetOrSolve(1, "q", MustNotSolve, &src);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(src, Source::kHit);
  EXPECT_EQ(*second, f);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.waits(), 0u);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FrontMemoTest, ConcurrentMissesJoinOneSolve) {
  constexpr int kCallers = 6;
  FrontMemo memo;
  const Front f = MakeFront(2.0);
  std::atomic<int> solves{0};
  // The leader holds its solve open until every other caller has joined,
  // so each of them must be a waiter, never a second solver.
  auto solve = [&]() -> Result<Front> {
    solves.fetch_add(1);
    SpinUntil([&] { return memo.waits() == kCallers - 1; });
    return f;
  };
  std::vector<Front> got(kCallers);
  std::vector<Source> src(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      auto r = memo.GetOrSolve(7, "q", solve, &src[i]);
      if (r.ok()) got[i] = *r;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(solves.load(), 1);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.waits(), kCallers - 1u);
  EXPECT_EQ(memo.hits(), 0u);
  int solved = 0;
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(got[i], f);
    solved += src[i] == Source::kSolved ? 1 : 0;
  }
  EXPECT_EQ(solved, 1);
}

TEST(FrontMemoTest, StaleInFlightSolveDoesNotFillTheNewerVersion) {
  FrontMemo memo;
  const Front old_front = MakeFront(1.0);
  const Front new_front = MakeFront(2.0);
  std::atomic<bool> started{false}, release{false};
  Result<Front> old_result = Status::Internal("not run");
  Source old_src;
  std::thread in_flight([&] {
    old_result = memo.GetOrSolve(
        1, "q",
        [&]() -> Result<Front> {
          started = true;
          SpinUntil([&] { return release.load(); });
          return old_front;
        },
        &old_src);
  });
  SpinUntil([&] { return started.load(); });

  // Version 2 arrives while the version-1 solve is still running: it
  // must not join that solve, and it drops the version-1 entry.
  Source src;
  auto fresh =
      memo.GetOrSolve(2, "q", [&] { return Result<Front>(new_front); }, &src);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(src, Source::kSolved);
  EXPECT_EQ(*fresh, new_front);

  release = true;
  in_flight.join();
  ASSERT_TRUE(old_result.ok());
  EXPECT_EQ(old_src, Source::kSolved);
  EXPECT_EQ(*old_result, old_front);

  // The late version-1 result never replaced version 2's entry.
  auto hit = memo.GetOrSolve(2, "q", MustNotSolve, &src);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(src, Source::kHit);
  EXPECT_EQ(*hit, new_front);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FrontMemoTest, OlderVersionSolvesWithoutInserting) {
  FrontMemo memo;
  const Front v2 = MakeFront(2.0);
  const Front v1 = MakeFront(1.0);
  Source src;
  ASSERT_TRUE(
      memo.GetOrSolve(2, "q", [&] { return Result<Front>(v2); }, &src).ok());
  for (int rep = 0; rep < 2; ++rep) {
    auto stale =
        memo.GetOrSolve(1, "q", [&] { return Result<Front>(v1); }, &src);
    ASSERT_TRUE(stale.ok());
    EXPECT_EQ(src, Source::kStale);
    EXPECT_EQ(*stale, v1);
  }
  // An older version neither serves from nor writes into the memo.
  auto stale_new_key =
      memo.GetOrSolve(1, "other", [&] { return Result<Front>(v1); }, &src);
  EXPECT_EQ(src, Source::kStale);
  EXPECT_EQ(memo.size(), 1u);
  auto hit = memo.GetOrSolve(2, "q", MustNotSolve, &src);
  EXPECT_EQ(src, Source::kHit);
  EXPECT_EQ(*hit, v2);
  EXPECT_EQ(memo.misses(), 4u);
}

TEST(FrontMemoTest, FailedSolvesAreNotStored) {
  FrontMemo memo;
  Source joiner_src;
  Result<Front> joined = Status::Internal("not run");
  std::thread joiner;
  auto failing = [&]() -> Result<Front> {
    // One caller joins the in-flight solve and must see its failure.
    joiner = std::thread([&] {
      joined = memo.GetOrSolve(3, "q", MustNotSolve, &joiner_src);
    });
    SpinUntil([&] { return memo.waits() == 1; });
    return Status::Internal("solver failed");
  };
  Source src;
  auto failed = memo.GetOrSolve(3, "q", failing, &src);
  joiner.join();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(src, Source::kSolved);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joiner_src, Source::kJoined);
  EXPECT_EQ(joined.status().code(), StatusCode::kInternal);
  EXPECT_EQ(memo.size(), 0u);

  // The next caller retries instead of reading the stored error.
  const Front f = MakeFront(3.0);
  auto retry = memo.GetOrSolve(3, "q", [&] { return Result<Front>(f); }, &src);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(src, Source::kSolved);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FrontMemoTest, ThrowingSolveReleasesItsKey) {
  FrontMemo memo;
  Source src;
  EXPECT_THROW(memo.GetOrSolve(
                   1, "q",
                   []() -> Result<Front> { throw std::runtime_error("boom"); },
                   &src),
               std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);
  const Front f = MakeFront(4.0);
  auto retry = memo.GetOrSolve(1, "q", [&] { return Result<Front>(f); }, &src);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(src, Source::kSolved);
}

}  // namespace
}  // namespace sparkopt
