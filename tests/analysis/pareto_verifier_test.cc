#include "analysis/pareto_verifier.h"

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/verifier.h"
#include "common/pareto.h"
#include "gtest/gtest.h"
#include "verifier_test_util.h"

namespace sparkopt {
namespace analysis {
namespace {

VerifyReport RunVerifier(const std::vector<ObjectiveVector>& front) {
  ParetoVerifier v;
  VerifyInput in;
  in.front = &front;
  return v.Verify(in);
}

TEST(ParetoVerifierTest, CleanFrontPasses) {
  EXPECT_TRUE(ReportClean(RunVerifier({{1.0, 4.0}, {2.0, 3.0}, {3.0, 1.0}})));
}

TEST(ParetoVerifierTest, EmptyFrontIsVacuouslyClean) {
  EXPECT_TRUE(ReportClean(RunVerifier({})));
}

TEST(ParetoVerifierTest, SinglePointIsClean) {
  EXPECT_TRUE(ReportClean(RunVerifier({{1.0, 1.0}})));
}

TEST(ParetoVerifierTest, NotApplicableWithoutFront) {
  ParetoVerifier v;
  EXPECT_FALSE(v.applicable(VerifyInput{}));
}

TEST(ParetoVerifierTest, DominatedPointIsInternal) {
  // {2, 3} is dominated by {1, 2}.
  auto report = RunVerifier({{1.0, 2.0}, {2.0, 3.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "dominated by point 0"));
  EXPECT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].location, "point 1/2");
}

TEST(ParetoVerifierTest, StableOrderDuplicatesAreClean) {
  // ParetoIndices keeps first-seen duplicates; strict dominance must not
  // flag exact ties.
  EXPECT_TRUE(ReportClean(RunVerifier({{1.0, 2.0}, {1.0, 2.0}})));
}

TEST(ParetoVerifierTest, WeakDominanceIsFlagged) {
  // Equal in one objective, strictly better in the other.
  auto report = RunVerifier({{1.0, 2.0}, {1.0, 3.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "not mutually non-dominated"));
}

TEST(ParetoVerifierTest, CleanThreeObjectiveFrontPasses) {
  EXPECT_TRUE(ReportClean(
      RunVerifier({{1.0, 2.0, 3.0}, {2.0, 3.0, 1.0}, {3.0, 1.0, 2.0}})));
}

TEST(ParetoVerifierTest, DominatedOnlyThroughZIsInternal) {
  // Points 2 and 3 tie on (x, y); only z separates them, and the (x, y)
  // projection of the whole front is clean.
  auto report = RunVerifier(
      {{1.0, 5.0, 9.0}, {5.0, 1.0, 9.0}, {3.0, 3.0, 2.0}, {3.0, 3.0, 4.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "dominated by point 2"));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].location, "point 3/4");
}

TEST(ParetoVerifierTest, WeakThreeObjectiveDominanceIsFlagged) {
  // Equal in z, strictly better in x and y.
  auto report = RunVerifier({{1.0, 2.0, 3.0}, {2.0, 3.0, 3.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "not mutually non-dominated"));
  EXPECT_EQ(report.violations.size(), 1u);
}

TEST(ParetoVerifierTest, ThreeObjectiveDuplicatesAreClean) {
  EXPECT_TRUE(ReportClean(
      RunVerifier({{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {3.0, 2.0, 1.0}})));
}

TEST(ParetoVerifierTest, FourObjectiveDominatedPointIsInternal) {
  // k = 4 has no kernel fast path; the pairwise scan must still name the
  // dominated point.
  auto report = RunVerifier(
      {{1.0, 2.0, 3.0, 4.0}, {4.0, 3.0, 2.0, 1.0}, {2.0, 3.0, 4.0, 5.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "dominated by point 0"));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].location, "point 2/3");
}

TEST(ParetoVerifierTest, NonFiniteObjectiveIsOutOfRange) {
  auto report =
      RunVerifier({{1.0, std::numeric_limits<double>::quiet_NaN()}, {2.0, 3.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange, "objective 1"));
}

TEST(ParetoVerifierTest, InfiniteObjectiveIsOutOfRange) {
  auto report =
      RunVerifier({{std::numeric_limits<double>::infinity(), 1.0}, {2.0, 3.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange, "objective 0"));
}

TEST(ParetoVerifierTest, DimensionMismatchIsInvalidArgument) {
  auto report = RunVerifier({{1.0, 2.0}, {2.0, 3.0, 4.0}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInvalidArgument,
                        "dimension 3 differs from the front's dimension 2"));
}

TEST(ParetoVerifierTest, EmptyObjectiveVectorIsInvalidArgument) {
  auto report = RunVerifier({{}});
  EXPECT_TRUE(ReportHas(report, StatusCode::kInvalidArgument,
                        "objective vector is empty"));
}

}  // namespace
}  // namespace analysis
}  // namespace sparkopt
