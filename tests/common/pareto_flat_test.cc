#include "common/pareto_flat.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/pareto.h"
#include "common/rng.h"

// Property suite for the flat Pareto kernel: every primitive must be
// bitwise identical — same points, same positions, same stable order — to
// the naive AoS formulation it replaced. Random fronts are drawn with
// floored coordinates so duplicate points and ties occur constantly.

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints(Rng* rng, int n, bool ties) {
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(2));
  for (auto& p : pts) {
    p[0] = ties ? std::floor(rng->Uniform(0, 12)) : rng->Uniform(0, 12);
    p[1] = ties ? std::floor(rng->Uniform(0, 12)) : rng->Uniform(0, 12);
  }
  return pts;
}

// O(n^2) dominance reference: kept iff no other point strictly dominates.
std::vector<size_t> ReferenceKept(const std::vector<ObjectiveVector>& pts) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < pts.size() && !dominated; ++j) {
      dominated = j != i && Dominates(pts[j], pts[i]);
    }
    if (!dominated) kept.push_back(i);
  }
  return kept;
}

// The pre-kernel Hypervolume2D implementation, kept verbatim as the
// bitwise oracle (filter + sort + dedup, then the staircase sum).
double ReferenceHypervolume(const std::vector<ObjectiveVector>& front,
                            const ObjectiveVector& ref) {
  if (front.empty()) return 0.0;
  auto nd_idx = ParetoIndices(front);
  std::vector<ObjectiveVector> nd;
  for (size_t i : nd_idx) nd.push_back(front[i]);
  std::sort(nd.begin(), nd.end());
  nd.erase(std::unique(nd.begin(), nd.end()), nd.end());
  double hv = 0.0;
  double last_y = ref[1];
  for (const auto& p : nd) {
    if (p[0] >= ref[0]) break;
    const double clipped_y = std::min(p[1], last_y);
    if (clipped_y < last_y) {
      hv += (ref[0] - p[0]) * (last_y - clipped_y);
      last_y = clipped_y;
    }
  }
  return hv;
}

// Payload i is `payload_base + i`, so a merge that reported payloads
// instead of positions in its MergePairs would fail the pair checks.
Front2 ToFront2(const std::vector<ObjectiveVector>& pts, size_t payload_base) {
  Front2 f;
  for (size_t i = 0; i < pts.size(); ++i) {
    f.Append(pts[i][0], pts[i][1], payload_base + i);
  }
  return f;
}

class FlatKernelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatKernelPropertyTest, ParetoPositionsMatchReference) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(40));
    const auto pts = RandomPoints(&rng, n, round % 2 == 0);
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = pts[i][0];
      y[i] = pts[i][1];
    }
    std::vector<uint32_t> kept;
    FlatParetoPositions(x.data(), y.data(), n, &kept, &scratch);
    const std::vector<size_t> got(kept.begin(), kept.end());
    EXPECT_EQ(got, ReferenceKept(pts)) << "seed " << GetParam();
    // ParetoIndices must agree too.
    EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
  }
}

// FlatMerge2 vs MergeFrontsNaive: identical sums, cross-product order
// and (i, j) positions; out->payload numbers the survivors.
TEST_P(FlatKernelPropertyTest, MergeMatchesNaiveBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto pa = RandomPoints(&rng, 1 + rng.NextBounded(18), ties);
    const auto pb = RandomPoints(&rng, 1 + rng.NextBounded(18), ties);
    const Front2 a = ToFront2(pa, 100), b = ToFront2(pb, 500);
    Front2 out;
    FlatMerge2(a, b, &out, &scratch);
    std::vector<MergePair> naive_pairs;
    const auto naive = MergeFrontsNaive(pa, pb, &naive_pairs);

    ASSERT_EQ(out.size(), naive.size()) << "seed " << GetParam();
    for (size_t p = 0; p < naive.size(); ++p) {
      EXPECT_EQ(out.x[p], naive[p][0]) << "seed " << GetParam();
      EXPECT_EQ(out.y[p], naive[p][1]);
      EXPECT_EQ(out.payload[p], p);
    }
    EXPECT_EQ(scratch.pairs, naive_pairs);
  }
}

TEST_P(FlatKernelPropertyTest, HypervolumeMatchesReferenceBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(30));
    const auto pts = RandomPoints(&rng, n, round % 2 == 0);
    const ObjectiveVector ref = {rng.Uniform(6, 14), rng.Uniform(6, 14)};
    // EXPECT_EQ, not NEAR: same terms in the same order.
    EXPECT_EQ(Hypervolume2D(pts, ref), ReferenceHypervolume(pts, ref))
        << "seed " << GetParam();
  }
}

// Incremental archive == sorted batch filter (values and multiplicity).
TEST_P(FlatKernelPropertyTest, ParetoInsertMatchesBatchFilter) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const auto pts =
        RandomPoints(&rng, 1 + rng.NextBounded(50), round % 2 == 0);
    Front2 archive;
    for (size_t i = 0; i < pts.size(); ++i) {
      ParetoInsert(&archive, pts[i][0], pts[i][1], i);
    }
    std::vector<ObjectiveVector> batch = ParetoFilter(pts);
    std::sort(batch.begin(), batch.end());
    ASSERT_EQ(archive.size(), batch.size()) << "seed " << GetParam();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(archive.x[i], batch[i][0]);
      EXPECT_EQ(archive.y[i], batch[i][1]);
      // The surviving payload's source point must carry these values.
      EXPECT_EQ(pts[archive.payload[i]][0], archive.x[i]);
      EXPECT_EQ(pts[archive.payload[i]][1], archive.y[i]);
    }
  }
}

// The k = 3 route of ParetoIndices against the quadratic reference.
TEST_P(FlatKernelPropertyTest, KdFallbackMatchesReference) {
  Rng rng(GetParam());
  std::vector<ObjectiveVector> pts(30, ObjectiveVector(3));
  for (auto& p : pts) {
    for (auto& v : p) v = std::floor(rng.Uniform(0, 6));
  }
  EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
}

// FlatMerge3's pairs are positions, not the inputs' payloads, and each
// survivor is the sum of the two points they name.
TEST_P(FlatKernelPropertyTest, ThreeObjectiveMergeContract) {
  Rng rng(GetParam());
  Front3 a, b, merged;
  for (int i = 0; i < 8; ++i) {
    a.Append(std::floor(rng.Uniform(0, 6)), std::floor(rng.Uniform(0, 6)),
             std::floor(rng.Uniform(0, 6)), 10 + i);
    b.Append(std::floor(rng.Uniform(0, 6)), std::floor(rng.Uniform(0, 6)),
             std::floor(rng.Uniform(0, 6)), 20 + i);
  }
  ParetoScratch scratch;
  FlatMerge3(a, b, &merged, &scratch);
  ASSERT_EQ(scratch.pairs.size(), merged.size());
  for (size_t p = 0; p < merged.size(); ++p) {
    EXPECT_EQ(merged.payload[p], p);
    const auto [pi, pj] = scratch.pairs[p];
    ASSERT_LT(pi, a.size());
    ASSERT_LT(pj, b.size());
    EXPECT_EQ(merged.x[p], a.x[pi] + b.x[pj]);
    EXPECT_EQ(merged.y[p], a.y[pi] + b.y[pj]);
    EXPECT_EQ(merged.z[p], a.z[pi] + b.z[pj]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatKernelPropertyTest,
                         ::testing::Values(3, 13, 37, 97, 181, 331));

TEST(FlatMergeTest, EmptyAndSingletonFronts) {
  ParetoScratch scratch;
  Front2 empty, single, out;
  single.Append(2.0, 3.0, 0);

  FlatMerge2(empty, single, &out, &scratch);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(scratch.pairs.empty());
  FlatMerge2(single, empty, &out, &scratch);
  EXPECT_TRUE(out.empty());

  Front2 other;
  other.Append(5.0, 7.0, 0);
  FlatMerge2(single, other, &out, &scratch);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.x[0], 7.0);
  EXPECT_EQ(out.y[0], 10.0);
  EXPECT_EQ(out.payload[0], 0u);
  ASSERT_EQ(scratch.pairs.size(), 1u);
  EXPECT_EQ(scratch.pairs[0].i, 0u);
  EXPECT_EQ(scratch.pairs[0].j, 0u);
}

TEST(FlatMergeTest, CrossProductOrderAndAlignedPairs) {
  // a = {(0,4), (2,0)}, b = {(1,1), (3,0)}; survivors in cross-product
  // order i*|b|+j: (0,4)+(1,1)=(1,5), (2,0)+(1,1)=(3,1), (2,0)+(3,0)=(5,0).
  Front2 a, b, out;
  a.Append(0, 4, 0);
  a.Append(2, 0, 1);
  b.Append(1, 1, 0);
  b.Append(3, 0, 1);
  ParetoScratch scratch;
  FlatMerge2(a, b, &out, &scratch);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.x, (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(out.y, (std::vector<double>{5, 1, 0}));
  ASSERT_EQ(scratch.pairs.size(), 3u);
  EXPECT_EQ(scratch.pairs[1].i, 1u);
  EXPECT_EQ(scratch.pairs[1].j, 0u);
}

// Chained merges, as DagAggregator runs them: the first merge's pairs
// are copied out before the second reuses the scratch, and every final
// survivor resolves through both pair lists to its three source points.
TEST(MergeFrontsTest, ChainedMergesShareComboTable) {
  Rng rng(4242);
  const Front2 f1 = ToFront2(RandomPoints(&rng, 6, true), 0);
  const Front2 f2 = ToFront2(RandomPoints(&rng, 7, true), 0);
  const Front2 f3 = ToFront2(RandomPoints(&rng, 5, true), 0);

  ParetoScratch scratch;
  Front2 m12, m123;
  FlatMerge2(f1, f2, &m12, &scratch);
  const std::vector<MergePair> pairs12 = scratch.pairs;
  FlatMerge2(m12, f3, &m123, &scratch);
  ASSERT_EQ(scratch.pairs.size(), m123.size());
  for (size_t p = 0; p < m123.size(); ++p) {
    const MergePair outer = scratch.pairs[p];
    const MergePair inner = pairs12[outer.i];
    const double x = f1.x[inner.i] + f2.x[inner.j] + f3.x[outer.j];
    const double y = f1.y[inner.i] + f2.y[inner.j] + f3.y[outer.j];
    EXPECT_EQ(m123.x[p], x);
    EXPECT_EQ(m123.y[p], y);
  }
}

TEST(ParetoInsertTest, RejectsDominatedKeepsDuplicates) {
  Front2 front;
  EXPECT_TRUE(ParetoInsert(&front, 2, 2, 0));
  EXPECT_FALSE(ParetoInsert(&front, 3, 3, 1));  // dominated
  EXPECT_TRUE(ParetoInsert(&front, 2, 2, 2));   // exact duplicate kept
  EXPECT_EQ(front.size(), 2u);
  EXPECT_TRUE(ParetoInsert(&front, 1, 1, 3));   // dominates both
  EXPECT_EQ(front.size(), 1u);
  EXPECT_EQ(front.payload[0], 3u);
}

}  // namespace
}  // namespace sparkopt
