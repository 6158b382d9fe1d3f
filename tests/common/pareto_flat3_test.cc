#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/pareto.h"
#include "common/pareto_flat.h"
#include "common/rng.h"

// Property suite for the k = 3 flat Pareto kernel, mirroring
// pareto_flat_test.cc: every primitive must be bitwise identical — same
// points, same positions, same stable order — to the naive formulation.
// Random fronts are drawn with floored coordinates so duplicate points
// and ties occur constantly.

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints3(Rng* rng, int n, bool ties) {
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(3));
  for (auto& p : pts) {
    for (auto& v : p) {
      v = ties ? std::floor(rng->Uniform(0, 8)) : rng->Uniform(0, 8);
    }
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

// Payload i is `payload_base + i`, so a merge that reported payloads
// instead of positions in its MergePairs would fail the pair checks.
Front3 ToFront3(const std::vector<ObjectiveVector>& pts,
                size_t payload_base = 0) {
  Front3 f;
  for (size_t i = 0; i < pts.size(); ++i) {
    f.Append(pts[i][0], pts[i][1], pts[i][2], payload_base + i);
  }
  return f;
}

class FlatKernel3PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatKernel3PropertyTest, ParetoPositionsMatchReference) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(40));
    const auto pts = RandomPoints3(&rng, n, round % 2 == 0);
    std::vector<double> x(n), y(n), z(n);
    for (int i = 0; i < n; ++i) {
      x[i] = pts[i][0];
      y[i] = pts[i][1];
      z[i] = pts[i][2];
    }
    std::vector<uint32_t> kept;
    FlatParetoPositions3(x.data(), y.data(), z.data(), n, &kept, &scratch);
    const std::vector<size_t> got(kept.begin(), kept.end());
    EXPECT_EQ(got, ReferenceKept(pts)) << "seed " << GetParam();
    // ParetoIndices must route k = 3 to the same answer.
    EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
  }
}

// FlatMerge3 vs the materialized cross product + quadratic filter:
// identical sums, cross-product order, and aligned (i, j) pairs.
TEST_P(FlatKernel3PropertyTest, MergeMatchesMaterializedProduct) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto pa = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    const auto pb = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    Front3 a = ToFront3(pa), b = ToFront3(pb), out;
    FlatMerge3(a, b, &out, &scratch);

    std::vector<ObjectiveVector> product;
    for (size_t i = 0; i < pa.size(); ++i) {
      for (size_t j = 0; j < pb.size(); ++j) {
        product.push_back(
            {pa[i][0] + pb[j][0], pa[i][1] + pb[j][1], pa[i][2] + pb[j][2]});
      }
    }
    const auto ref = ReferenceKept(product);
    ASSERT_EQ(out.size(), ref.size()) << "seed " << GetParam();
    ASSERT_EQ(scratch.pairs.size(), ref.size());
    for (size_t p = 0; p < ref.size(); ++p) {
      const size_t i = ref[p] / pb.size();
      const size_t j = ref[p] % pb.size();
      EXPECT_EQ(scratch.pairs[p].i, i);
      EXPECT_EQ(scratch.pairs[p].j, j);
      EXPECT_EQ(out.x[p], pa[i][0] + pb[j][0]);
      EXPECT_EQ(out.y[p], pa[i][1] + pb[j][1]);
      EXPECT_EQ(out.z[p], pa[i][2] + pb[j][2]);
      EXPECT_EQ(out.payload[p], p);
    }
  }
}

// FlatMerge3 vs MergeFrontsNaive: identical sums, cross-product order
// and (i, j) positions — the k = 3 sibling of MergeMatchesNaiveBitwise.
TEST_P(FlatKernel3PropertyTest, MergeFrontsMatchesNaiveBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto pa = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    const auto pb = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    const Front3 a = ToFront3(pa, 100), b = ToFront3(pb, 500);
    Front3 out;
    FlatMerge3(a, b, &out, &scratch);
    std::vector<MergePair> naive_pairs;
    const auto naive = MergeFrontsNaive(pa, pb, &naive_pairs);

    ASSERT_EQ(out.size(), naive.size()) << "seed " << GetParam();
    for (size_t p = 0; p < naive.size(); ++p) {
      EXPECT_EQ(out.x[p], naive[p][0]) << "seed " << GetParam();
      EXPECT_EQ(out.y[p], naive[p][1]);
      EXPECT_EQ(out.z[p], naive[p][2]);
      EXPECT_EQ(out.payload[p], p);
    }
    EXPECT_EQ(scratch.pairs, naive_pairs);
  }
}

// Chained k = 3 merges: every final survivor resolves through both pair
// lists to its three source points.
TEST_P(FlatKernel3PropertyTest, ChainedMergesShareComboTable) {
  Rng rng(GetParam());
  const Front3 f1 = ToFront3(RandomPoints3(&rng, 6, true));
  const Front3 f2 = ToFront3(RandomPoints3(&rng, 7, true));
  const Front3 f3 = ToFront3(RandomPoints3(&rng, 5, true));

  ParetoScratch scratch;
  Front3 m12, m123;
  FlatMerge3(f1, f2, &m12, &scratch);
  const std::vector<MergePair> pairs12 = scratch.pairs;
  FlatMerge3(m12, f3, &m123, &scratch);
  ASSERT_EQ(scratch.pairs.size(), m123.size());
  for (size_t p = 0; p < m123.size(); ++p) {
    const MergePair outer = scratch.pairs[p];
    const MergePair inner = pairs12[outer.i];
    EXPECT_EQ(m123.x[p], f1.x[inner.i] + f2.x[inner.j] + f3.x[outer.j]);
    EXPECT_EQ(m123.y[p], f1.y[inner.i] + f2.y[inner.j] + f3.y[outer.j]);
    EXPECT_EQ(m123.z[p], f1.z[inner.i] + f2.z[inner.j] + f3.z[outer.j]);
  }
}

// Incremental archive == sorted batch filter (values and multiplicity).
TEST_P(FlatKernel3PropertyTest, ParetoInsertMatchesBatchFilter) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const auto pts =
        RandomPoints3(&rng, 1 + rng.NextBounded(50), round % 2 == 0);
    Front3 archive;
    for (size_t i = 0; i < pts.size(); ++i) {
      ParetoInsert3(&archive, pts[i][0], pts[i][1], pts[i][2], i);
    }
    std::vector<ObjectiveVector> batch = ParetoFilter(pts);
    std::sort(batch.begin(), batch.end());
    ASSERT_EQ(archive.size(), batch.size()) << "seed " << GetParam();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(archive.x[i], batch[i][0]);
      EXPECT_EQ(archive.y[i], batch[i][1]);
      EXPECT_EQ(archive.z[i], batch[i][2]);
      EXPECT_EQ(pts[archive.payload[i]][0], archive.x[i]);
      EXPECT_EQ(pts[archive.payload[i]][1], archive.y[i]);
      EXPECT_EQ(pts[archive.payload[i]][2], archive.z[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatKernel3PropertyTest,
                         ::testing::Values(3, 13, 37, 97, 181, 331));

TEST(FlatMerge3Test, EmptyAndSingletonFronts) {
  ParetoScratch scratch;
  Front3 empty, single, out;
  single.Append(2.0, 3.0, 4.0, 0);

  FlatMerge3(empty, single, &out, &scratch);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(scratch.pairs.empty());
  FlatMerge3(single, empty, &out, &scratch);
  EXPECT_TRUE(out.empty());

  Front3 other;
  other.Append(5.0, 7.0, 1.0, 0);
  FlatMerge3(single, other, &out, &scratch);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.x[0], 7.0);
  EXPECT_EQ(out.y[0], 10.0);
  EXPECT_EQ(out.z[0], 5.0);
  EXPECT_EQ(out.payload[0], 0u);
  ASSERT_EQ(scratch.pairs.size(), 1u);
  EXPECT_EQ(scratch.pairs[0].i, 0u);
  EXPECT_EQ(scratch.pairs[0].j, 0u);
}

TEST(FlatMerge3Test, CrossProductOrderAndAlignedPairs) {
  // a = {(0,4,1), (2,0,3)}, b = {(1,1,0), (3,0,2)}. Sums in cross-product
  // order: (1,5,1), (3,4,3), (3,1,3), (5,0,5) — (3,4,3) is dominated by
  // (3,1,3); everything else survives.
  Front3 a, b, out;
  a.Append(0, 4, 1, 0);
  a.Append(2, 0, 3, 1);
  b.Append(1, 1, 0, 0);
  b.Append(3, 0, 2, 1);
  ParetoScratch scratch;
  FlatMerge3(a, b, &out, &scratch);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.x, (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(out.y, (std::vector<double>{5, 1, 0}));
  EXPECT_EQ(out.z, (std::vector<double>{1, 3, 5}));
  ASSERT_EQ(scratch.pairs.size(), 3u);
  EXPECT_EQ(scratch.pairs[1].i, 1u);
  EXPECT_EQ(scratch.pairs[1].j, 0u);
}

TEST(ParetoInsert3Test, RejectsDominatedKeepsDuplicates) {
  Front3 front;
  EXPECT_TRUE(ParetoInsert3(&front, 2, 2, 2, 0));
  EXPECT_FALSE(ParetoInsert3(&front, 3, 3, 3, 1));  // dominated
  EXPECT_TRUE(ParetoInsert3(&front, 2, 2, 2, 2));   // exact duplicate kept
  EXPECT_EQ(front.size(), 2u);
  // Incomparable on z: stays alongside the duplicates.
  EXPECT_TRUE(ParetoInsert3(&front, 3, 3, 1, 3));
  EXPECT_EQ(front.size(), 3u);
  EXPECT_TRUE(ParetoInsert3(&front, 1, 1, 1, 4));  // dominates all three
  EXPECT_EQ(front.size(), 1u);
  EXPECT_EQ(front.payload[0], 4u);
}

TEST(ParetoInsert3Test, RemovesNonContiguousDominatedRun) {
  Front3 front;
  // Archive sorted by (x, y, z): (1,5,5), (2,1,9), (3,4,4), (4,0,9).
  EXPECT_TRUE(ParetoInsert3(&front, 1, 5, 5, 0));
  EXPECT_TRUE(ParetoInsert3(&front, 2, 1, 9, 1));
  EXPECT_TRUE(ParetoInsert3(&front, 3, 4, 4, 2));
  EXPECT_TRUE(ParetoInsert3(&front, 4, 0, 9, 3));
  ASSERT_EQ(front.size(), 4u);
  // (2,3,3) dominates (3,4,4) but not (2,1,9)/(4,0,9) — the dominated
  // point is sandwiched between survivors.
  EXPECT_TRUE(ParetoInsert3(&front, 2, 3, 3, 4));
  ASSERT_EQ(front.size(), 4u);
  EXPECT_EQ(front.x, (std::vector<double>{1, 2, 2, 4}));
  EXPECT_EQ(front.y, (std::vector<double>{5, 1, 3, 0}));
  EXPECT_EQ(front.z, (std::vector<double>{5, 9, 3, 9}));
  EXPECT_EQ(front.payload, (std::vector<size_t>{0, 1, 4, 3}));
}

}  // namespace
}  // namespace sparkopt
