#include "service/artifact_registry.h"

#include <gtest/gtest.h>

#include "workload/tpch.h"

namespace sparkopt {
namespace {

std::shared_ptr<ServiceArtifacts> MakeBundle(const std::string& name) {
  auto a = std::make_shared<ServiceArtifacts>();
  a->name = name;
  const auto* catalog = a->AddCatalog(TpchCatalog(10));
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(3, catalog)).ok());
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(5, catalog)).ok());
  return a;
}

TEST(ArtifactRegistryTest, EmptyRegistryHasNoCurrent) {
  ArtifactRegistry reg;
  EXPECT_EQ(reg.Current(), nullptr);
  EXPECT_EQ(reg.current_version(), 0u);
}

TEST(ArtifactRegistryTest, PublishAssignsMonotonicVersions) {
  ArtifactRegistry reg;
  EXPECT_EQ(reg.Publish(MakeBundle("v1")), 1u);
  EXPECT_EQ(reg.Publish(MakeBundle("v2")), 2u);
  ASSERT_NE(reg.Current(), nullptr);
  EXPECT_EQ(reg.Current()->version, 2u);
  EXPECT_EQ(reg.Current()->name, "v2");
  EXPECT_EQ(reg.current_version(), 2u);
}

TEST(ArtifactRegistryTest, SnapshotSurvivesHotSwap) {
  ArtifactRegistry reg;
  reg.Publish(MakeBundle("old"));
  // An in-flight session pins its snapshot...
  std::shared_ptr<const ServiceArtifacts> snap = reg.Current();
  reg.Publish(MakeBundle("new"));
  // ...and keeps seeing one consistent version while new admissions get
  // the new bundle.
  EXPECT_EQ(snap->name, "old");
  EXPECT_EQ(snap->version, 1u);
  EXPECT_NE(snap->FindQuery("TPCH-Q3"), nullptr);
  EXPECT_EQ(reg.Current()->name, "new");
}

TEST(ArtifactRegistryTest, QueriesAreRoutedByName) {
  auto a = MakeBundle("b");
  EXPECT_EQ(a->num_queries(), 2u);
  ASSERT_NE(a->FindQuery("TPCH-Q3"), nullptr);
  EXPECT_EQ(a->FindQuery("TPCH-Q3")->name, "TPCH-Q3");
  EXPECT_EQ(a->FindQuery("nope"), nullptr);
}

TEST(ArtifactRegistryTest, DuplicateAndEmptyQueryNamesRejected) {
  ServiceArtifacts a;
  const auto* catalog = a.AddCatalog(TpchCatalog(10));
  EXPECT_TRUE(a.AddQuery(*MakeTpchQuery(3, catalog)).ok());
  EXPECT_FALSE(a.AddQuery(*MakeTpchQuery(3, catalog)).ok());
  Query unnamed = *MakeTpchQuery(5, catalog);
  unnamed.name.clear();
  EXPECT_FALSE(a.AddQuery(std::move(unnamed)).ok());
}

TEST(ArtifactRegistryTest, EmptyPlanRejectedWithTheViolation) {
  ServiceArtifacts a;
  Query empty;
  empty.name = "empty";
  const Status st = a.AddQuery(std::move(empty));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("plan is empty"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(a.FindQuery("empty"), nullptr);
}

TEST(ArtifactRegistryTest, CatalogPointersStayStableAcrossAdds) {
  ServiceArtifacts a;
  const auto* c1 = a.AddCatalog(TpchCatalog(10));
  const auto first_table = (*c1)[0];
  // Adding more catalogs must not move the first one (queries hold raw
  // pointers into it).
  for (int i = 0; i < 8; ++i) a.AddCatalog(TpchCatalog(10));
  EXPECT_EQ((*c1)[0].name, first_table.name);
}

}  // namespace
}  // namespace sparkopt
