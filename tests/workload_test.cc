// Tests for the dataset families and benchmark registry.

#include <gtest/gtest.h>

#include "synth/attr_map.h"
#include "testing.h"
#include "workload/benchmarks.h"
#include "workload/families.h"
#include "migrate/facts.h"

namespace dynamite {
namespace {

using workload::AllBenchmarks;
using workload::AllFamilies;
using workload::Family;

TEST(Families, TwelveFamiliesMatchingTable1) {
  ASSERT_EQ(AllFamilies().size(), 12u);
  int docs = 0, rels = 0, graphs = 0;
  for (const Family& f : AllFamilies()) {
    if (f.kind == 'D') ++docs;
    if (f.kind == 'R') ++rels;
    if (f.kind == 'G') ++graphs;
  }
  EXPECT_EQ(docs, 4);
  EXPECT_EQ(rels, 4);
  EXPECT_EQ(graphs, 4);
}

class FamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyTest, GeneratedInstancesValidate) {
  const Family& f = workload::GetFamily(GetParam());
  for (uint64_t seed : {1u, 7u, 42u}) {
    RecordForest forest = f.generate(seed, 4);
    EXPECT_OK(ValidateForest(forest, f.schema));
    EXPECT_GT(forest.TotalRecords(), 4u);
  }
}

TEST_P(FamilyTest, GenerationIsDeterministic) {
  const Family& f = workload::GetFamily(GetParam());
  RecordForest a = f.generate(5, 3);
  RecordForest b = f.generate(5, 3);
  EXPECT_TRUE(ForestEquals(a, b));
}

TEST_P(FamilyTest, ScaleGrowsInstance) {
  const Family& f = workload::GetFamily(GetParam());
  RecordForest small = f.generate(1, 2);
  RecordForest large = f.generate(1, 30);
  EXPECT_GT(large.TotalRecords(), small.TotalRecords());
}

std::vector<std::string> FamilyNames() {
  std::vector<std::string> names;
  for (const Family& f : AllFamilies()) names.push_back(f.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, FamilyTest, ::testing::ValuesIn(FamilyNames()));

TEST(Benchmarks, ExampleSizesAreSmall) {
  // Table 3: examples average a few records — curated examples must be
  // small (tens of records at most).
  for (const auto& b : AllBenchmarks()) {
    ASSERT_OK_AND_ASSIGN(Example e,
                         workload::MakeExample(b, b.example_seed, b.example_scale));
    EXPECT_LE(e.input.roots.size(), 40u) << b.name;
    EXPECT_GT(e.output.roots.size(), 0u) << b.name;
  }
}

TEST(Benchmarks, GoldenOutputsCoverEveryTargetRecord) {
  for (const auto& b : AllBenchmarks()) {
    ASSERT_OK_AND_ASSIGN(Example e,
                         workload::MakeExample(b, b.example_seed, b.example_scale));
    for (const std::string& rec : b.target.TopLevelRecords()) {
      bool seen = false;
      for (const RecordNode& r : e.output.roots) {
        if (r.type == rec) seen = true;
      }
      EXPECT_TRUE(seen) << b.name << " produces no example output for " << rec;
    }
  }
}

TEST(Benchmarks, AttributeMappingCoversTargets) {
  // Every target attribute must be reachable from some source attribute in
  // the curated example — a prerequisite for sketch coverage.
  for (const auto& b : AllBenchmarks()) {
    ASSERT_OK_AND_ASSIGN(Example e,
                         workload::MakeExample(b, b.example_seed, b.example_scale));
    ASSERT_OK_AND_ASSIGN(AttributeMapping psi, InferAttrMapping(b.source, b.target, e));
    for (const std::string& tattr : b.target.PrimAttrbs()) {
      bool covered = false;
      for (const auto& [a, aliases] : psi) {
        if (aliases.count(tattr) > 0) covered = true;
      }
      EXPECT_TRUE(covered) << b.name << ": target attribute " << tattr
                           << " not covered by attribute mapping";
    }
  }
}

TEST(Benchmarks, SchemaStatisticsRoughlyMatchTable2Shape) {
  // Not the paper's absolute numbers (the datasets are generated
  // substitutes) but the pattern:
  // sources have several record types and a few dozen attributes total.
  for (const auto& b : AllBenchmarks()) {
    EXPECT_GE(b.source.RecordNames().size(), 2u) << b.name;
    EXPECT_GE(b.source.PrimAttrbs().size(), 5u) << b.name;
    EXPECT_GE(b.target.RecordNames().size(), 1u) << b.name;
  }
}

}  // namespace
}  // namespace dynamite
