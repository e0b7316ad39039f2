// Ingest tests: ToFacts declares relations in schema order, and on
// relational, document, and graph instances it and Session::Migrate fail a
// malformed forest with exactly ValidateForest's error. Also sanity checks
// for the skewed and wide instance generators in workload/datagen.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "migrate/facts.h"
#include "util/rng.h"
#include "value/database.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"

namespace dynamite {
namespace {

/// One benchmark per source-instance shape (Table 2 names): MLB is a
/// relational family, Yelp document, Tencent graph.
const char* const kShapeBenchmarks[] = {"MLB-1", "Yelp-1", "Tencent-1"};

RecordForest BigInstance(const workload::Benchmark& bench) {
  // Scale chosen so broken roots land far apart in a forest of hundreds of
  // roots.
  auto instance = workload::GenerateSource(bench, /*seed=*/11, /*scale=*/300);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).ValueOrDie();
}

// ------------------------------------------------ ToFacts layout ---------

TEST(Ingest, RelationUidOrderMatchesDeclarationOrder) {
  const workload::Benchmark* bench = workload::FindBenchmark("Yelp-1");
  ASSERT_NE(bench, nullptr);
  RecordForest instance = BigInstance(*bench);
  uint64_t next_id = 1;
  auto db = ToFacts(instance, bench->source, &next_id, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Relations are declared in schema RecordNames() order, so uids ascend in
  // that order — the property uid-keyed index caches depend on for
  // cross-run stability.
  uint64_t prev_uid = 0;
  for (const std::string& rec : bench->source.RecordNames()) {
    const Relation* rel = db.ValueOrDie().Find(rec).ValueOrDie();
    EXPECT_GT(rel->uid(), prev_uid) << rec;
    prev_uid = rel->uid();
  }
}

// --------------------------------------------- error contract ------------

/// Breaks `forest` in several places, far apart: a type error inside a
/// nested child (or a root prim on flat instances) near the end, a missing
/// attribute in the middle, an unknown root type and children under a
/// primitive attribute earlier. Returns the positions of the broken roots, ascending.
std::vector<size_t> BreakForest(RecordForest* forest) {
  const size_t n = forest->roots.size();
  std::vector<size_t> broken = {n / 7, n / 3, n / 2, n - 5};
  forest->roots[broken[0]].type = "Ghost";
  RecordNode& under_prim = forest->roots[broken[1]];
  under_prim.children.push_back({under_prim.prims[0].first, {}});
  forest->roots[broken[2]].prims.pop_back();
  RecordNode* deep = &forest->roots[broken[3]];
  while (!deep->children.empty() && !deep->children[0].second.empty()) {
    deep = &deep->children[0].second[0];
  }
  deep->prims[0].second = Value::Id(7);
  return broken;
}

/// The error ValidateForest reports for `instance` is the one ToFacts and
/// Session::Migrate (as kSchemaMismatch) report.
void ExpectFirstErrorOnEveryPath(const workload::Benchmark& bench,
                                 const RecordForest& instance) {
  Status expected = ValidateForest(instance, bench.source);
  ASSERT_FALSE(expected.ok()) << bench.name;
  SCOPED_TRACE(bench.name);

  uint64_t next_id = 1;
  auto facts = ToFacts(instance, bench.source, &next_id, nullptr);
  EXPECT_EQ(facts.status().ToString(), expected.ToString());
  auto session = Session::Create(bench.source, bench.target);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto migrated = session.ValueOrDie().Migrate(bench.golden, instance);
  EXPECT_EQ(migrated.status().ToString(),
            Status::SchemaMismatch("source instance vs source schema: " + expected.message())
                .ToString());
}

TEST(Ingest, FirstValidationErrorIsTheSameOnEveryPath) {
  for (const char* name : kShapeBenchmarks) {
    const workload::Benchmark* bench = workload::FindBenchmark(name);
    ASSERT_NE(bench, nullptr);
    RecordForest instance = BigInstance(*bench);
    std::vector<size_t> broken = BreakForest(&instance);
    // Repair the violations front to back, so each kind is the first error
    // once; the error must be the same whichever path finds it.
    RecordForest pristine = BigInstance(*bench);
    for (size_t fixed = 0; fixed < broken.size(); ++fixed) {
      if (fixed > 0) instance.roots[broken[fixed - 1]] = pristine.roots[broken[fixed - 1]];
      ExpectFirstErrorOnEveryPath(*bench, instance);
    }

    // Prims out of schema order with one attribute missing: the lookup at
    // schema position misses from the second attribute on, and the by-name
    // fallback must find the rest and report the same missing attribute.
    RecordForest shuffled = BigInstance(*bench);
    auto wide = std::find_if(shuffled.roots.begin() + shuffled.roots.size() / 4,
                             shuffled.roots.end(),
                             [](const RecordNode& r) { return r.prims.size() >= 3; });
    ASSERT_NE(wide, shuffled.roots.end()) << name;
    std::swap(wide->prims[1], wide->prims[2]);
    wide->prims.pop_back();
    ExpectFirstErrorOnEveryPath(*bench, shuffled);
  }
}

// ------------------------------------------------ datagen sanity ----------

TEST(Datagen, ZipfDistIsDeterministicAndSkewed) {
  workload::ZipfDist zipf(100, 1.0);
  Rng a(42), b(42);
  size_t head = 0;
  for (int i = 0; i < 2000; ++i) {
    size_t sa = zipf.Sample(&a);
    ASSERT_EQ(sa, zipf.Sample(&b));
    ASSERT_LT(sa, 100u);
    if (sa == 0) ++head;
  }
  // Zipf(1.0) over 100 ranks puts ~19% of the mass on rank 0; uniform would
  // put 1%. Anything above 10% demonstrates the skew without flaking.
  EXPECT_GT(head, 200u);
}

TEST(Datagen, ZipfFlatInstanceShapes) {
  std::vector<workload::FlatColumn> cols = workload::WideColumns(30, 8);
  ASSERT_EQ(cols.size(), 30u);
  Rng rng(5);
  RecordForest forest = workload::ZipfFlatInstance("W", cols, 200, 0.9, &rng);
  ASSERT_EQ(forest.roots.size(), 200u);
  for (const RecordNode& rec : forest.roots) {
    ASSERT_EQ(rec.type, "W");
    ASSERT_EQ(rec.prims.size(), 30u);
  }
}

}  // namespace
}  // namespace dynamite
