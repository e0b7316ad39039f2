// Determinism suite for ingest and the vectorized matcher: ToFacts declares
// relations in schema order and fails a malformed forest with exactly
// ValidateForest's error; full migrations must agree on outputs, stats, and
// engine counters across Session threads {1, 2, 8} on relational, document,
// and graph instances; and the engine's vectorized matcher must be
// bit-identical across probe block sizes (1 == scalar, 1024 == default).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "datalog/engine.h"
#include "migrate/facts.h"
#include "util/rng.h"
#include "value/database.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"

namespace dynamite {
namespace {

/// Bit-identity: same rows in the same insertion order (strictly stronger
/// than SetEquals).
void ExpectBitIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a.row_hash(r), b.row_hash(r)) << a.name() << " row " << r;
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.cell(r, c), b.cell(r, c)) << a.name() << " row " << r << " col " << c;
    }
  }
}

/// One benchmark per source-instance shape (Table 2 names): MLB is a
/// relational family, Yelp document, Tencent graph.
const char* const kShapeBenchmarks[] = {"MLB-1", "Yelp-1", "Tencent-1"};

RecordForest BigInstance(const workload::Benchmark& bench) {
  // Scale chosen so broken roots land far apart in a forest of hundreds of
  // roots, and the engine's parallel fan-out has rows to split.
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
/// Session::Migrate (as kSchemaMismatch, at threads {1, 2, 8}) report.
void ExpectFirstErrorOnEveryPath(const workload::Benchmark& bench,
                                 const RecordForest& instance) {
  Status expected = ValidateForest(instance, bench.source);
  ASSERT_FALSE(expected.ok()) << bench.name;
  SCOPED_TRACE(bench.name);

  uint64_t next_id = 1;
  auto facts = ToFacts(instance, bench.source, &next_id, nullptr);
  EXPECT_EQ(facts.status().ToString(), expected.ToString());
  for (size_t threads : {1u, 2u, 8u}) {
    SessionOptions options;
    options.num_threads = threads;
    auto session = Session::Create(bench.source, bench.target, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto migrated = session.ValueOrDie().Migrate(bench.golden, instance);
    EXPECT_EQ(migrated.status().ToString(),
              Status::SchemaMismatch("source instance vs source schema: " +
                                     expected.message())
                  .ToString())
        << "threads=" << threads;
  }
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

// ------------------------------------- end-to-end migration parity --------

TEST(Ingest, MigrationOutputsAndStatsAgreeAcrossIngestThreads) {
  for (const char* name : kShapeBenchmarks) {
    const workload::Benchmark* bench = workload::FindBenchmark(name);
    ASSERT_NE(bench, nullptr);
    RecordForest instance = BigInstance(*bench);

    SessionOptions seq_opts;
    seq_opts.engine.num_threads = 1;
    Session seq = Session::Create(bench->source, bench->target, seq_opts).ValueOrDie();
    MigrationStats seq_stats;
    auto seq_out = seq.Migrate(bench->golden, instance, &seq_stats);
    ASSERT_TRUE(seq_out.ok()) << name << ": " << seq_out.status().ToString();

    for (size_t threads : {2u, 8u}) {
      SessionOptions par_opts;
      par_opts.engine.num_threads = threads;
      Session par = Session::Create(bench->source, bench->target, par_opts).ValueOrDie();
      MigrationStats par_stats;
      auto par_out = par.Migrate(bench->golden, instance, &par_stats);
      ASSERT_TRUE(par_out.ok()) << name << ": " << par_out.status().ToString();
      EXPECT_TRUE(ForestEquals(seq_out.ValueOrDie(), par_out.ValueOrDie()))
          << name << " threads=" << threads;
      // Everything except timings is part of the bit-identity contract.
      EXPECT_EQ(seq_stats.source_records, par_stats.source_records) << name;
      EXPECT_EQ(seq_stats.source_facts, par_stats.source_facts) << name;
      EXPECT_EQ(seq_stats.target_facts, par_stats.target_facts) << name;
      EXPECT_EQ(seq_stats.target_records, par_stats.target_records) << name;
      EXPECT_EQ(seq_stats.ingest.child_index_builds, par_stats.ingest.child_index_builds)
          << name;
      EXPECT_EQ(seq_stats.ingest.child_index_lookups, par_stats.ingest.child_index_lookups)
          << name;
      EXPECT_EQ(seq.engine_stats().plan_refreshes, par.engine_stats().plan_refreshes)
          << name;
      EXPECT_EQ(par.engine_stats().parallel_fallbacks, 0u) << name;
    }
  }
}

// ------------------------------------------- block-size invariance --------

/// Skewed int edge relation: Zipf-distributed targets give hash groups with
/// giant posting lists, the adversarial shape for batched probes.
FactDatabase SkewedEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  Rng rng(99);
  workload::ZipfDist zipf(n, 1.1);
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int(static_cast<int64_t>(
                                                 zipf.Sample(&rng)))}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
  }
  return db;
}

DatalogEngine BlockEngine(size_t block_rows, size_t threads) {
  DatalogEngine::Options opts;
  opts.num_threads = threads;
  opts.probe_block_rows = block_rows;
  return DatalogEngine(opts);
}

TEST(VectorizedProbes, BlockSizeInvariantJoin) {
  FactDatabase db = SkewedEdges(600);
  Program join = Program::Parse("j(x, z) :- edge(x, y), edge(y, z).").ValueOrDie();
  auto baseline = BlockEngine(/*block_rows=*/1, /*threads=*/1).EvalAutoSignatures(join, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Relation* j1 = baseline.ValueOrDie().Find("j").ValueOrDie();
  ASSERT_GT(j1->size(), 0u);

  for (size_t block : {3u, 64u, 1024u}) {
    for (size_t threads : {1u, 4u}) {
      auto out = BlockEngine(block, threads).EvalAutoSignatures(join, db);
      ASSERT_TRUE(out.ok()) << "block=" << block << ": " << out.status().ToString();
      ExpectBitIdentical(*j1, *out.ValueOrDie().Find("j").ValueOrDie());
    }
  }
}

TEST(VectorizedProbes, BlockSizeInvariantRecursiveFixpoint) {
  FactDatabase db = SkewedEdges(150);
  Program tc = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )")
                   .ValueOrDie();
  auto baseline = BlockEngine(1, 1).EvalAutoSignatures(tc, db);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Relation* tc1 = baseline.ValueOrDie().Find("tc").ValueOrDie();

  for (size_t block : {2u, 1024u}) {
    for (size_t threads : {1u, 8u}) {
      auto out = BlockEngine(block, threads).EvalAutoSignatures(tc, db);
      ASSERT_TRUE(out.ok()) << "block=" << block << ": " << out.status().ToString();
      ExpectBitIdentical(*tc1, *out.ValueOrDie().Find("tc").ValueOrDie());
    }
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
