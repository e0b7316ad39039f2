// Unit tests for the instance <-> facts conversion (§3.3) and the flattened
// views used by MDP analysis.

#include <gtest/gtest.h>

#include <algorithm>

#include "migrate/facts.h"
#include "datalog/engine.h"
#include "api/session.h"
#include "testing.h"
#include "util/mem_budget.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

TEST(ToFacts, MotivatingExampleMatchesPaper) {
  // Example 4 of the paper: two Univ facts and four Admit facts where the
  // Admit parent ids equal the Univ record ids.
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  const Relation* univ = db.Find("Univ").ValueOrDie();
  const Relation* admit = db.Find("Admit").ValueOrDie();
  ASSERT_EQ(univ->size(), 2u);
  ASSERT_EQ(admit->size(), 4u);
  // Signature: Univ(id, name, Admit) — the Admit column holds the record
  // identifier; Admit(_parent_Admit, uid, count).
  EXPECT_EQ(univ->attributes(), (std::vector<std::string>{"id", "name", "Admit"}));
  EXPECT_EQ(admit->attributes(),
            (std::vector<std::string>{"_parent_Admit", "uid", "count"}));
  // Every Admit parent id appears as some Univ record id (column-wise: the
  // parent ids are Admit's column 0 and the record ids Univ's column 2).
  for (const Value& parent : admit->column(0)) {
    bool found = false;
    for (const Value& univ_id : univ->column(2)) {
      if (univ_id == parent) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(ToFactsBuildForest, RoundTripsNestedInstance) {
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, testing::UnivSchema()));
  EXPECT_TRUE(ForestEquals(e.input, back));
}

TEST(ToFactsBuildForest, RoundTripsFlatInstance) {
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db,
                       ToFacts(e.output, testing::AdmissionSchema(), &next_id));
  EXPECT_EQ(db.Find("Admission").ValueOrDie()->size(), 4u);
  ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, testing::AdmissionSchema()));
  EXPECT_TRUE(ForestEquals(e.output, back));
}

TEST(ToFactsBuildForest, ChildIndexIsBuiltOncePerRelation) {
  // Regression pin for the build-once posting-list ChildIndex (ISSUE 9):
  // one index build per child relation regardless of how many parents chase
  // into it, and exactly one lookup per record-typed cell. A rebuild-per-
  // lookup regression shows up as builds == lookups.
  Example e = testing::MotivatingExample();
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(e.input, testing::UnivSchema(), &next_id));
  IngestStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest back,
                       BuildForest(db, testing::UnivSchema(), nullptr, &stats));
  EXPECT_TRUE(ForestEquals(e.input, back));
  // Univ is the only record type with a record-typed attribute (Admit): one
  // index build, one lookup per Univ root (2 roots in Example 4).
  EXPECT_EQ(stats.child_index_builds, 1u);
  EXPECT_EQ(stats.child_index_lookups, 2u);
}

/// `node` with its prims and child lists in reverse order, at every depth.
RecordNode Reversed(RecordNode node) {
  std::reverse(node.prims.begin(), node.prims.end());
  std::reverse(node.children.begin(), node.children.end());
  for (auto& [attr, kids] : node.children) {
    for (RecordNode& kid : kids) kid = Reversed(std::move(kid));
  }
  return node;
}

/// Same relations, same rows (ids included) in the same order.
void ExpectSameFacts(const FactDatabase& a, const FactDatabase& b) {
  ASSERT_EQ(a.RelationNames(), b.RelationNames());
  for (const std::string& name : a.RelationNames()) {
    const Relation& ra = *a.Find(name).ValueOrDie();
    const Relation& rb = *b.Find(name).ValueOrDie();
    ASSERT_EQ(ra.attributes(), rb.attributes()) << name;
    ASSERT_EQ(ra.size(), rb.size()) << name;
    for (size_t c = 0; c < ra.arity(); ++c) {
      EXPECT_EQ(ra.column(c), rb.column(c)) << name << " column " << c;
    }
  }
}

/// Same records in the same order, prims and child lists included.
void ExpectSameNodes(const std::vector<RecordNode>& a, const std::vector<RecordNode>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].type, b[i].type);
    ASSERT_EQ(a[i].prims, b[i].prims) << a[i].type;
    ASSERT_EQ(a[i].children.size(), b[i].children.size()) << a[i].type;
    for (size_t k = 0; k < a[i].children.size(); ++k) {
      ASSERT_EQ(a[i].children[k].first, b[i].children[k].first);
      ExpectSameNodes(a[i].children[k].second, b[i].children[k].second);
    }
  }
}

TEST(ToFacts, PrimAndChildOrderDoesNotMatter) {
  // ToFacts reads each primitive attribute at its schema position first and
  // by name after a miss; an instance listing everything in reverse takes
  // the by-name path throughout and must convert and migrate the same.
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    ASSERT_OK_AND_ASSIGN(RecordForest forest,
                         workload::GenerateSource(bench, /*seed=*/21, /*scale=*/25));
    RecordForest reversed;
    for (const RecordNode& root : forest.roots) reversed.roots.push_back(Reversed(root));

    uint64_t next_id = 1;
    ASSERT_OK_AND_ASSIGN(FactDatabase in_order, ToFacts(forest, bench.source, &next_id));
    uint64_t reversed_next_id = 1;
    ASSERT_OK_AND_ASSIGN(FactDatabase out_of_order,
                         ToFacts(reversed, bench.source, &reversed_next_id));
    EXPECT_EQ(next_id, reversed_next_id);
    ExpectSameFacts(in_order, out_of_order);

    ASSERT_OK_AND_ASSIGN(Session session, Session::Create(bench.source, bench.target));
    ASSERT_OK_AND_ASSIGN(RecordForest migrated, session.Migrate(bench.golden, forest));
    ASSERT_OK_AND_ASSIGN(RecordForest migrated_reversed,
                         session.Migrate(bench.golden, reversed));
    ExpectSameNodes(migrated.roots, migrated_reversed.roots);
  }
}

TEST(ToFacts, BudgetTooSmallForTheReservedRelationFailsTyped) {
  // The first pass sizes every relation for its records before emitting
  // any; a budget that cannot hold them ends the conversion with a typed
  // error, not an exception, whether or not a RunContext carries it.
  Example e = testing::MotivatingExample();
  MemoryBudget budget(/*limit_bytes=*/16);
  MemoryBudgetScope scope(&budget);
  RunContext ctx;
  ctx.memory = &budget;
  for (const RunContext* context : {static_cast<const RunContext*>(nullptr),
                                    static_cast<const RunContext*>(&ctx)}) {
    uint64_t next_id = 1;
    Status status;
    EXPECT_NO_THROW(status = ToFacts(e.input, testing::UnivSchema(), &next_id, context).status());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status.ToString();
    EXPECT_NE(status.message().find("facts conversion"), std::string::npos)
        << status.ToString();
  }
}

TEST(BuildForest, BudgetTooSmallForTheOutputFailsTyped) {
  // BuildForest charges the forest it builds, not only its child indexes.
  // Each benchmark runs once under an unlimited budget to learn what the
  // stages charge, then under a budget that holds the facts, the
  // evaluation and the indexes but not the output forest: the rebuild ends
  // with a typed error, whether or not BuildForest gets the RunContext
  // that carries the budget.
  DatalogEngine::Options options;
  options.num_threads = 1;
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    ASSERT_OK_AND_ASSIGN(RecordForest source,
                         workload::GenerateSource(bench, /*seed=*/5, /*scale=*/40));
    const auto signatures = FactSignatures(bench.target);
    size_t before_build = 0;
    size_t total = 0;
    size_t records = 0;
    {
      MemoryBudget unlimited(/*limit_bytes=*/0);
      MemoryBudgetScope scope(&unlimited);
      RunContext ctx;
      ctx.memory = &unlimited;
      uint64_t next_id = 1;
      ASSERT_OK_AND_ASSIGN(FactDatabase edb, ToFacts(source, bench.source, &next_id, &ctx));
      ASSERT_OK_AND_ASSIGN(FactDatabase idb,
                           DatalogEngine(options).Eval(bench.golden, edb, signatures, &ctx));
      before_build = unlimited.used();
      ASSERT_OK(BuildForest(idb, bench.target, &ctx, nullptr, &records).status());
      total = unlimited.used();
    }
    ASSERT_GT(records, 0u);
    // The forest costs at least one RecordNode per record, so this limit
    // covers everything charged before the rebuild and the indexes, and
    // falls short of the forest by half a node per record or more.
    const size_t limit = total - records * sizeof(RecordNode) / 2;
    ASSERT_GE(limit, before_build);
    for (bool with_context : {false, true}) {
      SCOPED_TRACE(with_context ? "with RunContext" : "without RunContext");
      MemoryBudget budget(limit);
      MemoryBudgetScope scope(&budget);
      RunContext ctx;
      ctx.memory = &budget;
      uint64_t next_id = 1;
      ASSERT_OK_AND_ASSIGN(FactDatabase edb, ToFacts(source, bench.source, &next_id, &ctx));
      ASSERT_OK_AND_ASSIGN(FactDatabase idb,
                           DatalogEngine(options).Eval(bench.golden, edb, signatures, &ctx));
      ASSERT_FALSE(budget.exhausted());
      Status status;
      EXPECT_NO_THROW(
          status = BuildForest(idb, bench.target, with_context ? &ctx : nullptr).status());
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status.ToString();
      EXPECT_NE(status.message().find("forest reconstruction"), std::string::npos)
          << status.ToString();
    }
  }
}

TEST(FactSignatures, CoverAllRecords) {
  auto sigs = FactSignatures(testing::UnivSchema());
  ASSERT_EQ(sigs.size(), 2u);
  EXPECT_EQ(sigs.at("Univ").size(), 3u);
  EXPECT_EQ(sigs.at("Admit").size(), 3u);
}

TEST(FlattenView, FlatRelationIsItself) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Relation view,
                       FlattenForestView(e.output, testing::AdmissionSchema(), "Admission"));
  EXPECT_EQ(view.attributes(), (std::vector<std::string>{"grad", "ug", "num"}));
  EXPECT_EQ(view.size(), 4u);
}

TEST(FlattenView, NestedTreeJoinsParentAndChildren) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Relation view,
                       FlattenForestView(e.input, testing::UnivSchema(), "Univ"));
  EXPECT_EQ(view.attributes(), (std::vector<std::string>{"id", "name", "uid", "count"}));
  EXPECT_EQ(view.size(), 4u);  // 2 universities x 2 admits each
  EXPECT_TRUE(view.Contains(Tuple(
      {Value::Int(1), Value::String("U1"), Value::Int(2), Value::Int(50)})));
}

TEST(FlattenView, ChildlessParentPadsWithNulls) {
  RecordForest f;
  f.roots.push_back(testing::UnivRecord(9, "Lonely", {}));
  ASSERT_OK_AND_ASSIGN(Relation view, FlattenForestView(f, testing::UnivSchema(), "Univ"));
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.row(0)[0], Value::Int(9));
  EXPECT_TRUE(view.row(0)[2].is_null());
  EXPECT_TRUE(view.row(0)[3].is_null());
}

TEST(Migrator, EndToEndMotivatingExample) {
  Example e = testing::MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Program golden, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  ASSERT_OK_AND_ASSIGN(Session session,
                       Session::Create(testing::UnivSchema(), testing::AdmissionSchema()));
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest out, session.Migrate(golden, e.input, &stats));
  EXPECT_TRUE(ForestEquals(out, e.output));
  EXPECT_EQ(stats.source_records, 6u);
  EXPECT_EQ(stats.source_facts, 6u);
  EXPECT_EQ(stats.target_facts, 4u);
  EXPECT_EQ(stats.target_records, 4u);
}

TEST(Migrator, NestedTargetGroupsChildren) {
  // Relational -> document: group admits under universities by id.
  auto src = RelationalSchemaBuilder()
                 .AddTable("u", {{"uid2", PrimitiveType::kInt},
                                 {"uname", PrimitiveType::kString}})
                 .AddTable("a", {{"a_univ", PrimitiveType::kInt},
                                 {"a_count", PrimitiveType::kInt}})
                 .Build()
                 .ValueOrDie();
  auto tgt = DocumentSchemaBuilder()
                 .AddCollection("UDoc", {{"dname", PrimitiveType::kString}})
                 .AddCollection("ADoc", {{"dcount", PrimitiveType::kInt}}, "UDoc")
                 .Build()
                 .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(Program prog, Program::Parse(R"(
    UDoc(n, u), ADoc(u, c) :- u(u, n), a(u, c).
  )"));
  RecordForest source;
  source.roots.push_back(
      testing::FlatRecord("u", {{"uid2", Value::Int(1)}, {"uname", Value::String("A")}}));
  source.roots.push_back(
      testing::FlatRecord("u", {{"uid2", Value::Int(2)}, {"uname", Value::String("B")}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(1)}, {"a_count", Value::Int(10)}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(1)}, {"a_count", Value::Int(20)}}));
  source.roots.push_back(
      testing::FlatRecord("a", {{"a_univ", Value::Int(2)}, {"a_count", Value::Int(30)}}));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  ASSERT_OK_AND_ASSIGN(RecordForest out, session.Migrate(prog, source));
  // Expect: A with [10, 20], B with [30].
  ASSERT_EQ(out.roots.size(), 2u);
  const RecordNode* a_doc = nullptr;
  for (const RecordNode& r : out.roots) {
    if (r.Prim("dname") == Value::String("A")) a_doc = &r;
  }
  ASSERT_NE(a_doc, nullptr);
  EXPECT_EQ(a_doc->Children("ADoc").size(), 2u);
}

TEST(Migrator, ScalesToLargerInstances) {
  // Sanity: migrate a few thousand records through the full pipeline.
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  RecordForest big;
  for (int i = 0; i < 500; ++i) {
    big.roots.push_back(testing::UnivRecord(
        i, "U" + std::to_string(i),
        {{(i + 1) % 500, 10 + i % 90}, {(i + 2) % 500, 20 + i % 70}}));
  }
  ASSERT_OK_AND_ASSIGN(Program golden, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest out, session.Migrate(golden, big, &stats));
  EXPECT_EQ(out.roots.size(), 1000u);  // 500 univs x 2 admits
  EXPECT_GT(stats.TotalSeconds(), 0.0);
}

TEST(Migrator, RecordCountsAgreeWithTheForestWalks) {
  // MigrationStats' record counts come from the validation pass and the
  // forest rebuild, not from walking the forests again; they must say what
  // the walks say.
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    ASSERT_OK_AND_ASSIGN(RecordForest source,
                         workload::GenerateSource(bench, /*seed=*/5, /*scale=*/40));
    ASSERT_OK_AND_ASSIGN(Session session, Session::Create(bench.source, bench.target));
    MigrationStats stats;
    ASSERT_OK_AND_ASSIGN(RecordForest migrated,
                         session.Migrate(bench.golden, source, &stats));
    EXPECT_EQ(stats.source_records, source.TotalRecords());
    EXPECT_EQ(stats.target_records, migrated.TotalRecords());
  }

  // A flat relational instance with duplicate rows: records are counted
  // one by one, facts after set semantics fold the duplicates.
  ASSERT_OK_AND_ASSIGN(Schema src, RelationalSchemaBuilder()
                                       .AddTable("Visit", {{"who", PrimitiveType::kString},
                                                           {"day", PrimitiveType::kInt}})
                                       .Build());
  ASSERT_OK_AND_ASSIGN(Schema tgt, RelationalSchemaBuilder()
                                       .AddTable("Seen", {{"person", PrimitiveType::kString}})
                                       .Build());
  RecordForest visits;
  for (int i = 0; i < 5; ++i) {
    RecordNode row;
    row.type = "Visit";
    row.prims = {{"who", Value::String(i < 3 ? "ann" : "bo")}, {"day", Value::Int(1)}};
    visits.roots.push_back(row);
  }
  ASSERT_OK_AND_ASSIGN(Program copy, Program::Parse("Seen(p) :- Visit(p, d)."));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest seen, session.Migrate(copy, visits, &stats));
  EXPECT_EQ(stats.source_records, 5u);
  EXPECT_EQ(stats.source_facts, 2u);
  EXPECT_LT(stats.source_facts, stats.source_records);
  EXPECT_EQ(stats.target_facts, 2u);
  EXPECT_EQ(stats.target_records, seen.TotalRecords());
  EXPECT_EQ(stats.target_records, 2u);
}

}  // namespace
}  // namespace dynamite
