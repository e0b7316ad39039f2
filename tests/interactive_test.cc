// Tests for interactive mode (§5 / Appendix B): Example 10's ambiguity is
// resolved by a distinguishing query answered by an oracle.

#include <gtest/gtest.h>

#include "api/session.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

struct Example10 {
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Employee", {{"ename", PrimitiveType::kString},
                                          {"edept", PrimitiveType::kInt}})
                   .AddTable("Department", {{"did", PrimitiveType::kInt},
                                            {"dname", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("WorksIn", {{"w_name", PrimitiveType::kString},
                                         {"w_dept", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Program golden = Program::Parse(
                       "WorksIn(n, d) :- Employee(n, x), Department(x, d).")
                       .ValueOrDie();

  RecordNode Emp(const char* n, int d) {
    return testing::FlatRecord(
        "Employee", {{"ename", Value::String(n)}, {"edept", Value::Int(d)}});
  }
  RecordNode Dept(int i, const char* n) {
    return testing::FlatRecord("Department",
                               {{"did", Value::Int(i)}, {"dname", Value::String(n)}});
  }
};

TEST(Interactive, ResolvesExample10Ambiguity) {
  Example10 fixture;
  // Initial ambiguous example: a single employee/department pair.
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Dept(11, "CS")};
  // The user's answers (the golden program) come from their own session.
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(RecordForest init_out, user.Migrate(fixture.golden, initial.input));
  initial.output = init_out;

  // Validation pool: the distinguishing input of the paper (two employees
  // in different departments) is a subset of this pool.
  RecordForest pool;
  pool.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12), fixture.Dept(11, "CS"),
                fixture.Dept(12, "EE")};

  // Oracle = golden program.
  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };

  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, oracle));
  EXPECT_GE(result.queries, 1u) << "ambiguity should have triggered a query";

  // The final program must be the join, not the cross product: check on an
  // input where they differ.
  RecordForest probe;
  probe.roots = {fixture.Emp("X", 1), fixture.Emp("Y", 2), fixture.Dept(1, "D1"),
                 fixture.Dept(2, "D2")};
  ASSERT_OK_AND_ASSIGN(RecordForest got, session.Migrate(result.result.program, probe));
  ASSERT_OK_AND_ASSIGN(RecordForest want, user.Migrate(fixture.golden, probe));
  EXPECT_TRUE(ForestEquals(got, want)) << result.result.program.ToString();
}

TEST(Interactive, UnambiguousExampleNeedsNoQueries) {
  Example10 fixture;
  // A rich example that already pins down the join.
  Example initial;
  initial.input.roots = {fixture.Emp("Alice", 11), fixture.Emp("Bob", 12),
                         fixture.Dept(11, "CS"), fixture.Dept(12, "EE")};
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(RecordForest out, user.Migrate(fixture.golden, initial.input));
  initial.output = out;

  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(fixture.golden, input);
  };
  RecordForest pool = initial.input;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt));
  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, oracle));
  EXPECT_EQ(result.queries, 0u);
  EXPECT_TRUE(result.unique);
}

TEST(Interactive, WorksOnTencent1Benchmark) {
  // The user-study benchmark (§6.3) driven by an oracle instead of a human.
  const workload::Benchmark* bench = workload::FindBenchmark("Tencent-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example initial, workload::MakeExample(*bench, 3, 2));
  ASSERT_OK_AND_ASSIGN(RecordForest pool, workload::GenerateSource(*bench, 5, 4));
  ASSERT_OK_AND_ASSIGN(Session user, Session::Create(bench->source, bench->target));
  Oracle oracle = [&](const RecordForest& input) -> Result<RecordForest> {
    return user.Migrate(bench->golden, input);
  };
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(bench->source, bench->target));
  ASSERT_OK_AND_ASSIGN(InteractiveResult result,
                       session.SynthesizeInteractive(initial, pool, oracle));
  ASSERT_OK_AND_ASSIGN(bool agrees,
                       workload::AgreesWithGolden(*bench, result.result.program, 77, 8));
  EXPECT_TRUE(agrees) << result.result.program.ToString();
}

}  // namespace
}  // namespace dynamite
