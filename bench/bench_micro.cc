// Micro-benchmarks (google-benchmark) for the substrates: Datalog join
// evaluation, SAT solving, facts conversion, flattening, and MDP search.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "bench_util.h"
#include "datalog/engine.h"
#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "schema/schema_builder.h"
#include "solver/fd.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "synth/mdp.h"
#include "workload/benchmarks.h"
#include "workload/families.h"

namespace dynamite {
namespace {

FactDatabase ChainEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i + 1) % n)}));
    db.AddFact("edge", Tuple({Value::Int(i), Value::Int((i * 7 + 3) % n)}));
  }
  return db;
}

std::string UserName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user_%06d", i);
  return buf;
}

std::string CityName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "city_of_%04d", i);
  return buf;
}

/// String-keyed EDB: person(name, city) x city(city, country); all join
/// columns are strings with long shared prefixes, the worst case for
/// by-value string comparison and hashing.
FactDatabase StringPeople(int n) {
  FactDatabase db;
  db.DeclareRelation("person", {"name", "city"}).ValueOrDie();
  db.DeclareRelation("city", {"city", "country"}).ValueOrDie();
  int cities = n / 10 + 1;
  for (int i = 0; i < n; ++i) {
    db.AddFact("person", Tuple({Value::String(UserName(i)),
                                Value::String(CityName(i % cities))}));
  }
  for (int c = 0; c < cities; ++c) {
    db.AddFact("city", Tuple({Value::String(CityName(c)),
                              Value::String("country_" + std::to_string(c % 17))}));
  }
  return db;
}

/// String-node edge relation for recursive (fixpoint) workloads.
FactDatabase StringEdges(int n) {
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", Tuple({Value::String(UserName(i)),
                              Value::String(UserName((i + 1) % n))}));
    db.AddFact("edge", Tuple({Value::String(UserName(i)),
                              Value::String(UserName((i * 7 + 3) % n))}));
  }
  return db;
}

void BM_DatalogTwoWayJoin(benchmark::State& state) {
  FactDatabase db = ChainEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse("j(x, z) :- edge(x, y), edge(y, z).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogTwoWayJoin)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DatalogStringJoin(benchmark::State& state) {
  FactDatabase db = StringPeople(static_cast<int>(state.range(0)));
  Program p = Program::Parse(
      "lives(n, c, k) :- person(n, c), city(c, k).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringJoin)->Arg(1000)->Arg(10000);

void BM_DatalogStringSelfJoin(benchmark::State& state) {
  // Same-city pairs: a fan-out join whose key and payload are all strings.
  FactDatabase db = StringPeople(static_cast<int>(state.range(0)));
  Program p = Program::Parse(
      "pair(a, b) :- person(a, c), person(b, c).").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringSelfJoin)->Arg(300)->Arg(1000);

void BM_DatalogStringTransitiveClosure(benchmark::State& state) {
  FactDatabase db = StringEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogStringTransitiveClosure)->Arg(50)->Arg(200);

void BM_DatalogTransitiveClosure(benchmark::State& state) {
  FactDatabase db = ChainEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_DatalogTransitiveClosure)->Arg(50)->Arg(200);

void BM_Fixpoint(benchmark::State& state) {
  // The semi-naive fixpoint headline number: string transitive closure
  // over a cyclic fan-out-2 graph of state.range(0) nodes, whose closure is
  // all pairs, so every round carries a fat delta. Items are derived facts.
  FactDatabase db = StringEdges(static_cast<int>(state.range(0)));
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_Fixpoint)->Arg(200)->Arg(400);

void BM_FailpointOverhead(benchmark::State& state) {
  // Cost of the fault-injection sites on the hot fixpoint path: identical
  // workload to BM_Fixpoint/200, so comparing against that entry measures
  // the failpoint tax directly. Arg 0 runs disarmed — the shipping
  // configuration, where each site is one relaxed atomic load (claim: <2%
  // vs BM_Fixpoint/200, i.e. within run-to-run noise). Arg 1 arms every engine-path site with an unreachable hit
  // target, forcing the armed slow path (counter increment, trigger check)
  // on every execution without ever firing — an upper bound on what a
  // fully armed but quiet production binary would pay.
  const bool armed = state.range(0) != 0;
  if (armed) {
    failpoint::Spec never;
    never.hit = uint64_t{1} << 62;
    for (const char* site : {"engine.compile", "engine.plan.entry", "engine.fixpoint.round",
                             "engine.index.refresh", "relation.insert.alloc",
                             "string_pool.intern"}) {
      failpoint::Arm(site, never);
    }
  }
  FactDatabase db = StringEdges(200);
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    benchmark::DoNotOptimize(out);
  }
  if (armed) failpoint::DisarmAll();
}
BENCHMARK(BM_FailpointOverhead)->Arg(0)->Arg(1);

void BM_TraceOverhead(benchmark::State& state) {
  // Cost of the trace spans on the hot fixpoint path: identical workload to
  // BM_Fixpoint/200, so comparing against that entry measures the span tax
  // directly. Arg 0 runs disarmed — the shipping configuration, where each
  // span site is one relaxed atomic load (claim: <2% vs BM_Fixpoint/200,
  // i.e. within run-to-run noise; the acceptance number recorded in
  // BENCH_micro.json). Arg 1 arms tracing, so
  // every span pays two steady_clock reads and a ring-buffer write — the
  // upper bound for a run with DYNAMITE_TRACE set. Ring contents are
  // cleared around the armed arm so the fixed-capacity rings never skew a
  // later dump.
  const bool armed = state.range(0) != 0;
  if (armed) {
    trace::Clear();
    trace::Arm();
  }
  FactDatabase db = StringEdges(200);
  Program p = Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").ValueOrDie();
  DatalogEngine engine;
  for (auto _ : state) {
    auto out = engine.EvalAutoSignatures(p, db);
    benchmark::DoNotOptimize(out);
  }
  if (armed) {
    trace::Disarm();
    trace::Clear();
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

void BM_SatPigeonHole(benchmark::State& state) {
  // php(n+1, n): UNSAT, exercises clause learning.
  int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::SatSolver solver;
    std::vector<std::vector<sat::Var>> p(static_cast<size_t>(holes + 1));
    for (auto& row : p) {
      for (int h = 0; h < holes; ++h) row.push_back(solver.NewVar());
    }
    for (auto& row : p) {
      std::vector<sat::Lit> clause;
      for (sat::Var v : row) clause.push_back(sat::MkLit(v));
      solver.AddClause(clause);
    }
    for (int h = 0; h < holes; ++h) {
      for (size_t i = 0; i < p.size(); ++i) {
        for (size_t j = i + 1; j < p.size(); ++j) {
          solver.AddClause({sat::MkLit(p[i][static_cast<size_t>(h)], true),
                            sat::MkLit(p[j][static_cast<size_t>(h)], true)});
        }
      }
    }
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_SatPigeonHole)->Arg(5)->Arg(7);

void BM_GuardedJoin(benchmark::State& state) {
  // Existence-only joins: the CaseNode and LitigatesE rules the synthesizer
  // finds for Patent-2 (Table 3), over a fixed generated Patent instance
  // of state.range(0) patents. `parties(_, _, _, _)` and `patents(_, _, _)`
  // share no variable with the head (guards: checked once for a match),
  // and `attorneys(_, at_case1, _)` binds no head variable (a semi-join
  // that stops at its first match). Enumerating them for every outer row
  // instead multiplies the join by their cardinalities.
  const auto* bench = workload::FindBenchmark("Patent-2");
  RecordForest source =
      workload::GenerateSource(*bench, 13, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  uint64_t next_id = 1;
  FactDatabase edb = ToFacts(source, bench->source, &next_id).ValueOrDie();
  Program p = Program::Parse(R"(
    CaseNode(can_id, can_court) :- attorneys(_, at_case1, _),
        cases(can_id, ca_patent1, _, _), cases(at_case1, ca_patent1, can_court, _),
        parties(_, _, _, _).
    LitigatesE(lte_source, lte_target, lte_filed) :- attorneys(_, at_case1, _),
        cases(lte_source, lte_target, _, _), cases(at_case1, lte_target, _, lte_filed),
        patents(_, _, _), parties(_, _, _, _).
  )")
                  .ValueOrDie();
  const auto signatures = FactSignatures(bench->target);
  DatalogEngine engine;
  size_t derived = 0;
  for (auto _ : state) {
    auto out = engine.Eval(p, edb, signatures);
    derived = out.ValueOrDie().TotalFacts();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(derived));
}
BENCHMARK(BM_GuardedJoin)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_FactsRoundTrip(benchmark::State& state) {
  const auto& family = workload::GetFamily("Yelp");
  RecordForest forest = family.generate(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    uint64_t next_id = 1;
    auto db = ToFacts(forest, family.schema, &next_id);
    auto back = BuildForest(*db, family.schema);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(forest.TotalRecords()));
}
BENCHMARK(BM_FactsRoundTrip)->Arg(100)->Arg(1000);

void BM_FlattenView(benchmark::State& state) {
  const auto& family = workload::GetFamily("Yelp");
  RecordForest forest = family.generate(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto view = FlattenForestView(forest, family.schema, "Business");
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_FlattenView)->Arg(100)->Arg(1000);

void BM_ProjectionCompare(benchmark::State& state) {
  // Project a wide relation onto 3 of 8 attributes and set-compare: the
  // MDP/attribute-mapping access pattern, dominated by projection cost.
  int n = static_cast<int>(state.range(0));
  std::vector<std::string> attrs = {"a", "b", "c", "d", "e", "f", "g", "h"};
  Relation a("wide", attrs), b("wide", attrs);
  for (int i = 0; i < n; ++i) {
    Tuple base({Value::Int(i % 50), Value::String(CityName(i % 20)), Value::Int(i % 7),
                Value::Int(i), Value::Float(i * 0.5), Value::Bool((i & 1) != 0),
                Value::String(UserName(i)), Value::Int(i % 3)});
    Tuple other = base;
    other[7] = Value::Int((i + 1) % 3);
    a.Insert(std::move(base));
    b.Insert(std::move(other));
  }
  std::vector<std::string> proj = {"a", "b", "g"};
  for (auto _ : state) {
    auto pa = a.Project(proj);
    auto pb = b.Project(proj);
    benchmark::DoNotOptimize(pa.ValueOrDie().SetEquals(pb.ValueOrDie()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<int64_t>(n));
}
BENCHMARK(BM_ProjectionCompare)->Arg(1000)->Arg(10000);

void BM_MdpSearch(benchmark::State& state) {
  // Two relations differing in a 2-attribute projection.
  int n = static_cast<int>(state.range(0));
  Relation actual("r", {"a", "b", "c", "d"});
  Relation expected("r", {"a", "b", "c", "d"});
  for (int i = 0; i < n; ++i) {
    actual.Insert(Tuple({Value::Int(i), Value::Int(i % 5), Value::Int(i % 7),
                         Value::Int(i % 3)}));
    expected.Insert(Tuple({Value::Int(i), Value::Int(i % 5), Value::Int(i % 7),
                           Value::Int((i + 1) % 3)}));
  }
  for (auto _ : state) {
    auto mdps = MDPSet(actual, expected);
    benchmark::DoNotOptimize(mdps);
  }
}
BENCHMARK(BM_MdpSearch)->Arg(16)->Arg(256);

void BM_MigrateDirect(benchmark::State& state) {
  // Baseline for the Session-overhead check below: the Migrator stage
  // driving a Tencent-1-scale migration directly.
  const auto* bench = workload::FindBenchmark("Tencent-1");
  RecordForest source =
      workload::GenerateSource(*bench, 77, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  Migrator migrator(bench->source, bench->target);
  size_t records = 0;
  for (auto _ : state) {
    auto out = migrator.Migrate(bench->golden, source, RunContext());
    records = out.ValueOrDie().TotalRecords();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_MigrateDirect)->Arg(200)->Arg(1000);

void BM_MigrateSession(benchmark::State& state) {
  // Same migration through Session::Migrate: schema validation at Create,
  // per-call forest checks, and RunContext plumbing must not cost anything
  // measurable vs BM_MigrateDirect (tracked in BENCH_micro.json).
  const auto* bench = workload::FindBenchmark("Tencent-1");
  RecordForest source =
      workload::GenerateSource(*bench, 77, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  Session session = Session::Create(bench->source, bench->target).ValueOrDie();
  size_t records = 0;
  for (auto _ : state) {
    auto out = session.Migrate(bench->golden, source);
    records = out.ValueOrDie().TotalRecords();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_MigrateSession)->Arg(200)->Arg(1000);

void BM_EndToEndSynthesisMotivating(benchmark::State& state) {
  const auto* bench = workload::FindBenchmark("Tencent-1");
  auto example = workload::MakeExample(*bench, 7, 3).ValueOrDie();
  Session session = Session::Create(bench->source, bench->target).ValueOrDie();
  for (auto _ : state) {
    auto result = session.Synthesize(example);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEndSynthesisMotivating)->Unit(benchmark::kMillisecond);

void BM_SynthesizeEndToEnd(benchmark::State& state) {
  // The synthesis-portfolio headline number: enumeration at
  // SessionOptions::num_threads = 1 vs 4 on a workload where candidate
  // *evaluation* — the part the portfolio parallelizes — dominates the
  // per-iteration SAT solve. One target table whose golden rule is the Yelp-1 two-atom join,
  // over a migration-scale instance: every candidate runs a real join on
  // thousands of facts (and the two-atom body gives shared-prefix
  // memoization its batch structure), while the sketch's SAT queries stay
  // microseconds. Enum mode makes the scout's prediction exact, and
  // max_iterations caps the run so the measurement is a fixed count of
  // enumeration steps ending in a deterministic kEvalBudget — bit-identical
  // at any thread count, so the pair isolates pure portfolio scaling. CI
  // gates on the 1-vs-4 ratio when the runner has >= 4 cores (see
  // .github/workflows/ci.yml).
  const auto* bench = workload::FindBenchmark("Yelp-1");
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("ReviewT", {{"rt_id", PrimitiveType::kInt},
                                         {"rt_biz", PrimitiveType::kInt},
                                         {"rt_stars", PrimitiveType::kInt},
                                         {"rt_user", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();
  Program golden =
      Program::Parse(
          "ReviewT(r, b, s, u) :- Business(b, _, _, _, rv, _), Review(rv, r, s, u).")
          .ValueOrDie();
  Example example;
  example.input = workload::GenerateSource(*bench, 7, 200).ValueOrDie();
  example.output = Session::Create(bench->source, tgt)
                       .ValueOrDie()
                       .Migrate(golden, example.input)
                       .ValueOrDie();

  SessionOptions options;
  options.synthesis.use_analysis = false;  // Dynamite-Enum: deterministic scout replay
  options.synthesis.use_mdp = false;
  options.synthesis.max_iterations = 192;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    // A fresh session per run, so each run also starts its own portfolio.
    Session session = Session::Create(bench->source, tgt, options).ValueOrDie();
    auto result = session.Synthesize(example);
    // The budget is below the solution's enumeration index: every run
    // measures exactly max_iterations candidate evaluations.
    if (result.ok() || result.status().code() != StatusCode::kEvalBudget) {
      state.SkipWithError("expected kEvalBudget");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.synthesis.max_iterations));
}
BENCHMARK(BM_SynthesizeEndToEnd)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SynthesizeBlocking(benchmark::State& state) {
  // Solver-bound synthesis: Retina-2 from its curated example, sequential,
  // with analysis and MDPs on (the Session defaults). Each of its 2,035
  // iterations solves, evaluates a small candidate and asserts one Analyze
  // blocking clause per MDP, so the growing clause database and its
  // propagation are the cost. Items are solver calls.
  const auto* bench = workload::FindBenchmark("Retina-2");
  Example example =
      workload::MakeExample(*bench, bench->example_seed, bench->example_scale).ValueOrDie();
  SessionOptions options;
  options.num_threads = 1;
  Session session = Session::Create(bench->source, bench->target, options).ValueOrDie();
  size_t iterations = 0;
  for (auto _ : state) {
    auto result = session.Synthesize(example);
    iterations = result.ValueOrDie().iterations;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(iterations));
}
BENCHMARK(BM_SynthesizeBlocking)->Unit(benchmark::kMillisecond);

void BM_SynthesizeTable3Small(benchmark::State& state) {
  // Sketch-completion overhead: Session::Synthesize over every Table 3
  // benchmark that synthesizes in milliseconds (all but Bike-1 and
  // Retina-2, whose runs are dominated by thousands of solver calls), one
  // Session per scenario, from each benchmark's curated example. These
  // calls spend most of their time around the solver and the engine:
  // sketch generation, encoding, candidate checks and blocking clauses.
  // Items are Synthesize calls.
  struct Scenario {
    Session session;
    Example example;
  };
  std::vector<Scenario> scenarios;
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    if (bench.name == "Bike-1" || bench.name == "Retina-2") continue;
    SessionOptions options;
    options.num_threads = 1;
    scenarios.push_back(
        {Session::Create(bench.source, bench.target, options).ValueOrDie(),
         workload::MakeExample(bench, bench.example_seed, bench.example_scale).ValueOrDie()});
  }
  for (auto _ : state) {
    for (Scenario& s : scenarios) {
      auto result = s.session.Synthesize(s.example);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(scenarios.size()));
}
BENCHMARK(BM_SynthesizeTable3Small)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally records every run into a JsonWriter,
/// so the perf trajectory lands in BENCH_micro.json (satellite of ISSUE 1).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double wall_ms = run.GetAdjustedRealTime() *
                       (run.time_unit == benchmark::kMillisecond ? 1.0
                        : run.time_unit == benchmark::kMicrosecond ? 1e-3
                        : run.time_unit == benchmark::kSecond ? 1e3
                                                              : 1e-6);
      double ips = 0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) ips = it->second.value;
      writer_->Record(run.benchmark_name(), wall_ms, ips);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonWriter* writer_;
};

}  // namespace
}  // namespace dynamite

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dynamite::bench::JsonWriter writer;
  dynamite::JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // JSON goes only where DYNAMITE_BENCH_JSON points: a default path in the
  // working directory would let a filtered run from the repository root
  // replace the tracked BENCH_micro.json with the few benchmarks it ran.
  const char* path = std::getenv("DYNAMITE_BENCH_JSON");
  const char* label = std::getenv("DYNAMITE_BENCH_LABEL");
  if (path == nullptr) {
    std::fprintf(stderr, "DYNAMITE_BENCH_JSON is not set; no JSON written\n");
    return 0;
  }
  if (label == nullptr) label = "";
  if (writer.empty()) {
    std::fprintf(stderr, "no benchmark results; %s not written\n", path);
    return 0;
  }
  // Annotate the run with the process-wide metrics snapshot: the counters
  // say what the measured runs actually did (plan refreshes, memo hits,
  // fallbacks), which is what makes threshold re-tunes explainable from the
  // JSON alone.
  dynamite::metrics::MetricsSnapshot snapshot = dynamite::metrics::Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    writer.RecordMetric(name, value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    writer.RecordMetric(name, static_cast<uint64_t>(value));
  }
  for (const auto& h : snapshot.histograms) {
    writer.RecordMetric(h.name + ".count", h.count);
    writer.RecordMetric(h.name + ".sum", h.sum);
  }
  if (!writer.WriteFile(path, label)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path);
  return 0;
}
