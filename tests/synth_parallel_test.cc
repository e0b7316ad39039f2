// Determinism suite for the parallel synthesis portfolio: the synthesized
// program, iteration counts, per-rule stats, and error codes must be
// identical across SessionOptions::num_threads ∈ {1, 2, 8} on all three data
// models; the first-success rule (lowest enumeration index wins) must hold
// on a multi-solution sketch regardless of which worker finishes first;
// mid-search cancellation must land promptly at 8 threads; and shared-prefix
// memoization must produce hits while staying bit-identical to memo-off.
// Runs through the portfolio under TSan in CI (DYNAMITE_NUM_THREADS=4).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/run_context.h"
#include "api/session.h"
#include "instance/graph.h"
#include "schema/schema_builder.h"
#include "synth/synthesizer.h"
#include "testing.h"
#include "util/cancel.h"

namespace dynamite {
namespace {

// ---------------------------------------------------------------- fixtures --

/// Relational fixture: the paper's Example 10 join (unambiguous variant).
/// The two-atom rule body is also what gives prefix memoization something
/// to share.
struct RelationalFixture {
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

  static RecordNode Emp(const char* n, int d) {
    return testing::FlatRecord(
        "Employee", {{"ename", Value::String(n)}, {"edept", Value::Int(d)}});
  }
  static RecordNode Dept(int i, const char* n) {
    return testing::FlatRecord("Department",
                               {{"did", Value::Int(i)}, {"dname", Value::String(n)}});
  }

  Example MakeExample() const {
    Example e;
    e.input.roots = {Emp("Alice", 11), Emp("Bob", 12), Dept(11, "CS"), Dept(12, "EE")};
    e.output = Session::Create(src, tgt).ValueOrDie().Migrate(golden, e.input).ValueOrDie();
    return e;
  }
};

/// Graph fixture: follow edges to a flat table.
struct GraphFixture {
  Schema src = GraphSchemaBuilder()
                   .AddNodeType("User", {{"uid", PrimitiveType::kInt},
                                         {"uname", PrimitiveType::kString}})
                   .AddEdgeType("Follows", {{"weight", PrimitiveType::kInt}}, "f")
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("FollowTable", {{"follower", PrimitiveType::kString},
                                             {"followee", PrimitiveType::kString},
                                             {"weight", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();

  Example MakeExample() const {
    GraphInstance g;
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(1)}, {"uname", Value::String("ann")}}});
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(2)}, {"uname", Value::String("bob")}}});
    g.AddNode(GraphNode{"User", {{"uid", Value::Int(3)}, {"uname", Value::String("cat")}}});
    g.AddEdge(GraphEdge{"Follows", 1, 2, {{"weight", Value::Int(3)}}});
    g.AddEdge(GraphEdge{"Follows", 2, 3, {{"weight", Value::Int(5)}}});
    Example e;
    e.input = g.ToForest(src).ValueOrDie();
    e.output.roots = {
        testing::FlatRecord("FollowTable", {{"follower", Value::String("ann")},
                                            {"followee", Value::String("bob")},
                                            {"weight", Value::Int(3)}}),
        testing::FlatRecord("FollowTable", {{"follower", Value::String("bob")},
                                            {"followee", Value::String("cat")},
                                            {"weight", Value::Int(5)}})};
    return e;
  }
};

/// An example whose output is unreachable and whose hole domains are
/// maximal (every column of every table stores the same value set), so
/// with analysis disabled the enumeration runs effectively forever. Used
/// for the cancellation-latency and iteration-budget tests.
struct AdversarialFixture {
  Schema src;
  Schema tgt;
  Example example;

  AdversarialFixture() {
    RelationalSchemaBuilder sb;
    for (int t = 0; t < 3; ++t) {
      std::vector<AttrDecl> cols;
      for (int c = 0; c < 3; ++c) {
        cols.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                        PrimitiveType::kString});
      }
      sb.AddTable("T" + std::to_string(t), std::move(cols));
    }
    src = sb.Build().ValueOrDie();
    tgt = RelationalSchemaBuilder()
              .AddTable("Out", {{"o0", PrimitiveType::kString},
                                {"o1", PrimitiveType::kString},
                                {"o2", PrimitiveType::kString}})
              .Build()
              .ValueOrDie();
    for (int t = 0; t < 3; ++t) {
      for (int r = 0; r < 3; ++r) {
        std::vector<std::pair<Name, Value>> prims;
        for (int c = 0; c < 3; ++c) {
          prims.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                           Value::String("v_" + std::to_string(r))});
        }
        example.input.roots.push_back(
            testing::FlatRecord("T" + std::to_string(t), std::move(prims)));
      }
    }
    example.output.roots = {testing::FlatRecord("Out", {{"o0", Value::String("v_0")},
                                                        {"o1", Value::String("v_1")},
                                                        {"o2", Value::String("v_2")}})};
  }
};

SessionOptions PortfolioOptions(size_t threads) {
  SessionOptions options;
  options.num_threads = threads;
  return options;
}

/// One Session::Synthesize call on a fresh session.
Result<SynthesisResult> SynthesizeWith(const Schema& src, const Schema& tgt,
                                       const SessionOptions& options,
                                       const Example& example,
                                       const RunContext& ctx = RunContext()) {
  DYNAMITE_ASSIGN_OR_RETURN(Session session, Session::Create(src, tgt, options));
  return session.Synthesize(example, ctx);
}

/// Everything the determinism bar covers, as one comparable snapshot.
struct RunSnapshot {
  std::string program;
  std::string raw_program;
  size_t iterations = 0;
  double search_space = 0;
  std::vector<size_t> rule_iterations;
  SynthPortfolioStats portfolio;
};

RunSnapshot Snapshot(const SynthesisResult& result) {
  RunSnapshot snap;
  snap.program = result.program.ToString();
  snap.raw_program = result.raw_program.ToString();
  snap.iterations = result.iterations;
  snap.search_space = result.search_space;
  for (const RuleStats& rs : result.rule_stats) {
    snap.rule_iterations.push_back(rs.iterations);
  }
  snap.portfolio = result.stats();
  return snap;
}

void ExpectSameRun(const RunSnapshot& a, const RunSnapshot& b, const char* label) {
  EXPECT_EQ(a.program, b.program) << label;
  EXPECT_EQ(a.raw_program, b.raw_program) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.search_space, b.search_space) << label;
  EXPECT_EQ(a.rule_iterations, b.rule_iterations) << label;
}

void ExpectBitIdenticalAcrossThreadCounts(const Schema& src, const Schema& tgt,
                                          const Example& example) {
  ASSERT_OK_AND_ASSIGN(SynthesisResult seq,
                       SynthesizeWith(src, tgt, PortfolioOptions(1), example));
  RunSnapshot seq_snap = Snapshot(seq);
  EXPECT_EQ(seq_snap.portfolio.speculative_hits, 0u);  // sequential = no portfolio
  EXPECT_EQ(seq_snap.portfolio.prefix_memo_hits, 0u);

  for (size_t threads : {2u, 8u}) {
    ASSERT_OK_AND_ASSIGN(SynthesisResult par,
                         SynthesizeWith(src, tgt, PortfolioOptions(threads), example));
    RunSnapshot par_snap = Snapshot(par);
    ExpectSameRun(seq_snap, par_snap,
                  ("num_threads=" + std::to_string(threads)).c_str());
    // The portfolio really ran: the canonical loop consumed speculated
    // outcomes (the first candidate of every batch is the canonical model,
    // so at least one hit is structural, not timing-dependent).
    EXPECT_GT(par_snap.portfolio.speculative_hits, 0u)
        << "num_threads=" << threads;
  }
}

// ------------------------------------------------- determinism (tentpole) --

TEST(SynthPortfolio, BitIdenticalAcrossThreadCountsDocument) {
  ExpectBitIdenticalAcrossThreadCounts(testing::UnivSchema(), testing::AdmissionSchema(),
                                       testing::MotivatingExample());
}

TEST(SynthPortfolio, BitIdenticalAcrossThreadCountsRelational) {
  RelationalFixture fixture;
  ExpectBitIdenticalAcrossThreadCounts(fixture.src, fixture.tgt, fixture.MakeExample());
}

TEST(SynthPortfolio, BitIdenticalAcrossThreadCountsGraph) {
  GraphFixture fixture;
  ExpectBitIdenticalAcrossThreadCounts(fixture.src, fixture.tgt, fixture.MakeExample());
}

TEST(SynthPortfolio, BitIdenticalInEnumModeToo) {
  // Dynamite-Enum (model-at-a-time blocking) is where the scout's
  // prediction is exact and speculation rates are highest; the result must
  // still be bit-identical.
  RelationalFixture fixture;
  Example example = fixture.MakeExample();
  SessionOptions seq_opts = PortfolioOptions(1);
  seq_opts.synthesis.use_analysis = false;
  ASSERT_OK_AND_ASSIGN(SynthesisResult seq,
                       SynthesizeWith(fixture.src, fixture.tgt, seq_opts, example));

  SessionOptions par_opts = PortfolioOptions(8);
  par_opts.synthesis.use_analysis = false;
  ASSERT_OK_AND_ASSIGN(SynthesisResult par,
                       SynthesizeWith(fixture.src, fixture.tgt, par_opts, example));
  ExpectSameRun(Snapshot(seq), Snapshot(par), "enum mode");
  EXPECT_GT(par.stats().speculative_hits, 0u);
}

TEST(SynthPortfolio, FirstSuccessDeterminismOnMultiSolutionSketch) {
  // Both columns of Src carry the value set of the target column, so
  // several distinct programs are consistent with the example. The
  // portfolio may *find* a later-index success first on some worker; the
  // synthesized program must still be the lowest-enumeration-index success,
  // i.e. exactly what the sequential loop returns.
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Src", {{"a", PrimitiveType::kString},
                                     {"b", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("Tgt", {{"o", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Example example;
  example.input.roots = {
      testing::FlatRecord("Src", {{"a", Value::String("x")}, {"b", Value::String("x")}}),
      testing::FlatRecord("Src", {{"a", Value::String("y")}, {"b", Value::String("y")}})};
  example.output.roots = {testing::FlatRecord("Tgt", {{"o", Value::String("x")}}),
                          testing::FlatRecord("Tgt", {{"o", Value::String("y")}})};

  // SynthesizeDistinct is a synthesis-stage call (Session has none), so
  // this test drives the Synthesizer stage directly.
  SynthesisOptions options;
  options.synth_threads = 1;
  Synthesizer baseline(src, tgt, options);
  ASSERT_OK_AND_ASSIGN(SynthesisResult seq, baseline.Synthesize(example, RunContext()));
  // The sketch really admits several solutions: ask for distinct programs.
  ASSERT_OK_AND_ASSIGN(SynthesisResult distinct,
                       baseline.SynthesizeDistinct(example, 4, RunContext()));
  ASSERT_FALSE(distinct.alternatives.empty()) << "fixture lost its ambiguity";

  for (size_t threads : {2u, 8u}) {
    options.synth_threads = threads;
    Synthesizer synth(src, tgt, options);
    ASSERT_OK_AND_ASSIGN(SynthesisResult par, synth.Synthesize(example, RunContext()));
    EXPECT_EQ(par.program.ToString(), seq.program.ToString()) << "threads " << threads;
    EXPECT_EQ(par.iterations, seq.iterations) << "threads " << threads;

    // SynthesizeDistinct continues the same enumeration; order and content
    // of the alternatives must match too.
    ASSERT_OK_AND_ASSIGN(SynthesisResult par_distinct,
                         synth.SynthesizeDistinct(example, 4, RunContext()));
    EXPECT_EQ(par_distinct.raw_program.ToString(), distinct.raw_program.ToString())
        << "threads " << threads;
    ASSERT_EQ(par_distinct.alternatives.size(), distinct.alternatives.size())
        << "threads " << threads;
    for (size_t i = 0; i < distinct.alternatives.size(); ++i) {
      EXPECT_EQ(par_distinct.alternatives[i].ToString(), distinct.alternatives[i].ToString())
          << "threads " << threads << " alternative " << i;
    }
  }
}

TEST(SynthPortfolio, SessionThreadKnobsReachTheSynthesizer) {
  RelationalFixture fixture;
  Example example = fixture.MakeExample();

  // num_threads is the Session's one thread knob: it replaces whatever the
  // synthesis options hold, so this session enumerates sequentially.
  SessionOptions seq_opts;
  seq_opts.num_threads = 1;
  seq_opts.synthesis.synth_threads = 4;
  ASSERT_OK_AND_ASSIGN(Session seq_session,
                       Session::Create(fixture.src, fixture.tgt, seq_opts));
  ASSERT_OK_AND_ASSIGN(SynthesisResult seq, seq_session.Synthesize(example));
  EXPECT_EQ(seq.stats().speculative_hits, 0u);

  // num_threads = 4 activates the portfolio; results match the sequential
  // run.
  SessionOptions options;
  options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt, options));
  ASSERT_OK_AND_ASSIGN(SynthesisResult par, session.Synthesize(example));
  EXPECT_EQ(par.program.ToString(), seq.program.ToString());
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_GT(par.stats().speculative_hits, 0u);
}

// ------------------------------------------------ error-code determinism --

TEST(SynthPortfolio, IterationBudgetErrorIdenticalAcrossThreadCounts) {
  AdversarialFixture fixture;
  std::string message_at_one;
  for (size_t threads : {1u, 2u, 8u}) {
    SessionOptions options = PortfolioOptions(threads);
    options.synthesis.use_analysis = false;
    options.synthesis.use_mdp = false;
    options.synthesis.max_iterations = 40;  // far below the adversarial space
    auto result = SynthesizeWith(fixture.src, fixture.tgt, options, fixture.example);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget) << "threads " << threads;
    if (threads == 1) {
      message_at_one = result.status().message();
    } else {
      EXPECT_EQ(result.status().message(), message_at_one) << "threads " << threads;
    }
  }
}

TEST(SynthPortfolio, SynthesisFailureIdenticalAcrossThreadCounts) {
  // Finite space, no consistent program: the portfolio must exhaust the
  // exact same enumeration and report the same typed failure.
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Src", {{"a", PrimitiveType::kString},
                                     {"b", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("Tgt", {{"o", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Example example;
  example.input.roots = {
      testing::FlatRecord("Src", {{"a", Value::String("x")}, {"b", Value::String("y")}}),
      testing::FlatRecord("Src", {{"a", Value::String("y")}, {"b", Value::String("x")}})};
  // {x} is a strict subset of both columns' value sets: no projection (and
  // no join of this shape) emits exactly one row.
  example.output.roots = {testing::FlatRecord("Tgt", {{"o", Value::String("x")}})};

  std::string message_at_one;
  for (size_t threads : {1u, 2u, 8u}) {
    auto result = SynthesizeWith(src, tgt, PortfolioOptions(threads), example);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure)
        << "threads " << threads << ": " << result.status().ToString();
    if (threads == 1) {
      message_at_one = result.status().message();
    } else {
      EXPECT_EQ(result.status().message(), message_at_one) << "threads " << threads;
    }
  }
}

// -------------------------------------- cancellation latency (satellite) --

TEST(SynthPortfolio, MidSearchCancelLandsPromptlyAt8Threads) {
  // The adversarial fixture enumerates effectively forever; cancelling
  // mid-search must unwind within one candidate poll even with 8 portfolio
  // workers speculating ahead. The wall-clock bound is deliberately loose
  // for sanitizer builds; the hard assertion is kCancelled.
  AdversarialFixture fixture;
  SessionOptions options = PortfolioOptions(8);
  options.synthesis.use_analysis = false;
  options.synthesis.use_mdp = false;
  options.default_budget_seconds = 0;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(fixture.src, fixture.tgt, options));

  CancelSource source;
  RunContext ctx;
  ctx.cancel = source.token();
  std::chrono::steady_clock::time_point cancel_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel_at = std::chrono::steady_clock::now();
    source.RequestCancel();
  });
  auto result = session.Synthesize(fixture.example, ctx);
  auto returned_at = std::chrono::steady_clock::now();
  canceller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  double latency = std::chrono::duration<double>(returned_at - cancel_at).count();
  EXPECT_LT(latency, 10.0) << "cancellation latency " << latency << "s";
}

// --------------------------------------- prefix memoization (tentpole b) --

TEST(SynthPortfolio, PrefixMemoHitsAndMemoOffIdentity) {
  // Enum mode on the two-atom join: batches carry candidates that differ
  // only in later-hole choices, so shared-prefix groups form and the
  // canonical loop consumes prefix-derived outcomes. With the memo off the
  // run must be indistinguishable in everything but the counter.
  RelationalFixture fixture;
  Example example = fixture.MakeExample();

  SessionOptions on = PortfolioOptions(4);
  on.synthesis.use_analysis = false;
  ASSERT_OK_AND_ASSIGN(SynthesisResult memo_on,
                       SynthesizeWith(fixture.src, fixture.tgt, on, example));

  SessionOptions off = on;
  off.synthesis.prefix_memo = false;
  ASSERT_OK_AND_ASSIGN(SynthesisResult memo_off,
                       SynthesizeWith(fixture.src, fixture.tgt, off, example));

  EXPECT_GT(memo_on.stats().prefix_memo_hits, 0u);
  EXPECT_EQ(memo_off.stats().prefix_memo_hits, 0u);
  ExpectSameRun(Snapshot(memo_on), Snapshot(memo_off), "memo on vs off");

  // And both match the plain sequential run.
  SessionOptions seq = on;
  seq.num_threads = 1;
  ASSERT_OK_AND_ASSIGN(SynthesisResult seq_result,
                       SynthesizeWith(fixture.src, fixture.tgt, seq, example));
  ExpectSameRun(Snapshot(seq_result), Snapshot(memo_on), "sequential vs memo");
}

// ------------------------------------------- progress events (satellite) --

TEST(SynthProgress, IterationsMonotoneAcrossRulesAndCoverageBounded) {
  // Document example: multiple target records, so the run crosses rule
  // boundaries (where done_iterations folds in completed rules).
  Schema src = testing::UnivSchema(), tgt = testing::AdmissionSchema();
  Example example = testing::MotivatingExample();
  for (size_t threads : {1u, 4u}) {
    std::vector<ProgressEvent> events;
    RunContext ctx;
    ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
    ASSERT_OK(SynthesizeWith(src, tgt, PortfolioOptions(threads), example, ctx).status());
    ASSERT_FALSE(events.empty());
    size_t last = 0;
    for (const ProgressEvent& e : events) {
      EXPECT_GE(e.iterations, last) << "threads " << threads;
      last = e.iterations;
      EXPECT_GE(e.coverage, 0.0);
      EXPECT_LE(e.coverage, 1.0);
    }
  }
}

TEST(SynthProgress, SingleRuleCoverageMonotone) {
  // One target table = one rule = fixed search space: coverage (not just
  // iterations) must be non-decreasing. Enum mode makes the run long
  // enough to emit several kSearch events (stride 64).
  AdversarialFixture fixture;
  SessionOptions options = PortfolioOptions(4);
  options.synthesis.use_analysis = false;
  options.synthesis.use_mdp = false;
  options.synthesis.max_iterations = 300;  // a few stride-64 batches, then kEvalBudget
  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  auto result = SynthesizeWith(fixture.src, fixture.tgt, options, fixture.example, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget);

  size_t search_events = 0;
  size_t last_iterations = 0;
  double last_coverage = 0;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last_iterations);
    last_iterations = e.iterations;
    if (e.phase == Phase::kSearch) {
      ++search_events;
      EXPECT_GE(e.coverage, last_coverage);
      last_coverage = e.coverage;
    }
  }
  EXPECT_GT(search_events, 2u);
}

TEST(SynthProgress, DistinctEnumerationKeepsIterationsMonotone) {
  // SynthesizeDistinct re-enters per-rule enumerators with a rebased
  // iteration baseline; the tracker's monotone floor must keep observed
  // totals non-decreasing through the reset. A synthesis-stage call, so the
  // Synthesizer stage is driven directly.
  RelationalFixture fixture;
  Example example = fixture.MakeExample();
  for (size_t threads : {1u, 4u}) {
    Synthesizer synth(fixture.src, fixture.tgt, PortfolioOptions(threads).synthesis);
    std::vector<ProgressEvent> events;
    RunContext ctx;
    ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
    ASSERT_OK(synth.SynthesizeDistinct(example, 3, ctx).status());
    size_t last = 0;
    for (const ProgressEvent& e : events) {
      EXPECT_GE(e.iterations, last) << "threads " << threads;
      last = e.iterations;
    }
  }
}

}  // namespace
}  // namespace dynamite
