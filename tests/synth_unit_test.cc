// Unit tests for the synthesis building blocks: MDP computation
// (Algorithm 4), Generalize / Analyze (Algorithm 3), sketch encoding, and
// the filtering extension (§5).

#include <gtest/gtest.h>

#include <algorithm>

#include "api/session.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/analyze.h"
#include "synth/encode.h"
#include "synth/mdp.h"
#include "synth/sketch_gen.h"
#include "synth/synthesizer.h"
#include "testing.h"
#include "util/failpoint.h"

namespace dynamite {
namespace {

Relation AdmissionRel(std::vector<std::tuple<const char*, const char*, int>> rows) {
  Relation r("Admission", {"grad", "ug", "num"});
  for (auto& [g, u, n] : rows) {
    r.Insert(Tuple({Value::String(g), Value::String(u), Value::Int(n)}));
  }
  return r;
}

TEST(Mdp, Figure3ExampleYieldsNumAndGradUg) {
  // Figure 3 of the paper: actual has 2 rows, expected has 4; {num} is an
  // MDP, and {grad, ug} is another.
  Relation actual = AdmissionRel({{"U1", "U1", 10}, {"U2", "U2", 20}});
  Relation expected = AdmissionRel(
      {{"U1", "U1", 10}, {"U1", "U2", 50}, {"U2", "U2", 20}, {"U2", "U1", 40}});
  auto mdps = MDPSet(actual, expected);
  // {num} must be present (projections on num differ: {10,20} vs
  // {10,20,40,50}).
  bool has_num = false, has_grad_ug = false;
  for (const auto& mdp : mdps) {
    if (mdp == std::vector<std::string>{"num"}) has_num = true;
    if (mdp == std::vector<std::string>{"grad", "ug"}) has_grad_ug = true;
  }
  EXPECT_TRUE(has_num);
  EXPECT_TRUE(has_grad_ug);
  // Minimality: no MDP contains another.
  for (const auto& a : mdps) {
    for (const auto& b : mdps) {
      if (&a == &b) continue;
      EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
          << "non-minimal MDP set";
    }
  }
}

TEST(Mdp, EqualRelationsHaveNoMdp) {
  Relation r = AdmissionRel({{"A", "B", 1}});
  EXPECT_TRUE(MDPSet(r, r).empty());
}

TEST(Mdp, SingletonDifference) {
  Relation actual = AdmissionRel({{"A", "B", 1}});
  Relation expected = AdmissionRel({{"A", "B", 2}});
  auto mdps = MDPSet(actual, expected);
  ASSERT_FALSE(mdps.empty());
  EXPECT_EQ(mdps[0], std::vector<std::string>{"num"});
}

TEST(Mdp, EveryMdpActuallyDistinguishes) {
  // Property (Lemma 4): each returned set distinguishes the outputs, and
  // removing any attribute stops it from distinguishing.
  Relation actual = AdmissionRel({{"A", "B", 1}, {"C", "D", 2}, {"A", "D", 3}});
  Relation expected = AdmissionRel({{"A", "B", 1}, {"C", "B", 2}, {"A", "D", 3}});
  auto mdps = MDPSet(actual, expected);
  ASSERT_FALSE(mdps.empty());
  for (const auto& mdp : mdps) {
    auto pa = actual.Project(mdp).ValueOrDie();
    auto pe = expected.Project(mdp).ValueOrDie();
    EXPECT_FALSE(pa.SetEquals(pe));
    for (size_t drop = 0; drop < mdp.size(); ++drop) {
      std::vector<std::string> smaller;
      for (size_t i = 0; i < mdp.size(); ++i) {
        if (i != drop) smaller.push_back(mdp[i]);
      }
      if (smaller.empty()) continue;
      auto sa = actual.Project(smaller).ValueOrDie();
      auto se = expected.Project(smaller).ValueOrDie();
      EXPECT_TRUE(sa.SetEquals(se)) << "MDP not minimal";
    }
  }
}

// --- Generalize / blocking-clause soundness (Theorem 2) -------------------

struct MotivatingSetup {
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example example = testing::MotivatingExample();
  RuleSketch sketch;
  FdSolver solver;
  SketchEncoding encoding;

  MotivatingSetup() {
    AttributeMapping psi = InferAttrMapping(src, tgt, example).ValueOrDie();
    sketch = GenRuleSketch(psi, src, tgt, "Admission", {}).ValueOrDie();
    encoding = EncodeSketch(sketch, &solver).ValueOrDie();
  }

  /// Runs a model's program on the example input, returning the canonical
  /// output forest.
  std::vector<std::string> Run(const SketchModel& model) {
    Rule rule = Instantiate(sketch, model).ValueOrDie();
    Program p;
    p.rules.push_back(rule);
    uint64_t next_id = 1;
    FactDatabase edb = ToFacts(example.input, src, &next_id).ValueOrDie();
    DatalogEngine engine;
    FactDatabase out = engine.Eval(p, edb, FactSignatures(tgt)).ValueOrDie();
    return CanonicalForest(BuildForest(out, tgt).ValueOrDie());
  }
};

TEST(Generalize, BlockedModelsAreReallyIncorrect) {
  // Sample a model, compute its blocking clause, then verify that several
  // models satisfying Generalize(σ, ϕ) produce ϕ-equivalent (hence
  // incorrect) outputs — the soundness property of Theorem 2.
  MotivatingSetup s;
  ASSERT_OK_AND_ASSIGN(bool sat1, s.solver.Solve());
  ASSERT_TRUE(sat1);
  SketchModel sigma = ExtractModel(s.encoding, s.solver);
  auto sigma_out = s.Run(sigma);

  std::vector<std::string> expected_canon;
  {
    RecordForest expected;
    for (const RecordNode& r : s.example.output.roots) expected.roots.push_back(r);
    expected_canon = CanonicalForest(expected);
  }
  if (sigma_out == expected_canon) GTEST_SKIP() << "first model already correct";

  // Constrain the solver to Generalize(σ) (all head vars pinned) and check
  // that every further model is also incorrect.
  std::set<std::string> all_heads = {"grad", "ug", "num"};
  for (const FdLit& l : Generalize(s.sketch, s.encoding, sigma, all_heads)) {
    ASSERT_OK(s.solver.AddClause({l}));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(bool more, s.solver.Solve());
    if (!more) break;
    SketchModel variant = ExtractModel(s.encoding, s.solver);
    EXPECT_NE(s.Run(variant), expected_canon)
        << "Generalize admitted a correct program — unsound blocking";
    ASSERT_OK(s.solver.AddClause(BlockingClause(ModelEquality(s.encoding, variant))));
  }
}

TEST(Encode, CoverageMakesEveryModelWellFormed) {
  MotivatingSetup s;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.solver.Solve());
    if (!sat1) break;
    SketchModel m = ExtractModel(s.encoding, s.solver);
    // Every model's rule is range-restricted — validation must never fail.
    ASSERT_OK_AND_ASSIGN(Rule rule, Instantiate(s.sketch, m));
    EXPECT_OK(rule.Validate());
    ASSERT_OK(s.solver.AddClause(BlockingClause(ModelEquality(s.encoding, m))));
  }
}

TEST(Encode, UnproducibleTargetAttributeFailsFast) {
  // A target attribute whose values appear nowhere in the source cannot be
  // covered: encoding must fail with kSynthesisFailure.
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example e = testing::MotivatingExample();
  // Corrupt the output: nums that do not occur in the input.
  for (RecordNode& r : e.output.roots) {
    for (auto& [attr, value] : r.prims) {
      if (attr == "num") value = Value::Int(999999);
    }
  }
  AttributeMapping psi = InferAttrMapping(src, tgt, e).ValueOrDie();
  auto sketch_or = GenRuleSketch(psi, src, tgt, "Admission", {});
  if (sketch_or.ok()) {
    FdSolver solver;
    auto enc = EncodeSketch(*sketch_or, &solver);
    EXPECT_FALSE(enc.ok());
  }  // else: sketch generation already failed, which is also acceptable
}

TEST(Encode, PollsTheRunContextBetweenConstraintGroups) {
  const RuleSketch sketch = testing::ChainCopiesSketch(24, 6, 8);
  FdSolver full;
  ASSERT_OK(EncodeSketch(sketch, &full).status());

  // An uninterrupted context encodes exactly what no context does.
  FdSolver polled;
  RunContext unbounded;
  ASSERT_OK(EncodeSketch(sketch, &polled, &unbounded).status());
  EXPECT_EQ(polled.num_clauses(), full.num_clauses());
  EXPECT_EQ(polled.num_bool_vars(), full.num_bool_vars());

  FdSolver timed_out;
  RunContext expired(Deadline::After(0), CancelToken());
  auto timeout = EncodeSketch(sketch, &timed_out, &expired);
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().code(), StatusCode::kTimeout);
  EXPECT_LT(timed_out.num_clauses(), full.num_clauses());

  FdSolver cancelled;
  CancelSource source;
  source.RequestCancel();
  RunContext stopped(Deadline::Infinite(), source.token());
  auto cancel = EncodeSketch(sketch, &cancelled, &stopped);
  ASSERT_FALSE(cancel.ok());
  EXPECT_EQ(cancel.status().code(), StatusCode::kCancelled);
  EXPECT_LT(cancelled.num_clauses(), full.num_clauses());
}

// One wide lex-leq pair (two copies of 31 holes over 64 symbols) is polled
// at each of its positions. The `synth.encode` failpoint sits at every
// poll, so arming it on its k-th execution interrupts encoding exactly
// there: stepping k through every poll must stop encoding at 31 or more
// distinct clause counts, none fewer than the stop before and all fewer
// than the full encoding. Polling once per pair would give only a few.
TEST(Encode, PollsEveryPositionOfALexLeqPair) {
  const RuleSketch sketch = testing::ChainCopiesSketch(2, 31, 64);
  FdSolver full;
  ASSERT_OK(EncodeSketch(sketch, &full).status());

  std::vector<size_t> stops;  // clauses at each interrupted poll, in order
  for (uint64_t k = 1;; ++k) {
    ASSERT_LT(k, 1000u) << "encoding never ran past the armed poll";
    failpoint::Spec spec;
    spec.kind = failpoint::Kind::kTimeout;
    spec.hit = k;
    failpoint::Arm("synth.encode", spec);
    FdSolver partial;
    RunContext unbounded;
    auto encoded = EncodeSketch(sketch, &partial, &unbounded);
    failpoint::DisarmAll();
    if (encoded.ok()) {
      // k ran past the last poll: the encoding is whole.
      EXPECT_EQ(partial.num_clauses(), full.num_clauses());
      break;
    }
    EXPECT_EQ(encoded.status().code(), StatusCode::kTimeout);
    EXPECT_LT(partial.num_clauses(), full.num_clauses());
    if (!stops.empty()) {
      EXPECT_GE(partial.num_clauses(), stops.back());
    }
    stops.push_back(partial.num_clauses());
  }
  stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
  EXPECT_GE(stops.size(), 31u);
}

TEST(Synthesizer, FailsOnInconsistentExample) {
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example e = testing::MotivatingExample();
  for (RecordNode& r : e.output.roots) {
    for (auto& [attr, value] : r.prims) {
      if (attr == "num") value = Value::Int(999999);
    }
  }
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));
  auto result = session.Synthesize(e);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
}

// --- Filtering extension (§5) ---------------------------------------------

TEST(Filtering, SynthesizesConstantFilter) {
  // Source: Person(name, dept); target keeps only dept "CS" names.
  auto src = RelationalSchemaBuilder()
                 .AddTable("Person", {{"pname", PrimitiveType::kString},
                                      {"pdept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("CsPeople", {{"cs_name", PrimitiveType::kString},
                                        {"cs_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  auto person = [&](const char* n, const char* d) {
    return testing::FlatRecord(
        "Person", {{"pname", Value::String(n)}, {"pdept", Value::String(d)}});
  };
  auto cs = [&](const char* n) {
    return testing::FlatRecord(
        "CsPeople", {{"cs_name", Value::String(n)}, {"cs_dept", Value::String("CS")}});
  };
  // Every name appears in two departments, so no name can serve as a
  // constant "anchor" for the department (e.g. Person("carol", d) would
  // yield two departments and overshoot the example) — the only
  // example-consistent filter is the department constant itself.
  e.input.roots = {person("alice", "CS"), person("alice", "EE"), person("carol", "CS"),
                   person("carol", "ME"), person("dan", "EE"), person("dan", "ME")};
  e.output.roots = {cs("alice"), cs("carol")};

  SessionOptions options;
  options.synthesis.enable_filtering = true;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt, options));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, session.Synthesize(e));

  // The synthesized rule must use the constant "CS" to filter.
  bool uses_constant = false;
  for (const Atom& atom : result.program.rules[0].body) {
    for (const Term& t : atom.terms) {
      if (t.is_constant() && t.constant() == Value::String("CS")) uses_constant = true;
    }
  }
  EXPECT_TRUE(uses_constant) << result.program.ToString();

  // And it must generalize: a fresh EE person must stay excluded.
  RecordForest validation;
  validation.roots = {person("erin", "CS"), person("frank", "EE")};
  ASSERT_OK_AND_ASSIGN(RecordForest out, session.Migrate(result.program, validation));
  RecordForest expected;
  expected.roots = {cs("erin")};
  EXPECT_TRUE(ForestEquals(out, expected)) << result.program.ToString();
}

TEST(Filtering, WithoutFlagNoConstantIsUsed) {
  // Same scenario but filtering disabled: synthesis must fail (no
  // filter-free program matches the example).
  auto src = RelationalSchemaBuilder()
                 .AddTable("Person", {{"pname", PrimitiveType::kString},
                                      {"pdept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("CsPeople", {{"cs_name", PrimitiveType::kString},
                                        {"cs_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  auto person = [&](const char* n, const char* d) {
    return testing::FlatRecord(
        "Person", {{"pname", Value::String(n)}, {"pdept", Value::String(d)}});
  };
  e.input.roots = {person("alice", "CS"), person("bob", "EE")};
  e.output.roots = {testing::FlatRecord(
      "CsPeople", {{"cs_name", Value::String("alice")}, {"cs_dept", Value::String("CS")}})};
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(src, tgt));  // filtering off
  auto result = session.Synthesize(e);
  EXPECT_FALSE(result.ok());
}

TEST(SynthesizeDistinct, FindsAmbiguityOfExample10) {
  // Example 10 of the paper: one example admits both the join program and
  // the cross-product program.
  auto src = RelationalSchemaBuilder()
                 .AddTable("Employee", {{"ename", PrimitiveType::kString},
                                        {"edept", PrimitiveType::kInt}})
                 .AddTable("Department", {{"did", PrimitiveType::kInt},
                                          {"dname", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("WorksIn", {{"w_name", PrimitiveType::kString},
                                       {"w_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  e.input.roots = {
      testing::FlatRecord("Employee",
                          {{"ename", Value::String("Alice")}, {"edept", Value::Int(11)}}),
      testing::FlatRecord("Department",
                          {{"did", Value::Int(11)}, {"dname", Value::String("CS")}})};
  e.output.roots = {testing::FlatRecord(
      "WorksIn", {{"w_name", Value::String("Alice")}, {"w_dept", Value::String("CS")}})};
  // SynthesizeDistinct is a synthesis-stage call: Session has none.
  Synthesizer synth(src, tgt);
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, synth.SynthesizeDistinct(e, 3, RunContext()));
  EXPECT_GE(result.alternatives.size(), 1u)
      << "expected ambiguity with a single-record example";
}

}  // namespace
}  // namespace dynamite
