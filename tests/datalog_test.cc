// Unit tests for the Datalog AST, parser, evaluation engine, simplifier and
// equivalence checker (the Souffle substrate).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "datalog/engine.h"
#include "datalog/simplify.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "testing.h"
#include "value/database.h"

namespace dynamite {
namespace {

FactDatabase EdgeDb(std::vector<std::pair<int, int>> edges) {
  FactDatabase db;
  db.DeclareRelation("edge", {"src", "dst"}).ValueOrDie();
  for (auto [a, b] : edges) {
    db.AddFact("edge", Tuple({Value::Int(a), Value::Int(b)}));
  }
  return db;
}

TEST(DatalogParser, ParsesMotivatingRule) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  EXPECT_EQ(r.heads.size(), 1u);
  EXPECT_EQ(r.body.size(), 3u);
  EXPECT_EQ(r.heads[0].relation, "Admission");
  EXPECT_TRUE(r.body[2].terms[2].is_wildcard());
  EXPECT_EQ(r.HeadVariables(), (std::vector<std::string>{"grad", "ug", "num"}));
}

TEST(DatalogParser, ParsesConstantsAndComments) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    % percent comment
    // slash comment
    R(x) :- S(x, 42, "hello world", -3.5, true).
  )"));
  const Atom& atom = p.rules[0].body[0];
  EXPECT_EQ(atom.terms[1].constant(), Value::Int(42));
  EXPECT_EQ(atom.terms[2].constant(), Value::String("hello world"));
  EXPECT_EQ(atom.terms[3].constant(), Value::Float(-3.5));
  EXPECT_EQ(atom.terms[4].constant(), Value::Bool(true));
}

TEST(DatalogParser, ParsesMultiHeadRules) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x), B(x, y) :- C(x, y)."));
  EXPECT_EQ(p.rules[0].heads.size(), 2u);
}

TEST(DatalogParser, RejectsUnboundHeadVariable) {
  EXPECT_FALSE(Program::Parse("A(x, y) :- B(x).").ok());
}

TEST(DatalogParser, RejectsSyntaxErrors) {
  EXPECT_FALSE(Program::Parse("A(x) :- B(x)").ok());   // missing dot
  EXPECT_FALSE(Program::Parse("A(x) B(x).").ok());     // missing :-
  EXPECT_FALSE(Program::Parse("A(x :- B(x).").ok());   // unbalanced paren
}

TEST(DatalogParser, RoundTripsThroughToString) {
  const char* text = "A(x, y) :- B(x, z), C(z, y, \"k\"), D(_, 7).";
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(text));
  ASSERT_OK_AND_ASSIGN(Program p2, Program::Parse(p.ToString()));
  EXPECT_EQ(p, p2);
}

TEST(DatalogEngine, SimpleJoin) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 4}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("path2(x, y) :- edge(x, z), edge(z, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  const Relation* path2 = out.Find("path2").ValueOrDie();
  EXPECT_EQ(path2->size(), 2u);
  EXPECT_TRUE(path2->Contains(Tuple({Value::Int(1), Value::Int(3)})));
  EXPECT_TRUE(path2->Contains(Tuple({Value::Int(2), Value::Int(4)})));
}

TEST(DatalogEngine, ConstantsFilter) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {1, 4}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("from1(y) :- edge(1, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("from1").ValueOrDie()->size(), 2u);
}

TEST(DatalogEngine, RepeatedVariableWithinAtom) {
  FactDatabase db = EdgeDb({{1, 1}, {1, 2}, {3, 3}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("loop(x) :- edge(x, x)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  const Relation* loop = out.Find("loop").ValueOrDie();
  EXPECT_EQ(loop->size(), 2u);
  EXPECT_TRUE(loop->Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(loop->Contains(Tuple({Value::Int(3)})));
}

TEST(DatalogEngine, MultiHeadSharesBindings) {
  FactDatabase db = EdgeDb({{1, 2}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x), B(y, x) :- edge(x, y)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_TRUE(out.Find("A").ValueOrDie()->Contains(Tuple({Value::Int(1)})));
  EXPECT_TRUE(out.Find("B").ValueOrDie()->Contains(Tuple({Value::Int(2), Value::Int(1)})));
}

TEST(DatalogEngine, RecursiveTransitiveClosure) {
  // The engine is a complete substrate: recursion works via semi-naive
  // fixpoint even though synthesis never needs it.
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )"));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("tc").ValueOrDie()->size(), 10u);  // all i<j pairs
  EXPECT_TRUE(out.Find("tc").ValueOrDie()->Contains(Tuple({Value::Int(1), Value::Int(5)})));
}

TEST(DatalogEngine, RecursiveClosureOnCycle) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 1}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )"));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out, engine.EvalAutoSignatures(p, db));
  EXPECT_EQ(out.Find("tc").ValueOrDie()->size(), 9u);  // 3x3 complete
}

TEST(DatalogEngine, TupleLimitAborts) {
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {3, 1}, {1, 3}, {2, 1}, {3, 2}});
  ASSERT_OK_AND_ASSIGN(Program p,
                       Program::Parse("big(a, b, c, d) :- edge(a, b), edge(b, c), "
                                      "edge(c, d), edge(d, a)."));
  DatalogEngine::Options options;
  options.max_derived_tuples = 3;
  DatalogEngine engine(options);
  auto result = engine.EvalAutoSignatures(p, db);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget);
}

TEST(DatalogEngine, UnknownBodyRelationFails) {
  FactDatabase db = EdgeDb({});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- mystery(x)."));
  DatalogEngine engine;
  EXPECT_FALSE(engine.EvalAutoSignatures(p, db).ok());
}

TEST(DatalogEngine, ArityMismatchFails) {
  FactDatabase db = EdgeDb({{1, 2}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- edge(x, _, _)."));
  DatalogEngine engine;
  EXPECT_FALSE(engine.EvalAutoSignatures(p, db).ok());
}

TEST(Simplify, RemovesDuplicateAtoms) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), B(x, y)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 1u);
}

TEST(Simplify, RemovesSubsumedAtoms) {
  // Second B atom only constrains via a local variable: subsumed by the
  // first one.
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), B(x, z)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 1u);
}

TEST(Simplify, KeepsConstrainingAtoms) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, y), C(y)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_EQ(s.body.size(), 2u);
}

TEST(Simplify, SingleUseVariablesBecomeWildcards) {
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("A(x) :- B(x, unused)."));
  Rule s = SimplifyRule(p.rules[0]);
  EXPECT_TRUE(s.body[0].terms[1].is_wildcard());
}

TEST(Simplify, PreservesSemantics) {
  // Property: the simplified rule computes the same output.
  FactDatabase db = EdgeDb({{1, 2}, {2, 3}, {1, 3}, {3, 3}});
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(
      "A(x, y) :- edge(x, y), edge(x, z), edge(x, y)."));
  Program s = SimplifyProgram(p);
  EXPECT_LT(s.rules[0].body.size(), p.rules[0].body.size());
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out1, engine.EvalAutoSignatures(p, db));
  ASSERT_OK_AND_ASSIGN(FactDatabase out2, engine.EvalAutoSignatures(s, db));
  EXPECT_TRUE(out1.SetEquals(out2));
}

TEST(Equivalence, RenamedRulesAreEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(p, q) :- B(p, r), C(r, q)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
  EXPECT_TRUE(RuleIsomorphic(a.rules[0], b.rules[0]));
}

TEST(Equivalence, ReorderedBodyIsEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x, y) :- C(w, y), B(x, w)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
}

TEST(Equivalence, RedundantAtomDoesNotChangeSemantics) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x) :- B(x, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x) :- B(x, y), B(x, z)."));
  EXPECT_TRUE(RuleEquivalent(a.rules[0], b.rules[0]));
  EXPECT_EQ(DistanceToOptimal(b.rules[0], a.rules[0]), 1);
}

TEST(Equivalence, DifferentJoinsAreNotEquivalent) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x, y) :- B(x, z), C(z, y)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x, y) :- B(x, _), C(_, y)."));
  EXPECT_FALSE(RuleEquivalent(a.rules[0], b.rules[0]));
}

TEST(Equivalence, ConstantsMustMatch) {
  ASSERT_OK_AND_ASSIGN(Program a, Program::Parse("A(x) :- B(x, 1)."));
  ASSERT_OK_AND_ASSIGN(Program b, Program::Parse("A(x) :- B(x, 2)."));
  EXPECT_FALSE(RuleEquivalent(a.rules[0], b.rules[0]));
}

// Property test for Theorem 1: Datalog semantics is invariant under
// injective variable renaming.
class RenamingInvariance : public ::testing::TestWithParam<int> {};

TEST_P(RenamingInvariance, HoldsOnRandomGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 12; ++i) {
    edges.push_back({static_cast<int>(rng.NextBelow(5)), static_cast<int>(rng.NextBelow(5))});
  }
  FactDatabase db = EdgeDb(edges);
  ASSERT_OK_AND_ASSIGN(Program original,
                       Program::Parse("T(a, c) :- edge(a, b), edge(b, c), edge(c, a)."));
  ASSERT_OK_AND_ASSIGN(Program renamed,
                       Program::Parse("T(q0, q2) :- edge(q0, q1), edge(q1, q2), edge(q2, q0)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase out1, engine.EvalAutoSignatures(original, db));
  ASSERT_OK_AND_ASSIGN(FactDatabase out2, engine.EvalAutoSignatures(renamed, db));
  EXPECT_TRUE(out1.SetEquals(out2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenamingInvariance, ::testing::Range(0, 10));

// ------------------------------------------------ existence-only joins --
//
// Guards (body components sharing no variable with the head) run once up
// to their first match, and atoms after the last head-binding atom stop at
// their first row that completes the plan. Neither may change what a rule
// derives or the order it derives it in.

using Rows = std::vector<std::vector<Value>>;

/// Brute-force evaluation of a non-recursive program over EDB relations:
/// every body atom scans every row, in body order; head rows are kept in
/// first-emission order. With reorder_joins off the engine visits the same
/// nested loop, so it must derive exactly these rows in exactly this order.
std::map<std::string, Rows> OracleEval(const Program& program, const FactDatabase& db) {
  std::map<std::string, Rows> out;
  std::map<std::string, std::set<std::vector<Value>>> seen;
  for (const Rule& rule : program.rules) {
    for (const Atom& h : rule.heads) out[h.relation];
    std::map<std::string, Value> env;
    std::function<void(size_t)> visit = [&](size_t i) {
      if (i == rule.body.size()) {
        for (const Atom& h : rule.heads) {
          std::vector<Value> row;
          for (const Term& t : h.terms) {
            row.push_back(t.is_constant() ? t.constant() : env.at(t.var()));
          }
          if (seen[h.relation].insert(row).second) out[h.relation].push_back(row);
        }
        return;
      }
      const Atom& atom = rule.body[i];
      const Relation* rel = db.Find(atom.relation).ValueOrDie();
      for (size_t r = 0; r < rel->size(); ++r) {
        std::vector<std::string> bound_here;
        bool ok = true;
        for (size_t c = 0; c < atom.terms.size() && ok; ++c) {
          const Term& t = atom.terms[c];
          const Value& v = rel->cell(r, c);
          if (t.is_constant()) {
            ok = v == t.constant();
          } else if (t.is_variable()) {
            auto [it, fresh] = env.emplace(t.var(), v);
            if (fresh) bound_here.push_back(t.var());
            ok = fresh || it->second == v;
          }
        }
        if (ok) visit(i + 1);
        for (const std::string& var : bound_here) env.erase(var);
      }
    };
    visit(0);
  }
  return out;
}

Rows RowsOf(const Relation& rel) {
  Rows rows;
  for (size_t r = 0; r < rel.size(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < rel.arity(); ++c) row.push_back(rel.cell(r, c));
    rows.push_back(std::move(row));
  }
  return rows;
}

Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Small dense relations over the ints 0..3, each empty with probability
/// 0.15 so that guards are sometimes unsatisfiable.
FactDatabase RandomGuardDb(uint64_t seed) {
  Rng rng(seed);
  FactDatabase db;
  const std::vector<std::pair<const char*, size_t>> specs = {
      {"A", 2}, {"B", 2}, {"C", 3}, {"D", 1}, {"E", 2}};
  for (const auto& [name, arity] : specs) {
    std::vector<std::string> attrs;
    for (size_t c = 0; c < arity; ++c) attrs.push_back("c" + std::to_string(c));
    db.DeclareRelation(name, attrs).ValueOrDie();
    size_t rows = rng.NextBool(0.15) ? 0 : rng.NextBelow(20);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < arity; ++c) row.push_back(Value::Int(rng.NextInt(0, 3)));
      db.AddFact(name, Tuple(std::move(row)));
    }
  }
  return db;
}

const char* const kGuardShapes[] = {
    // One-atom guards, with and without a repeated variable.
    "H(x, y) :- A(x, y), D(_).",
    "H(x) :- A(x, _), B(u, u).",
    // Multi-atom guards (2 and 3 atoms), before and between main atoms.
    "H(x) :- B(u, v), A(x, y), C(v, w, 3).",
    "H(x, y) :- E(v, w), A(x, y), B(u, v), C(w, u, _).",
    "H(x) :- D(x), A(u, v), B(v, u), E(w, 3).",
    // Constant-only atoms.
    "H(x) :- A(x, 1), D(2).",
    "H(x) :- B(1, 2), A(x, _).",
    // Trailing semi-joins, also with a repeated variable.
    "H(x) :- A(x, y), B(y, z).",
    "H(x) :- A(x, y), B(y, z), C(z, _, w).",
    "H(x) :- A(x, x), C(x, y, y).",
    "H(z) :- A(x, y), B(y, z), E(z, _).",
    // A head over two cross-producted components plus a guard.
    "H(x, y) :- A(x, _), E(u, u), B(_, y).",
    // Multi-head rules.
    "H(x), G(y, x) :- A(x, y), B(y, z), D(_).",
    "H(x), G(x, 1) :- D(w), A(x, v), E(v, _), C(w, w, _).",
    // Variable-free heads: the whole body is guards.
    "H(1) :- A(x, y), B(y, 2).",
    "H(7), G(1, 2) :- B(u, v), E(v, u), D(_).",
    // Several rules into one head relation.
    "H(x) :- D(x), E(_, _). H(x) :- A(_, x), C(x, x, _).",
};

TEST(ExistenceOnlyJoins, MatchesNestedLoopOracleOnRandomInstances) {
  size_t nonempty = 0;
  for (const char* shape : kGuardShapes) {
    ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(shape));
    for (uint64_t seed = 0; seed < 40; ++seed) {
      FactDatabase db = RandomGuardDb(seed);
      std::map<std::string, Rows> expected = OracleEval(p, db);
      for (bool reorder : {false, true}) {
        DatalogEngine::Options opts;
        opts.reorder_joins = reorder;
        ASSERT_OK_AND_ASSIGN(FactDatabase out,
                             DatalogEngine(opts).EvalAutoSignatures(p, db));
        for (const auto& [name, rows] : expected) {
          Rows got = RowsOf(*out.Find(name).ValueOrDie());
          if (reorder) {
            EXPECT_EQ(Sorted(got), Sorted(rows)) << shape << " seed " << seed;
          } else {
            // Body order is the nested-loop order: same rows, same order.
            EXPECT_EQ(got, rows) << shape << " seed " << seed;
          }
          nonempty += rows.empty() ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

/// A Yelp-like instance: `users` users, each with a few reviews of
/// businesses; Business rows join Review rows on bid unless
/// `orphan_businesses`, in which case no business has a review.
FactDatabase ReviewDb(int users, bool orphan_businesses, bool empty_org = false) {
  FactDatabase db;
  db.DeclareRelation("User", {"uid", "name"}).ValueOrDie();
  db.DeclareRelation("Review", {"rid", "bid", "uid", "stars"}).ValueOrDie();
  db.DeclareRelation("Business", {"bid", "name"}).ValueOrDie();
  db.DeclareRelation("Org", {"oid", "name"}).ValueOrDie();
  Rng rng(7);
  for (int u = 0; u < users; ++u) {
    db.AddFact("User", Tuple({Value::Int(u), Value::String("user" + std::to_string(u % 97))}));
    for (int k = 0; k < 3; ++k) {
      int bid = static_cast<int>(rng.NextBelow(50));
      db.AddFact("Review", Tuple({Value::Int(u * 3 + k), Value::Int(bid), Value::Int(u),
                                  Value::Int(rng.NextInt(1, 5))}));
    }
  }
  for (int b = 0; b < 60; ++b) {
    int bid = orphan_businesses ? 1000 + b : b;
    db.AddFact("Business", Tuple({Value::Int(bid), Value::String("biz" + std::to_string(b))}));
  }
  if (!empty_org) {
    for (int o = 0; o < 5; ++o) {
      db.AddFact("Org", Tuple({Value::Int(o), Value::String("org" + std::to_string(o))}));
    }
  }
  return db;
}

// `Review(_, b2, _, 5)` holds a constant, so the greedy order puts the
// multi-atom guard ahead of every main atom; the trailing `Review(_, b, u,
// _)` is an existential suffix in both rules.
constexpr const char* kGuardedRule =
    "UserT(u, n) :- User(u, n), Review(_, b, u, _), Business(b2, _), Review(_, b2, _, 5), "
    "Org(_, _).";
constexpr const char* kUnguardedRule = "UserT(u, n) :- User(u, n), Review(_, b, u, _).";

TEST(ExistenceOnlyJoins, SatisfiedGuardsKeepTheUnguardedRowOrder) {
  FactDatabase db = ReviewDb(600, /*orphan_businesses=*/false);
  ASSERT_OK_AND_ASSIGN(Program guarded, Program::Parse(kGuardedRule));
  ASSERT_OK_AND_ASSIGN(Program unguarded, Program::Parse(kUnguardedRule));
  ASSERT_OK_AND_ASSIGN(FactDatabase reference,
                       DatalogEngine().EvalAutoSignatures(unguarded, db));
  Rows expected = RowsOf(*reference.Find("UserT").ValueOrDie());
  ASSERT_EQ(expected.size(), 600u);
  // Row-for-row parity with the unguarded rule.
  ASSERT_OK_AND_ASSIGN(FactDatabase out, DatalogEngine().EvalAutoSignatures(guarded, db));
  EXPECT_EQ(RowsOf(*out.Find("UserT").ValueOrDie()), expected);
}

TEST(ExistenceOnlyJoins, TrailingSemiJoinsKeepRowOrderAcrossConfigs) {
  FactDatabase db = ReviewDb(700, /*orphan_businesses=*/false);
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    Rated(u, s) :- Review(_, b, u, s), User(u, _), Business(b, _), Review(_, b, _, 5).
    Pair(n, b), Seen(b) :- User(u, n), Review(r, b, u, _), Review(r2, b, _, _), Org(_, _).
  )"));
  // Contents against the oracle on a smaller instance (the brute-force
  // loop is quadratic in Review); on the big one, a warm engine (cached
  // plans and EDB indexes) derives the rows in a fresh engine's order.
  FactDatabase small = ReviewDb(80, /*orphan_businesses=*/false);
  ASSERT_OK_AND_ASSIGN(FactDatabase small_out, DatalogEngine().EvalAutoSignatures(p, small));
  std::map<std::string, Rows> oracle = OracleEval(p, small);
  ASSERT_OK_AND_ASSIGN(FactDatabase reference, DatalogEngine().EvalAutoSignatures(p, db));
  for (const char* rel : {"Rated", "Pair", "Seen"}) {
    ASSERT_GT(oracle.at(rel).size(), 0u) << rel;
    EXPECT_EQ(Sorted(RowsOf(*small_out.Find(rel).ValueOrDie())), Sorted(oracle.at(rel)))
        << rel;
  }
  DatalogEngine warm;
  ASSERT_OK(warm.EvalAutoSignatures(p, db).status());
  ASSERT_OK_AND_ASSIGN(FactDatabase out, warm.EvalAutoSignatures(p, db));
  for (const char* rel : {"Rated", "Pair", "Seen"}) {
    EXPECT_EQ(RowsOf(*out.Find(rel).ValueOrDie()), RowsOf(*reference.Find(rel).ValueOrDie()))
        << rel;
  }
}

TEST(ExistenceOnlyJoins, UnsatisfiedGuardsYieldAnEmptyHead) {
  // Business rows none of which joins a Review: the two-atom guard looks
  // satisfiable atom by atom but has no match.
  FactDatabase orphans = ReviewDb(600, /*orphan_businesses=*/true);
  // An empty guard relation.
  FactDatabase no_orgs = ReviewDb(600, /*orphan_businesses=*/false, /*empty_org=*/true);
  ASSERT_OK_AND_ASSIGN(Program multi_atom, Program::Parse(
      "UserT(u, n) :- User(u, n), Business(b, _), Review(_, b, _, _)."));
  ASSERT_OK_AND_ASSIGN(Program empty_guard, Program::Parse(
      "UserT(u, n) :- User(u, n), Org(_, _)."));
  DatalogEngine engine;
  ASSERT_OK_AND_ASSIGN(FactDatabase a, engine.EvalAutoSignatures(multi_atom, orphans));
  EXPECT_EQ(a.Find("UserT").ValueOrDie()->size(), 0u);
  ASSERT_OK_AND_ASSIGN(FactDatabase b, engine.EvalAutoSignatures(empty_guard, no_orgs));
  EXPECT_EQ(b.Find("UserT").ValueOrDie()->size(), 0u);
  // Sanity: with the guard satisfiable, the same rules derive every user.
  FactDatabase joined = ReviewDb(600, /*orphan_businesses=*/false);
  ASSERT_OK_AND_ASSIGN(FactDatabase c, engine.EvalAutoSignatures(multi_atom, joined));
  EXPECT_EQ(c.Find("UserT").ValueOrDie()->size(), 600u);
  ASSERT_OK_AND_ASSIGN(FactDatabase d, engine.EvalAutoSignatures(empty_guard, joined));
  EXPECT_EQ(d.Find("UserT").ValueOrDie()->size(), 600u);
}

std::set<std::pair<int64_t, int64_t>> ReferenceClosure(
    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::set<std::pair<int64_t, int64_t>> closure(edges.begin(), edges.end());
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : std::set<std::pair<int64_t, int64_t>>(closure)) {
      for (const auto& [c, d] : edges) {
        if (b == c) grew = closure.insert({a, d}).second || grew;
      }
    }
  }
  return closure;
}

TEST(ExistenceOnlyJoins, RecursiveRuleWithDeltaAtomInAGuard) {
  // `enabled` is derived after the rule that reads it as a guard, so tc's
  // base rule only fires from its delta plan whose delta atom is the guard;
  // the recursive rule also carries an IDB guard over tc itself.
  Rng rng(5);
  std::vector<std::pair<int64_t, int64_t>> edges;
  FactDatabase db;
  db.DeclareRelation("edge", {"s", "t"}).ValueOrDie();
  db.DeclareRelation("flag", {"f"}).ValueOrDie();
  db.AddFact("flag", Tuple({Value::Int(1)}));
  for (int i = 0; i < 300; ++i) {
    int64_t a = rng.NextInt(0, 59), b = rng.NextInt(0, 59);
    edges.emplace_back(a, b);
    db.AddFact("edge", Tuple({Value::Int(a), Value::Int(b)}));
  }
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(R"(
    tc(x, y) :- edge(x, y), enabled(_).
    tc(x, y) :- tc(x, z), edge(z, y), tc(_, _).
    enabled(1) :- flag(_).
  )"));
  ASSERT_OK_AND_ASSIGN(FactDatabase out, DatalogEngine().EvalAutoSignatures(p, db));
  const Relation* tc = out.Find("tc").ValueOrDie();
  std::set<std::pair<int64_t, int64_t>> got;
  for (size_t r = 0; r < tc->size(); ++r) {
    got.insert({tc->cell(r, 0).AsInt(), tc->cell(r, 1).AsInt()});
  }
  EXPECT_EQ(got, ReferenceClosure(edges));
}

FactDatabase CrossProductDb(int n) {
  FactDatabase db;
  db.DeclareRelation("A", {"x"}).ValueOrDie();
  db.DeclareRelation("B", {"y"}).ValueOrDie();
  db.DeclareRelation("G", {"g"}).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    db.AddFact("A", Tuple({Value::Int(i)}));
    db.AddFact("B", Tuple({Value::Int(i)}));
  }
  db.AddFact("G", Tuple({Value::Int(0)}));
  return db;
}

TEST(ExistenceOnlyJoins, CancelAndDeadlineLandInsideAHeadDependentProduct) {
  // Both product atoms bind head variables, so they are enumerated in full
  // (only the guard stops early). The derived-tuple cap sits well below the
  // 4M-row product: an interruption that failed to land would end in
  // kEvalBudget instead.
  FactDatabase db = CrossProductDb(2000);
  ASSERT_OK_AND_ASSIGN(Program p, Program::Parse("H(x, y) :- A(x), G(_), B(y)."));
  DatalogEngine::Options opts;
  opts.max_derived_tuples = 3'000'000;
  CancelSource source;
  RunContext ctx;
  ctx.cancel = source.token();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.RequestCancel();
  });
  auto cancelled = DatalogEngine(opts).EvalAutoSignatures(p, db, &ctx);
  canceller.join();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  opts.timeout_seconds = 0.02;
  auto timed_out = DatalogEngine(opts).EvalAutoSignatures(p, db);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
}

TEST(ExistenceOnlyJoins, TrailingAtomsStopAtTheirFirstCompletingRow) {
  // B and D bind no head variable, so each stops at its first row that
  // completes the plan: B is a positional scan, D an index probe. The token
  // is cancelled before Eval and the engine polls it once per 1024 join
  // candidates, so an Eval that inspected B's or D's 5000 rows would end
  // kCancelled; each inspects one, and the Eval succeeds.
  FactDatabase db;
  for (auto [name, attrs] : std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"A", {"x", "y"}}, {"B", {"y"}}, {"C", {"x", "y"}}, {"D", {"y", "z"}}}) {
    db.DeclareRelation(name, attrs).ValueOrDie();
  }
  db.AddFact("A", Tuple({Value::Int(1), Value::Int(0)}));
  db.AddFact("C", Tuple({Value::Int(1), Value::Int(0)}));
  for (int i = 0; i < 5000; ++i) {
    db.AddFact("B", Tuple({Value::Int(i)}));
    db.AddFact("D", Tuple({Value::Int(0), Value::Int(i)}));
  }
  DatalogEngine::Options opts;
  opts.reorder_joins = false;  // the body order is the plan order
  CancelSource source;
  source.RequestCancel();
  RunContext ctx;
  ctx.cancel = source.token();
  for (const char* text : {"H(x) :- A(x, _), B(y), C(x, y).", "H(x) :- A(x, y), D(y, _)."}) {
    SCOPED_TRACE(text);
    ASSERT_OK_AND_ASSIGN(Program p, Program::Parse(text));
    ASSERT_OK_AND_ASSIGN(FactDatabase out, DatalogEngine(opts).EvalAutoSignatures(p, db, &ctx));
    EXPECT_EQ(RowsOf(*out.Find("H").ValueOrDie()), Rows({{Value::Int(1)}}));
  }
  // The control: B binding a head variable is enumerated in full, and the
  // cancelled token is seen.
  ASSERT_OK_AND_ASSIGN(Program full, Program::Parse("H(x, y) :- A(x, _), B(y), C(x, _)."));
  auto cancelled = DatalogEngine(opts).EvalAutoSignatures(full, db, &ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dynamite
