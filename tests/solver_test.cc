// Unit and property tests for the CDCL SAT solver and the finite-domain
// layer (the Z3 substrate).

#include <gtest/gtest.h>

#include <bitset>
#include <set>

#include "solver/fd.h"
#include "solver/sat.h"
#include "synth/analyze.h"
#include "synth/attr_map.h"
#include "synth/encode.h"
#include "synth/sketch_gen.h"
#include "testing.h"
#include "util/rng.h"

namespace dynamite {
namespace {

using sat::Lit;
using sat::MkLit;
using sat::SatSolver;
using sat::Var;

TEST(Sat, TrivialSat) {
  SatSolver s;
  Var a = s.NewVar();
  s.AddClause({MkLit(a)});
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(Sat, TrivialUnsat) {
  SatSolver s;
  Var a = s.NewVar();
  EXPECT_TRUE(s.AddClause({MkLit(a)}));
  EXPECT_FALSE(s.AddClause({MkLit(a, true)}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  SatSolver s;
  EXPECT_FALSE(s.AddClause({}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, TautologyIgnored) {
  SatSolver s;
  Var a = s.NewVar();
  EXPECT_TRUE(s.AddClause({MkLit(a), MkLit(a, true)}));
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kSat);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // php(3,2): 3 pigeons, 2 holes — classic small UNSAT instance requiring
  // actual search.
  SatSolver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& v : row) v = s.NewVar();
  }
  for (int i = 0; i < 3; ++i) {
    s.AddClause({MkLit(p[i][0]), MkLit(p[i][1])});
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.AddClause({MkLit(p[i][h], true), MkLit(p[j][h], true)});
      }
    }
  }
  EXPECT_EQ(s.Solve(), SatSolver::Outcome::kUnsat);
}

TEST(Sat, IncrementalBlockingClauses) {
  // Enumerate all 8 models of 3 free variables by blocking each.
  SatSolver s;
  Var v[3] = {s.NewVar(), s.NewVar(), s.NewVar()};
  s.AddClause({MkLit(v[0]), MkLit(v[0], true)});  // touch solver
  int models = 0;
  while (s.Solve() == SatSolver::Outcome::kSat && models < 20) {
    ++models;
    std::vector<Lit> block;
    for (Var x : v) block.push_back(MkLit(x, s.ModelValue(x)));
    if (!s.AddClause(block)) break;
  }
  EXPECT_EQ(models, 8);
}

/// Reference brute-force SAT check for property testing.
bool BruteForceSat(int num_vars, const std::vector<std::vector<Lit>>& clauses) {
  for (uint32_t assignment = 0; assignment < (1u << num_vars); ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit l : clause) {
        bool val = ((assignment >> sat::VarOf(l)) & 1) != 0;
        if (sat::SignOf(l)) val = !val;
        if (val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

// Property test: CDCL agrees with brute force on random 3-CNF.
class SatRandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomCnf, AgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int num_vars = 8;
  const int num_clauses = 3 + static_cast<int>(rng.NextBelow(40));
  SatSolver solver;
  for (int i = 0; i < num_vars; ++i) solver.NewVar();
  std::vector<std::vector<Lit>> clauses;
  bool trivially_unsat = false;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    int width = 1 + static_cast<int>(rng.NextBelow(3));
    for (int k = 0; k < width; ++k) {
      clause.push_back(MkLit(static_cast<Var>(rng.NextBelow(num_vars)), rng.NextBool()));
    }
    clauses.push_back(clause);
    if (!solver.AddClause(clause)) trivially_unsat = true;
  }
  bool expected = BruteForceSat(num_vars, clauses);
  if (trivially_unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  SatSolver::Outcome outcome = solver.Solve();
  EXPECT_EQ(outcome == SatSolver::Outcome::kSat, expected);
  if (outcome == SatSolver::Outcome::kSat) {
    // The returned model must actually satisfy every clause.
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit l : clause) {
        if (solver.ModelValue(sat::VarOf(l)) != sat::SignOf(l)) any = true;
      }
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCnf, ::testing::Range(0, 50));

TEST(Fd, DomainRespected) {
  FdSolver s;
  FdVar x = s.NewVar({3, 5, 9});
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  int64_t v = s.ModelValue(x);
  EXPECT_TRUE(v == 3 || v == 5 || v == 9);
}

TEST(Fd, EqConstraintPinsValue) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2, 3});
  ASSERT_OK(s.AddConstraint(FdExpr::Eq(x, 2)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_EQ(s.ModelValue(x), 2);
}

TEST(Fd, EqOutOfDomainIsFalse) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2});
  ASSERT_OK(s.AddConstraint(FdExpr::Eq(x, 99)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  EXPECT_FALSE(sat1);
}

TEST(Fd, VarEqVarSharedDomain) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2, 3});
  FdVar y = s.NewVar({2, 3, 4});
  ASSERT_OK(s.AddConstraint(FdExpr::EqVar(x, y)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_EQ(s.ModelValue(x), s.ModelValue(y));
}

TEST(Fd, VarEqVarDisjointDomainsUnsat) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2});
  FdVar y = s.NewVar({3, 4});
  ASSERT_OK(s.AddConstraint(FdExpr::EqVar(x, y)));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  EXPECT_FALSE(sat1);
}

TEST(Fd, NotEqVar) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2});
  FdVar y = s.NewVar({1, 2});
  ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::EqVar(x, y))));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  EXPECT_NE(s.ModelValue(x), s.ModelValue(y));
}

TEST(Fd, BlockingClauseEnumeration) {
  // Enumerate all 6 models of two independent vars by blocking.
  FdSolver s;
  FdVar x = s.NewVar({1, 2});
  FdVar y = s.NewVar({1, 2, 3});
  int models = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
    if (!sat1) break;
    ++models;
    ASSERT_LE(models, 10);
    ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::And(
        {FdExpr::Eq(x, s.ModelValue(x)), FdExpr::Eq(y, s.ModelValue(y))}))));
  }
  EXPECT_EQ(models, 6);
}

TEST(Fd, ComplexNestedFormula) {
  FdSolver s;
  FdVar x = s.NewVar({1, 2, 3});
  FdVar y = s.NewVar({1, 2, 3});
  // (x=1 | x=2) & !(x=y) & (y=1 | y=3)
  ASSERT_OK(s.AddConstraint(
      FdExpr::And({FdExpr::Or({FdExpr::Eq(x, 1), FdExpr::Eq(x, 2)}),
                   FdExpr::Not(FdExpr::EqVar(x, y)),
                   FdExpr::Or({FdExpr::Eq(y, 1), FdExpr::Eq(y, 3)})})));
  ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
  ASSERT_TRUE(sat1);
  int64_t xv = s.ModelValue(x), yv = s.ModelValue(y);
  EXPECT_TRUE(xv == 1 || xv == 2);
  EXPECT_TRUE(yv == 1 || yv == 3);
  EXPECT_NE(xv, yv);
}

// Property test: the FD layer agrees with explicit enumeration on random
// equality formulas.
class FdRandomFormula : public ::testing::TestWithParam<int> {};

TEST_P(FdRandomFormula, ModelCountMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const int num_vars = 3;
  const int domain_size = 3;
  FdSolver s;
  std::vector<FdVar> vars;
  for (int i = 0; i < num_vars; ++i) {
    s.NewVar({0, 1, 2});
    vars.push_back(FdVar{i});
  }
  // Random constraint: conjunction of 3 random (dis)equalities.
  struct Constraint {
    int a, b;
    bool eq;
    bool against_const;
    int64_t c;
  };
  std::vector<Constraint> constraints;
  std::vector<FdExpr> exprs;
  for (int k = 0; k < 3; ++k) {
    Constraint con;
    con.a = static_cast<int>(rng.NextBelow(num_vars));
    con.b = static_cast<int>(rng.NextBelow(num_vars));
    con.eq = rng.NextBool();
    con.against_const = rng.NextBool();
    con.c = static_cast<int64_t>(rng.NextBelow(domain_size));
    constraints.push_back(con);
    FdExpr base = con.against_const ? FdExpr::Eq(vars[static_cast<size_t>(con.a)], con.c)
                                    : FdExpr::EqVar(vars[static_cast<size_t>(con.a)],
                                                    vars[static_cast<size_t>(con.b)]);
    exprs.push_back(con.eq ? base : FdExpr::Not(base));
  }
  ASSERT_OK(s.AddConstraint(FdExpr::And(exprs)));

  // Count models by blocking; compare against explicit enumeration.
  int solver_models = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
    if (!sat1) break;
    ++solver_models;
    ASSERT_LE(solver_models, 27);
    std::vector<FdExpr> eqs;
    for (int i = 0; i < num_vars; ++i) {
      eqs.push_back(FdExpr::Eq(vars[static_cast<size_t>(i)],
                               s.ModelValue(vars[static_cast<size_t>(i)])));
    }
    ASSERT_OK(s.AddConstraint(FdExpr::Not(FdExpr::And(eqs))));
  }
  int expected = 0;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) {
        int val[3] = {a, b, c};
        bool ok = true;
        for (const Constraint& con : constraints) {
          bool holds = con.against_const ? (val[con.a] == con.c)
                                         : (val[con.a] == val[con.b]);
          if (holds != con.eq) {
            ok = false;
            break;
          }
        }
        if (ok) ++expected;
      }
    }
  }
  EXPECT_EQ(solver_models, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdRandomFormula, ::testing::Range(0, 30));

// --- Root clausification and literal-built blocking clauses ---------------

FdExpr AtomExpr(const FdLit& l) {
  FdExpr atom = l.rhs_var.index >= 0 ? FdExpr::EqVar(l.lhs, l.rhs_var)
                                     : FdExpr::Eq(l.lhs, l.rhs_const);
  return l.negated ? FdExpr::Not(std::move(atom)) : atom;
}

/// The formula a clause stands for: the Or of its literals.
FdExpr ClauseExpr(const FdClause& clause) {
  std::vector<FdExpr> lits;
  for (const FdLit& l : clause) lits.push_back(AtomExpr(l));
  return FdExpr::Or(std::move(lits));
}

FdExpr ClausesExpr(const std::vector<FdClause>& clauses) {
  std::vector<FdExpr> conj;
  for (const FdClause& c : clauses) conj.push_back(ClauseExpr(c));
  return FdExpr::And(std::move(conj));
}

/// Boolean variables Tseitin lowering allocates for `e` on a clone of `s`,
/// which root clausification must match variable for variable: `e` is
/// asserted below a root Or, where it is lowered whole. The wrapper's own
/// reserved variable is subtracted; its False child reuses the solver's
/// true literal, which `s` must already have.
int TseitinVars(const FdSolver& s, const FdExpr& e) {
  FdSolver ref = s.Clone();
  const int before = ref.num_bool_vars();
  EXPECT_TRUE(ref.AddConstraint(FdExpr::Or({e, FdExpr::False()})).ok());
  return ref.num_bool_vars() - before - 1;
}

/// The motivating example's Admission sketch, encoded, with the true
/// literal allocated and one model solved.
struct BlockingSetup {
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  RuleSketch sketch;
  FdSolver solver;
  SketchEncoding encoding;
  SketchModel model;

  BlockingSetup() {
    Example example = testing::MotivatingExample();
    AttributeMapping psi = InferAttrMapping(src, tgt, example).ValueOrDie();
    sketch = GenRuleSketch(psi, src, tgt, "Admission", {}).ValueOrDie();
    encoding = EncodeSketch(sketch, &solver).ValueOrDie();
    EXPECT_TRUE(solver.AddConstraint(FdExpr::True()).ok());
    NextModel();
  }

  void NextModel() {
    ASSERT_TRUE(solver.Solve().ValueOrDie());
    model = ExtractModel(encoding, solver);
  }

  std::vector<FdLit> GeneralizeAll() const {
    return Generalize(sketch, encoding, model, {"grad", "ug", "num"});
  }
};

TEST(FdRootClauses, ModelEqualityBlockingIsOneClause) {
  BlockingSetup s;
  ASSERT_GE(s.encoding.hole_vars.size(), 2u);
  FdClause clause = BlockingClause(ModelEquality(s.encoding, s.model));
  const size_t clauses = s.solver.num_clauses();
  const int vars = s.solver.num_bool_vars();
  const int tseitin = TseitinVars(s.solver, ClauseExpr(clause));
  ASSERT_OK(s.solver.AddClause(clause));
  EXPECT_EQ(s.solver.num_clauses(), clauses + 1);
  EXPECT_EQ(s.solver.num_bool_vars() - vars, tseitin);
  EXPECT_EQ(tseitin, 1);  // selectors exist: only the reserved variable
}

TEST(FdRootClauses, GeneralizeBlockingIsOneClause) {
  BlockingSetup s;
  // The first Generalize clause also defines the x = y literals of every
  // unknown pair; the numbering must match Tseitin lowering exactly.
  FdClause first = BlockingClause(s.GeneralizeAll());
  const int vars = s.solver.num_bool_vars();
  const int tseitin = TseitinVars(s.solver, ClauseExpr(first));
  ASSERT_OK(s.solver.AddClause(first));
  EXPECT_EQ(s.solver.num_bool_vars() - vars, tseitin);
  EXPECT_GT(tseitin, 1);

  // Later ones reuse the cached x = y literals: one stored clause and one
  // reserved variable each, where Tseitin kept one definition clause per
  // atom besides.
  s.NextModel();
  FdClause second = BlockingClause(s.GeneralizeAll());
  const size_t clauses = s.solver.num_clauses();
  const int vars2 = s.solver.num_bool_vars();
  ASSERT_OK(s.solver.AddClause(second));
  EXPECT_EQ(s.solver.num_clauses(), clauses + 1);
  EXPECT_EQ(s.solver.num_bool_vars(), vars2 + 1);
}

TEST(FdRootClauses, AnalyzeBlockingIsOneClausePerMdp) {
  BlockingSetup s;
  const std::vector<std::vector<std::string>> mdps = {{"num"}, {"grad", "ug"}};
  std::vector<FdClause> first = AnalyzeBlocking(s.sketch, s.encoding, s.model, mdps);
  ASSERT_EQ(first.size(), 2u);
  const int vars = s.solver.num_bool_vars();
  const int tseitin = TseitinVars(s.solver, ClausesExpr(first));
  ASSERT_OK(s.solver.AddClauses(first));
  EXPECT_EQ(s.solver.num_bool_vars() - vars, tseitin);

  s.NextModel();
  std::vector<FdClause> second = AnalyzeBlocking(s.sketch, s.encoding, s.model, mdps);
  const size_t clauses = s.solver.num_clauses();
  const int vars2 = s.solver.num_bool_vars();
  ASSERT_OK(s.solver.AddClauses(second));
  EXPECT_EQ(s.solver.num_clauses(), clauses + 2);
  // One reserved variable per clause, one for the conjunction.
  EXPECT_EQ(s.solver.num_bool_vars(), vars2 + 3);
}

/// A random formula over `vars`: atoms compare against constants in and
/// out of the domains, and a variable may be compared with itself.
FdExpr RandomFormula(Rng* rng, const std::vector<FdVar>& vars, int depth) {
  const uint64_t pick = rng->NextBelow(depth > 0 ? 10 : 5);
  FdVar x = vars[rng->NextBelow(vars.size())];
  if (pick == 0) return rng->NextBool() ? FdExpr::True() : FdExpr::False();
  if (pick <= 2) return FdExpr::Eq(x, static_cast<int64_t>(rng->NextBelow(6)));
  if (pick <= 4) return FdExpr::EqVar(x, vars[rng->NextBelow(vars.size())]);
  if (pick <= 5) return FdExpr::Not(RandomFormula(rng, vars, depth - 1));
  std::vector<FdExpr> children;
  const uint64_t n = 2 + rng->NextBelow(2);
  for (uint64_t i = 0; i < n; ++i) children.push_back(RandomFormula(rng, vars, depth - 1));
  return pick <= 7 ? FdExpr::And(std::move(children)) : FdExpr::Or(std::move(children));
}

/// A random formula whose root has the given shape: 0 And, 1 Or, 2 Not(And),
/// 3 Not(Or), 4 Not(Not(·)), 5 anything.
FdExpr RandomRoot(Rng* rng, const std::vector<FdVar>& vars, uint64_t shape) {
  if (shape == 5) return RandomFormula(rng, vars, 3);
  if (shape == 4) return FdExpr::Not(FdExpr::Not(RandomRoot(rng, vars, rng->NextBelow(4))));
  std::vector<FdExpr> children;
  const uint64_t n = 2 + rng->NextBelow(3);
  for (uint64_t i = 0; i < n; ++i) children.push_back(RandomFormula(rng, vars, 2));
  FdExpr e = shape % 2 == 0 ? FdExpr::And(std::move(children)) : FdExpr::Or(std::move(children));
  return shape >= 2 ? FdExpr::Not(std::move(e)) : e;
}

bool Holds(const FdExpr& e, const std::vector<int64_t>& val) {
  switch (e.kind()) {
    case FdExpr::Kind::kTrue:
      return true;
    case FdExpr::Kind::kFalse:
      return false;
    case FdExpr::Kind::kVarEqConst:
      return val[static_cast<size_t>(e.lhs().index)] == e.rhs_const();
    case FdExpr::Kind::kVarEqVar:
      return val[static_cast<size_t>(e.lhs().index)] ==
             val[static_cast<size_t>(e.rhs_var().index)];
    case FdExpr::Kind::kNot:
      return !Holds(e.children()[0], val);
    case FdExpr::Kind::kAnd:
      for (const FdExpr& c : e.children()) {
        if (!Holds(c, val)) return false;
      }
      return true;
    case FdExpr::Kind::kOr:
      for (const FdExpr& c : e.children()) {
        if (Holds(c, val)) return true;
      }
      return false;
  }
  return false;
}

// Property test: root clausification keeps the model set and the Tseitin
// variable numbering of every formula shape, and literal-built blocking
// clauses enumerate exactly the brute-force models.
TEST(FdRootClauses, RandomRootShapesMatchBruteForce) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 3);
    FdSolver s;
    std::vector<FdVar> vars;
    std::vector<std::vector<int64_t>> domains;
    const size_t num_vars = 3 + rng.NextBelow(2);
    for (size_t i = 0; i < num_vars; ++i) {
      std::vector<int64_t> domain;
      const uint64_t size = 1 + rng.NextBelow(4);
      for (int64_t v = 0; v < 6 && domain.size() < size; ++v) {
        if (rng.NextBool(0.6)) domain.push_back(v);
      }
      if (domain.empty()) domain.push_back(static_cast<int64_t>(rng.NextBelow(6)));
      vars.push_back(s.NewVar(domain));
      domains.push_back(std::move(domain));
    }
    ASSERT_OK(s.AddConstraint(FdExpr::True()));  // see TseitinVars
    std::vector<FdExpr> asserted;
    for (uint64_t k = 0, n = 1 + rng.NextBelow(2); k < n; ++k) {
      asserted.push_back(RandomRoot(&rng, vars, rng.NextBelow(6)));
      const int vars_before = s.num_bool_vars();
      const int tseitin = TseitinVars(s, asserted.back());
      ASSERT_OK(s.AddConstraint(asserted.back()));
      EXPECT_EQ(s.num_bool_vars() - vars_before, tseitin) << asserted.back().ToString();
    }

    std::set<std::vector<int64_t>> expected;
    std::vector<int64_t> val(num_vars);
    std::vector<size_t> digit(num_vars, 0);
    for (;;) {
      for (size_t i = 0; i < num_vars; ++i) val[i] = domains[i][digit[i]];
      bool ok = true;
      for (const FdExpr& e : asserted) ok = ok && Holds(e, val);
      if (ok) expected.insert(val);
      size_t i = 0;
      while (i < num_vars && ++digit[i] == domains[i].size()) digit[i++] = 0;
      if (i == num_vars) break;
    }

    std::set<std::vector<int64_t>> found;
    for (;;) {
      ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
      if (!sat1) break;
      std::vector<FdLit> eqs;
      for (size_t i = 0; i < num_vars; ++i) {
        val[i] = s.ModelValue(vars[i]);
        eqs.push_back(FdLit::Eq(vars[i], val[i]));
      }
      ASSERT_TRUE(found.insert(val).second) << "model repeated";
      ASSERT_LE(found.size(), 256u);
      ASSERT_OK(s.AddClause(BlockingClause(std::move(eqs))));
    }
    EXPECT_EQ(found, expected);
  }
}


/// Every variable pinned to its value in `val`.
std::vector<FdLit> ModelPin(const std::vector<FdVar>& vars, const std::vector<int64_t>& val) {
  std::vector<FdLit> pins;
  for (size_t i = 0; i < vars.size(); ++i) pins.push_back(FdLit::Eq(vars[i], val[i]));
  return pins;
}

// Trajectory pins. Sketch completion's results depend on the exact model
// sequence the solver visits, not only on the model set: clause storage,
// literal numbering and propagation order all steer it. These digests were
// captured from the solver as it stood before its clause arena and flat
// literal tables, over enumerations that run far outside the Table 3
// benchmarks; any change to the search shows up here.

uint64_t Fold(uint64_t digest, uint64_t x) {
  return (digest ^ x) * 1099511628211ULL;  // FNV-1a step over 64-bit words
}

TEST(SolverTrajectory, RandomCnfEnumerationIsPinned) {
  uint64_t digest = 1469598103934665603ULL;
  int64_t conflicts = 0, decisions = 0, propagations = 0;
  uint64_t models = 0, clauses = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 104729 + 17);
    SatSolver s;
    const int n = 20 + static_cast<int>(rng.NextBelow(10));
    for (int i = 0; i < n; ++i) {
      s.NewVar();
      if (rng.NextBool(0.3)) s.SetPhase(i, true);
    }
    // Near the 3-SAT phase transition (ratio ~4.26): real conflicts, and
    // still hundreds of models over the projection.
    const int m = static_cast<int>(n * (3.0 + 1.2 * rng.NextDouble()));
    bool unsat = false;
    for (int c = 0; c < m && !unsat; ++c) {
      std::vector<Lit> clause;
      const int width = rng.NextBool(0.7) ? 3 : 4;
      for (int k = 0; k < width; ++k) {
        clause.push_back(MkLit(static_cast<Var>(rng.NextBelow(static_cast<uint64_t>(n))),
                               rng.NextBool()));
      }
      unsat = !s.AddClause(clause);
    }
    const int projected = 8 + static_cast<int>(rng.NextBelow(3));
    while (!unsat && s.Solve() == SatSolver::Outcome::kSat) {
      uint64_t bits = 0;
      std::vector<Lit> block;
      for (int v = 0; v < n; ++v) {
        if (s.ModelValue(v)) bits |= uint64_t{1} << v;
        if (v < projected) block.push_back(MkLit(v, s.ModelValue(v)));
      }
      digest = Fold(digest, bits);
      ++models;
      ASSERT_LT(models, 100000u);
      unsat = !s.AddClause(block);
    }
    digest = Fold(digest, 0xfeedULL + seed);
    conflicts += s.num_conflicts();
    decisions += s.num_decisions();
    propagations += s.num_propagations();
    clauses += s.NumClauses();
  }
  EXPECT_EQ(digest, 6374540215820548257ULL);
  EXPECT_EQ(models, 3776u);
  EXPECT_EQ(conflicts, 3464);
  EXPECT_EQ(decisions, 36018);
  EXPECT_EQ(propagations, 111824);
  EXPECT_EQ(clauses, 11033u);
}

TEST(SolverTrajectory, FdEqualityBlockingEnumerationIsPinned) {
  static const int64_t kPool[] = {-7, 0, 2, 3, 5, 11, 40, 1000003, -123456789, 6};
  uint64_t digest = 1469598103934665603ULL;
  int64_t conflicts = 0;
  uint64_t models = 0, clauses = 0, bool_vars = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 7727 + 5);
    FdSolver s;
    std::vector<FdVar> vars;
    const size_t num_vars = 4 + rng.NextBelow(4);
    for (size_t i = 0; i < num_vars; ++i) {
      std::vector<int64_t> domain(std::begin(kPool), std::end(kPool));
      rng.Shuffle(&domain);
      domain.resize(2 + rng.NextBelow(4));
      vars.push_back(s.NewVar(domain));
      if (rng.NextBool()) s.Suggest(vars.back(), domain[rng.NextBelow(domain.size())]);
    }
    for (uint64_t k = 0, n = 1 + rng.NextBelow(3); k < n; ++k) {
      ASSERT_OK(s.AddConstraint(RandomRoot(&rng, vars, rng.NextBelow(6))));
    }
    for (;;) {
      ASSERT_OK_AND_ASSIGN(bool sat1, s.Solve());
      if (!sat1) break;
      std::vector<int64_t> val(num_vars);
      for (size_t i = 0; i < num_vars; ++i) {
        val[i] = s.ModelValue(vars[i]);
        digest = Fold(digest, static_cast<uint64_t>(val[i]));
      }
      ++models;
      ASSERT_LT(models, 100000u);
      // The shape of Generalize: the pairwise equality pattern of the
      // model, plus a pin of one variable. Pairs are visited in a seeded
      // order, so x = y literals are created in varying orders.
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t i = 0; i < num_vars; ++i) {
        for (size_t j = i + 1; j < num_vars; ++j) pairs.push_back({i, j});
      }
      rng.Shuffle(&pairs);
      std::vector<FdLit> conj;
      for (const auto& [i, j] : pairs) {
        FdLit eq = rng.NextBool() ? FdLit::EqVar(vars[i], vars[j]) : FdLit::EqVar(vars[j], vars[i]);
        conj.push_back(val[i] == val[j] ? eq : !eq);
      }
      const size_t pinned = rng.NextBelow(num_vars);
      conj.push_back(FdLit::Eq(vars[pinned], val[pinned]));
      if (rng.NextBool(0.3)) {
        std::vector<FdClause> blocks = {BlockingClause(conj),
                                        BlockingClause(ModelPin(vars, val))};
        ASSERT_OK(s.AddClauses(blocks));
      } else {
        ASSERT_OK(s.AddClause(BlockingClause(std::move(conj))));
      }
    }
    digest = Fold(digest, 0xbeefULL + seed);
    conflicts += s.num_conflicts();
    clauses += s.num_clauses();
    bool_vars += static_cast<uint64_t>(s.num_bool_vars());
  }
  EXPECT_EQ(digest, 10551581430906829578ULL);
  EXPECT_EQ(models, 1492u);
  EXPECT_EQ(conflicts, 1174);
  EXPECT_EQ(clauses, 6109u);
  EXPECT_EQ(bool_vars, 4388u);
}

}  // namespace
}  // namespace dynamite
