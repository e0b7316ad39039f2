// Finite-domain constraint layer over the CDCL SAT core.
//
// This is the fragment of SMT that sketch completion needs (§4.3): integer
// variables over explicit finite domains with boolean combinations of
// `x = c` (variable equals domain constant) and `x = y` (two variables
// equal). Variables are one-hot encoded (one boolean per domain value with
// an exactly-one constraint); `x = y` literals are cached per variable pair.
//
// Literal tables are flat. Each variable keeps its domain sorted by value
// (binary search finds the selector of `x = c`), and the `x = y` literal
// of a pair lives in the higher-numbered variable's row, indexed by the
// lower-numbered one. An `x = y` literal is created on first use, with one
// pair literal per shared domain value in ascending value order; that
// order, and so the SAT variable numbering, does not depend on how either
// domain was listed or on the order in which pairs are first asked for.
//
// Formulas become CNF in two ways. The connectives at the root of an
// asserted formula are clausified directly: an `And` asserts each child, an
// `Or` (or a negated `And`) is one clause over its children's literals, a
// negated `Or` is one unit clause per child. Only subformulas nested below
// those are Tseitin-lowered, to a literal with defining clauses. Blocking
// clauses (one per failed candidate in sketch completion) skip formula
// trees altogether: they are built as `FdClause`s of atom literals and
// handed to AddClause.
//
// Literal-level gates build a formula of known shape with no tree at all:
// Literal gives an atom's SAT literal, TrueLit the constant, DefineAnd and
// DefineOr a fresh literal defined over given literals, and AddRootClause
// asserts a root `Or`. Each allocates the variables and adds the clauses
// that lowering the equivalent `And`/`Or` would, in the same order (Lower
// itself runs on the same gates), so a formula emitted gate by gate in
// lowering order gives exactly AddConstraint's CNF. The symmetry-breaking
// lex-leq of src/synth/encode.cc is built this way. Only tests and
// EncodeSketch's head-coverage and connector constraints still build
// FdExpr trees.
//
// The reserved-variable rule: wherever Tseitin lowering of a root
// connective would define a fresh variable, root clausification allocates
// one at the same point and fixes it false. No clause mentions it, but it
// still enters the SAT core's VSIDS heap, which breaks activity ties by
// heap position. The search, and so every synthesized program (pinned in
// tests/benchmarks_test.cc), depends on the variable numbering; the rule
// keeps the numbering of plain Tseitin lowering, while the definition
// clauses, which can no longer propagate once the root is asserted, are
// never stored.

#ifndef DYNAMITE_SOLVER_FD_H_
#define DYNAMITE_SOLVER_FD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "solver/sat.h"
#include "util/result.h"

namespace dynamite {

/// Handle to a finite-domain variable.
struct FdVar {
  int index = -1;
  bool operator==(const FdVar& o) const { return index == o.index; }
  bool operator<(const FdVar& o) const { return index < o.index; }
};

/// A boolean formula over finite-domain atoms.
class FdExpr {
 public:
  enum class Kind : uint8_t {
    kTrue,
    kFalse,
    kVarEqConst,  ///< x = c
    kVarEqVar,    ///< x = y
    kNot,
    kAnd,
    kOr,
  };

  static FdExpr True();
  static FdExpr False();
  static FdExpr Eq(FdVar x, int64_t c);
  static FdExpr EqVar(FdVar x, FdVar y);
  static FdExpr Not(FdExpr e);
  static FdExpr And(std::vector<FdExpr> children);
  static FdExpr Or(std::vector<FdExpr> children);

  Kind kind() const { return kind_; }
  FdVar lhs() const { return lhs_; }
  FdVar rhs_var() const { return rhs_var_; }
  int64_t rhs_const() const { return rhs_const_; }
  const std::vector<FdExpr>& children() const { return children_; }

  /// Pretty textual rendering (for diagnostics and tests).
  std::string ToString() const;

 private:
  Kind kind_ = Kind::kTrue;
  FdVar lhs_;
  FdVar rhs_var_;
  int64_t rhs_const_ = 0;
  std::vector<FdExpr> children_;
};

/// An atom `x = c` or `x = y`, or its negation: the literal type of the
/// clauses handed to FdSolver::AddClause.
struct FdLit {
  FdVar lhs;
  FdVar rhs_var;  ///< index < 0: the atom is `lhs = rhs_const`
  int64_t rhs_const = 0;
  bool negated = false;

  static FdLit Eq(FdVar x, int64_t c) { return FdLit{x, FdVar{}, c, false}; }
  static FdLit EqVar(FdVar x, FdVar y) { return FdLit{x, y, 0, false}; }
  FdLit operator!() const { return FdLit{lhs, rhs_var, rhs_const, !negated}; }
};

/// A disjunction of literals.
using FdClause = std::vector<FdLit>;

/// The clause ¬(l1 ∧ … ∧ ln) = (¬l1 ∨ … ∨ ¬ln), which blocks every model of
/// the conjunction `conjunction`. Negates in place; no per-literal
/// allocation.
FdClause BlockingClause(std::vector<FdLit> conjunction);

/// Incremental finite-domain solver.
///
/// Usage:
///   FdSolver s;
///   FdVar x = s.NewVar({1, 2, 3});
///   s.AddConstraint(FdExpr::Or({FdExpr::Eq(x, 1), FdExpr::Eq(x, 3)}));
///   if (*s.Solve()) { int64_t v = s.ModelValue(x); ... }
/// Constraints may be added between Solve() calls (sketch completion adds a
/// blocking clause per iteration).
class FdSolver {
 public:
  FdSolver() = default;
  FdSolver(FdSolver&&) = default;
  FdSolver& operator=(FdSolver&&) = default;

  /// Deep copy of the solver's entire state: variables, the x = y literal
  /// table, and the SAT core including learnt clauses, activities, and
  /// saved phases. The clone solves independently of the original, and —
  /// because the solver is deterministic — an identical sequence of
  /// AddConstraint/Solve calls on both produces the identical model
  /// sequence. This is what the synthesis portfolio's speculative scout
  /// relies on (src/synth/synthesizer.cc): the scout predicts the models
  /// the canonical enumeration will visit next.
  FdSolver Clone() const { return FdSolver(*this); }

  /// Creates a variable over the given (distinct, non-empty) domain values.
  FdVar NewVar(std::vector<int64_t> domain);

  size_t NumVars() const { return vars_.size(); }
  const std::vector<int64_t>& DomainOf(FdVar v) const {
    return vars_[static_cast<size_t>(v.index)].domain;
  }

  /// Asserts a formula (conjoined with everything added so far). Root
  /// connectives become clauses directly; nested ones are Tseitin-lowered
  /// (see the file comment, including the reserved-variable rule).
  Status AddConstraint(const FdExpr& e);

  /// Asserts one clause: the same stored clause and variable numbering as
  /// AddConstraint of the `Or` of its literals, without building the
  /// formula.
  Status AddClause(const FdClause& clause);

  /// Asserts a conjunction of clauses, as AddConstraint of the equivalent
  /// `And` of clauses would.
  Status AddClauses(const std::vector<FdClause>& clauses);

  // Literal-level gates (see the file comment).

  /// The SAT literal of an atom literal (as Tseitin lowering of the atom).
  Result<sat::Lit> Literal(const FdLit& l);

  /// A literal fixed to true, created on first use (lowering of `True`;
  /// its negation is lowering of `False`).
  sat::Lit TrueLit();

  /// A fresh literal p defined as p <-> (l1 ∧ … ∧ ln) over the `count`
  /// literals at `lits`: lowering of an `And` whose children lowered to
  /// them (count >= 2).
  sat::Lit DefineAnd(const sat::Lit* lits, size_t count);

  /// A fresh literal p defined as p <-> (l1 ∨ … ∨ ln): lowering of an `Or`
  /// whose children lowered to the `count` literals at `lits` (count >= 2).
  sat::Lit DefineOr(const sat::Lit* lits, size_t count);

  /// Asserts the `count` literals at `lits` as one clause, as AddConstraint
  /// of an `Or` whose children lowered to them would (the reserved-variable
  /// rule included).
  void AddRootClause(const sat::Lit* lits, size_t count);

  /// Suggests a preferred value for `v` (search heuristic only — does not
  /// constrain the formula). No-op if `value` is outside the domain.
  void Suggest(FdVar v, int64_t value);

  /// True = satisfiable (model available), false = unsatisfiable.
  Result<bool> Solve();

  /// Value of `v` in the current model; valid after Solve() returned true.
  int64_t ModelValue(FdVar v) const;

  /// Statistics from the underlying SAT solver.
  int64_t num_conflicts() const { return sat_.num_conflicts(); }
  size_t num_clauses() const { return sat_.NumClauses(); }
  int num_bool_vars() const { return sat_.NumVars(); }

 private:
  /// Copying is exposed only through Clone(): an accidental pass-by-value
  /// of a solver with thousands of learnt clauses would be an expensive
  /// silent bug.
  FdSolver(const FdSolver&) = default;
  FdSolver& operator=(const FdSolver&) = default;

  struct VarInfo {
    std::vector<int64_t> domain;
    /// One-hot booleans, one per domain value: domain[i]'s selector is the
    /// SAT variable first_selector + i.
    sat::Var first_selector = 0;
    /// (value, domain position) pairs in ascending value order.
    std::vector<std::pair<int64_t, int>> by_value;
    /// `x = y` literals for each lower-numbered variable y, indexed by
    /// y's index; Lit{-2} where the pair has no literal yet.
    std::vector<sat::Lit> eq_row;
  };

  /// Position of `value` in `info`'s domain, or -1.
  static int PositionOf(const VarInfo& info, int64_t value);

  /// Lowers `e` to a literal, adding defining clauses (Tseitin). Used only
  /// below the root connectives of an asserted formula.
  Result<sat::Lit> Lower(const FdExpr& e);

  /// Allocates the variable Tseitin lowering of a root connective would
  /// have defined at this point, fixed false (the reserved-variable rule).
  void ReserveDefinitionVar();

  /// Literal for `x = c`; kFalseLit when c is outside x's domain.
  Result<sat::Lit> EqConstLit(FdVar x, int64_t c);

  /// Cached literal for `x = y`.
  Result<sat::Lit> EqVarLit(FdVar x, FdVar y);

  std::vector<VarInfo> vars_;
  sat::SatSolver sat_;
  sat::Lit true_lit_{-2};
  /// Scratch for the one long clause of each gate definition.
  std::vector<sat::Lit> gate_clause_;
};

}  // namespace dynamite

#endif  // DYNAMITE_SOLVER_FD_H_
