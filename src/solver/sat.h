// A CDCL (conflict-driven clause learning) SAT solver.
//
// This is the propositional core of the SMT substrate (the paper uses Z3;
// every sketch hole has a finite domain, so the finite-domain encoding of
// src/solver/fd.h over CDCL decides the same formulas). Features: two-watched-literal propagation, first-UIP
// clause learning, VSIDS-style activity, phase saving, and Luby restarts.
// The solver is incremental in the way sketch completion needs: clauses
// (blocking clauses) may be added between Solve() calls. There is no
// clause-database reduction: original and learnt clauses alike live as
// long as the solver.
//
// Clause storage is one append-only literal arena (the MiniSat layout): a
// clause is a size header followed by its literals, and a clause reference
// is the offset of its header. AddClause normalizes the new clause in place
// at the arena's tail, so adding a clause allocates nothing beyond amortized
// arena growth. An append may move the arena: no pointer into it is held
// across one (clause references are offsets for that reason).

#ifndef DYNAMITE_SOLVER_SAT_H_
#define DYNAMITE_SOLVER_SAT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace dynamite {
namespace sat {

/// Boolean variable index (0-based).
using Var = int;

/// A literal: variable + sign, encoded as 2*var + (negated ? 1 : 0).
struct Lit {
  int x = -2;

  bool operator==(const Lit& o) const { return x == o.x; }
  bool operator!=(const Lit& o) const { return x != o.x; }
  bool operator<(const Lit& o) const { return x < o.x; }
};

inline Lit MkLit(Var v, bool negated = false) { return Lit{v * 2 + (negated ? 1 : 0)}; }
inline Lit Negate(Lit l) { return Lit{l.x ^ 1}; }
inline Var VarOf(Lit l) { return l.x >> 1; }
inline bool SignOf(Lit l) { return (l.x & 1) != 0; }

/// Ternary truth value.
enum class LBool : uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

inline LBool Flip(LBool b, bool flip) {
  if (b == LBool::kUndef) return b;
  return (b == LBool::kTrue) == !flip ? LBool::kTrue : LBool::kFalse;
}

/// CDCL SAT solver.
class SatSolver {
 public:
  enum class Outcome { kSat, kUnsat, kUnknown };

  SatSolver() = default;

  /// Creates a fresh variable and returns its index.
  Var NewVar();

  /// Number of variables.
  int NumVars() const { return static_cast<int>(assigns_.size()); }

  /// Number of stored clauses (original + learnt). Unit clauses are
  /// assigned at the root level and never stored, nor are clauses satisfied
  /// or tautological when added.
  size_t NumClauses() const { return num_clauses_; }

  /// Statistics.
  int64_t num_conflicts() const { return conflicts_; }
  int64_t num_decisions() const { return decisions_; }
  int64_t num_propagations() const { return propagations_; }

  /// Adds a clause (disjunction of literals). May be called before any
  /// Solve() and between Solve() calls. Returns false if the formula is now
  /// trivially unsatisfiable (empty clause or top-level conflict).
  bool AddClause(const Lit* lits, size_t count);
  bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(lits.begin(), lits.size());
  }
  bool AddClause(const std::vector<Lit>& lits) { return AddClause(lits.data(), lits.size()); }

  /// Solves the current formula. `conflict_budget` < 0 means unbounded;
  /// otherwise the solver gives up with kUnknown after that many conflicts.
  Outcome Solve(int64_t conflict_budget = -1);

  /// Value of a variable in the model; valid after Solve() == kSat.
  bool ModelValue(Var v) const { return model_[static_cast<size_t>(v)] == LBool::kTrue; }

  /// Sets the preferred polarity of a variable (phase-saving seed); used to
  /// bias the first models toward "natural" assignments.
  void SetPhase(Var v, bool value) { saved_phase_[static_cast<size_t>(v)] = value; }

 private:
  /// A clause reference: the arena offset of the clause's size header.
  using CRef = int;
  static constexpr CRef kNoReason = -1;

  struct Watcher {
    CRef clause = kNoReason;
    Lit blocker;
  };

  int ClauseSize(CRef c) const { return arena_[static_cast<size_t>(c)].x; }
  Lit* ClauseLits(CRef c) { return &arena_[static_cast<size_t>(c) + 1]; }

  /// Stores `lits` (at least two, normalized) as a new clause, watched on
  /// its first two literals.
  CRef AppendClause(const Lit* lits, size_t count);

  LBool ValueVar(Var v) const { return assigns_[static_cast<size_t>(v)]; }
  LBool ValueLit(Lit l) const { return Flip(assigns_[static_cast<size_t>(VarOf(l))], SignOf(l)); }

  void Enqueue(Lit l, CRef reason);
  CRef Propagate();  // returns the conflicting clause or kNoReason
  void Analyze(CRef conflict, std::vector<Lit>* learnt, int* backtrack_level);
  void Backtrack(int level);
  Lit Decide();
  void BumpVar(Var v);
  void DecayActivities();
  void AttachClause(CRef c);
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  static int64_t Luby(int64_t i);

  std::vector<Lit> arena_;  // [size, lit0, lit1, ...] per clause
  size_t num_clauses_ = 0;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit.x
  std::vector<LBool> assigns_;
  std::vector<LBool> model_;
  std::vector<bool> saved_phase_;
  std::vector<int> level_;
  std::vector<CRef> reason_;  // kNoReason for decisions and root units
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;

  // VSIDS order heap: indexed binary max-heap over variable activity.
  void HeapInsert(Var v);
  void HeapPercolateUp(size_t i);
  void HeapPercolateDown(size_t i);
  Var HeapPopMax();
  bool HeapContains(Var v) const {
    return heap_pos_[static_cast<size_t>(v)] >= 0;
  }
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;  // -1 when absent

  bool unsat_ = false;
  int64_t conflicts_ = 0;
  int64_t decisions_ = 0;
  int64_t propagations_ = 0;

  // Scratch for Analyze.
  std::vector<uint8_t> seen_;
};

}  // namespace sat
}  // namespace dynamite

#endif  // DYNAMITE_SOLVER_SAT_H_
