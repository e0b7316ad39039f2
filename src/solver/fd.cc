#include "solver/fd.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

FdExpr FdExpr::True() { return FdExpr(); }

FdExpr FdExpr::False() {
  FdExpr e;
  e.kind_ = Kind::kFalse;
  return e;
}

FdExpr FdExpr::Eq(FdVar x, int64_t c) {
  FdExpr e;
  e.kind_ = Kind::kVarEqConst;
  e.lhs_ = x;
  e.rhs_const_ = c;
  return e;
}

FdExpr FdExpr::EqVar(FdVar x, FdVar y) {
  FdExpr e;
  e.kind_ = Kind::kVarEqVar;
  e.lhs_ = x;
  e.rhs_var_ = y;
  return e;
}

FdExpr FdExpr::Not(FdExpr child) {
  FdExpr e;
  e.kind_ = Kind::kNot;
  e.children_.push_back(std::move(child));
  return e;
}

FdExpr FdExpr::And(std::vector<FdExpr> children) {
  if (children.empty()) return True();
  if (children.size() == 1) return std::move(children[0]);
  FdExpr e;
  e.kind_ = Kind::kAnd;
  e.children_ = std::move(children);
  return e;
}

FdExpr FdExpr::Or(std::vector<FdExpr> children) {
  if (children.empty()) return False();
  if (children.size() == 1) return std::move(children[0]);
  FdExpr e;
  e.kind_ = Kind::kOr;
  e.children_ = std::move(children);
  return e;
}

std::string FdExpr::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kVarEqConst:
      return "x" + std::to_string(lhs_.index) + "=" + std::to_string(rhs_const_);
    case Kind::kVarEqVar:
      return "x" + std::to_string(lhs_.index) + "=x" + std::to_string(rhs_var_.index);
    case Kind::kNot:
      return "!(" + children_[0].ToString() + ")";
    case Kind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " & ";
        out += children_[i].ToString();
      }
      return out + ")";
    }
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " | ";
        out += children_[i].ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

FdClause BlockingClause(std::vector<FdLit> conjunction) {
  for (FdLit& l : conjunction) l.negated = !l.negated;
  return conjunction;
}

FdVar FdSolver::NewVar(std::vector<int64_t> domain) {
  DYNAMITE_CHECK(!domain.empty());
  VarInfo info;
  info.domain = std::move(domain);
  const size_t n = info.domain.size();
  info.by_value.reserve(n);
  for (size_t i = 0; i < n; ++i) info.by_value.push_back({info.domain[i], static_cast<int>(i)});
  std::sort(info.by_value.begin(), info.by_value.end());
  for (size_t i = 1; i < n; ++i) {
    DYNAMITE_DCHECK(info.by_value[i - 1].first != info.by_value[i].first,
                    "duplicate domain value");
  }
  info.first_selector = sat_.NumVars();
  for (size_t i = 0; i < n; ++i) sat_.NewVar();
  // Exactly-one encoding: at-least-one + pairwise at-most-one. Domains in
  // sketch completion are small (tens of values), so pairwise is fine.
  std::vector<sat::Lit> alo;
  alo.reserve(n);
  for (size_t i = 0; i < n; ++i) alo.push_back(sat::MkLit(info.first_selector + static_cast<int>(i)));
  sat_.AddClause(alo);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      sat_.AddClause({sat::Negate(alo[i]), sat::Negate(alo[j])});
    }
  }
  FdVar v{static_cast<int>(vars_.size())};
  vars_.push_back(std::move(info));
  return v;
}

int FdSolver::PositionOf(const VarInfo& info, int64_t value) {
  auto it = std::lower_bound(info.by_value.begin(), info.by_value.end(),
                             std::pair<int64_t, int>{value, -1});
  return it != info.by_value.end() && it->first == value ? it->second : -1;
}

sat::Lit FdSolver::TrueLit() {
  if (true_lit_.x < 0) {
    sat::Var v = sat_.NewVar();
    true_lit_ = sat::MkLit(v);
    sat_.AddClause({true_lit_});
  }
  return true_lit_;
}

Result<sat::Lit> FdSolver::EqConstLit(FdVar x, int64_t c) {
  if (x.index < 0 || static_cast<size_t>(x.index) >= vars_.size()) {
    return Status::InvalidArgument("unknown FD variable");
  }
  const VarInfo& info = vars_[static_cast<size_t>(x.index)];
  const int pos = PositionOf(info, c);
  if (pos < 0) {
    // c is not in x's domain: the atom is constant false.
    return sat::Negate(TrueLit());
  }
  return sat::MkLit(info.first_selector + pos);
}

Result<sat::Lit> FdSolver::EqVarLit(FdVar x, FdVar y) {
  if (x.index == y.index) return TrueLit();
  const auto [lo, hi] = std::minmax(x.index, y.index);
  {
    const std::vector<sat::Lit>& row = vars_[static_cast<size_t>(hi)].eq_row;
    if (static_cast<size_t>(lo) < row.size() && row[static_cast<size_t>(lo)].x != -2) {
      return row[static_cast<size_t>(lo)];
    }
  }

  const VarInfo& xi = vars_[static_cast<size_t>(x.index)];
  const VarInfo& yi = vars_[static_cast<size_t>(y.index)];

  // e <-> OR over shared domain values v of (x=v & y=v), in ascending v.
  sat::Var e_var = sat_.NewVar();
  sat::Lit e = sat::MkLit(e_var);
  std::vector<sat::Lit> any_pair;  // auxiliary pair literals
  for (size_t a = 0, b = 0; a < xi.by_value.size() && b < yi.by_value.size();) {
    if (xi.by_value[a].first < yi.by_value[b].first) {
      ++a;
    } else if (yi.by_value[b].first < xi.by_value[a].first) {
      ++b;
    } else {
      sat::Lit xv = sat::MkLit(xi.first_selector + xi.by_value[a++].second);
      sat::Lit yv = sat::MkLit(yi.first_selector + yi.by_value[b++].second);
      // p <-> (xv & yv)
      sat::Lit p = sat::MkLit(sat_.NewVar());
      sat_.AddClause({sat::Negate(p), xv});
      sat_.AddClause({sat::Negate(p), yv});
      sat_.AddClause({p, sat::Negate(xv), sat::Negate(yv)});
      any_pair.push_back(p);
    }
  }
  sat::Lit lit = e;
  if (any_pair.empty()) {
    // Disjoint domains: x = y is constant false.
    lit = sat::Negate(TrueLit());
  } else {
    // e <-> OR(any_pair)
    for (sat::Lit p : any_pair) sat_.AddClause({sat::Negate(p), e});
    any_pair.push_back(sat::Negate(e));
    sat_.AddClause(any_pair);
  }
  std::vector<sat::Lit>& row = vars_[static_cast<size_t>(hi)].eq_row;
  if (row.size() <= static_cast<size_t>(lo)) row.resize(static_cast<size_t>(lo) + 1, sat::Lit{-2});
  row[static_cast<size_t>(lo)] = lit;
  return lit;
}

Result<sat::Lit> FdSolver::Lower(const FdExpr& e) {
  switch (e.kind()) {
    case FdExpr::Kind::kTrue:
      return TrueLit();
    case FdExpr::Kind::kFalse:
      return sat::Negate(TrueLit());
    case FdExpr::Kind::kVarEqConst:
      return EqConstLit(e.lhs(), e.rhs_const());
    case FdExpr::Kind::kVarEqVar:
      return EqVarLit(e.lhs(), e.rhs_var());
    case FdExpr::Kind::kNot: {
      DYNAMITE_ASSIGN_OR_RETURN(sat::Lit c, Lower(e.children()[0]));
      return sat::Negate(c);
    }
    case FdExpr::Kind::kAnd:
    case FdExpr::Kind::kOr: {
      std::vector<sat::Lit> lits;
      lits.reserve(e.children().size());
      for (const FdExpr& child : e.children()) {
        DYNAMITE_ASSIGN_OR_RETURN(sat::Lit c, Lower(child));
        lits.push_back(c);
      }
      return e.kind() == FdExpr::Kind::kAnd ? DefineAnd(lits.data(), lits.size())
                                            : DefineOr(lits.data(), lits.size());
    }
  }
  return Status::Internal("unreachable FdExpr kind");
}

sat::Lit FdSolver::DefineAnd(const sat::Lit* lits, size_t count) {
  const sat::Lit p = sat::MkLit(sat_.NewVar());
  gate_clause_.clear();
  for (size_t i = 0; i < count; ++i) {
    sat_.AddClause({sat::Negate(p), lits[i]});
    gate_clause_.push_back(sat::Negate(lits[i]));
  }
  gate_clause_.push_back(p);
  sat_.AddClause(gate_clause_);
  return p;
}

sat::Lit FdSolver::DefineOr(const sat::Lit* lits, size_t count) {
  const sat::Lit p = sat::MkLit(sat_.NewVar());
  gate_clause_.assign(lits, lits + count);
  gate_clause_.push_back(sat::Negate(p));
  sat_.AddClause(gate_clause_);
  for (size_t i = 0; i < count; ++i) sat_.AddClause({sat::Negate(lits[i]), p});
  return p;
}

Result<sat::Lit> FdSolver::Literal(const FdLit& l) {
  DYNAMITE_ASSIGN_OR_RETURN(sat::Lit atom, l.rhs_var.index >= 0
                                                ? EqVarLit(l.lhs, l.rhs_var)
                                                : EqConstLit(l.lhs, l.rhs_const));
  return l.negated ? sat::Negate(atom) : atom;
}

void FdSolver::Suggest(FdVar v, int64_t value) {
  const VarInfo& info = vars_[static_cast<size_t>(v.index)];
  const int pos = PositionOf(info, value);
  if (pos < 0) return;
  for (int i = 0; i < static_cast<int>(info.domain.size()); ++i) {
    sat_.SetPhase(info.first_selector + i, i == pos);
  }
}

void FdSolver::ReserveDefinitionVar() {
  sat_.AddClause({sat::MkLit(sat_.NewVar(), /*negated=*/true)});
}

void FdSolver::AddRootClause(const sat::Lit* lits, size_t count) {
  if (count >= 2) ReserveDefinitionVar();
  sat_.AddClause(lits, count);
}

Status FdSolver::AddConstraint(const FdExpr& e) {
  using Kind = FdExpr::Kind;
  std::vector<sat::Lit> lits;
  switch (e.kind()) {
    case Kind::kAnd:
      for (const FdExpr& child : e.children()) {
        DYNAMITE_RETURN_NOT_OK(AddConstraint(child));
      }
      ReserveDefinitionVar();
      return Status::OK();
    case Kind::kOr:
      for (const FdExpr& child : e.children()) {
        DYNAMITE_ASSIGN_OR_RETURN(sat::Lit l, Lower(child));
        lits.push_back(l);
      }
      AddRootClause(lits.data(), lits.size());
      return Status::OK();
    case Kind::kNot: {
      const FdExpr& inner = e.children()[0];
      switch (inner.kind()) {
        case Kind::kNot:
          return AddConstraint(inner.children()[0]);
        case Kind::kAnd:
          for (const FdExpr& child : inner.children()) {
            DYNAMITE_ASSIGN_OR_RETURN(sat::Lit l, Lower(child));
            lits.push_back(sat::Negate(l));
          }
          AddRootClause(lits.data(), lits.size());
          return Status::OK();
        case Kind::kOr:
          for (const FdExpr& child : inner.children()) {
            DYNAMITE_ASSIGN_OR_RETURN(sat::Lit l, Lower(child));
            sat_.AddClause({sat::Negate(l)});
          }
          ReserveDefinitionVar();
          return Status::OK();
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  DYNAMITE_ASSIGN_OR_RETURN(sat::Lit l, Lower(e));
  sat_.AddClause({l});
  return Status::OK();
}

Status FdSolver::AddClause(const FdClause& clause) {
  std::vector<sat::Lit> lits;
  lits.reserve(clause.size());
  for (const FdLit& l : clause) {
    DYNAMITE_ASSIGN_OR_RETURN(sat::Lit lit, Literal(l));
    lits.push_back(lit);
  }
  AddRootClause(lits.data(), lits.size());
  return Status::OK();
}

Status FdSolver::AddClauses(const std::vector<FdClause>& clauses) {
  for (const FdClause& clause : clauses) DYNAMITE_RETURN_NOT_OK(AddClause(clause));
  if (clauses.size() >= 2) ReserveDefinitionVar();
  return Status::OK();
}

Result<bool> FdSolver::Solve() {
  DYNAMITE_TRACE_SPAN("solver.solve");
  DYNAMITE_METRIC_INC("solver.solves");
  const int64_t conflicts_before = sat_.num_conflicts();
  sat::SatSolver::Outcome outcome = sat_.Solve();
  DYNAMITE_METRIC_ADD("solver.conflicts",
                      static_cast<uint64_t>(sat_.num_conflicts() - conflicts_before));
  switch (outcome) {
    case sat::SatSolver::Outcome::kSat:
      return true;
    case sat::SatSolver::Outcome::kUnsat:
      return false;
    case sat::SatSolver::Outcome::kUnknown:
      return Status::Timeout("SAT conflict budget exhausted");
  }
  return Status::Internal("unreachable SAT outcome");
}

int64_t FdSolver::ModelValue(FdVar v) const {
  const VarInfo& info = vars_[static_cast<size_t>(v.index)];
  for (size_t i = 0; i < info.domain.size(); ++i) {
    if (sat_.ModelValue(info.first_selector + static_cast<int>(i))) return info.domain[i];
  }
  DYNAMITE_CHECK(false, "no selector true in model");
  return info.domain[0];
}

}  // namespace dynamite
