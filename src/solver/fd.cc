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

FdVar FdSolver::NewVar(std::string name, std::vector<int64_t> domain) {
  DYNAMITE_CHECK(!domain.empty());
  VarInfo info;
  info.name = std::move(name);
  info.domain = std::move(domain);
  for (size_t i = 0; i < info.domain.size(); ++i) {
    DYNAMITE_DCHECK(info.value_index.count(info.domain[i]) == 0,
                    "duplicate domain value");
    info.value_index[info.domain[i]] = static_cast<int>(i);
    info.selectors.push_back(sat_.NewVar());
  }
  // Exactly-one encoding: at-least-one + pairwise at-most-one. Domains in
  // sketch completion are small (tens of values), so pairwise is fine.
  std::vector<sat::Lit> alo;
  alo.reserve(info.selectors.size());
  for (sat::Var s : info.selectors) alo.push_back(sat::MkLit(s));
  sat_.AddClause(alo);
  for (size_t i = 0; i < info.selectors.size(); ++i) {
    for (size_t j = i + 1; j < info.selectors.size(); ++j) {
      sat_.AddClause({sat::MkLit(info.selectors[i], true),
                      sat::MkLit(info.selectors[j], true)});
    }
  }
  FdVar v{static_cast<int>(vars_.size())};
  vars_.push_back(std::move(info));
  return v;
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
  auto it = info.value_index.find(c);
  if (it == info.value_index.end()) {
    // c is not in x's domain: the atom is constant false.
    return sat::Negate(TrueLit());
  }
  return sat::MkLit(info.selectors[static_cast<size_t>(it->second)]);
}

Result<sat::Lit> FdSolver::EqVarLit(FdVar x, FdVar y) {
  if (x.index == y.index) return TrueLit();
  std::pair<int, int> key = std::minmax(x.index, y.index);
  auto it = eq_cache_.find(key);
  if (it != eq_cache_.end()) return it->second;

  const VarInfo& xi = vars_[static_cast<size_t>(x.index)];
  const VarInfo& yi = vars_[static_cast<size_t>(y.index)];

  // e <-> OR over shared domain values v of (x=v & y=v).
  sat::Var e_var = sat_.NewVar();
  sat::Lit e = sat::MkLit(e_var);
  std::vector<sat::Lit> any_pair;  // auxiliary pair literals
  for (const auto& [value, xidx] : xi.value_index) {
    auto yit = yi.value_index.find(value);
    if (yit == yi.value_index.end()) continue;
    sat::Lit xv = sat::MkLit(xi.selectors[static_cast<size_t>(xidx)]);
    sat::Lit yv = sat::MkLit(yi.selectors[static_cast<size_t>(yit->second)]);
    // p <-> (xv & yv)
    sat::Var p_var = sat_.NewVar();
    sat::Lit p = sat::MkLit(p_var);
    sat_.AddClause({sat::Negate(p), xv});
    sat_.AddClause({sat::Negate(p), yv});
    sat_.AddClause({p, sat::Negate(xv), sat::Negate(yv)});
    any_pair.push_back(p);
  }
  if (any_pair.empty()) {
    // Disjoint domains: x = y is constant false.
    sat::Lit f = sat::Negate(TrueLit());
    eq_cache_[key] = f;
    return f;
  }
  // e <-> OR(any_pair)
  for (sat::Lit p : any_pair) sat_.AddClause({sat::Negate(p), e});
  std::vector<sat::Lit> rev = any_pair;
  rev.push_back(sat::Negate(e));
  sat_.AddClause(rev);
  eq_cache_[key] = e;
  return e;
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
    case FdExpr::Kind::kAnd: {
      std::vector<sat::Lit> lits;
      for (const FdExpr& child : e.children()) {
        DYNAMITE_ASSIGN_OR_RETURN(sat::Lit c, Lower(child));
        lits.push_back(c);
      }
      sat::Var p_var = sat_.NewVar();
      sat::Lit p = sat::MkLit(p_var);
      std::vector<sat::Lit> rev;
      for (sat::Lit c : lits) {
        sat_.AddClause({sat::Negate(p), c});
        rev.push_back(sat::Negate(c));
      }
      rev.push_back(p);
      sat_.AddClause(rev);
      return p;
    }
    case FdExpr::Kind::kOr: {
      std::vector<sat::Lit> lits;
      for (const FdExpr& child : e.children()) {
        DYNAMITE_ASSIGN_OR_RETURN(sat::Lit c, Lower(child));
        lits.push_back(c);
      }
      sat::Var p_var = sat_.NewVar();
      sat::Lit p = sat::MkLit(p_var);
      std::vector<sat::Lit> fwd = lits;
      fwd.push_back(sat::Negate(p));
      sat_.AddClause(fwd);
      for (sat::Lit c : lits) sat_.AddClause({sat::Negate(c), p});
      return p;
    }
  }
  return Status::Internal("unreachable FdExpr kind");
}

Result<sat::Lit> FdSolver::LowerLit(const FdLit& l) {
  DYNAMITE_ASSIGN_OR_RETURN(sat::Lit atom, l.rhs_var.index >= 0
                                                ? EqVarLit(l.lhs, l.rhs_var)
                                                : EqConstLit(l.lhs, l.rhs_const));
  return l.negated ? sat::Negate(atom) : atom;
}

void FdSolver::Suggest(FdVar v, int64_t value) {
  const VarInfo& info = vars_[static_cast<size_t>(v.index)];
  auto it = info.value_index.find(value);
  if (it == info.value_index.end()) return;
  for (size_t i = 0; i < info.selectors.size(); ++i) {
    sat_.SetPhase(info.selectors[i], static_cast<int>(i) == it->second);
  }
}

void FdSolver::ReserveDefinitionVar() {
  sat_.AddClause({sat::MkLit(sat_.NewVar(), /*negated=*/true)});
}

void FdSolver::AddRootClause(std::vector<sat::Lit> lits) {
  if (lits.size() >= 2) ReserveDefinitionVar();
  sat_.AddClause(std::move(lits));
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
      AddRootClause(std::move(lits));
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
          AddRootClause(std::move(lits));
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
    DYNAMITE_ASSIGN_OR_RETURN(sat::Lit lit, LowerLit(l));
    lits.push_back(lit);
  }
  AddRootClause(std::move(lits));
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
  for (size_t i = 0; i < info.selectors.size(); ++i) {
    if (sat_.ModelValue(info.selectors[i])) return info.domain[i];
  }
  DYNAMITE_CHECK(false, "no selector true in model");
  return info.domain[0];
}

}  // namespace dynamite
