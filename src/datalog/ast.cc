#include "datalog/ast.h"

#include <algorithm>

namespace dynamite {

Term Term::Var(std::string name) {
  Term t;
  t.kind_ = Kind::kVariable;
  t.name_ = std::move(name);
  return t;
}

Term Term::Const(Value v) {
  Term t;
  t.kind_ = Kind::kConstant;
  t.value_ = std::move(v);
  return t;
}

Term Term::Wildcard() {
  Term t;
  t.kind_ = Kind::kWildcard;
  return t;
}

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kVariable:
      return name_;
    case Kind::kConstant:
      return value_.ToString();
    case Kind::kWildcard:
      return "_";
  }
  return "?";
}

bool Term::operator<(const Term& o) const {
  if (kind_ != o.kind_) return kind_ < o.kind_;
  if (name_ != o.name_) return name_ < o.name_;
  return value_ < o.value_;
}

std::string Atom::ToString() const {
  std::string out = relation + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  out += ")";
  return out;
}

bool Atom::operator<(const Atom& o) const {
  if (relation != o.relation) return relation < o.relation;
  return terms < o.terms;
}

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> out;
  for (const Term& t : terms) {
    if (t.is_variable()) out.push_back(t.var());
  }
  return out;
}

namespace {
// A rule has few variables, so the helpers below scan flat lists rather
// than build a set per call.
std::vector<std::string> DistinctVars(const std::vector<Atom>& atoms) {
  std::vector<std::string> out;
  for (const Atom& a : atoms) {
    for (const Term& t : a.terms) {
      if (t.is_variable() && std::find(out.begin(), out.end(), t.var()) == out.end()) {
        out.push_back(t.var());
      }
    }
  }
  return out;
}

bool HasVariable(const std::vector<Atom>& atoms, const std::string& var) {
  for (const Atom& a : atoms) {
    for (const Term& t : a.terms) {
      if (t.is_variable() && t.var() == var) return true;
    }
  }
  return false;
}
}  // namespace

std::string Rule::ToString() const {
  std::string out;
  for (size_t i = 0; i < heads.size(); ++i) {
    if (i > 0) out += ", ";
    out += heads[i].ToString();
  }
  out += " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += body[i].ToString();
  }
  out += ".";
  return out;
}

std::vector<std::string> Rule::HeadVariables() const { return DistinctVars(heads); }

Status Rule::Validate() const {
  if (heads.empty()) return Status::InvalidArgument("rule with no head: " + ToString());
  if (body.empty()) return Status::InvalidArgument("rule with no body: " + ToString());
  for (const Atom& h : heads) {
    for (const Term& t : h.terms) {
      if (t.is_wildcard()) {
        return Status::InvalidArgument("wildcard in rule head: " + ToString());
      }
      if (t.is_variable() && !HasVariable(body, t.var())) {
        return Status::InvalidArgument("head variable " + t.var() +
                                       " does not occur in body: " + ToString());
      }
    }
  }
  return Status::OK();
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& r : rules) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

Status Program::Validate() const {
  for (const Rule& r : rules) DYNAMITE_RETURN_NOT_OK(r.Validate());
  return Status::OK();
}

}  // namespace dynamite
