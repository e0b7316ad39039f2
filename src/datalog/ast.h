// Datalog abstract syntax (Figure 4 of the paper).
//
//   Program ::= Rule+        Rule ::= Head :- Body.
//   Head    ::= Pred         Body ::= Pred+
//   Pred    ::= R(v+)
//
// We additionally support the paper's multi-head shorthand
// `H1, ..., Hm :- B.` natively (one Rule with several head atoms), constants
// in predicate arguments (used by the filtering extension, §5), and the
// wildcard `_`.

#ifndef DYNAMITE_DATALOG_AST_H_
#define DYNAMITE_DATALOG_AST_H_

#include <string>
#include <vector>

#include "util/result.h"
#include "value/value.h"

namespace dynamite {

/// A term in a Datalog predicate: variable, constant, or wildcard.
class Term {
 public:
  enum class Kind : uint8_t { kVariable, kConstant, kWildcard };

  static Term Var(std::string name);
  static Term Const(Value v);
  static Term Wildcard();

  Kind kind() const { return kind_; }
  bool is_variable() const { return kind_ == Kind::kVariable; }
  bool is_constant() const { return kind_ == Kind::kConstant; }
  bool is_wildcard() const { return kind_ == Kind::kWildcard; }

  /// Variable name (only for variables).
  const std::string& var() const { return name_; }
  /// Constant value (only for constants).
  const Value& constant() const { return value_; }

  std::string ToString() const;

  bool operator==(const Term& o) const {
    return kind_ == o.kind_ && name_ == o.name_ && value_ == o.value_;
  }
  bool operator!=(const Term& o) const { return !(*this == o); }
  bool operator<(const Term& o) const;

 private:
  Kind kind_ = Kind::kWildcard;
  std::string name_;
  Value value_;
};

/// A predicate R(t1, ..., tn).
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  std::string ToString() const;
  bool operator==(const Atom& o) const {
    return relation == o.relation && terms == o.terms;
  }
  bool operator<(const Atom& o) const;

  /// Names of variables occurring in this atom, in order of occurrence
  /// (with duplicates).
  std::vector<std::string> Variables() const;
};

/// A rule `H1, ..., Hm :- B1, ..., Bn.`
struct Rule {
  std::vector<Atom> heads;
  std::vector<Atom> body;

  std::string ToString() const;
  bool operator==(const Rule& o) const { return heads == o.heads && body == o.body; }

  /// Distinct head variable names, in order of first occurrence.
  std::vector<std::string> HeadVariables() const;

  /// Checks range restriction: every head variable occurs in the body and
  /// the rule has at least one head and one body atom.
  Status Validate() const;
};

/// A Datalog program.
struct Program {
  std::vector<Rule> rules;

  std::string ToString() const;
  bool operator==(const Program& o) const { return rules == o.rules; }

  /// Validates every rule.
  Status Validate() const;

  /// Parses a program from text. Syntax (paper style):
  ///   Admission(grad, ug, num) :- Univ(id1, grad, v1), Univ(id2, ug, _).
  /// Identifiers starting with an upper-case letter are relation names when
  /// in predicate position; arguments are variables (identifiers), integer /
  /// float / string / bool literals, or `_`.
  static Result<Program> Parse(std::string_view text);
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_AST_H_
