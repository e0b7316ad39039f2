#include "synth/encode.h"

#include <map>
#include <set>

#include "util/failpoint.h"

namespace dynamite {

namespace {

/// The two-child vector {a, b}, built by moves: an initializer list would
/// deep-copy both subtrees.
std::vector<FdExpr> Children(FdExpr a, FdExpr b) {
  std::vector<FdExpr> out;
  out.reserve(2);
  out.push_back(std::move(a));
  out.push_back(std::move(b));
  return out;
}

/// x < y over finite domains of symbol ids, as a literal: the disjunction
/// over a in dom(x) of (x = a ∧ OR{ y = b : b in dom(y), b > a }), built gate
/// by gate in the order lowering that formula would (see FdSolver's
/// literal-level building). `greater` and `pairs` are scratch.
Result<sat::Lit> LessThan(FdVar x, const std::vector<int>& xdom, FdVar y,
                          const std::vector<int>& ydom, FdSolver* solver,
                          std::vector<sat::Lit>* greater, std::vector<sat::Lit>* pairs) {
  pairs->clear();
  for (int a : xdom) {
    greater->clear();
    for (int b : ydom) {
      if (b > a) {
        DYNAMITE_ASSIGN_OR_RETURN(sat::Lit yb, solver->Literal(FdLit::Eq(y, b)));
        greater->push_back(yb);
      }
    }
    if (greater->empty()) continue;
    DYNAMITE_ASSIGN_OR_RETURN(sat::Lit xa, solver->Literal(FdLit::Eq(x, a)));
    const sat::Lit both[] = {
        xa, greater->size() == 1 ? greater->front()
                                 : solver->DefineOr(greater->data(), greater->size())};
    pairs->push_back(solver->DefineAnd(both, 2));
  }
  if (pairs->empty()) return sat::Negate(solver->TrueLit());
  if (pairs->size() == 1) return pairs->front();
  return solver->DefineOr(pairs->data(), pairs->size());
}

/// Polls `ctx` (when given) between constraint groups and at every
/// lex-leq position. The failpoint `synth.encode` fires here, so a test can
/// interrupt encoding at an exact poll.
Status Poll(const RunContext* ctx) {
  DYNAMITE_FAILPOINT("synth.encode");
  return ctx == nullptr ? Status::OK() : ctx->Check("sketch encoding");
}

/// Asserts that chain copy `a`'s hole vector is lexicographically <= copy
/// `b`'s (equal lengths), straight to clauses. With x = a's holes and
/// y = b's, the constraint is the formula
///   L(k) = (x[k] < y[k]) ∨ (x[k] = y[k] ∧ L(k + 1)),  L(n) = true,
/// asserted at L(0), and the clauses and variable numbering are exactly
/// those of lowering it: the less-than and equality literals of every
/// position first (in position order), then the And/Or gates from the last
/// position back, then L(0) as one root clause. `ctx` is polled per
/// position.
Status AddLexLeq(const RuleSketch& sketch, const SketchEncoding& enc, const std::vector<int>& a,
                 const std::vector<int>& b, FdSolver* solver, const RunContext* ctx) {
  const size_t n = a.size();
  if (n == 0) {
    const sat::Lit true_lit = solver->TrueLit();
    solver->AddRootClause(&true_lit, 1);
    return Status::OK();
  }
  std::vector<sat::Lit> less(n), equal(n), greater, pairs;
  for (size_t k = 0; k < n; ++k) {
    DYNAMITE_RETURN_NOT_OK(Poll(ctx));
    const size_t x = static_cast<size_t>(a[k]);
    const size_t y = static_cast<size_t>(b[k]);
    DYNAMITE_ASSIGN_OR_RETURN(
        less[k], LessThan(enc.hole_vars[x], sketch.holes[x].domain, enc.hole_vars[y],
                          sketch.holes[y].domain, solver, &greater, &pairs));
    DYNAMITE_ASSIGN_OR_RETURN(equal[k],
                              solver->Literal(FdLit::EqVar(enc.hole_vars[x], enc.hole_vars[y])));
  }
  sat::Lit rest = solver->TrueLit();  // L(n)
  for (size_t k = n - 1; k > 0; --k) {
    const sat::Lit equal_and_rest[] = {equal[k], rest};
    const sat::Lit either[] = {less[k], solver->DefineAnd(equal_and_rest, 2)};
    rest = solver->DefineOr(either, 2);
  }
  const sat::Lit equal_and_rest[] = {equal[0], rest};
  const sat::Lit either[] = {less[0], solver->DefineAnd(equal_and_rest, 2)};
  solver->AddRootClause(either, 2);
  return Status::OK();
}

/// A solver variable over a symbol-id domain.
FdVar NewSymbolVar(const std::vector<int>& symbols, FdSolver* solver) {
  return solver->NewVar(std::vector<int64_t>(symbols.begin(), symbols.end()));
}

}  // namespace

Result<SketchEncoding> EncodeSketch(const RuleSketch& sketch, FdSolver* solver,
                                    const RunContext* ctx) {
  SketchEncoding enc;
  enc.hole_vars.reserve(sketch.holes.size());
  for (const SketchHole& hole : sketch.holes) {
    enc.hole_vars.push_back(NewSymbolVar(hole.domain, solver));
  }
  for (const SketchConnector& conn : sketch.connectors) {
    enc.connector_vars.push_back(NewSymbolVar(conn.domain, solver));
  }
  for (const SketchHeadBinding& binding : sketch.head_bindings) {
    enc.head_binding_vars.push_back(NewSymbolVar(binding.domain, solver));
  }
  DYNAMITE_RETURN_NOT_OK(Poll(ctx));

  // Search heuristic: bias each hole toward its own copy's variable, so the
  // first sampled models are sparse (few accidental joins) and conflict
  // analysis localizes what must change.
  for (size_t h = 0; h < sketch.holes.size(); ++h) {
    if (sketch.holes[h].own_symbol >= 0) {
      solver->Suggest(enc.hole_vars[h], sketch.holes[h].own_symbol);
    }
  }

  // Head-variable coverage: every target attribute's head variable must be
  // assigned to some hole (a head variable appearing in no hole domain makes
  // the rule unsynthesizable and fails fast below).
  std::set<std::string> required_attrs;
  {
    // All primitive attributes used as head variables in the heads.
    for (const Atom& head : sketch.heads) {
      for (const Term& t : head.terms) {
        if (t.is_variable() && sketch.symbols.FindHeadVar(t.var()) >= 0) {
          required_attrs.insert(t.var());
        }
      }
    }
  }
  for (const std::string& attr : required_attrs) {
    DYNAMITE_RETURN_NOT_OK(Poll(ctx));
    int sym = sketch.symbols.FindHeadVar(attr);
    std::vector<FdExpr> options;
    std::vector<FdExpr> not_taken;  // no hole carries this head variable
    for (size_t h = 0; h < sketch.holes.size(); ++h) {
      for (int d : sketch.holes[h].domain) {
        if (d == sym) {
          options.push_back(FdExpr::Eq(enc.hole_vars[h], sym));
          not_taken.push_back(FdExpr::Not(FdExpr::Eq(enc.hole_vars[h], sym)));
          break;
        }
      }
    }
    // Head binding for this attribute (filtering mode), if any.
    int binding_index = -1;
    for (size_t b = 0; b < sketch.head_bindings.size(); ++b) {
      if (sketch.head_bindings[b].target_attr == attr) {
        binding_index = static_cast<int>(b);
        break;
      }
    }
    if (binding_index < 0) {
      if (options.empty()) {
        return Status::SynthesisFailure("target attribute " + attr +
                                        " cannot be produced by any hole");
      }
      DYNAMITE_RETURN_NOT_OK(solver->AddConstraint(FdExpr::Or(std::move(options))));
      continue;
    }
    const SketchHeadBinding& binding =
        sketch.head_bindings[static_cast<size_t>(binding_index)];
    FdVar bvar = enc.head_binding_vars[static_cast<size_t>(binding_index)];
    // Body-bound: coverage must hold.
    FdExpr sentinel = FdExpr::Eq(bvar, binding.head_var_symbol);
    FdExpr coverage = options.empty() ? FdExpr::False() : FdExpr::Or(std::move(options));
    DYNAMITE_RETURN_NOT_OK(
        solver->AddConstraint(FdExpr::Or(Children(FdExpr::Not(sentinel), std::move(coverage)))));
    // Constant-bound: the head variable must vanish from the body (no hole
    // may carry a variable that no longer occurs in the head).
    if (!not_taken.empty()) {
      DYNAMITE_RETURN_NOT_OK(solver->AddConstraint(
          FdExpr::Or(Children(FdExpr::Eq(bvar, binding.head_var_symbol),
                              FdExpr::And(std::move(not_taken))))));
    }
  }

  // Symmetry breaking: copies of the same extensional chain are
  // interchangeable (their atoms can be reordered), so restrict the search
  // to lexicographically sorted hole vectors. This is what keeps the
  // completion search from re-deriving every permutation of an incorrect
  // candidate as a "new" model.
  {
    std::map<std::string, std::vector<const std::vector<int>*>> groups;
    for (const auto& [key, hole_indices] : sketch.chain_copies) {
      groups[key].push_back(&hole_indices);
    }
    for (const auto& [key, copies] : groups) {
      for (size_t i = 0; i + 1 < copies.size(); ++i) {
        const std::vector<int>& a = *copies[i];
        const std::vector<int>& b = *copies[i + 1];
        if (a.size() != b.size()) continue;  // differently shaped: skip
        DYNAMITE_RETURN_NOT_OK(AddLexLeq(sketch, enc, a, b, solver, ctx));
      }
    }
  }

  // Connector occurrence: choosing an attribute variable requires some hole
  // to carry it.
  for (size_t c = 0; c < sketch.connectors.size(); ++c) {
    DYNAMITE_RETURN_NOT_OK(Poll(ctx));
    for (int sym : sketch.connectors[c].domain) {
      if (sketch.symbols.At(sym).kind != SketchSymbol::Kind::kBodyAttrVar) continue;
      std::vector<FdExpr> options;
      for (size_t h = 0; h < sketch.holes.size(); ++h) {
        for (int d : sketch.holes[h].domain) {
          if (d == sym) {
            options.push_back(FdExpr::Eq(enc.hole_vars[h], sym));
            break;
          }
        }
      }
      FdExpr requirement = options.empty() ? FdExpr::False() : FdExpr::Or(std::move(options));
      // conn = sym -> requirement
      DYNAMITE_RETURN_NOT_OK(solver->AddConstraint(FdExpr::Or(
          Children(FdExpr::Not(FdExpr::Eq(enc.connector_vars[c], sym)), std::move(requirement)))));
    }
  }
  return enc;
}

SketchModel ExtractModel(const SketchEncoding& encoding, const FdSolver& solver) {
  SketchModel model;
  for (FdVar v : encoding.hole_vars) {
    model.hole_choice.push_back(static_cast<int>(solver.ModelValue(v)));
  }
  for (FdVar v : encoding.connector_vars) {
    model.connector_choice.push_back(static_cast<int>(solver.ModelValue(v)));
  }
  for (FdVar v : encoding.head_binding_vars) {
    model.head_binding_choice.push_back(static_cast<int>(solver.ModelValue(v)));
  }
  return model;
}

std::vector<FdLit> ModelEquality(const SketchEncoding& encoding, const SketchModel& model) {
  std::vector<FdLit> eqs;
  eqs.reserve(encoding.hole_vars.size() + encoding.connector_vars.size() +
              encoding.head_binding_vars.size());
  for (size_t h = 0; h < encoding.hole_vars.size(); ++h) {
    eqs.push_back(FdLit::Eq(encoding.hole_vars[h], model.hole_choice[h]));
  }
  for (size_t c = 0; c < encoding.connector_vars.size(); ++c) {
    eqs.push_back(FdLit::Eq(encoding.connector_vars[c], model.connector_choice[c]));
  }
  for (size_t b = 0; b < encoding.head_binding_vars.size(); ++b) {
    eqs.push_back(FdLit::Eq(encoding.head_binding_vars[b], model.head_binding_choice[b]));
  }
  return eqs;
}

}  // namespace dynamite
