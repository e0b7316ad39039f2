#include "synth/encode.h"

#include <map>
#include <set>

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

/// x < y over finite domains of symbol ids: disjunction over value pairs.
FdExpr LessThan(FdVar x, const std::vector<int>& xdom, FdVar y,
                const std::vector<int>& ydom) {
  std::vector<FdExpr> pairs;
  for (int a : xdom) {
    std::vector<FdExpr> greater;
    for (int b : ydom) {
      if (b > a) greater.push_back(FdExpr::Eq(y, b));
    }
    if (!greater.empty()) {
      pairs.push_back(FdExpr::And(Children(FdExpr::Eq(x, a), FdExpr::Or(std::move(greater)))));
    }
  }
  return FdExpr::Or(std::move(pairs));
}

/// Lexicographic x <= y over equal-length hole vectors.
FdExpr LexLeq(const std::vector<FdVar>& xs, const std::vector<std::vector<int>>& xdoms,
              const std::vector<FdVar>& ys, const std::vector<std::vector<int>>& ydoms,
              size_t index) {
  if (index == xs.size()) return FdExpr::True();
  FdExpr lt = LessThan(xs[index], xdoms[index], ys[index], ydoms[index]);
  FdExpr eq_and_rest = FdExpr::And(
      Children(FdExpr::EqVar(xs[index], ys[index]), LexLeq(xs, xdoms, ys, ydoms, index + 1)));
  return FdExpr::Or(Children(std::move(lt), std::move(eq_and_rest)));
}

}  // namespace

Result<SketchEncoding> EncodeSketch(const RuleSketch& sketch, FdSolver* solver) {
  SketchEncoding enc;
  for (size_t h = 0; h < sketch.holes.size(); ++h) {
    std::vector<int64_t> domain;
    domain.reserve(sketch.holes[h].domain.size());
    for (int sym : sketch.holes[h].domain) domain.push_back(sym);
    enc.hole_vars.push_back(
        solver->NewVar("hole" + std::to_string(h), std::move(domain)));
  }
  for (size_t c = 0; c < sketch.connectors.size(); ++c) {
    std::vector<int64_t> domain;
    domain.reserve(sketch.connectors[c].domain.size());
    for (int sym : sketch.connectors[c].domain) domain.push_back(sym);
    enc.connector_vars.push_back(
        solver->NewVar("conn" + std::to_string(c), std::move(domain)));
  }
  for (size_t b = 0; b < sketch.head_bindings.size(); ++b) {
    std::vector<int64_t> domain;
    domain.reserve(sketch.head_bindings[b].domain.size());
    for (int sym : sketch.head_bindings[b].domain) domain.push_back(sym);
    enc.head_binding_vars.push_back(
        solver->NewVar("headbind" + std::to_string(b), std::move(domain)));
  }

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
        std::vector<FdVar> xs, ys;
        std::vector<std::vector<int>> xdoms, ydoms;
        for (size_t k = 0; k < a.size(); ++k) {
          xs.push_back(enc.hole_vars[static_cast<size_t>(a[k])]);
          xdoms.push_back(sketch.holes[static_cast<size_t>(a[k])].domain);
          ys.push_back(enc.hole_vars[static_cast<size_t>(b[k])]);
          ydoms.push_back(sketch.holes[static_cast<size_t>(b[k])].domain);
        }
        DYNAMITE_RETURN_NOT_OK(
            solver->AddConstraint(LexLeq(xs, xdoms, ys, ydoms, 0)));
      }
    }
  }

  // Connector occurrence: choosing an attribute variable requires some hole
  // to carry it.
  for (size_t c = 0; c < sketch.connectors.size(); ++c) {
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
