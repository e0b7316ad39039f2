#include "synth/analyze.h"

namespace dynamite {

namespace {

/// Flattened view of the model: (fd var, chosen symbol id) pairs over holes
/// and connectors.
struct Assignment {
  FdVar var;
  int symbol;
};

std::vector<Assignment> Assignments(const SketchEncoding& encoding,
                                    const SketchModel& model) {
  std::vector<Assignment> out;
  for (size_t h = 0; h < encoding.hole_vars.size(); ++h) {
    out.push_back({encoding.hole_vars[h], model.hole_choice[h]});
  }
  for (size_t c = 0; c < encoding.connector_vars.size(); ++c) {
    out.push_back({encoding.connector_vars[c], model.connector_choice[c]});
  }
  return out;
}

/// The pairwise equality pattern of σ: the part of Generalize(σ, ϕ) that
/// does not depend on ϕ (α's "otherwise" branch applies to every unknown;
/// pinned unknowns are additionally constrained by AppendPins, which keeps
/// the formula weaker-or-equal and still sound).
void AppendPattern(const std::vector<Assignment>& sigma, std::vector<FdLit>* conj) {
  for (size_t i = 0; i < sigma.size(); ++i) {
    for (size_t j = i + 1; j < sigma.size(); ++j) {
      FdLit eq = FdLit::EqVar(sigma[i].var, sigma[j].var);
      conj->push_back(sigma[i].symbol == sigma[j].symbol ? eq : !eq);
    }
  }
}

/// The rest of Generalize(σ, ϕ), after the pattern.
void AppendPins(const RuleSketch& sketch, const SketchEncoding& encoding,
                const SketchModel& model, const std::vector<Assignment>& sigma,
                const std::set<std::string>& phi, std::vector<FdLit>* conj) {
  // Pin head variables of attributes in ϕ, and pin constants (renaming a
  // constant is not semantics-preserving).
  for (const Assignment& a : sigma) {
    const SketchSymbol& sym = sketch.symbols.At(a.symbol);
    bool pin = false;
    if (sym.kind == SketchSymbol::Kind::kHeadVar && phi.count(sym.attr) > 0) pin = true;
    if (sym.kind == SketchSymbol::Kind::kConstant) pin = true;
    if (pin) conj->push_back(FdLit::Eq(a.var, a.symbol));
  }
  // Theorem 1 renames variables to variables: an unknown assigned a
  // *variable* by σ must not generalize to a constant (filtering mode puts
  // constants in hole domains), so exclude every constant in its domain.
  for (size_t h = 0; h < encoding.hole_vars.size(); ++h) {
    const SketchSymbol& sym = sketch.symbols.At(model.hole_choice[h]);
    if (sym.kind == SketchSymbol::Kind::kConstant) continue;
    for (int d : sketch.holes[h].domain) {
      if (sketch.symbols.At(d).kind == SketchSymbol::Kind::kConstant) {
        conj->push_back(!FdLit::Eq(encoding.hole_vars[h], d));
      }
    }
  }
  // Head bindings (filtering mode) are always pinned: flipping between
  // body-bound and constant-bound changes semantics in ways renaming cannot
  // cover, so generalization never relaxes them.
  for (size_t b = 0; b < encoding.head_binding_vars.size(); ++b) {
    conj->push_back(FdLit::Eq(encoding.head_binding_vars[b], model.head_binding_choice[b]));
  }
}

}  // namespace

std::vector<FdLit> Generalize(const RuleSketch& sketch, const SketchEncoding& encoding,
                              const SketchModel& model, const std::set<std::string>& phi) {
  std::vector<Assignment> sigma = Assignments(encoding, model);
  std::vector<FdLit> conj;
  conj.reserve(sigma.size() * (sigma.size() + 1) / 2 + encoding.head_binding_vars.size());
  AppendPattern(sigma, &conj);
  AppendPins(sketch, encoding, model, sigma, phi, &conj);
  return conj;
}

std::vector<FdClause> AnalyzeBlocking(const RuleSketch& sketch,
                                      const SketchEncoding& encoding,
                                      const SketchModel& model,
                                      const std::vector<std::vector<std::string>>& mdps) {
  if (mdps.empty()) {
    // No MDP available: pin every head-variable assignment (plain
    // Generalize(σ) of the paper).
    std::set<std::string> all_heads;
    for (size_t i = 0; i < sketch.symbols.size(); ++i) {
      const SketchSymbol& sym = sketch.symbols.At(static_cast<int>(i));
      if (sym.kind == SketchSymbol::Kind::kHeadVar) all_heads.insert(sym.attr);
    }
    return {BlockingClause(Generalize(sketch, encoding, model, all_heads))};
  }
  // Generalize(σ, ϕ) per MDP ϕ; the pairwise pattern is shared.
  const std::vector<Assignment> sigma = Assignments(encoding, model);
  std::vector<FdLit> pattern;
  pattern.reserve(sigma.size() * (sigma.size() - 1) / 2);
  AppendPattern(sigma, &pattern);
  std::vector<FdClause> blocks;
  blocks.reserve(mdps.size());
  for (const std::vector<std::string>& mdp : mdps) {
    std::set<std::string> phi(mdp.begin(), mdp.end());
    std::vector<FdLit> conj;
    conj.reserve(pattern.size() + sigma.size() + encoding.head_binding_vars.size());
    conj = pattern;
    AppendPins(sketch, encoding, model, sigma, phi, &conj);
    blocks.push_back(BlockingClause(std::move(conj)));
  }
  return blocks;
}

}  // namespace dynamite
