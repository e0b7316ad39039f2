// Root-cause analysis and blocking-clause generation (§4.3, Algorithm 3).
//
// Given a failed model σ, Generalize(σ, ϕ) describes the family of models
// that provably also fail: models that agree with σ on the equality /
// disequality pattern between unknowns (Theorem 1: Datalog semantics is
// invariant under injective variable renaming), that pin assignments to
// head variables of attributes in the MDP ϕ, and that pin constants (the
// filtering extension's constants are not renameable). The negation of each
// Generalize(σ, ϕ) is a blocking clause (Theorem 2).

#ifndef DYNAMITE_SYNTH_ANALYZE_H_
#define DYNAMITE_SYNTH_ANALYZE_H_

#include <set>
#include <string>
#include <vector>

#include "solver/fd.h"
#include "synth/encode.h"
#include "synth/sketch.h"

namespace dynamite {

/// Generalize(σ, ϕ): the conjunction of literals describing all models
/// whose instantiation is equivalent (on the projection ϕ) to σ's. `phi` is
/// a set of target attribute names; pass all head attributes to get the
/// paper's plain Generalize(σ). The `x = y` atoms come in pair order
/// (i < j over holes, then connectors), which fixes the order in which the
/// solver allocates their literals.
std::vector<FdLit> Generalize(const RuleSketch& sketch, const SketchEncoding& encoding,
                              const SketchModel& model, const std::set<std::string>& phi);

/// The Analyze procedure (Algorithm 3): one blocking clause
/// ¬Generalize(σ, ϕ) per MDP ϕ in `mdps`, to be asserted together with
/// FdSolver::AddClauses. With an empty MDP set, falls back to a single
/// blocking clause with all head-variable assignments pinned.
std::vector<FdClause> AnalyzeBlocking(const RuleSketch& sketch,
                                      const SketchEncoding& encoding,
                                      const SketchModel& model,
                                      const std::vector<std::vector<std::string>>& mdps);

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_ANALYZE_H_
