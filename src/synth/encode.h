// SMT encoding of sketch completions (§4.3, "Sketch encoding").
//
// Every hole (and connector unknown) becomes a finite-domain variable over
// its symbol ids. Well-formedness constraints: (1) every hole takes a value
// from its domain (implicit in the FD encoding); (2) every head variable
// appears in the body — for each target attribute, some hole is assigned
// its head variable; (3) a connector choosing an attribute variable v^i_a
// requires some hole to be assigned v^i_a (otherwise the grouping variable
// would not occur in the body).

#ifndef DYNAMITE_SYNTH_ENCODE_H_
#define DYNAMITE_SYNTH_ENCODE_H_

#include <vector>

#include "solver/fd.h"
#include "synth/sketch.h"
#include "util/result.h"

namespace dynamite {

/// FD variables corresponding to the sketch unknowns.
struct SketchEncoding {
  std::vector<FdVar> hole_vars;
  std::vector<FdVar> connector_vars;
  std::vector<FdVar> head_binding_vars;
};

/// Encodes the sketch into `solver`; returns the variable handles.
Result<SketchEncoding> EncodeSketch(const RuleSketch& sketch, FdSolver* solver);

/// Extracts the model after a successful Solve().
SketchModel ExtractModel(const SketchEncoding& encoding, const FdSolver& solver);

/// The conjunction `x_i = σ(x_i) for all unknowns` — its BlockingClause is
/// the baseline (Dynamite-Enum) blocking clause ruling out exactly one
/// program.
std::vector<FdLit> ModelEquality(const SketchEncoding& encoding, const SketchModel& model);

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_ENCODE_H_
