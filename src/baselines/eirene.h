// Eirene-like baseline (§6.5, [6] Alexe et al., PVLDB'11) — reimplemented
// from the published approach for the Figure 10 comparison. Eirene fits a
// GLAV schema mapping to data examples for relational-to-relational
// scenarios: it derives one source-to-target tgd per target relation from
// the canonical instance of the example. The fitted mapping is correct but
// not minimized — redundant body atoms survive (Figure 10(b) reports 4.5x
// more redundant predicates than Dynamite) — and candidate elimination is
// one-at-a-time (no MDP-style generalization).

#ifndef DYNAMITE_BASELINES_EIRENE_H_
#define DYNAMITE_BASELINES_EIRENE_H_

#include "api/run_context.h"
#include "datalog/ast.h"
#include "schema/schema.h"
#include "synth/example.h"
#include "util/result.h"

namespace dynamite {

struct EireneResult {
  Program glav;  ///< fitted GLAV mapping as (unsimplified) Datalog tgds
  size_t iterations = 0;
  double seconds = 0;
};

/// Eirene-style GLAV fitting from data examples (relational-to-relational).
class EireneSynthesizer {
 public:
  EireneSynthesizer(Schema source, Schema target);

  /// Fits the mapping through a Session, bounded by `ctx` (or, when its
  /// deadline is infinite, by the Session's default budget).
  Result<EireneResult> Synthesize(const Example& example,
                                  const RunContext& ctx = RunContext()) const;

 private:
  Schema source_;
  Schema target_;
};

}  // namespace dynamite

#endif  // DYNAMITE_BASELINES_EIRENE_H_
