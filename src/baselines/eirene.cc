#include "baselines/eirene.h"

#include "api/session.h"
#include "util/timer.h"

namespace dynamite {

EireneSynthesizer::EireneSynthesizer(Schema source, Schema target)
    : source_(std::move(source)), target_(std::move(target)) {}

Result<EireneResult> EireneSynthesizer::Synthesize(const Example& example,
                                                   const RunContext& ctx) const {
  Timer timer;
  // Canonical GLAV fitting: search the same mapping space, but (a) eliminate
  // one candidate per counterexample (no conflict generalization) and
  // (b) keep the fitted tgds unminimized — both properties of the original
  // system that Figure 10 measures.
  SessionOptions options;
  options.synthesis.use_analysis = false;
  DYNAMITE_ASSIGN_OR_RETURN(Session fitter, Session::Create(source_, target_, options));
  DYNAMITE_ASSIGN_OR_RETURN(SynthesisResult fitted, fitter.Synthesize(example, ctx));

  EireneResult out;
  out.glav = fitted.raw_program;  // unsimplified: redundant atoms survive
  out.iterations = fitted.iterations;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace dynamite
