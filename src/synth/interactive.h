// Interactive mode (§5 and Appendix B).
//
// When several programs are consistent with the example, Dynamite searches
// for a small *distinguishing input* — a subset of validation records on
// which two candidate programs disagree — asks the user (an Oracle callback
// here) for the corresponding output, merges the answer into the example,
// and re-synthesizes until the ambiguity is resolved.

#ifndef DYNAMITE_SYNTH_INTERACTIVE_H_
#define DYNAMITE_SYNTH_INTERACTIVE_H_

#include <functional>

#include "synth/synthesizer.h"

namespace dynamite {

class Migrator;

/// Answers a distinguishing query: given a source input, returns the target
/// output the user expects. In tests and benchmarks this is the golden
/// program run through a Session.
using Oracle = std::function<Result<RecordForest>(const RecordForest& input)>;

struct InteractiveOptions {
  size_t max_rounds = 8;           ///< maximum user interactions
  size_t max_programs = 4;         ///< ambiguity probe width per round
  size_t max_query_records = 3;    ///< distinguishing input size cap
  size_t max_candidate_inputs = 2000;  ///< enumeration budget per round
};

struct InteractiveResult {
  /// The final round's search: its first program is the answer, and its
  /// `alternatives` are the candidates still unresolved when the loop
  /// stopped without `unique`.
  SynthesisResult result;
  size_t rounds = 0;   ///< rounds executed (>= 1)
  size_t queries = 0;  ///< oracle questions asked
  bool unique = false;  ///< true if ambiguity was fully resolved
  /// True when the oracle answered kCancelled: the loop stopped asking and
  /// `result` holds the program synthesized from the answers gathered so
  /// far (partial stats in `rounds`/`queries`). Distinct from cancelling
  /// the whole run via RunContext, which fails with kCancelled instead.
  bool cancelled = false;
};

/// Runs interactive synthesis — the interactive stage behind
/// dynamite::Session::SynthesizeInteractive (src/api/session.h), the
/// pipeline's public surface. `initial` is the starting example,
/// `validation_pool` a forest of source records distinguishing inputs are
/// drawn from (Appendix B samples it from the source database).
/// `synthesizer` runs each round's search and `migrator` the
/// distinguishing-input probes; a Session passes its own, so the portfolio
/// pool and compiled rules persist across rounds and calls. The
/// deadline/cancellation of `ctx` applies across rounds (synthesis,
/// distinguishing-input search, migrations), and a kInteract progress event
/// fires per round and per oracle query.
Result<InteractiveResult> RunInteractive(const Synthesizer& synthesizer,
                                         const Migrator& migrator, Example initial,
                                         const RecordForest& validation_pool,
                                         const Oracle& oracle,
                                         const InteractiveOptions& options,
                                         const RunContext& ctx);

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_INTERACTIVE_H_
