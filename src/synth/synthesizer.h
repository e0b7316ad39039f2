// Top-level Datalog program synthesis (§4.1, Algorithm 1).
//
//   Synthesize(S, S', E):
//     Ψ ← InferAttrMapping;  Ω ← SketchGen(Ψ);  Φ ← Encode(Ω)
//     while SAT(Φ): σ ← model; P ← Instantiate(Ω, σ)
//       if ⟦P⟧I = O: return P
//       Φ ← Φ ∧ Analyze(σ, ⟦P⟧I, O)
//
// Synthesis proceeds per top-level target record (one rule sketch each; the
// full program is their union, cf. Lemma 7/Theorem 3). Candidate programs
// are executed with the in-repo Datalog engine and compared to the expected
// output instance-structurally (record identifiers are existential).

#ifndef DYNAMITE_SYNTH_SYNTHESIZER_H_
#define DYNAMITE_SYNTH_SYNTHESIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "datalog/engine.h"
#include "schema/schema.h"
#include "synth/attr_map.h"
#include "synth/example.h"
#include "synth/mdp.h"
#include "synth/sketch.h"
#include "util/result.h"

namespace dynamite {

class ThreadPool;

/// Knobs for the synthesis loop.
struct SynthesisOptions {
  /// false = Dynamite-Enum: block only the failed model (§6.4 baseline).
  bool use_analysis = true;
  /// false = ablation: use Generalize without MDPs (all head vars pinned).
  bool use_mdp = true;
  /// Filtering extension (§5): constants in hole domains.
  bool enable_filtering = false;
  size_t max_constants_per_hole = 4;
  /// Cap on sampled models across all rules (kEvalBudget when exhausted).
  size_t max_iterations = 5'000'000;
  /// MDP search limits.
  MdpOptions mdp;
  /// Budget for evaluating one candidate program on the example.
  double eval_timeout_seconds = 5.0;
  size_t eval_max_tuples = 500'000;
  /// Worker threads for the candidate-evaluation engine (see
  /// DatalogEngine::Options::num_threads; 0 = auto/env, 1 = sequential,
  /// results are bit-identical at any value). Set from
  /// SessionOptions::num_threads by the Session API.
  size_t eval_num_threads = 0;
  /// Portfolio threads for candidate *enumeration* — the control plane,
  /// independent of eval_num_threads (the data plane within one
  /// evaluation). 0 = auto: DYNAMITE_NUM_THREADS (see ResolveNumThreads),
  /// else sequential; 1 = the exact sequential enumeration loop, never
  /// overridden; > 1 = speculative portfolio search (workers pre-evaluate
  /// upcoming candidates on private engine/solver clones while the
  /// canonical loop replays the sequential enumeration order; values above
  /// 256 are clamped to 256). The synthesized program,
  /// every stat except SynthesisResult::portfolio, and all error codes are
  /// identical at any value — see src/synth/README.md for why.
  size_t synth_threads = 0;
  /// Shared-prefix memoization inside the portfolio (candidates in one
  /// speculation batch that differ only in a hole suffix share one prefix
  /// join). Results are bit-identical with it on or off; the knob exists
  /// for ablation and the memo-off identity test.
  bool prefix_memo = true;
};

/// Portfolio-search counters (synth_threads > 1; all zero otherwise).
/// Unlike `iterations` these are advisory and may vary with thread count
/// or timing — speculative work the canonical enumeration never consumed
/// is invisible in every other stat.
struct SynthPortfolioStats {
  /// Candidate evaluations answered by extending a batch-shared prefix
  /// join instead of running the full plan.
  size_t prefix_memo_hits = 0;
  /// Candidate evaluations answered from the speculation memo (includes
  /// prefix_memo_hits).
  size_t speculative_hits = 0;
  /// Speculation batches abandoned after a worker fault; the enumeration
  /// degrades to the sequential path with identical results (the synthesis
  /// analogue of DatalogEngine::Stats::parallel_fallbacks).
  size_t parallel_fallbacks = 0;
};

/// Per-rule synthesis statistics.
struct RuleStats {
  std::string target_record;
  double search_space = 1;  ///< possible completions of this rule's sketch
  size_t iterations = 0;    ///< models sampled
  double seconds = 0;
  size_t body_predicates = 0;  ///< after simplification
};

/// Result of a successful synthesis.
struct SynthesisResult {
  Program program;      ///< simplified program
  Program raw_program;  ///< as instantiated from the sketches
  /// SynthesizeDistinct only: further consistent programs, each differing
  /// from raw_program in one rule and pairwise semantically distinct
  /// (unsimplified, like raw_program). Empty after Synthesize.
  std::vector<Program> alternatives;
  double search_space = 1;
  size_t iterations = 0;  ///< models sampled to find `program`
  double seconds = 0;     ///< wall time of the whole call
  std::vector<RuleStats> rule_stats;
  AttributeMapping psi;
  /// Portfolio-search counters; zero when synth_threads <= 1.
  SynthPortfolioStats portfolio;
  const SynthPortfolioStats& stats() const { return portfolio; }
};

/// Programming-by-example synthesizer for schema-mapping Datalog programs:
/// the synthesis stage behind dynamite::Session (src/api/session.h), which
/// is the pipeline's public surface. Every call is bounded and observed by
/// its RunContext — the run's only wall-clock budget (kTimeout on deadline,
/// kCancelled on cancellation, kEvalBudget on max_iterations) — and fires
/// progress events per phase and per candidate batch.
class Synthesizer {
 public:
  Synthesizer(Schema source, Schema target,
              SynthesisOptions options = SynthesisOptions());
  ~Synthesizer();
  Synthesizer(Synthesizer&&) noexcept;
  Synthesizer& operator=(Synthesizer&&) noexcept;

  /// Synthesizes a program P with ⟦P⟧(E.input) = E.output, or
  /// kSynthesisFailure. SynthesizeDistinct with limit 1.
  Result<SynthesisResult> Synthesize(const Example& example, const RunContext& ctx) const;

  /// Synthesize's result plus up to `limit - 1` alternatives in
  /// SynthesisResult::alternatives (used by interactive mode to detect
  /// ambiguity). The alternatives continue the same enumeration; running
  /// out of budget while searching them ends the search with what was
  /// found, cancellation fails the call.
  Result<SynthesisResult> SynthesizeDistinct(const Example& example, size_t limit,
                                             const RunContext& ctx) const;

  const Schema& source_schema() const { return source_; }
  const Schema& target_schema() const { return target_; }
  const SynthesisOptions& options() const { return options_; }

 private:
  /// The one search driver: Prepare, portfolio set-up, per-rule Init/Next
  /// and RuleStats for the first program, then the alternatives. It is
  /// SynthesizeDistinct minus the crash-free boundary (the public entry
  /// installs the run's MemoryBudget and maps thrown bad_alloc / injected
  /// faults to typed Statuses).
  Result<SynthesisResult> Search(const Example& example, size_t limit,
                                 const RunContext& ctx) const;

  /// The portfolio worker pool (synth_threads - 1 spawned threads; the
  /// calling thread participates), created lazily on the first portfolio
  /// call and reused across calls, like the engine's fixpoint pool.
  /// Nullptr when synthesis resolves to sequential.
  ThreadPool* PortfolioPool(size_t synth_threads) const;

  Schema source_;
  Schema target_;
  SynthesisOptions options_;
  mutable std::unique_ptr<ThreadPool> portfolio_pool_;
};

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_SYNTHESIZER_H_
