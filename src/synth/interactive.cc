#include "synth/interactive.h"

#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "util/timer.h"

namespace dynamite {

namespace {

/// Enumerates subsets of pool roots in increasing size order, invoking `fn`
/// until it returns true or the budget is exhausted.
void ForEachSubset(const RecordForest& pool, size_t max_size, size_t budget,
                   const std::function<bool(const RecordForest&)>& fn) {
  size_t n = pool.roots.size();
  size_t used = 0;
  // Standard lexicographic combination enumeration, size 1 upward (the
  // paper enumerates test inputs in increasing order of size).
  for (size_t k = 1; k <= max_size && k <= n; ++k) {
    std::vector<size_t> pick(k);
    for (size_t i = 0; i < k; ++i) pick[i] = i;
    bool exhausted = false;
    while (!exhausted) {
      RecordForest subset;
      for (size_t i : pick) subset.roots.push_back(pool.roots[i]);
      if (++used > budget) return;
      if (fn(subset)) return;
      // Advance to the next combination.
      size_t i = k;
      for (;;) {
        if (i == 0) {
          exhausted = true;
          break;
        }
        --i;
        if (pick[i] != i + n - k) {
          ++pick[i];
          for (size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
          break;
        }
      }
    }
  }
}

}  // namespace

Result<InteractiveResult> RunInteractive(const Synthesizer& synthesizer,
                                         const Migrator& migrator, Example example,
                                         const RecordForest& validation_pool,
                                         const Oracle& oracle,
                                         const InteractiveOptions& options,
                                         const RunContext& ctx) {
  InteractiveResult out;
  Timer total;

  auto report = [&](const std::string& detail) {
    if (!ctx.observer) return;
    ProgressEvent event;
    event.phase = Phase::kInteract;
    event.detail = detail;
    event.rounds = out.rounds;
    event.queries = out.queries;
    event.elapsed_seconds = total.ElapsedSeconds();
    ctx.Report(event);
  };

  for (size_t round = 0; round < options.max_rounds; ++round) {
    DYNAMITE_RETURN_NOT_OK(ctx.Check("interactive round"));
    ++out.rounds;
    report("round");
    // The round's first program is the final answer on every exit but one
    // (the example only changes when the oracle answers), so it is kept
    // rather than re-synthesized.
    DYNAMITE_ASSIGN_OR_RETURN(out.result,
                              synthesizer.SynthesizeDistinct(example, options.max_programs, ctx));
    if (out.result.alternatives.empty()) {
      out.unique = true;
      return out;
    }

    // Search a distinguishing input between the first program and any
    // alternative. Probe migrations run under a context without the
    // observer: they are internal (hundreds per round), and their kMigrate
    // events would be indistinguishable from a user-requested migration.
    RunContext probe_ctx = ctx;
    probe_ctx.observer = nullptr;
    const Program& p1 = out.result.raw_program;
    bool resolved_this_round = false;
    for (size_t alt = 0; alt < out.result.alternatives.size() && !resolved_this_round;
         ++alt) {
      const Program& p2 = out.result.alternatives[alt];
      RecordForest distinguishing;
      bool found = false;
      ForEachSubset(validation_pool, options.max_query_records,
                    options.max_candidate_inputs,
                    [&](const RecordForest& candidate) {
                      if (ctx.Interrupted()) return true;  // stop enumerating
                      auto o1 = migrator.Migrate(p1, candidate, probe_ctx);
                      auto o2 = migrator.Migrate(p2, candidate, probe_ctx);
                      if (!o1.ok() || !o2.ok()) return false;
                      if (!ForestEquals(*o1, *o2)) {
                        distinguishing = candidate;
                        found = true;
                        return true;
                      }
                      return false;
                    });
      DYNAMITE_RETURN_NOT_OK(ctx.Check("distinguishing-input search"));
      if (found) {
        ++out.queries;
        report("query");
        auto answer = oracle(distinguishing);
        if (!answer.ok()) {
          if (answer.status().code() == StatusCode::kCancelled) {
            // The user declined to keep answering: not a synthesis failure.
            // Stop querying and return the best program for the answers
            // accumulated so far, with partial interaction stats.
            out.cancelled = true;
            out.unique = false;
            return out;
          }
          return answer.status();
        }
        Example extra;
        extra.input = distinguishing;
        extra.output = std::move(answer).ValueOrDie();
        example.Merge(extra);
        resolved_this_round = true;
      }
    }
    if (!resolved_this_round) {
      // Candidates are observationally equivalent on the validation pool:
      // accept the first program.
      out.unique = false;
      return out;
    }
  }
  // Round budget exhausted: the last answer was merged after the round's
  // search, so synthesize once more from the accumulated example.
  DYNAMITE_ASSIGN_OR_RETURN(out.result, synthesizer.Synthesize(example, ctx));
  return out;
}

}  // namespace dynamite
