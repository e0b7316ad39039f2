// dynamite::Session — the unified pipeline API.
//
// The paper's workflow is one pipeline: infer mapping → sketch → SAT-guided
// search → evaluate → (optionally) interact → migrate. A Session is built
// once from (source schema, target schema, options), validates both schemas
// at that point, and exposes every pipeline stage as composable calls that
// share state:
//
//   * one DatalogEngine for all migrations — its compiled-rule cache
//     survives across Migrate calls and the distinguishing-input probes of
//     interactive mode (the join indexes over each call's converted
//     instance are released when the call ends: that instance dies with
//     it);
//   * the process-wide interned-string pool (values interned while reading
//     the example are reused when migrating the full instance);
//   * schemas validated once, instead of re-copied and re-trusted by three
//     separate classes.
//
// Every call takes a RunContext carrying the run's deadline, CancelToken,
// and ProgressObserver; errors come back as typed ErrorCodes (see
// src/api/README.md for the full taxonomy):
//
//   kSchemaMismatch     schema invalid / instance inconsistent with schema
//   kSynthesisFailure   no program consistent with the example
//   kTimeout            the RunContext (or default budget) deadline passed
//   kCancelled          the CancelToken was triggered
//   kEvalBudget         an iteration/tuple budget exhausted
//   kResourceExhausted  the memory budget exhausted, or allocation failed
//   kAmbiguous          several programs remain and the options demand one
//
// Every Session call is a crash-free boundary: allocation failure inside the
// pipeline (real bad_alloc or a fault injected via DYNAMITE_FAILPOINTS)
// surfaces as a typed Status, never as a crash, and leaves the Session
// reusable.
//
// A Session is the pipeline's only public surface. The stage classes behind
// it — Synthesizer, RunInteractive and Migrator — are its implementation:
// one of each per stage, taking the RunContext as their only wall-clock
// budget.

#ifndef DYNAMITE_API_SESSION_H_
#define DYNAMITE_API_SESSION_H_

#include <memory>
#include <string>

#include "api/run_context.h"
#include "migrate/migrator.h"
#include "schema/schema.h"
#include "synth/interactive.h"
#include "synth/synthesizer.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/trace.h"

namespace dynamite {

/// Knobs for a Session, grouping the per-stage options of its three stages.
/// Wall-clock budgeting is unified: per-call RunContext deadlines govern,
/// defaulted by `default_budget_seconds`.
struct SessionOptions {
  /// Synthesis-stage knobs (analysis/MDP toggles, filtering, iteration and
  /// per-candidate evaluation budgets).
  SynthesisOptions synthesis;
  /// Interactive-stage knobs (rounds, probe width, query size).
  InteractiveOptions interactive;
  /// Engine options for the migration engine (the synthesis stage keeps its
  /// own per-candidate evaluation engine, configured from `synthesis`).
  DatalogEngine::Options engine;
  /// Budget applied when a call's RunContext deadline is infinite; <= 0
  /// means unbounded. One knob instead of four scattered ones.
  double default_budget_seconds = 600;
  /// Engine worker threads for Datalog evaluation, applied (when non-zero)
  /// to both the shared migration engine and the synthesis stage's
  /// candidate-evaluation engine. 0 (default) defers to the engine-level
  /// settings (whose own default is "auto": DYNAMITE_NUM_THREADS or
  /// sequential); 1 forces the exact sequential behavior; > 1 fans out
  /// plan evaluation over the engine's pool, the only pool Migrate uses:
  /// fact ingest and forest reconstruction run on the calling thread.
  /// The Session itself stays one-per-thread; the engines fan out
  /// internally and their results are bit-identical at any thread count,
  /// so this is purely a throughput knob. Values above kMaxNumThreads
  /// (256, src/util/thread_pool.h) are clamped to it, so a pool never
  /// holds more than 255 spawned threads.
  size_t num_threads = 0;
  /// Portfolio threads for synthesis candidate *enumeration* (see
  /// SynthesisOptions::synth_threads — the control plane; num_threads above
  /// is the data plane within one Datalog evaluation). 0 (default) follows
  /// num_threads when that is set, else defers to the synthesis-level knob
  /// (whose own default is "auto": DYNAMITE_NUM_THREADS or sequential); 1
  /// forces the exact sequential enumeration; > 1 fans candidate
  /// evaluation across a worker portfolio. The synthesized program, stats,
  /// and error codes are identical at any value, so like num_threads this
  /// is purely a throughput knob, clamped to kMaxNumThreads (256) the same
  /// way.
  size_t synth_threads = 0;
  /// When true, SynthesizeInteractive fails with kAmbiguous if the
  /// validation pool cannot distinguish the remaining candidates (instead
  /// of silently accepting the first). The cheap Synthesize call is
  /// unaffected.
  bool fail_on_ambiguity = false;
  /// Per-call byte budget covering every pipeline stage (fact conversion,
  /// evaluation — relation growth, join indexes, interned strings, parallel
  /// emit buffers — and forest reconstruction: the child indexes and the
  /// output records, cell entries and child lists); exceeding it fails the call
  /// with kResourceExhausted instead of OOM-killing the process. 0 (the
  /// default) disables the check. A budget already carried by the call's
  /// RunContext (ctx.memory) wins — one budget per run, never one per
  /// stage. Independent of the engine's tuple-count cap (kEvalBudget) and
  /// the wall-clock budget (kTimeout); see src/api/README.md for the
  /// budget-to-error matrix.
  size_t max_memory_bytes = 0;
};

/// Result of the one-shot SynthesizeAndMigrate pipeline.
struct PipelineResult {
  SynthesisResult synthesis;
  RecordForest migrated;
  MigrationStats migration;
};

/// One synthesis-and-migration session over a fixed (source, target) schema
/// pair. Re-entrant in the sense that calls can be issued repeatedly and
/// reuse the session's engine caches; not thread-safe (one Session per
/// thread, matching the engine's single-threaded contract).
class Session {
 public:
  /// Validates both schemas (kSchemaMismatch on failure) and builds the
  /// shared pipeline state.
  static Result<Session> Create(Schema source, Schema target,
                                SessionOptions options = SessionOptions());

  /// Synthesizes a migration program from one input-output example.
  /// Errors: kSchemaMismatch (example inconsistent with the schemas),
  /// kSynthesisFailure, kTimeout, kCancelled, kEvalBudget.
  Result<SynthesisResult> Synthesize(const Example& example,
                                     const RunContext& ctx = RunContext()) const;

  /// Interactive synthesis (§5): resolves ambiguity with distinguishing
  /// queries answered by `oracle` over `validation_pool`. An oracle answer
  /// of kCancelled stops the questioning and returns the best program so
  /// far (InteractiveResult::cancelled = true, partial stats); kAmbiguous
  /// when the pool cannot resolve and options().fail_on_ambiguity is set.
  Result<InteractiveResult> SynthesizeInteractive(
      const Example& example, const RecordForest& validation_pool, const Oracle& oracle,
      const RunContext& ctx = RunContext()) const;

  /// Executes `program` on a full source instance using the session's
  /// shared engine (compiled rules persist across calls).
  /// Fills `*stats` if non-null.
  Result<RecordForest> Migrate(const Program& program, const RecordForest& source,
                               MigrationStats* stats = nullptr,
                               const RunContext& ctx = RunContext()) const;

  /// The whole paper pipeline in one call: synthesize from `example`, then
  /// migrate `source_instance` with the synthesized program. One budget
  /// covers both stages.
  Result<PipelineResult> SynthesizeAndMigrate(const Example& example,
                                              const RecordForest& source_instance,
                                              const RunContext& ctx = RunContext()) const;

  const Schema& source_schema() const { return source_; }
  const Schema& target_schema() const { return target_; }
  const SessionOptions& options() const { return options_; }

  /// Cumulative statistics of the shared migration engine.
  DatalogEngine::Stats engine_stats() const { return migrator_->engine_stats(); }

  /// Snapshot of the process-wide metrics registry (util/metrics.h):
  /// counters like "engine.plan_refreshes" / "synth.prefix_memo_hits" /
  /// "ingest.child_index_lookups", plus gauges and histograms. Process-wide — spans
  /// every Session and engine in the process, cumulative since start; the
  /// per-object stats() structs remain the per-run source of truth.
  metrics::MetricsSnapshot Metrics() const { return metrics::Snapshot(); }

  /// Dumps every trace span recorded since arming (trace::Arm() or
  /// DYNAMITE_TRACE=path) as Chrome trace-event JSON — open in Perfetto.
  /// Call between pipeline calls, not concurrently with one (see
  /// util/trace.h for the concurrency contract).
  Status DumpTrace(const std::string& path) const {
    return trace::WriteChromeTrace(path);
  }

 private:
  Session(Schema source, Schema target, SessionOptions options);

  /// Applies the default budget to a caller-supplied context and checks the
  /// example/instance against the schemas (kSchemaMismatch).
  RunContext Bounded(const RunContext& ctx) const;
  Status CheckAgainstSchema(const RecordForest& forest, const Schema& schema,
                            const char* what) const;

  Schema source_;
  Schema target_;
  SessionOptions options_;
  /// unique_ptr: Migrator owns a move-only DatalogEngine, and Session must
  /// stay movable for Result<Session>.
  std::unique_ptr<Migrator> migrator_;
  std::unique_ptr<Synthesizer> synthesizer_;
};

}  // namespace dynamite

#endif  // DYNAMITE_API_SESSION_H_
