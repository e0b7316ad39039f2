// Bottom-up Datalog evaluation engine (the Souffle substrate).
//
// Evaluates a Datalog program over a FactDatabase of extensional facts and
// returns the intensional relations of the least Herbrand model (§3.2).
// Non-recursive programs (all that synthesis needs) complete in one pass;
// recursive programs are handled with semi-naive fixpoint iteration, so the
// engine is a complete substrate rather than a special case.
//
// Performance architecture (see src/datalog/README.md for the full picture):
//
//   * Rules compile to join plans whose body atoms are reordered by
//     estimated selectivity (bound-position count, then relation
//     cardinality); each plan step is a hash-index lookup on the positions
//     bound by constants or earlier atoms.
//   * Body atoms whose bindings never reach the head are only checked for
//     a match, not enumerated: head-disconnected components (guards) run
//     once per plan up to their first match, and atoms after the last
//     head-binding atom stop at their first row that completes the plan.
//     Derived rows and their order are unchanged.
//   * Join indexes are persistent and incremental (src/datalog/index.h).
//     EDB indexes survive across Eval calls on the same engine — the
//     synthesizer evaluates thousands of candidate programs against one
//     example instance, paying each index build once. IDB indexes are
//     extended, never rebuilt, as the fixpoint derives tuples; semi-naive
//     deltas are suffix ranges of the append-only tuple vectors.
//   * Compiled rules are cached across Eval calls (keyed by rule text and
//     IDB signature), so repeated candidate checks skip recompilation. Join
//     orders are chosen with the cardinalities seen at first compile; stale
//     statistics trigger a re-plan (EDB drift at cache-hit time, IDB drift
//     after round 0 of the fixpoint) but never cost correctness.
//
// Every plan runs row at a time on the calling thread, in one
// deterministic emission order. The engine is single-threaded and
// move-only (one engine per thread; it owns the caches above).
// Parallelism lives above it: the synthesis portfolio runs one engine per
// worker (src/synth/README.md).

#ifndef DYNAMITE_DATALOG_ENGINE_H_
#define DYNAMITE_DATALOG_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/run_context.h"
#include "datalog/ast.h"
#include "util/result.h"
#include "value/database.h"

namespace dynamite {

class SharedIndexCache;

/// Bottom-up Datalog evaluator.
class DatalogEngine {
 public:
  struct Options {
    /// Fixpoint iteration cap (cycles in the rule dependency graph);
    /// exceeding it aborts with kEvalBudget.
    size_t max_iterations = 1'000'000;
    /// Hard cap on total derived tuples; evaluation aborts with kEvalBudget
    /// when exceeded (guards against pathological joins, cf. §6.2 of the
    /// paper where random examples cause very large intermediate outputs).
    size_t max_derived_tuples = 20'000'000;
    /// Per-Eval wall-clock budget in seconds; <= 0 disables the check.
    /// Composed (Deadline::Earliest) with the RunContext deadline when one
    /// is passed; either expiring aborts with kTimeout. Polled every 1024
    /// join-candidate inspections (a fixed stride independent of how many
    /// tuples happen to be derived).
    double timeout_seconds = 0;
    /// Reorder body atoms by estimated selectivity at compile time.
    bool reorder_joins = true;
    /// Cache compiled rules across Eval calls on this engine. Cached plans
    /// are re-planned automatically when any EDB body relation's
    /// cardinality drifts ≥4x from the size seen at planning time, or —
    /// for recursive rules — when an IDB body relation's round-0 size
    /// drifts ≥4x from the size recorded on the first Eval (the
    /// statistics-refresh checks; see stats().plan_refreshes). Worth it
    /// for an engine that runs the same program repeatedly (the Migrator);
    /// the synthesizer's candidate engines turn it off, since each
    /// candidate rule is evaluated once.
    bool cache_compiled_rules = true;
    /// Inert: nothing reads it, and every Eval runs on the calling thread.
    /// It remains only because perfbench/perfbench.cc still assigns it,
    /// and goes when perfbench stops. The one thread knob is
    /// SessionOptions::num_threads, which sizes the synthesis portfolio.
    size_t num_threads = 0;
    /// Per-Eval byte budget covering relation growth, join-index posting
    /// lists and interned strings; exceeding it aborts with
    /// kResourceExhausted instead of OOM-killing the process. 0 disables
    /// the check. When the caller's RunContext already carries a
    /// MemoryBudget (a Session run), that budget is charged instead and
    /// this knob is ignored — one budget per run, not per stage. With
    /// neither, Eval charges the budget the caller installed on the thread
    /// (MemoryBudgetScope), if any.
    size_t max_memory_bytes = 0;
    /// Inert: nothing reads it, and every plan is matched row at a time.
    /// It remains only because perfbench/perfbench.cc still assigns it,
    /// and goes when perfbench stops. The engine has one matcher and no
    /// block-size knob.
    size_t probe_block_rows = 0;
  };

  /// Counters accumulated across Eval calls on this engine. Deterministic:
  /// identical for the same Eval sequence.
  struct Stats {
    /// Cached rules recompiled because their join-order statistics went
    /// stale: ≥4x cardinality drift on an EDB body relation (checked at
    /// cache-hit time) or on a recursive rule's IDB body relation's
    /// round-0 size (checked after pass 0 of each fixpoint, against the
    /// sizes recorded on the rule's first Eval).
    size_t plan_refreshes = 0;
    /// Join indexes currently held in this engine's private EDB index
    /// cache — a level, not a running total. Indexes over an EDB that
    /// outlives many Evals (the synthesizer's example) are meant to stay;
    /// indexes over a short-lived EDB stay too unless its owner calls
    /// ReleaseEdbIndexes.
    size_t cached_edb_indexes = 0;
  };

  DatalogEngine();
  explicit DatalogEngine(Options options);
  ~DatalogEngine();
  DatalogEngine(DatalogEngine&&) noexcept;
  DatalogEngine& operator=(DatalogEngine&&) noexcept;

  /// Evaluates `program` on `edb`. `idb_signatures` names the attributes of
  /// every intensional relation (relation -> attribute names); arities must
  /// match the head atoms. The result contains exactly the intensional
  /// relations.
  ///
  /// `ctx` (optional) bounds the evaluation: its deadline is composed with
  /// Options::timeout_seconds (kTimeout on expiry) and its CancelToken is
  /// polled at the same fixed stride (kCancelled on request).
  Result<FactDatabase> Eval(
      const Program& program, const FactDatabase& edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx = nullptr) const;

  /// Like Eval, but body atoms may also resolve against `extra_edb`, an
  /// overlay of additional extensional relations checked *before* `edb`
  /// (name collisions resolve to the overlay). The synthesizer's partial-
  /// plan entry point: a shared-prefix join result is published as an
  /// overlay relation and each candidate's residual rule joins against it
  /// (see src/synth/README.md). `extra_edb` may be null (== Eval).
  ///
  /// Overlay relations are indexed in this engine's own cache (keyed by
  /// relation uid — transient overlays must use fresh relations, which
  /// FactDatabase guarantees), never in a shared cache (see below).
  Result<FactDatabase> EvalWithOverlay(
      const Program& program, const FactDatabase& edb, const FactDatabase* extra_edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx = nullptr) const;

  /// Like Eval, but derives signatures automatically (attributes named
  /// "c0", "c1", ...).
  Result<FactDatabase> EvalAutoSignatures(const Program& program,
                                          const FactDatabase& edb,
                                          const RunContext* ctx = nullptr) const;

  /// Attaches a thread-safe cache of JoinIndexes over a *frozen* EDB,
  /// shared with other engines (the synthesis portfolio: one cache, many
  /// worker engines, one example instance). While attached, every base-EDB
  /// index this engine needs is resolved through the shared cache; IDB and
  /// overlay relations keep using the engine's private caches. The caller
  /// owns the freeze contract (see SharedIndexCache in index.h): no
  /// relation evaluated against through this engine may grow while the
  /// cache is attached. Pass nullptr to detach.
  void ShareEdbIndexes(std::shared_ptr<SharedIndexCache> cache);

  /// Drops the join indexes this engine's private cache holds over
  /// `edb`'s relations. For callers whose EDB dies after the Eval (the
  /// migrator's per-call ToFacts relations): the cache is keyed by
  /// relation uid, so those indexes can never be hit again and would
  /// otherwise stay until the cache's size-triggered clear. Call between
  /// Evals only; a shared cache (ShareEdbIndexes) is not touched.
  void ReleaseEdbIndexes(const FactDatabase& edb) const;

  /// Snapshot of the engine's cumulative counters (see Stats).
  Stats stats() const;

 private:
  /// Eval minus the crash-free boundary: Eval resolves the run's
  /// MemoryBudget, installs it, and wraps this in an exception guard that
  /// maps bad_alloc / injected faults to typed Statuses.
  Result<FactDatabase> EvalImpl(
      const Program& program, const FactDatabase& edb, const FactDatabase* extra_edb,
      const std::map<std::string, std::vector<std::string>>& idb_signatures,
      const RunContext* ctx, MemoryBudget* budget) const;

  Options options_;
  /// Persistent EDB join indexes + compiled-rule cache; logically part of
  /// evaluation state, hence mutable behind const Eval.
  struct Caches;
  mutable std::unique_ptr<Caches> caches_;
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_ENGINE_H_
