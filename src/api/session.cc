#include "api/session.h"

#include <algorithm>
#include <utility>

#include "instance/record_forest.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Attaches the session's byte budget to a bounded context. The budget
/// object must be a per-call local (it outlives the stages, not the call);
/// a budget the caller already put in ctx.memory wins — one budget per run.
RunContext WithBudget(const RunContext& ctx, MemoryBudget* local_budget,
                      size_t max_memory_bytes) {
  if (ctx.memory != nullptr || max_memory_bytes == 0) return ctx;
  RunContext out = ctx;
  out.memory = local_budget;
  return out;
}

/// Per-entry-point trace state: stamps the run with a fresh trace id when
/// tracing is armed (unless the caller pinned one on the context), installs
/// it as the calling thread's ambient id — pool workers inherit it via
/// ThreadPool::Run — and opens the entry point's root span. Member order
/// matters: the id scope outlives the span, so the span records under the
/// run's id.
class SessionTraceScope {
 public:
  SessionTraceScope(const char* name, RunContext* ctx)
      : id_scope_(StampTraceId(ctx)), span_(name) {}

 private:
  static uint64_t StampTraceId(RunContext* ctx) {
    if (ctx->trace_id == 0 && trace::Enabled()) {
      ctx->trace_id = trace::NextTraceId();
    }
    return ctx->trace_id;
  }

  trace::TraceIdScope id_scope_;
  trace::Span span_;
};

/// Mirrors the run's memory high-water into the process gauge. Budget
/// charges are append-only (never refunded), so the budget's used() at the
/// end of the run IS its high-water mark.
void RecordMemoryHighWater(const RunContext& ctx) {
  if (ctx.memory == nullptr) return;
  metrics::GetGauge("mem.budget_high_water_bytes")
      .UpdateMax(static_cast<int64_t>(ctx.memory->used()));
}

}  // namespace

Session::Session(Schema source, Schema target, SessionOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {
  // The synthesis stage owns its per-candidate evaluation engine; the
  // migration engine below is the one shared across Migrate calls and
  // interactive probes. Budgets come from RunContext deadlines (see
  // Bounded()).
  SynthesisOptions synth = options_.synthesis;
  // One thread-count knob for both engines; the stage-level options stay
  // authoritative when the session-level knob is left at 0.
  DatalogEngine::Options engine = options_.engine;
  if (options_.num_threads != 0) {
    engine.num_threads = options_.num_threads;
    synth.eval_num_threads = options_.num_threads;
  }
  // Enumeration portfolio width: the explicit knob wins, else it follows
  // the session-wide thread count (one knob scales the whole pipeline).
  if (options_.synth_threads != 0) {
    synth.synth_threads = options_.synth_threads;
  } else if (options_.num_threads != 0) {
    synth.synth_threads = options_.num_threads;
  }
  migrator_ = std::make_unique<Migrator>(source_, target_, engine);
  synthesizer_ = std::make_unique<Synthesizer>(source_, target_, synth);
}

Result<Session> Session::Create(Schema source, Schema target, SessionOptions options) {
  // Re-validate both schemas here, once for the session's lifetime — also
  // covers schemas hand-built with DefineRecord that never called
  // Validate(). Failures land in the typed kSchemaMismatch bucket.
  Status src_st = source.Validate();
  if (!src_st.ok()) {
    return Status::SchemaMismatch("source schema invalid: " + src_st.message());
  }
  Status tgt_st = target.Validate();
  if (!tgt_st.ok()) {
    return Status::SchemaMismatch("target schema invalid: " + tgt_st.message());
  }
  return Session(std::move(source), std::move(target), std::move(options));
}

RunContext Session::Bounded(const RunContext& ctx) const {
  // The default budget applies only when the caller did not bound the run
  // themselves: an explicit (even longer) deadline wins over the default.
  if (!ctx.deadline.infinite() || options_.default_budget_seconds <= 0) return ctx;
  RunContext out = ctx;
  out.deadline = Deadline::After(options_.default_budget_seconds);
  return out;
}

Status Session::CheckAgainstSchema(const RecordForest& forest, const Schema& schema,
                                   const char* what) const {
  Status st = ValidateForest(forest, schema);
  if (!st.ok()) {
    return Status::SchemaMismatch(std::string(what) + ": " + st.message());
  }
  return Status::OK();
}

Result<SynthesisResult> Session::Synthesize(const Example& example,
                                            const RunContext& ctx) const {
  MemoryBudget local_budget(options_.max_memory_bytes);
  RunContext bounded =
      WithBudget(Bounded(ctx), &local_budget, options_.max_memory_bytes);
  MemoryBudgetScope mem_scope(bounded.memory);
  SessionTraceScope trace_scope("session.synthesize", &bounded);
  auto result =
      failpoint::GuardExceptions("synthesis", [&]() -> Result<SynthesisResult> {
        DYNAMITE_FAILPOINT("session.synthesize");
        DYNAMITE_RETURN_NOT_OK(
            CheckAgainstSchema(example.input, source_, "example input vs source schema"));
        DYNAMITE_RETURN_NOT_OK(
            CheckAgainstSchema(example.output, target_, "example output vs target schema"));
        return synthesizer_->Synthesize(example, bounded);
      });
  RecordMemoryHighWater(bounded);
  return result;
}

Result<InteractiveResult> Session::SynthesizeInteractive(const Example& example,
                                                         const RecordForest& validation_pool,
                                                         const Oracle& oracle,
                                                         const RunContext& ctx) const {
  DYNAMITE_RETURN_NOT_OK(
      CheckAgainstSchema(example.input, source_, "example input vs source schema"));
  DYNAMITE_RETURN_NOT_OK(
      CheckAgainstSchema(example.output, target_, "example output vs target schema"));
  DYNAMITE_RETURN_NOT_OK(
      CheckAgainstSchema(validation_pool, source_, "validation pool vs source schema"));
  MemoryBudget local_budget(options_.max_memory_bytes);
  RunContext bounded =
      WithBudget(Bounded(ctx), &local_budget, options_.max_memory_bytes);
  MemoryBudgetScope mem_scope(bounded.memory);
  SessionTraceScope trace_scope("session.synthesize_interactive", &bounded);
  auto out = failpoint::GuardExceptions(
      "interactive synthesis", [&]() -> Result<InteractiveResult> {
        DYNAMITE_ASSIGN_OR_RETURN(
            InteractiveResult result,
            RunInteractive(*synthesizer_, *migrator_, example, validation_pool, oracle,
                           options_.interactive, bounded));
        if (options_.fail_on_ambiguity && !result.unique && !result.cancelled) {
          return Status::Ambiguous(
              "validation pool cannot distinguish the remaining candidate programs");
        }
        return result;
      });
  RecordMemoryHighWater(bounded);
  return out;
}

Result<RecordForest> Session::Migrate(const Program& program, const RecordForest& source,
                                      MigrationStats* stats, const RunContext& ctx) const {
  MemoryBudget local_budget(options_.max_memory_bytes);
  RunContext bounded =
      WithBudget(Bounded(ctx), &local_budget, options_.max_memory_bytes);
  MemoryBudgetScope mem_scope(bounded.memory);
  SessionTraceScope trace_scope("session.migrate", &bounded);
  auto out = failpoint::GuardExceptions("migration", [&]() -> Result<RecordForest> {
    DYNAMITE_FAILPOINT("session.migrate");
    // No pre-validation on the hot path: ToFacts validates each root as it
    // emits it, so a separate walk here would repeat that work. Instead,
    // classify failures after the fact — if the forest is what's wrong, the
    // caller gets the typed kSchemaMismatch; otherwise the original error.
    auto result = migrator_->Migrate(program, source, bounded, stats);
    if (!result.ok() && (result.status().code() == StatusCode::kInvalidArgument ||
                         result.status().code() == StatusCode::kTypeError)) {
      DYNAMITE_RETURN_NOT_OK(
          CheckAgainstSchema(source, source_, "source instance vs source schema"));
    }
    return result;
  });
  RecordMemoryHighWater(bounded);
  return out;
}

Result<PipelineResult> Session::SynthesizeAndMigrate(const Example& example,
                                                     const RecordForest& source_instance,
                                                     const RunContext& ctx) const {
  // One bounded context covers both stages: a single budget (wall-clock AND
  // bytes) for the whole pipeline rather than per-stage budgets. The source
  // instance is not pre-validated (ToFacts validates it root by root inside
  // the migrate stage; see Migrate) — failures are classified post hoc.
  MemoryBudget local_budget(options_.max_memory_bytes);
  RunContext bounded =
      WithBudget(Bounded(ctx), &local_budget, options_.max_memory_bytes);
  MemoryBudgetScope mem_scope(bounded.memory);
  SessionTraceScope trace_scope("session.synthesize_and_migrate", &bounded);
  auto pipeline_result = failpoint::GuardExceptions("pipeline", [&]() -> Result<PipelineResult> {
    PipelineResult out;
    DYNAMITE_RETURN_NOT_OK(
        CheckAgainstSchema(example.input, source_, "example input vs source schema"));
    DYNAMITE_RETURN_NOT_OK(
        CheckAgainstSchema(example.output, target_, "example output vs target schema"));
    DYNAMITE_ASSIGN_OR_RETURN(SynthesisResult synthesis,
                              synthesizer_->Synthesize(example, bounded));
    out.synthesis = std::move(synthesis);

    // Migration progress events carry the synthesis totals forward so the
    // run's cumulative counters (iterations, coverage) stay monotone across
    // the phase boundary, as ProgressEvent documents.
    RunContext migrate_ctx = bounded;
    if (bounded.observer) {
      size_t iterations = out.synthesis.iterations;
      double space = out.synthesis.search_space;
      ProgressObserver inner = bounded.observer;
      migrate_ctx.observer = [iterations, space, inner](const ProgressEvent& event) {
        ProgressEvent carried = event;
        carried.iterations = iterations;
        carried.search_space = space;
        carried.coverage =
            space > 0 ? std::min(1.0, static_cast<double>(iterations) / space) : 0;
        inner(carried);
      };
    }
    auto migrated = migrator_->Migrate(out.synthesis.program, source_instance,
                                       migrate_ctx, &out.migration);
    if (!migrated.ok() && (migrated.status().code() == StatusCode::kInvalidArgument ||
                           migrated.status().code() == StatusCode::kTypeError)) {
      DYNAMITE_RETURN_NOT_OK(CheckAgainstSchema(source_instance, source_,
                                                "source instance vs source schema"));
    }
    if (!migrated.ok()) return migrated.status();
    out.migrated = std::move(migrated).ValueOrDie();
    return out;
  });
  RecordMemoryHighWater(bounded);
  return pipeline_result;
}

}  // namespace dynamite
