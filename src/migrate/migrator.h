// End-to-end data migration driver (the "Migration Framework" box of
// Figure 1): source instance -> extensional facts -> Datalog evaluation ->
// intensional facts -> target instance.

#ifndef DYNAMITE_MIGRATE_MIGRATOR_H_
#define DYNAMITE_MIGRATE_MIGRATOR_H_

#include "api/run_context.h"
#include "datalog/ast.h"
#include "datalog/engine.h"
#include "instance/record_forest.h"
#include "migrate/facts.h"
#include "schema/schema.h"
#include "util/result.h"

namespace dynamite {

/// Statistics from one migration run.
struct MigrationStats {
  size_t source_records = 0;
  size_t source_facts = 0;
  size_t target_facts = 0;
  size_t target_records = 0;
  double to_facts_seconds = 0;
  double eval_seconds = 0;
  double build_seconds = 0;
  /// Forest-reconstruction diagnostics (see IngestStats). Everything in
  /// this struct except the timings is part of the cross-thread
  /// bit-identity contract.
  IngestStats ingest;
  double TotalSeconds() const { return to_facts_seconds + eval_seconds + build_seconds; }
};

/// Migrates a source instance (as a record forest) to the target schema by
/// executing `program`; returns the target instance as a record forest.
///
/// The migration stage behind dynamite::Session (src/api/session.h), the
/// pipeline's public surface, which shares one Migrator (and its engine's
/// compiled-rule cache) across repeated migrations and interactive probes.
/// Each call releases the engine's join indexes over the call's converted
/// source (DatalogEngine::ReleaseEdbIndexes): those relations die when the
/// call returns.
class Migrator {
 public:
  Migrator(Schema source_schema, Schema target_schema,
           DatalogEngine::Options engine_options = DatalogEngine::Options())
      : source_schema_(std::move(source_schema)),
        target_schema_(std::move(target_schema)),
        target_signatures_(FactSignatures(target_schema_)),
        engine_(engine_options) {}

  /// Runs the migration; fills `*stats` if non-null. The `ctx`
  /// deadline/cancellation is honored in all three stages (facts
  /// conversion, evaluation, forest reconstruction) and a kMigrate progress
  /// event fires as each stage completes.
  Result<RecordForest> Migrate(const Program& program, const RecordForest& source,
                               const RunContext& ctx,
                               MigrationStats* stats = nullptr) const;

  const Schema& source_schema() const { return source_schema_; }
  const Schema& target_schema() const { return target_schema_; }

  /// Cumulative statistics of the owned engine (see DatalogEngine::Stats).
  DatalogEngine::Stats engine_stats() const { return engine_.stats(); }

 private:
  /// Migrate minus the crash-free boundary: the public overload installs the
  /// run's MemoryBudget and wraps this in an exception guard mapping
  /// bad_alloc / injected faults to typed Statuses.
  Result<RecordForest> MigrateImpl(const Program& program, const RecordForest& source,
                                   const RunContext& ctx, MigrationStats* stats) const;

  Schema source_schema_;
  Schema target_schema_;
  /// FactSignatures(target_schema_): the IDB signatures of every Eval.
  std::map<std::string, std::vector<std::string>> target_signatures_;
  DatalogEngine engine_;
};

}  // namespace dynamite

#endif  // DYNAMITE_MIGRATE_MIGRATOR_H_
