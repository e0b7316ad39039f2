#include "synth/synthesizer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "datalog/index.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/analyze.h"
#include "synth/check.h"
#include "synth/encode.h"
#include "synth/sketch_gen.h"
#include "util/debug_log.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Cumulative progress state for one Synthesize call: rule enumerators
/// report through this so `iterations` and `coverage` are monotone across
/// the whole run, not per rule. Accounting is atomic and reports are
/// clamped to a monotone floor: the ProgressEvent contract promises
/// `iterations` never decreases, and with concurrent reporters (or the
/// baseline reset before the alternatives search) a raw (done + rule) sum can be
/// observed out of order.
/// Concurrency contract (ISSUE 8): the two counters are atomics (CAS floor
/// + relaxed adds — a protocol Clang's thread-safety analysis cannot model,
/// so there is no capability to declare); `space_known` and `timer` are
/// written only from the canonical enumeration thread, with the portfolio
/// pool's Run() barrier ordering worker reads. TSan covers the dynamic
/// side in CI.
struct ProgressTracker {
  const RunContext* ctx = nullptr;
  Timer timer;
  std::atomic<size_t> done_iterations{0};  ///< iterations of completed rules
  double space_known = 0;  ///< product of spaces of started rules
  /// Largest iteration total ever reported; later reports never go below.
  std::atomic<size_t> reported_floor{0};

  /// Folds the sketch space of a rule that is starting enumeration.
  void StartRule(double rule_space) {
    space_known = space_known == 0 ? rule_space : space_known * rule_space;
  }

  void Report(Phase phase, const std::string& detail, size_t rule_iterations) {
    if (ctx == nullptr || !ctx->observer) return;
    size_t total =
        done_iterations.load(std::memory_order_relaxed) + rule_iterations;
    size_t floor = reported_floor.load(std::memory_order_relaxed);
    while (floor < total && !reported_floor.compare_exchange_weak(
                                floor, total, std::memory_order_relaxed)) {
    }
    total = std::max(total, floor);
    ProgressEvent event;
    event.phase = phase;
    event.detail = detail;
    event.iterations = total;
    event.search_space = space_known;
    if (space_known > 0) {
      event.coverage =
          std::min(1.0, static_cast<double>(event.iterations) / space_known);
    }
    event.elapsed_seconds = timer.ElapsedSeconds();
    ctx->Report(event);
  }
};

/// Candidate batch size between interruption/progress polls inside the
/// enumeration loop. Each iteration is a SAT solve plus a program
/// evaluation, so even a single batch is coarse-grained work; cancellation
/// latency is bounded by one batch.
constexpr size_t kProgressStride = 64;

/// Overlay relation carrying a batch's shared-prefix join result. Guarded
/// against (unlikely) schema collisions before use.
constexpr const char* kPrefixRelation = "__dyn_prefix";

/// Speculation memo cap: entries the canonical loop never consumes (models
/// pruned by analysis blocking before being visited) would otherwise
/// accumulate for the lifetime of a rule's enumeration.
constexpr size_t kMemoMaxEntries = 1024;

/// Consecutive scout mispredictions after which a rule's enumeration stops
/// speculating: each misprediction forces a solver re-clone (an ever-growing
/// clause database — quadratic if repeated) plus a wasted batch of scout
/// solves and worker evaluations. Three in a row means analysis blocking is
/// steering the search somewhere model-equality prediction cannot follow.
constexpr size_t kMaxMispredictedBatches = 3;

/// Injective serialization of a SketchModel — the speculation memo key.
std::string ModelKey(const SketchModel& model) {
  std::string key;
  auto append = [&key](const std::vector<int>& choices) {
    for (int c : choices) {
      key += std::to_string(c);
      key += ',';
    }
    key += '|';
  };
  append(model.hole_choice);
  append(model.connector_choice);
  append(model.head_binding_choice);
  return key;
}

/// Injective serialization of an instantiated atom, for grouping batch
/// candidates by shared body prefix. Mirrors the engine's rule-cache key:
/// Atom::ToString() is ambiguous for constants (Float(1.0) prints like
/// Int(1)), and a grouping collision would join a candidate against the
/// wrong prefix — a correctness bug, not a cache miss.
void AppendAtomKey(const Atom& atom, std::string* key) {
  *key += atom.relation;
  *key += '\x02';
  char buf[32];
  for (const Term& t : atom.terms) {
    if (t.is_wildcard()) {
      *key += 'W';
    } else if (t.is_variable()) {
      *key += 'V';
      *key += t.var();
    } else {
      const Value& v = t.constant();
      uint64_t bits = 0;
      switch (v.kind()) {
        case ValueKind::kNull:
          break;
        case ValueKind::kInt:
          bits = static_cast<uint64_t>(v.AsInt());
          break;
        case ValueKind::kFloat: {
          double d = v.AsFloat();
          static_assert(sizeof(d) == sizeof(bits));
          std::memcpy(&bits, &d, sizeof(bits));
          break;
        }
        case ValueKind::kBool:
          bits = v.AsBool() ? 1 : 0;
          break;
        case ValueKind::kString:
          bits = v.string_id();
          break;
        case ValueKind::kId:
          bits = v.AsId();
          break;
      }
      std::snprintf(buf, sizeof(buf), "C%u:%016llx", static_cast<unsigned>(v.kind()),
                    static_cast<unsigned long long>(bits));
      *key += buf;
    }
    *key += '\x03';
  }
  *key += '\x04';
}

/// A pre-computed candidate evaluation the canonical loop may consume.
/// Only candidate-deterministic outcomes are ever stored: the derived IDB,
/// or the engine's kEvalBudget from the *full* evaluation path (tuple and
/// iteration budgets are deterministic functions of the candidate). A
/// wall-clock timeout, cancellation, memory exhaustion, or injected fault
/// observed by a worker is dropped instead — the canonical loop must hit
/// (or not hit) those conditions itself, exactly as the sequential run
/// would, or behavior would drift with the thread count.
struct CandidateOutcome {
  Status status;     ///< OK or the full path's exact kEvalBudget Status
  FactDatabase idb;  ///< valid when status.ok()
  bool via_prefix = false;
};

/// Shared state of one portfolio synthesis call: the worker pool, one
/// private DatalogEngine per worker (compiled-rule and overlay-index
/// caches stay per-engine — no cross-thread mutation), and the thread-safe
/// cache of JoinIndexes over the frozen example EDB that every worker
/// engine shares (built once, probed concurrently; see SharedIndexCache).
class PortfolioRuntime {
 public:
  PortfolioRuntime(ThreadPool* pool, const SynthesisOptions& options)
      : pool_(pool), shared_indexes_(std::make_shared<SharedIndexCache>()) {
    engines_.reserve(pool_->num_workers());
    for (size_t i = 0; i < pool_->num_workers(); ++i) {
      DatalogEngine::Options eval_opts;
      eval_opts.timeout_seconds = options.eval_timeout_seconds;
      eval_opts.max_derived_tuples = options.eval_max_tuples;
      engines_.emplace_back(eval_opts);
      engines_.back().ShareEdbIndexes(shared_indexes_);
    }
  }

  ThreadPool* pool() { return pool_; }
  DatalogEngine& engine(size_t worker) { return engines_[worker]; }
  size_t num_workers() const { return engines_.size(); }

  /// A worker fault (real or injected through `synth.worker`) abandons
  /// speculation for the rest of the call; enumeration continues on the
  /// inline sequential path with identical results. Outcomes completed
  /// before the fault stay usable.
  void Degrade() {
    degraded_ = true;
    ++stats_.parallel_fallbacks;
    DYNAMITE_METRIC_INC("synth.parallel_fallbacks");
  }
  bool degraded() const { return degraded_; }

  SynthPortfolioStats& stats() { return stats_; }

 private:
  ThreadPool* pool_;
  std::shared_ptr<SharedIndexCache> shared_indexes_;
  std::vector<DatalogEngine> engines_;
  SynthPortfolioStats stats_;
  bool degraded_ = false;
};

/// Per-target-record synthesis context: enumerates consistent rules.
///
/// With a portfolio attached, the loop in Next() still runs the exact
/// sequential enumeration — same solver calls, same blocking clauses, same
/// iteration counting — but candidate evaluations may be answered from a
/// speculation memo that worker threads filled ahead of the front (see
/// SpeculateBatch). Because DatalogEngine::Eval is a deterministic
/// function of (program, EDB) and non-deterministic outcomes are never
/// memoized, the replay is observationally identical to the sequential
/// run: same synthesized program (the lowest-enumeration-index success),
/// same stats, same error codes, at any thread count.
class RuleSynthesizer {
 public:
  RuleSynthesizer(const Schema& source, const Schema& target, RuleSketch sketch,
                  const FactDatabase& edb, const Example& example,
                  const SynthesisOptions& options, PortfolioRuntime* portfolio)
      : source_(source),
        target_(target),
        sketch_(std::move(sketch)),
        edb_(edb),
        expected_output_(example.output),
        options_(options),
        portfolio_(portfolio),
        engine_(MakeEngine(options)) {}

  /// Encodes the sketch (polling `ctx`) and resolves the candidate check
  /// of this rule's record tree.
  Status Init(const RunContext& ctx) {
    {
      DYNAMITE_TRACE_SPAN("synth.encode");
      DYNAMITE_ASSIGN_OR_RETURN(encoding_, EncodeSketch(sketch_, &solver_, &ctx));
    }
    DYNAMITE_ASSIGN_OR_RETURN(CandidateCheck check,
                              CandidateCheck::Make(target_, sketch_.target_record,
                                                   expected_output_));
    check_.emplace(std::move(check));
    return Status::OK();
  }

  /// Returns the next rule consistent with the example; kSynthesisFailure
  /// when the search space is exhausted; kTimeout / kCancelled when `ctx`
  /// interrupts the run; kEvalBudget when max_iterations is spent.
  Result<Rule> Next(const RunContext& ctx, ProgressTracker* progress) {
    if (have_last_success_) {
      // Continue the enumeration past the last success.
      DYNAMITE_RETURN_NOT_OK(
          solver_.AddClause(BlockingClause(ModelEquality(encoding_, last_success_))));
      have_last_success_ = false;
    }
    for (;;) {
      // One shared poll per candidate: the same Deadline/CancelToken every
      // other stage uses, so budgets cannot drift between loops.
      DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate search"));
      DYNAMITE_FAILPOINT("synth.candidate");
      if (iterations_ >= options_.max_iterations) {
        return Status::EvalBudget("iteration budget exhausted");
      }
      DYNAMITE_ASSIGN_OR_RETURN(bool sat, solver_.Solve());
      if (!sat) {
        return Status::SynthesisFailure("no Datalog program consistent with the example for " +
                                        sketch_.target_record);
      }
      ++iterations_;
      if (progress != nullptr && iterations_ % kProgressStride == 0) {
        progress->Report(Phase::kSearch, sketch_.target_record, iterations_);
      }
      if (debug_log::Enabled() && iterations_ % 200 == 0) {
        debug_log::Logf("[synth %s] iters=%zu clauses=%zu conflicts=%lld\n",
                        sketch_.target_record.c_str(), iterations_, solver_.num_clauses(),
                        static_cast<long long>(solver_.num_conflicts()));
      }
      SketchModel model = ExtractModel(encoding_, solver_);
      DYNAMITE_ASSIGN_OR_RETURN(Rule rule, Instantiate(sketch_, model));

      Program candidate;
      candidate.rules.push_back(rule);
      auto eval = EvalCandidate(candidate, model, ctx);
      if (!eval.ok()) {
        StatusCode code = eval.status().code();
        if (code == StatusCode::kTimeout || code == StatusCode::kEvalBudget) {
          // The run itself may have been interrupted mid-eval (the engine
          // folds the context deadline into its own): propagate that.
          // Otherwise the candidate alone was too expensive (per-candidate
          // eval budget): block exactly this model and move on.
          DYNAMITE_RETURN_NOT_OK(ctx.Check("candidate evaluation"));
          DYNAMITE_TRACE_SPAN("synth.block");
          DYNAMITE_RETURN_NOT_OK(
              solver_.AddClause(BlockingClause(ModelEquality(encoding_, model))));
          continue;
        }
        return eval.status();
      }
      // Judge the candidate; a failed one's flattened view feeds MDP
      // analysis.
      bool matched = false;
      std::vector<std::vector<std::string>> mdps;
      {
        DYNAMITE_TRACE_SPAN("synth.check");
        DYNAMITE_ASSIGN_OR_RETURN(matched, check_->Matches(*eval));
        if (!matched && options_.use_analysis && options_.use_mdp) {
          auto actual_flat = check_->View(*eval);
          if (actual_flat.ok()) {
            mdps = MDPSet(actual_flat.ValueOrDie(), check_->expected_view(), options_.mdp, &ctx);
          }
        }
      }
      if (matched) {
        last_success_ = model;
        have_last_success_ = true;
        return rule;
      }

      // Failed: add blocking clause(s).
      DYNAMITE_TRACE_SPAN("synth.block");
      if (!options_.use_analysis) {
        DYNAMITE_RETURN_NOT_OK(
            solver_.AddClause(BlockingClause(ModelEquality(encoding_, model))));
        continue;
      }
      DYNAMITE_RETURN_NOT_OK(
          solver_.AddClauses(AnalyzeBlocking(sketch_, encoding_, model, mdps)));
    }
  }

  size_t iterations() const { return iterations_; }
  double search_space() const { return sketch_.SearchSpaceSize(); }
  const std::string& target_record() const { return sketch_.target_record; }

 private:
  /// One speculated candidate: the model the scout predicted, its memo
  /// key, the instantiated one-rule program, and — when the candidate
  /// joined a prefix group — its residual rule over the group's overlay
  /// relation.
  struct SpeculatedCandidate {
    SketchModel model;
    std::string key;
    Program full;
    Program residual;
    int group = -1;
  };

  /// One shared-prefix group: the prefix program derives the overlay
  /// relation once; every member's residual rule then extends it by one
  /// atom instead of re-running the whole join.
  struct PrefixGroup {
    Program prefix;
    std::map<std::string, std::vector<std::string>> sigs;
    FactDatabase db;
    bool ok = false;
  };

  /// The canonical candidate engine. Compiled rules are not cached: every
  /// candidate is a model the enumeration then blocks, so its rule never
  /// comes back, and a cache would only build a key string per candidate
  /// and hold thousands of plans that are never reused. (The portfolio's
  /// worker engines keep their caches: the shared-prefix programs and
  /// residual rules they run do recur across batches. So does the
  /// Migrator's engine, which runs one program again and again.)
  static DatalogEngine MakeEngine(const SynthesisOptions& options) {
    DatalogEngine::Options eval_opts;
    eval_opts.timeout_seconds = options.eval_timeout_seconds;
    eval_opts.max_derived_tuples = options.eval_max_tuples;
    eval_opts.cache_compiled_rules = false;
    return DatalogEngine(eval_opts);
  }

  /// Evaluates one candidate program: from the speculation memo when the
  /// portfolio pre-computed it, else inline on the canonical engine —
  /// observationally identical either way (see CandidateOutcome on what is
  /// allowed into the memo).
  Result<FactDatabase> EvalCandidate(const Program& candidate, const SketchModel& model,
                                     const RunContext& ctx) {
    if (portfolio_ != nullptr) {
      std::string key = ModelKey(model);
      auto it = memo_.find(key);
      if (it == memo_.end() && !portfolio_->degraded() &&
          mispredict_streak_ < kMaxMispredictedBatches) {
        SpeculateBatch(ctx, model);
        it = memo_.find(key);
      }
      if (it != memo_.end()) {
        DYNAMITE_TRACE_SPAN("synth.replay");
        CandidateOutcome outcome = std::move(it->second);
        memo_.erase(it);
        ++portfolio_->stats().speculative_hits;
        DYNAMITE_METRIC_INC("synth.speculative_hits");
        if (outcome.via_prefix) {
          ++portfolio_->stats().prefix_memo_hits;
          DYNAMITE_METRIC_INC("synth.prefix_memo_hits");
        }
        if (!outcome.status.ok()) return outcome.status;
        return std::move(outcome.idb);
      }
    }
    return engine_.Eval(candidate, edb_, check_->signatures(), &ctx);
  }

  /// One speculation round. The scout — a clone of the canonical solver —
  /// predicts the models the enumeration will visit next (exact under
  /// model-equality blocking — Dynamite-Enum — since the solver is
  /// deterministic; best-effort under analysis blocking, whose clauses are
  /// only known after each candidate is judged). The predicted candidates
  /// are grouped by shared body prefix and evaluated on the worker pool;
  /// deterministic outcomes land in the memo keyed by model.
  ///
  /// The scout persists across batches: under model-equality blocking its
  /// prediction is exact, so the canonical loop's next memo miss is exactly
  /// the scout's next unscanned model and the same clone keeps serving the
  /// whole enumeration. Cloning per batch instead would copy an
  /// ever-growing clause database — quadratic over a long enumeration. The
  /// clone is re-made only when the canonical loop shows up with a model
  /// the scout did not predict (analysis blocking diverged, or a
  /// non-memoizable outcome was re-evaluated inline).
  void SpeculateBatch(const RunContext& ctx, const SketchModel& seed) {
    DYNAMITE_TRACE_SPAN("synth.candidate_batch");
    if (memo_.size() > kMemoMaxEntries) memo_.clear();
    const size_t target = portfolio_->num_workers() * 2;

    if (!scout_ready_ || ModelKey(scout_next_) != ModelKey(seed)) {
      // A live scout that predicted the wrong next model means the blocking
      // the canonical loop actually applied (analysis clauses) diverged from
      // the scout's model-equality approximation; a streak of those makes
      // speculation a net loss (see mispredict_streak_).
      if (scout_ready_) ++mispredict_streak_;
      scout_ = solver_.Clone();
      scout_next_ = seed;
      scout_ready_ = true;
    } else {
      mispredict_streak_ = 0;
    }

    // Collect upcoming models, starting from the canonical model itself
    // (the guaranteed consumer of this batch). The scan cap bounds wasted
    // scouting when the memo already holds most of the frontier.
    std::vector<SpeculatedCandidate> cands;
    trace::Span scout_span("synth.scout");
    for (size_t scanned = 0; scanned < target * 4; ++scanned) {
      SketchModel model = scout_next_;
      std::string key = ModelKey(model);
      if (memo_.find(key) == memo_.end()) {
        auto rule = Instantiate(sketch_, model);
        if (rule.ok()) {
          SpeculatedCandidate cand;
          cand.model = model;
          cand.key = std::move(key);
          cand.full.rules.push_back(std::move(rule).ValueOrDie());
          cands.push_back(std::move(cand));
        }
      }
      // Advance past `model` unconditionally so scout_next_ is always the
      // first unscanned model (the invariant the persistence check above
      // relies on).
      if (!scout_.AddClause(BlockingClause(ModelEquality(encoding_, model))).ok()) {
        scout_ready_ = false;
        break;
      }
      auto sat = scout_.Solve();
      if (!sat.ok() || !sat.ValueOrDie()) {
        scout_ready_ = false;  // enumeration tail: nothing left to predict
        break;
      }
      scout_next_ = ExtractModel(encoding_, scout_);
      if (cands.size() >= target || ctx.Interrupted()) break;
    }
    scout_span.End();
    if (cands.empty()) return;

    std::vector<PrefixGroup> groups = GroupByPrefix(&cands);

    // Phase A: one prefix join per group, claimed off a shared counter.
    if (!groups.empty()) {
      std::atomic<size_t> next_group{0};
      Status group_status = portfolio_->pool()->Run([&](size_t w) {
        MemoryBudgetScope mem_scope(ctx.memory);
        for (;;) {
          size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
          if (g >= groups.size() || ctx.Interrupted()) break;
          DYNAMITE_FAILPOINT_THROW("synth.worker");
          DYNAMITE_TRACE_SPAN("synth.worker.prefix");
          auto derived =
              portfolio_->engine(w).Eval(groups[g].prefix, edb_, groups[g].sigs, &ctx);
          if (derived.ok()) {
            groups[g].db = std::move(derived).ValueOrDie();
            groups[g].ok = true;
          }
          // Any prefix failure (budget, timeout, ...) just demotes the
          // group's members to the full path — prefix-path errors are
          // path-dependent and must never stand in for full-path ones.
        }
      });
      if (!group_status.ok()) {
        portfolio_->Degrade();
        return;
      }
    }

    // Phase B: candidates, claimed in enumeration order. Workers write
    // disjoint slots[i] (each index is claimed exactly once off next_cand)
    // and the pool's Run() join publishes them to this thread — the
    // lock-free handoff the annotation layer documents but cannot check.
    // `success_floor`
    // is the lowest index already known to reproduce the expected output:
    // later candidates are dead enumeration branches (the canonical loop
    // stops at the success), so workers skip them. Skipped candidates are
    // simply not memoized — first-success determinism comes from the
    // canonical replay, not from any racing here.
    std::vector<std::optional<CandidateOutcome>> slots(cands.size());
    std::atomic<size_t> next_cand{0};
    std::atomic<size_t> success_floor{cands.size()};
    Status batch_status = portfolio_->pool()->Run([&](size_t w) {
      MemoryBudgetScope mem_scope(ctx.memory);
      for (;;) {
        size_t i = next_cand.fetch_add(1, std::memory_order_relaxed);
        if (i >= cands.size() || i > success_floor.load(std::memory_order_relaxed) ||
            ctx.Interrupted()) {
          break;
        }
        DYNAMITE_FAILPOINT_THROW("synth.worker");
        DYNAMITE_TRACE_SPAN("synth.worker.candidate");
        EvalSpeculative(w, cands[i], groups, ctx, &slots[i], &success_floor, i);
      }
    });
    if (!batch_status.ok()) portfolio_->Degrade();  // completed slots below stay usable

    for (size_t i = 0; i < cands.size(); ++i) {
      if (slots[i].has_value()) {
        memo_.emplace(std::move(cands[i].key), std::move(*slots[i]));
      }
    }
  }

  /// Groups candidates whose bodies agree on every atom but the last (all
  /// candidates instantiate the same sketch, so bodies align atom for
  /// atom) and builds, per group of >= 2, the prefix program plus each
  /// member's residual rule. The overlay head exports *every* named prefix
  /// variable, so the residual can bind whatever the last atom and the
  /// heads need; projection only collapses duplicate rows, which relation
  /// dedup makes semantically invisible.
  std::vector<PrefixGroup> GroupByPrefix(std::vector<SpeculatedCandidate>* cands) {
    std::vector<PrefixGroup> groups;
    if (!options_.prefix_memo || edb_.Has(kPrefixRelation) ||
        check_->signatures().count(kPrefixRelation) > 0) {
      return groups;
    }
    std::unordered_map<std::string, std::vector<size_t>> by_prefix;
    std::vector<const std::string*> key_order;
    for (size_t i = 0; i < cands->size(); ++i) {
      const Rule& rule = (*cands)[i].full.rules[0];
      if (rule.body.size() < 2) continue;
      std::string pkey;
      for (size_t b = 0; b + 1 < rule.body.size(); ++b) AppendAtomKey(rule.body[b], &pkey);
      auto [it, fresh] = by_prefix.emplace(std::move(pkey), std::vector<size_t>());
      if (fresh) key_order.push_back(&it->first);
      it->second.push_back(i);
    }
    for (const std::string* pkey : key_order) {
      const std::vector<size_t>& members = by_prefix[*pkey];
      if (members.size() < 2) continue;  // nothing shared to reuse
      const Rule& first = (*cands)[members[0]].full.rules[0];
      std::vector<Atom> prefix_atoms(first.body.begin(), first.body.end() - 1);
      std::vector<std::string> vars;
      std::set<std::string> seen;
      for (const Atom& atom : prefix_atoms) {
        for (const std::string& v : atom.Variables()) {
          if (seen.insert(v).second) vars.push_back(v);
        }
      }
      if (vars.empty()) continue;  // degenerate: no join state to share

      Atom overlay;
      overlay.relation = kPrefixRelation;
      std::vector<std::string> attrs;
      for (size_t vi = 0; vi < vars.size(); ++vi) {
        overlay.terms.push_back(Term::Var(vars[vi]));
        attrs.push_back("p" + std::to_string(vi));
      }
      PrefixGroup group;
      Rule prefix_rule;
      prefix_rule.heads.push_back(overlay);
      prefix_rule.body = std::move(prefix_atoms);
      group.prefix.rules.push_back(std::move(prefix_rule));
      group.sigs[kPrefixRelation] = std::move(attrs);
      for (size_t m : members) {
        SpeculatedCandidate& cand = (*cands)[m];
        Rule residual;
        residual.heads = cand.full.rules[0].heads;
        residual.body.push_back(overlay);
        residual.body.push_back(cand.full.rules[0].body.back());
        cand.residual.rules.push_back(std::move(residual));
        cand.group = static_cast<int>(groups.size());
      }
      groups.push_back(std::move(group));
    }
    return groups;
  }

  /// Worker-side evaluation of one speculated candidate: residual over the
  /// group's overlay when available (falling back to the full plan on any
  /// residual-path error), else the full plan. Fills `*slot` only with
  /// memoizable outcomes; updates `*success_floor` when the candidate
  /// reproduces the expected output.
  void EvalSpeculative(size_t w, const SpeculatedCandidate& cand,
                       const std::vector<PrefixGroup>& groups, const RunContext& ctx,
                       std::optional<CandidateOutcome>* slot,
                       std::atomic<size_t>* success_floor, size_t index) {
    DatalogEngine& eng = portfolio_->engine(w);
    CandidateOutcome outcome;
    bool have = false;
    if (cand.group >= 0 && groups[static_cast<size_t>(cand.group)].ok) {
      const PrefixGroup& group = groups[static_cast<size_t>(cand.group)];
      auto derived =
          eng.EvalWithOverlay(cand.residual, edb_, &group.db, check_->signatures(), &ctx);
      if (derived.ok()) {
        outcome.idb = std::move(derived).ValueOrDie();
        outcome.via_prefix = true;
        have = true;
      }
      // Residual-path errors fall through to the full path: the two paths
      // hit budgets on different intermediates, and only full-path
      // outcomes may represent the candidate in the memo.
    }
    if (!have) {
      auto derived = eng.Eval(cand.full, edb_, check_->signatures(), &ctx);
      if (derived.ok()) {
        outcome.idb = std::move(derived).ValueOrDie();
      } else if (derived.status().code() == StatusCode::kEvalBudget) {
        outcome.status = derived.status();
      } else {
        return;  // non-deterministic outcome: leave it for the canonical loop
      }
    }
    if (outcome.status.ok()) {
      auto matched = check_->Matches(outcome.idb);
      if (matched.ok() && matched.ValueOrDie()) {
        size_t cur = success_floor->load(std::memory_order_relaxed);
        while (index < cur && !success_floor->compare_exchange_weak(
                                  cur, index, std::memory_order_relaxed)) {
        }
      }
    }
    *slot = std::move(outcome);
  }

  const Schema& source_;
  const Schema& target_;
  RuleSketch sketch_;
  const FactDatabase& edb_;
  const RecordForest& expected_output_;  ///< the whole example output
  const SynthesisOptions& options_;
  PortfolioRuntime* portfolio_;  ///< null = sequential enumeration
  /// One engine for the whole enumeration: EDB join indexes persist across
  /// the thousands of Eval calls below (compiled rules do not; see
  /// MakeEngine).
  DatalogEngine engine_;

  /// This rule's record tree and expected output, resolved once (Init).
  std::optional<CandidateCheck> check_;

  FdSolver solver_;
  SketchEncoding encoding_;
  size_t iterations_ = 0;
  SketchModel last_success_;
  bool have_last_success_ = false;
  /// Persistent speculation scout (see SpeculateBatch). `scout_next_` is
  /// the first model the scout has not yet handed to a batch; valid only
  /// while scout_ready_. Canonical-thread-only state: the scout solves and
  /// advances before any worker is dispatched, and workers receive
  /// already-instantiated candidates by value — the scout/replay handoff
  /// needs no lock because the pool's Run() dispatch/join is the only
  /// publication point (nothing here for the annotations to guard).
  FdSolver scout_;
  SketchModel scout_next_;
  bool scout_ready_ = false;
  /// Consecutive batches whose seed the scout failed to predict. Under
  /// analysis blocking the prediction can diverge every batch; each
  /// divergence costs a full solver re-clone plus a batch of wasted scout
  /// solves — quadratic over a long enumeration. Once the streak hits
  /// kMaxMispredictedBatches, speculation is off for the rest of this
  /// rule's enumeration (canonical semantics are unaffected: every
  /// candidate the memo does not cover is evaluated inline anyway).
  size_t mispredict_streak_ = 0;
  /// Speculation memo: model key -> pre-computed outcome. Entries are
  /// consumed (erased) by the canonical loop; unconsumed entries are
  /// bounded by kMemoMaxEntries.
  std::unordered_map<std::string, CandidateOutcome> memo_;
};

/// Shared setup: Ψ, sketches, EDB facts.
struct Setup {
  AttributeMapping psi;
  std::vector<RuleSketch> sketches;
  FactDatabase edb;
};

Result<Setup> Prepare(const Schema& source, const Schema& target, const Example& example,
                      const SynthesisOptions& options, const RunContext& ctx,
                      ProgressTracker* progress) {
  Setup setup;
  DYNAMITE_FAILPOINT("synth.prepare");
  DYNAMITE_TRACE_SPAN("synth.prepare");
  progress->Report(Phase::kInferMapping, "", 0);
  DYNAMITE_RETURN_NOT_OK(ctx.Check("attribute-mapping inference"));
  {
    DYNAMITE_TRACE_SPAN("synth.attr_map");
    DYNAMITE_ASSIGN_OR_RETURN(setup.psi, InferAttrMapping(source, target, example));
  }
  progress->Report(Phase::kSketch, "", 0);
  DYNAMITE_RETURN_NOT_OK(ctx.Check("sketch generation"));
  {
    DYNAMITE_TRACE_SPAN("synth.sketch_gen");
    SketchGenOptions gen_options;
    gen_options.enable_filtering = options.enable_filtering;
    gen_options.max_constants_per_hole = options.max_constants_per_hole;
    // The output's value sets feed only the filtering extension's constants.
    std::map<std::string, std::set<Value>> value_sets;
    if (options.enable_filtering) value_sets = AttributeValueSets(example.output, target);
    DYNAMITE_ASSIGN_OR_RETURN(setup.sketches,
                              SketchGen(setup.psi, source, target, value_sets, gen_options));
  }
  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, ToFacts(example.input, source, &next_id, &ctx));
  setup.edb = std::move(edb);
  return setup;
}

}  // namespace

Synthesizer::Synthesizer(Schema source, Schema target, SynthesisOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {}
Synthesizer::~Synthesizer() = default;
Synthesizer::Synthesizer(Synthesizer&&) noexcept = default;
Synthesizer& Synthesizer::operator=(Synthesizer&&) noexcept = default;

ThreadPool* Synthesizer::PortfolioPool(size_t synth_threads) const {
  if (synth_threads <= 1) return nullptr;
  if (portfolio_pool_ == nullptr) {
    portfolio_pool_ = std::make_unique<ThreadPool>(synth_threads - 1);
  }
  return portfolio_pool_.get();
}

Result<SynthesisResult> Synthesizer::Synthesize(const Example& example,
                                                const RunContext& ctx) const {
  return SynthesizeDistinct(example, 1, ctx);
}

Result<SynthesisResult> Synthesizer::SynthesizeDistinct(const Example& example, size_t limit,
                                                        const RunContext& ctx) const {
  // Crash-free boundary: the SAT search and per-candidate evaluations below
  // may throw (real bad_alloc under memory pressure, or an injected fault);
  // both surface here as typed Statuses, never as a crash.
  MemoryBudgetScope mem_scope(ctx.memory);
  return failpoint::GuardExceptions("synthesis", [&]() -> Result<SynthesisResult> {
    return Search(example, limit, ctx);
  });
}

Result<SynthesisResult> Synthesizer::Search(const Example& example, size_t limit,
                                            const RunContext& ctx) const {
  DYNAMITE_TRACE_SPAN("synth.synthesize");
  Timer total;
  ProgressTracker progress;
  progress.ctx = &ctx;
  DYNAMITE_ASSIGN_OR_RETURN(Setup setup,
                            Prepare(source_, target_, example, options_, ctx, &progress));

  const size_t synth_threads = ResolveNumThreads(options_.synth_threads);
  // Declared before the enumerators, which hold pointers into it.
  std::unique_ptr<PortfolioRuntime> portfolio;
  if (synth_threads > 1) {
    portfolio = std::make_unique<PortfolioRuntime>(PortfolioPool(synth_threads), options_);
  }

  // First program. Each rule's enumerator is kept alive only when
  // alternatives are wanted: they continue its enumeration below.
  SynthesisResult result;
  result.psi = setup.psi;
  std::vector<std::unique_ptr<RuleSynthesizer>> enumerators;
  for (RuleSketch& sketch : setup.sketches) {
    Timer rule_timer;
    DYNAMITE_TRACE_SPAN("synth.rule");
    auto rs = std::make_unique<RuleSynthesizer>(source_, target_, std::move(sketch),
                                                setup.edb, example, options_,
                                                portfolio.get());
    DYNAMITE_RETURN_NOT_OK(rs->Init(ctx));
    DYNAMITE_RETURN_NOT_OK(ctx.Check("synthesis"));
    progress.StartRule(rs->search_space());
    DYNAMITE_ASSIGN_OR_RETURN(Rule rule, rs->Next(ctx, &progress));
    result.raw_program.rules.push_back(std::move(rule));
    RuleStats stats;
    stats.target_record = rs->target_record();
    stats.search_space = rs->search_space();
    stats.iterations = rs->iterations();
    stats.seconds = rule_timer.ElapsedSeconds();
    result.rule_stats.push_back(std::move(stats));
    result.search_space *= rs->search_space();
    result.iterations += rs->iterations();
    progress.done_iterations.fetch_add(rs->iterations(), std::memory_order_relaxed);
    progress.Report(Phase::kSearch, rs->target_record(), 0);
    if (limit > 1) enumerators.push_back(std::move(rs));
  }
  result.program = SimplifyProgram(result.raw_program);
  for (size_t i = 0; i < result.program.rules.size(); ++i) {
    result.rule_stats[i].body_predicates = result.program.rules[i].body.size();
  }

  // Alternative programs: vary one rule at a time. Budget exhaustion here
  // returns what was found (ambiguity probing is best-effort); cancellation
  // still aborts the whole call.
  const Program& first = result.raw_program;
  std::vector<Program>& alternatives = result.alternatives;
  for (size_t i = 0; i < enumerators.size() && 1 + alternatives.size() < limit; ++i) {
    // Progress reports from enumerator i add its own cumulative count, so
    // the baseline is every *other* enumerator's total (keeps `iterations`
    // exact while one enumerator is re-entered; the tracker's monotone
    // floor keeps observed events non-decreasing across the reset).
    size_t baseline = 0;
    for (size_t j = 0; j < enumerators.size(); ++j) {
      if (j != i) baseline += enumerators[j]->iterations();
    }
    progress.done_iterations.store(baseline, std::memory_order_relaxed);
    while (1 + alternatives.size() < limit) {
      auto alt = enumerators[i]->Next(ctx, &progress);
      if (!alt.ok()) {
        if (alt.status().code() == StatusCode::kCancelled) return alt.status();
        break;  // exhausted or timed out: move to next rule
      }
      // Keep only semantically new variants.
      if (RuleEquivalent(*alt, first.rules[i])) continue;
      bool duplicate = false;
      for (const Program& p : alternatives) {
        if (RuleEquivalent(p.rules[i], *alt)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      Program variant = first;
      variant.rules[i] = *alt;
      alternatives.push_back(std::move(variant));
    }
  }
  result.seconds = total.ElapsedSeconds();
  if (portfolio != nullptr) result.portfolio = portfolio->stats();
  return result;
}

}  // namespace dynamite
