#include "datalog/engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <unordered_map>

#include "datalog/index.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dynamite {

namespace {

/// Compiled term: constant or variable slot.
struct Slot {
  bool is_const = false;
  bool is_wildcard = false;
  Value constant;
  int var = -1;  // slot index for variables
};

/// One body atom inside a join plan, with a static matching strategy
/// relative to its position in the plan's atom order.
struct PlanAtom {
  std::string relation;
  bool is_idb = false;
  /// Restricted to the delta suffix [lo, hi) of its relation during
  /// semi-naive iteration (at most one per plan).
  bool is_delta = false;
  std::vector<Slot> slots;
  // Positions whose value is known before scanning this atom (constants and
  // variables bound by earlier atoms) — these form the hash-index key.
  std::vector<size_t> key_positions;
  // Positions to verify after a candidate tuple is fetched (repeated
  // variables within this atom).
  std::vector<size_t> check_positions;
  // Positions that bind a fresh variable.
  std::vector<size_t> bind_positions;
  // Set on every atom after the last one that binds a head variable: the
  // head tuple is fixed by then, so the matcher stops this atom's scan at
  // the first row whose subtree reaches the end of the plan.
  bool existential = false;
};

/// An ordered sequence of body atoms to match left to right, plus the
/// rule's guards: its head-disconnected body components, each compiled to
/// its own plan that only has to have one match (see CompileRule).
struct JoinPlan {
  std::vector<PlanAtom> atoms;
  std::vector<JoinPlan> guards;
};

/// A rule compiled to one full plan (every atom reads its full relation)
/// plus one delta plan per IDB body atom occurrence (that atom reads only
/// the semi-naive delta). Plans share the variable-slot numbering.
struct CompiledRule {
  struct Head {
    std::string relation;
    std::vector<Slot> slots;
  };
  std::vector<Head> heads;
  int num_slots = 0;
  bool has_idb_body = false;
  std::vector<std::string> idb_body_relations;  // parallel to delta_plans
  JoinPlan full;
  std::vector<JoinPlan> delta_plans;
  /// EDB body relation cardinalities observed when the join order was
  /// chosen; the statistics-refresh check compares them against current
  /// sizes to decide whether a cached plan is stale (≥4x drift).
  std::vector<std::pair<std::string, size_t>> edb_stats;
  /// Round-0 sizes of this rule's IDB body relations, recorded after pass 0
  /// of the first Eval that ran it (empty until then). The IDB half of the
  /// statistics refresh: recursion-heavy programs never drift their EDB
  /// stats, so without this a cached recursive plan was pinned to the
  /// kIdbCardinality guess forever (the pre-ISSUE-4 bug).
  std::vector<std::pair<std::string, size_t>> idb_stats;
};

/// Uncompiled body atom with its variable slots resolved.
struct RawAtom {
  std::string relation;
  bool is_idb = false;
  size_t cardinality = 0;  // estimated; IDB atoms get a large constant
  std::vector<Slot> slots;
};

/// IDB relations grow during evaluation; rank them behind any EDB relation
/// of plausible size when ordering joins.
constexpr size_t kIdbCardinality = size_t{1} << 40;

/// Read view over the base EDB plus an optional overlay of extra
/// extensional relations (EvalWithOverlay — the synthesizer publishes a
/// shared-prefix join result as an overlay relation). The overlay wins on
/// name collisions, so a candidate's residual rule always sees the prefix
/// relation it was built against.
struct EdbView {
  const FactDatabase* base = nullptr;
  const FactDatabase* extra = nullptr;

  Result<const Relation*> Find(const std::string& name) const {
    if (extra != nullptr) {
      auto rel = extra->Find(name);
      if (rel.ok()) return rel;
    }
    return base->Find(name);
  }

  /// True when `name` resolves to the overlay. Overlay relations are
  /// transient (one batch), so their indexes must stay in the engine's
  /// private cache rather than a shared frozen-EDB cache.
  bool IsExtra(const std::string& name) const {
    return extra != nullptr && extra->Has(name);
  }
};

/// Builds the PlanAtom sequence for the given atom order. Key, check, and
/// bind positions depend on which variables earlier atoms bound, so they are
/// recomputed per order; slot numbering is shared across plans. Atoms after
/// the last one binding a slot marked in `head_vars` (one flag per slot) are
/// flagged existential (all of them when none is marked, as for a guard).
JoinPlan MakePlan(const std::vector<RawAtom>& raws, const std::vector<size_t>& order,
                  int delta_atom, const std::vector<bool>& head_vars) {
  JoinPlan plan;
  size_t existential_from = 0;
  std::vector<bool> bound(head_vars.size(), false);
  for (size_t ai : order) {
    const RawAtom& raw = raws[ai];
    PlanAtom pa;
    pa.relation = raw.relation;
    pa.is_idb = raw.is_idb;
    pa.is_delta = static_cast<int>(ai) == delta_atom;
    pa.slots = raw.slots;
    for (size_t i = 0; i < pa.slots.size(); ++i) {
      const Slot& s = pa.slots[i];
      if (s.is_wildcard) continue;
      if (s.is_const || bound[static_cast<size_t>(s.var)]) {
        pa.key_positions.push_back(i);
        continue;
      }
      // Repeated within this atom: an earlier position here bound it.
      bool bound_here = std::any_of(pa.bind_positions.begin(), pa.bind_positions.end(),
                                    [&](size_t p) { return pa.slots[p].var == s.var; });
      if (bound_here) {
        pa.check_positions.push_back(i);
      } else {
        pa.bind_positions.push_back(i);
        if (head_vars[static_cast<size_t>(s.var)]) existential_from = plan.atoms.size() + 1;
      }
    }
    for (size_t p : pa.bind_positions) bound[static_cast<size_t>(pa.slots[p].var)] = true;
    plan.atoms.push_back(std::move(pa));
  }
  for (size_t i = existential_from; i < plan.atoms.size(); ++i) {
    plan.atoms[i].existential = true;
  }
  return plan;
}

/// Greedy selectivity order over `members` (indexes into raws, ascending):
/// repeatedly pick the atom with the most bound positions (constants +
/// variables bound by already-picked atoms), breaking ties by smaller
/// estimated cardinality, then by original position. `forced_first` (a
/// member, or -1) pins the delta atom up front — deltas are the smallest
/// view by construction.
std::vector<size_t> SelectivityOrder(const std::vector<RawAtom>& raws,
                                     const std::vector<size_t>& members, int forced_first,
                                     size_t num_slots) {
  std::vector<size_t> order;
  std::vector<bool> bound(num_slots, false);
  std::vector<bool> used(raws.size(), false);
  auto take = [&](size_t ai) {
    used[ai] = true;
    order.push_back(ai);
    for (const Slot& s : raws[ai].slots) {
      if (!s.is_const && !s.is_wildcard) bound[static_cast<size_t>(s.var)] = true;
    }
  };
  if (forced_first >= 0) take(static_cast<size_t>(forced_first));
  while (order.size() < members.size()) {
    size_t best = raws.size();
    size_t best_score = 0;
    size_t best_card = 0;
    for (size_t ai : members) {
      if (used[ai]) continue;
      size_t score = 0;
      for (const Slot& s : raws[ai].slots) {
        if (s.is_const || (!s.is_wildcard && bound[static_cast<size_t>(s.var)])) ++score;
      }
      if (best == raws.size() || score > best_score ||
          (score == best_score && raws[ai].cardinality < best_card)) {
        best = ai;
        best_score = score;
        best_card = raws[ai].cardinality;
      }
    }
    take(best);
  }
  return order;
}

/// Splits the body into variable-connected components (constants and
/// wildcards connect nothing): per component, its atom indexes ascending;
/// components ordered by their first atom.
std::vector<std::vector<size_t>> BodyComponents(const std::vector<RawAtom>& raws,
                                                size_t num_slots) {
  std::vector<size_t> parent(raws.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t a) {
    while (parent[a] != a) a = parent[a] = parent[parent[a]];
    return a;
  };
  std::vector<size_t> first_atom(num_slots, SIZE_MAX);  // var -> first atom mentioning it
  for (size_t ai = 0; ai < raws.size(); ++ai) {
    for (const Slot& s : raws[ai].slots) {
      if (s.is_const || s.is_wildcard) continue;
      size_t& first = first_atom[static_cast<size_t>(s.var)];
      if (first == SIZE_MAX) {
        first = ai;
      } else {
        parent[find(ai)] = find(first);
      }
    }
  }
  std::vector<std::vector<size_t>> components;
  std::vector<size_t> component_of_root(raws.size(), SIZE_MAX);
  for (size_t ai = 0; ai < raws.size(); ++ai) {
    size_t& c = component_of_root[find(ai)];
    if (c == SIZE_MAX) {
      c = components.size();
      components.emplace_back();
    }
    components[c].push_back(ai);
  }
  return components;
}

/// Compiles `rule` into join plans. `idb_sizes`, when non-null, supplies
/// observed IDB relation cardinalities (round-0 sizes from a running
/// fixpoint) to replace the kIdbCardinality guess when ordering joins; the
/// sizes used are recorded in the result's idb_stats for later drift checks.
///
/// Existence-only atoms. A body atom whose bindings never reach the head
/// only has to be satisfied, not enumerated:
///
///   * Guards. A variable-connected body component with no head variable
///     (e.g. `Org(_, _, _)`, or `Business(_, v1), Review(v1, _)` under a
///     head over other variables) is compiled to its own plan in
///     JoinPlan::guards, ordered by the same greedy SelectivityOrder, and
///     removed from the main plan. EvalPlan runs each guard once per plan
///     evaluation up to its first match: unsatisfied, the plan emits
///     nothing; satisfied, it costs nothing more. A delta atom inside a
///     guard makes that guard read the delta range. A head without
///     variables makes the whole body guards; the empty main plan then
///     emits once.
///   * Existential suffix. Main-plan atoms after the last atom binding a
///     head variable stop at their first row whose subtree reaches the end
///     of the plan (MakePlan, MatchPlan).
///
/// Both keep derived relations, their row insertion order and error codes
/// bit-identical to enumerating every atom:
///
///   * Guards share no variable with the main atoms, so no main atom's
///     score in SelectivityOrder (constants plus variables bound by main
///     atoms) depends on where the guard atoms fall; the main atoms' order,
///     and hence their key/check/bind positions, is the same subsequence of
///     the full greedy (or identity) order as before.
///   * Nor does a guard's match set depend on main bindings. Enumerating
///     the interleaved order visits (main match, guard match) pairs
///     lexicographically, so the first time each main match appears is
///     under the first guard match, in main-only order; every later
///     appearance re-emits a head tuple that is already inserted.
///   * Below the last head-binding atom every path emits the same head
///     tuple(s), so the existential suffix skips only duplicates.
///   * A re-emitted duplicate is an unsuccessful insert: it changes no
///     relation and does not count against max_derived_tuples. Only the
///     interruption tick count changes, i.e. how soon a cancel or deadline
///     is noticed.
Result<CompiledRule> CompileRule(const Rule& rule,
                                 const std::map<std::string, std::vector<std::string>>& idb,
                                 const EdbView& edb, bool reorder,
                                 const std::map<std::string, size_t>* idb_sizes = nullptr) {
  CompiledRule out;
  // Variable slots in first-occurrence order (body atoms left to right,
  // then heads): slot s is variable *slot_names[s]. A rule has few
  // variables, so a linear scan of this flat table is the cheap lookup.
  std::vector<const std::string*> slot_names;
  auto slot_of = [&](const std::string& v) {
    for (size_t s = 0; s < slot_names.size(); ++s) {
      if (*slot_names[s] == v) return static_cast<int>(s);
    }
    slot_names.push_back(&v);
    return static_cast<int>(slot_names.size() - 1);
  };

  std::vector<RawAtom> raws;
  raws.reserve(rule.body.size());
  std::vector<size_t> idb_atom_indices;
  for (const Atom& atom : rule.body) {
    RawAtom raw;
    raw.relation = atom.relation;
    raw.is_idb = idb.count(atom.relation) > 0;
    if (raw.is_idb) {
      raw.cardinality = kIdbCardinality;
      if (idb_sizes != nullptr) {
        auto it = idb_sizes->find(atom.relation);
        if (it != idb_sizes->end()) {
          raw.cardinality = it->second;
          bool seen = false;
          for (const auto& [name, size] : out.idb_stats) seen = seen || name == atom.relation;
          if (!seen) out.idb_stats.emplace_back(atom.relation, it->second);
        }
      }
      idb_atom_indices.push_back(raws.size());
    } else {
      auto rel = edb.Find(atom.relation);
      raw.cardinality = rel.ok() ? rel.ValueOrDie()->size() : kIdbCardinality;
      bool seen = false;
      for (const auto& [name, size] : out.edb_stats) seen = seen || name == atom.relation;
      if (!seen && rel.ok()) out.edb_stats.emplace_back(atom.relation, raw.cardinality);
    }
    raw.slots.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else if (t.is_wildcard()) {
        s.is_wildcard = true;
      } else {
        s.var = slot_of(t.var());
      }
      raw.slots.push_back(std::move(s));
    }
    raws.push_back(std::move(raw));
  }

  // Every body variable got its slot above, so a head variable is bound in
  // the body exactly when its slot precedes the first head-only one.
  const int num_body_slots = static_cast<int>(slot_names.size());
  out.heads.reserve(rule.heads.size());
  for (const Atom& h : rule.heads) {
    CompiledRule::Head head;
    head.relation = h.relation;
    head.slots.reserve(h.terms.size());
    for (const Term& t : h.terms) {
      Slot s;
      if (t.is_constant()) {
        s.is_const = true;
        s.constant = t.constant();
      } else if (t.is_variable()) {
        s.var = slot_of(t.var());
        if (s.var >= num_body_slots) {
          return Status::InvalidArgument("head variable " + t.var() + " unbound in body");
        }
      } else {
        return Status::InvalidArgument("wildcard in rule head");
      }
      head.slots.push_back(std::move(s));
    }
    out.heads.push_back(std::move(head));
  }
  out.num_slots = static_cast<int>(slot_names.size());
  out.has_idb_body = !idb_atom_indices.empty();

  const size_t num_slots = slot_names.size();
  std::vector<bool> head_vars(num_slots, false);
  for (const CompiledRule::Head& head : out.heads) {
    for (const Slot& s : head.slots) {
      if (!s.is_const) head_vars[static_cast<size_t>(s.var)] = true;
    }
  }
  std::vector<size_t> main_atoms;
  std::vector<std::vector<size_t>> guards;
  for (std::vector<size_t>& component : BodyComponents(raws, num_slots)) {
    bool reaches_head = false;
    for (size_t ai : component) {
      for (const Slot& s : raws[ai].slots) {
        reaches_head = reaches_head || (s.var >= 0 && head_vars[static_cast<size_t>(s.var)]);
      }
    }
    if (reaches_head) {
      main_atoms.insert(main_atoms.end(), component.begin(), component.end());
    } else {
      guards.push_back(std::move(component));
    }
  }
  std::sort(main_atoms.begin(), main_atoms.end());

  // One plan over `members`; `delta_atom` (or -1) is pinned first when it
  // is a member.
  auto plan_over = [&](const std::vector<size_t>& members, int delta_atom,
                       const std::vector<bool>& plan_head_vars) {
    int forced = delta_atom >= 0 && std::binary_search(members.begin(), members.end(),
                                                       static_cast<size_t>(delta_atom))
                     ? delta_atom
                     : -1;
    return MakePlan(raws,
                    reorder ? SelectivityOrder(raws, members, forced, num_slots) : members,
                    forced, plan_head_vars);
  };
  const std::vector<bool> no_head_vars(num_slots, false);
  auto rule_plan = [&](int delta_atom) {
    JoinPlan plan = plan_over(main_atoms, delta_atom, head_vars);
    for (const std::vector<size_t>& guard : guards) {
      plan.guards.push_back(plan_over(guard, delta_atom, no_head_vars));
    }
    return plan;
  };
  out.full = rule_plan(-1);
  for (size_t ai : idb_atom_indices) {
    out.idb_body_relations.push_back(raws[ai].relation);
    out.delta_plans.push_back(rule_plan(static_cast<int>(ai)));
  }
  return out;
}

/// Injective serialization of a rule for the compiled-rule cache.
/// Rule::ToString() is ambiguous — Float(1.0) prints as "1" just like
/// Int(1), and string constants embed unescaped — so it must not key the
/// cache (a collision would replay another rule's compiled constants).
/// Constants are encoded as kind tag + exact payload bits (string pool ids
/// are stable for the process, which is the cache's lifetime).
void AppendCacheKey(const Atom& atom, std::string* key) {
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

/// True when `current` has drifted ≥4x from `planned` in either direction
/// (including empty -> non-empty, where any join order chosen for an empty
/// relation is uninformed).
bool CardinalityDrifted(size_t planned, size_t current) {
  if (planned == current) return false;
  size_t lo = std::min(planned, current);
  size_t hi = std::max(planned, current);
  return hi >= lo * 4;
}

/// A cached plan is stale when any EDB body relation's cardinality has
/// drifted ≥4x from the size seen when the join order was chosen.
bool PlanIsStale(const CompiledRule& rule, const EdbView& edb) {
  for (const auto& [name, planned] : rule.edb_stats) {
    auto rel = edb.Find(name);
    size_t current = rel.ok() ? rel.ValueOrDie()->size() : 0;
    if (CardinalityDrifted(planned, current)) return true;
  }
  return false;
}

std::string RuleCacheKey(const Rule& rule, const std::string& idb_key) {
  std::string key;
  for (const Atom& h : rule.heads) AppendCacheKey(h, &key);
  key += '\x05';
  for (const Atom& b : rule.body) AppendCacheKey(b, &key);
  key += '\x01';
  key += idb_key;
  return key;
}

/// Recompiles rule `rule_index` against observed IDB round-0 sizes, updates
/// the engine's rule cache + refresh counter, and returns the new rule.
using IdbRefreshFn = std::function<Result<std::shared_ptr<CompiledRule>>(
    size_t rule_index, const std::map<std::string, size_t>& idb_sizes)>;

class Evaluator {
 public:
  /// `budget` (may be null) is the run's byte budget, polled at the same
  /// stride as cancel/deadline.
  Evaluator(const DatalogEngine::Options& options, IndexCache* edb_indexes,
            SharedIndexCache* shared_edb_indexes, const RunContext* ctx,
            MemoryBudget* budget)
      : options_(options),
        edb_indexes_(edb_indexes),
        shared_edb_indexes_(shared_edb_indexes),
        deadline_(Deadline::Earliest(
            Deadline::AfterOrInfinite(options.timeout_seconds),
            ctx != nullptr ? ctx->deadline : Deadline::Infinite())),
        cancel_(ctx != nullptr ? ctx->cancel : CancelToken()),
        budget_(budget) {}

  Status Run(std::vector<std::shared_ptr<CompiledRule>>& rules, const EdbView& edb,
             const std::map<std::string, std::vector<std::string>>& idb_sigs,
             FactDatabase* out, const IdbRefreshFn& refresh_idb) {
    for (const auto& [name, attrs] : idb_sigs) {
      DYNAMITE_ASSIGN_OR_RETURN(Relation * rel, out->DeclareRelation(name, attrs));
      (void)rel;
    }

    // Semi-naive delta views: per IDB relation, the suffix [lo, hi) of the
    // (append-only) tuple vector derived in the previous round.
    std::map<std::string, std::pair<size_t, size_t>> delta;
    for (const auto& [name, attrs] : idb_sigs) delta[name] = {0, 0};

    // Pass 0: every rule over full views.
    {
      DYNAMITE_TRACE_SPAN("engine.pass0");
      for (const auto& rule : rules) {
        DYNAMITE_RETURN_NOT_OK(EvalPlan(*rule, rule->full, delta, edb, out));
      }
    }
    bool any_delta = false;
    for (auto& [name, range] : delta) {
      range = {0, out->Find(name).ValueOrDie()->size()};
      any_delta = any_delta || range.second > range.first;
    }

    bool any_recursive = false;
    for (const auto& rule : rules) any_recursive = any_recursive || rule->has_idb_body;

    // Statistics refresh, IDB half. Round-0 sizes are the first real
    // cardinality signal recursive rules ever get (their EDB stats don't
    // move when only the derived relations grow): record them on the
    // rule's first Eval, and on later Evals replan when they have drifted
    // ≥4x. Round-0 output is deterministic, so stats().plan_refreshes is
    // too.
    if (any_recursive) {
      std::map<std::string, size_t> idb_sizes;
      for (const auto& [name, range] : delta) idb_sizes[name] = range.second;
      for (size_t ri = 0; ri < rules.size(); ++ri) {
        CompiledRule& rule = *rules[ri];
        if (!rule.has_idb_body) continue;
        if (rule.idb_stats.empty()) {
          std::set<std::string> seen;
          for (const std::string& name : rule.idb_body_relations) {
            if (seen.insert(name).second) {
              rule.idb_stats.emplace_back(name, idb_sizes.at(name));
            }
          }
          continue;
        }
        if (refresh_idb == nullptr) continue;
        bool stale = false;
        for (const auto& [name, planned] : rule.idb_stats) {
          auto it = idb_sizes.find(name);
          stale = stale || (it != idb_sizes.end() &&
                            CardinalityDrifted(planned, it->second));
        }
        if (stale) {
          DYNAMITE_ASSIGN_OR_RETURN(rules[ri], refresh_idb(ri, idb_sizes));
        }
      }
    }

    // Semi-naive fixpoint for recursive programs.
    size_t iterations = 0;
    while (any_recursive && any_delta) {
      if (++iterations > options_.max_iterations) {
        return Status::EvalBudget("fixpoint iteration limit exceeded");
      }
      DYNAMITE_FAILPOINT("engine.fixpoint.round");
      DYNAMITE_TRACE_SPAN("engine.fixpoint.round");
      for (const auto& rule : rules) {
        if (!rule->has_idb_body) continue;
        for (size_t k = 0; k < rule->delta_plans.size(); ++k) {
          const auto& range = delta.at(rule->idb_body_relations[k]);
          if (range.first == range.second) continue;
          DYNAMITE_RETURN_NOT_OK(EvalPlan(*rule, rule->delta_plans[k], delta, edb, out));
        }
      }
      any_delta = false;
      for (auto& [name, range] : delta) {
        size_t size = out->Find(name).ValueOrDie()->size();
        range = {range.second, size};
        any_delta = any_delta || range.second > range.first;
      }
    }
    if (iterations > 0) {
      static metrics::Histogram& rounds_hist =
          metrics::GetHistogram("engine.fixpoint.rounds_per_eval");
      rounds_hist.Observe(iterations);
    }
    return Status::OK();
  }

 private:
  /// A plan atom resolved against concrete storage: the relation, its
  /// (possibly shared) incremental index, and the scan bounds [lo, hi).
  struct AtomView {
    const Relation* rel = nullptr;
    const JoinIndex* index = nullptr;  // nullptr => positional full scan
    size_t lo = 0;
    size_t hi = 0;
  };

  /// Fixed-stride interruption poll: counts every join candidate and head
  /// emission, probing the cancel token, the deadline and the byte budget
  /// every 1024 ticks regardless of how many tuples are derived. On
  /// interruption fills `*out` — kCancelled beats kTimeout — and returns
  /// true.
  bool Interrupted(Status* out) {
    if (++ticks_ < 1024) return false;
    ticks_ = 0;
    if (cancel_.cancelled()) {
      *out = Status::Cancelled("evaluation cancelled");
      return true;
    }
    if (deadline_.Expired()) {
      *out = Status::Timeout("evaluation timeout");
      return true;
    }
    if (budget_ != nullptr && budget_->exhausted()) {
      *out = budget_->ToStatus("evaluation");
      return true;
    }
    return false;
  }

  /// Plan sink: inserts head rows directly into the output relations
  /// (immediate dedup, derived-tuple budget checked per successful insert,
  /// one interruption tick per match).
  struct DirectSink {
    Evaluator* ev;
    const CompiledRule* rule;
    const std::vector<Relation*>* head_rels;
    std::vector<Value> head_buf;
    Status status;

    bool Stopped() const { return !status.ok(); }
    bool OnCandidate() { return ev->Interrupted(&status); }

    void OnMatch(const std::vector<Value>& env) {
      for (size_t h = 0; h < rule->heads.size(); ++h) {
        const auto& head = rule->heads[h];
        head_buf.clear();
        for (const Slot& s : head.slots) {
          head_buf.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        if ((*head_rels)[h]->InsertRow(head_buf.data(), head_buf.size())) {
          if (++ev->derived_ > ev->options_.max_derived_tuples) {
            status = Status::EvalBudget("derived tuple limit exceeded");
            return;
          }
        }
      }
      ev->Interrupted(&status);
    }
  };

  /// Guard sink: records that the guard plan has a match and stops there.
  struct GuardSink {
    Evaluator* ev;
    Status status;
    bool satisfied = false;

    bool Stopped() const { return satisfied || !status.ok(); }
    bool OnCandidate() { return ev->Interrupted(&status); }
    void OnMatch(const std::vector<Value>&) { satisfied = true; }
  };

  /// Recursive left-to-right matcher over the plan's atom order, each atom
  /// scanning its view's range [lo, hi). Shared verbatim by main plans and
  /// guards via the Sink parameter.
  ///
  /// Each step returns whether its subtree reached the end of the plan; an
  /// existential atom (PlanAtom::existential) stops at its first row that
  /// did.
  template <typename Sink>
  static void MatchPlan(const JoinPlan& plan, const std::vector<AtomView>& views,
                        std::vector<Value>& env, std::vector<std::vector<Value>>& key_bufs,
                        Sink& sink) {
    auto match = [&](auto&& self, size_t atom_idx) -> bool {
      if (sink.Stopped()) return false;
      if (atom_idx == plan.atoms.size()) {
        sink.OnMatch(env);
        return true;
      }
      const PlanAtom& pa = plan.atoms[atom_idx];
      const AtomView& v = views[atom_idx];
      // Scan bounds as locals: emissions cannot move them, and the loops
      // below then need not reload them per candidate.
      const size_t lo = v.lo;
      const size_t hi = v.hi;

      // Inspects row `ti`, reading only the bind/check columns (columnar
      // storage: the other columns are never touched). cell() re-fetches
      // column storage on every read: the sink appends to IDB relations
      // mid-scan, which can reallocate the column vectors (the pre-rewrite
      // engine held references across the append and crashed on recursive
      // programs at bench scale).
      auto try_row = [&](size_t ti) -> bool {
        if (sink.OnCandidate()) return false;
        for (size_t p : pa.bind_positions) {
          env[static_cast<size_t>(pa.slots[p].var)] = v.rel->cell(ti, p);
        }
        for (size_t p : pa.check_positions) {
          if (v.rel->cell(ti, p) != env[static_cast<size_t>(pa.slots[p].var)]) return false;
        }
        return self(self, atom_idx + 1);
      };

      bool reached = false;
      if (v.index == nullptr) {
        for (size_t ti = lo; ti < hi && !sink.Stopped(); ++ti) {
          reached |= try_row(ti);
          if (reached && pa.existential) break;
        }
      } else {
        std::vector<Value>& key_vals = key_bufs[atom_idx];
        key_vals.clear();
        for (size_t p : pa.key_positions) {
          const Slot& s = pa.slots[p];
          key_vals.push_back(s.is_const ? s.constant : env[static_cast<size_t>(s.var)]);
        }
        const PostingList matches =
            v.index->Lookup(*v.rel, key_vals.data(), key_vals.size());
        // Posting lists are sorted ascending; restrict to [lo, hi).
        auto it = std::lower_bound(matches.begin(), matches.end(), static_cast<uint32_t>(lo));
        for (; it != matches.end() && *it < hi && !sink.Stopped(); ++it) {
          reached |= try_row(*it);
          if (reached && pa.existential) break;
        }
      }
      return reached;
    };
    match(match, 0);
  }

  Status EvalPlan(const CompiledRule& rule, const JoinPlan& plan,
                  const std::map<std::string, std::pair<size_t, size_t>>& delta,
                  const EdbView& edb, FactDatabase* out) {
    DYNAMITE_FAILPOINT("engine.plan.entry");
    DYNAMITE_TRACE_SPAN("engine.plan");
    std::vector<AtomView> views;
    DYNAMITE_ASSIGN_OR_RETURN(bool matchable, ResolveViews(plan, delta, edb, out, &views));
    if (!matchable) return Status::OK();
    // Guards: each runs once, up to its first match, before any head row
    // of this plan is emitted (the same snapshot its atoms had when
    // they were interleaved with the main atoms).
    for (const JoinPlan& guard : plan.guards) {
      std::vector<AtomView> guard_views;
      DYNAMITE_ASSIGN_OR_RETURN(matchable, ResolveViews(guard, delta, edb, out, &guard_views));
      if (!matchable) return Status::OK();
      std::vector<Value> env(static_cast<size_t>(rule.num_slots));
      std::vector<std::vector<Value>> key_bufs(guard.atoms.size());
      GuardSink sink{this, Status::OK()};
      MatchPlan(guard, guard_views, env, key_bufs, sink);
      DYNAMITE_RETURN_NOT_OK(sink.status);
      if (!sink.satisfied) return Status::OK();
    }

    // Head relations are fixed for the plan; resolve them once, not per
    // emitted tuple (FactDatabase map nodes are stable under insertion).
    std::vector<Relation*> head_rels(rule.heads.size());
    for (size_t i = 0; i < rule.heads.size(); ++i) {
      DYNAMITE_ASSIGN_OR_RETURN(head_rels[i], out->FindMutable(rule.heads[i].relation));
    }

    std::vector<Value> env(static_cast<size_t>(rule.num_slots));
    // Reusable probe-key buffers, one per plan depth (the matcher recurses,
    // so a single shared buffer would be clobbered by deeper atoms): the
    // inner loops allocate nothing.
    std::vector<std::vector<Value>> key_bufs(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      key_bufs[i].reserve(plan.atoms[i].key_positions.size());
    }
    DirectSink sink{this, &rule, &head_rels, {}, Status::OK()};
    MatchPlan(plan, views, env, key_bufs, sink);
    return sink.status;
  }

  /// Resolves `plan`'s atoms against storage into `*views` and refreshes
  /// their indexes up front: no index is ever built inside the match loop,
  /// and IDB indexes only extend over the suffix added since the previous
  /// round. False when some atom's view is empty (no match possible).
  Result<bool> ResolveViews(const JoinPlan& plan,
                            const std::map<std::string, std::pair<size_t, size_t>>& delta,
                            const EdbView& edb, FactDatabase* out,
                            std::vector<AtomView>* views) {
    views->resize(plan.atoms.size());
    for (size_t i = 0; i < plan.atoms.size(); ++i) {
      const PlanAtom& pa = plan.atoms[i];
      AtomView& v = (*views)[i];
      if (pa.is_idb) {
        v.rel = out->Find(pa.relation).ValueOrDie();
      } else {
        DYNAMITE_ASSIGN_OR_RETURN(v.rel, edb.Find(pa.relation));
      }
      if (pa.is_delta) {
        auto range = delta.at(pa.relation);
        v.lo = range.first;
        v.hi = range.second;
      } else {
        v.lo = 0;
        v.hi = v.rel->size();
      }
      if (v.lo >= v.hi) return false;  // no matches possible
      if (!pa.key_positions.empty()) {
        if (pa.is_idb) {
          v.index = idb_indexes_.Get(*v.rel, pa.key_positions);
        } else if (shared_edb_indexes_ != nullptr && !edb.IsExtra(pa.relation)) {
          // Base-EDB index shared with sibling engines (portfolio mode):
          // the relation is frozen, so the index is built at most once
          // across all of them. Overlay relations are per-batch — they go
          // through the engine's own cache below.
          v.index = shared_edb_indexes_->Get(*v.rel, pa.key_positions);
        } else {
          v.index = edb_indexes_->Get(*v.rel, pa.key_positions);
        }
      }
    }
    return true;
  }

  DatalogEngine::Options options_;
  IndexCache* edb_indexes_;   // persistent across Eval calls (engine-owned)
  SharedIndexCache* shared_edb_indexes_;  // frozen-EDB cache shared across engines (may be null)
  IndexCache idb_indexes_;    // per-Eval: IDB relations are fresh each run
  Deadline deadline_;         // options timeout composed with RunContext
  CancelToken cancel_;
  MemoryBudget* budget_ = nullptr;   // run-wide byte budget (may be null)
  size_t derived_ = 0;
  size_t ticks_ = 0;
};

}  // namespace

/// Persistent evaluation state: EDB join indexes and compiled rules reused
/// across Eval calls (see header comment on staleness trade-offs).
struct DatalogEngine::Caches {
  IndexCache edb_indexes;
  /// Frozen-EDB index cache shared with sibling engines (the synthesis
  /// portfolio); null for a standalone engine. See ShareEdbIndexes.
  std::shared_ptr<SharedIndexCache> shared_edb_indexes;
  /// Entries are mutable (non-const CompiledRule) so a rule's idb_stats can
  /// be recorded after round 0 of its first Eval; the engine is externally
  /// single-threaded, so no locking is needed.
  std::unordered_map<std::string, std::shared_ptr<CompiledRule>> rules;
  /// Times a cached plan was recompiled because its cardinality statistics
  /// drifted ≥4x — EDB drift at cache-hit time or IDB round-0 drift
  /// mid-fixpoint (exposed via DatalogEngine::stats()).
  size_t plan_refreshes = 0;

  static constexpr size_t kMaxRules = 8192;
};

DatalogEngine::Stats DatalogEngine::stats() const {
  Stats s;
  s.plan_refreshes = caches_->plan_refreshes;
  s.cached_edb_indexes = caches_->edb_indexes.size();
  return s;
}

void DatalogEngine::ReleaseEdbIndexes(const FactDatabase& edb) const {
  for (const std::string& name : edb.RelationNames()) {
    caches_->edb_indexes.Erase(edb.Find(name).ValueOrDie()->uid());
  }
}

DatalogEngine::DatalogEngine() : DatalogEngine(Options()) {}
DatalogEngine::DatalogEngine(Options options)
    : options_(options), caches_(std::make_unique<Caches>()) {}
DatalogEngine::~DatalogEngine() = default;
DatalogEngine::DatalogEngine(DatalogEngine&&) noexcept = default;
DatalogEngine& DatalogEngine::operator=(DatalogEngine&&) noexcept = default;

void DatalogEngine::ShareEdbIndexes(std::shared_ptr<SharedIndexCache> cache) {
  caches_->shared_edb_indexes = std::move(cache);
}

Result<FactDatabase> DatalogEngine::Eval(
    const Program& program, const FactDatabase& edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx) const {
  return EvalWithOverlay(program, edb, /*extra_edb=*/nullptr, idb_signatures, ctx);
}

Result<FactDatabase> DatalogEngine::EvalWithOverlay(
    const Program& program, const FactDatabase& edb, const FactDatabase* extra_edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx) const {
  // One byte budget per run: the RunContext's if the caller installed one
  // (a Session run sharing the budget across stages), else a per-Eval one
  // from Options::max_memory_bytes, else the budget already installed on
  // this thread (null when there is none).
  MemoryBudget* budget = ctx != nullptr ? ctx->memory : nullptr;
  std::unique_ptr<MemoryBudget> local_budget;
  if (budget == nullptr && options_.max_memory_bytes > 0) {
    local_budget = std::make_unique<MemoryBudget>(options_.max_memory_bytes);
    budget = local_budget.get();
  }
  if (budget == nullptr) budget = MemoryBudget::Current();
  MemoryBudgetScope mem_scope(budget);
  // Crash-free boundary: a bad_alloc (real or injected) or an InjectedError
  // from a throwing failpoint site anywhere below becomes a typed Status.
  return failpoint::GuardExceptions(
      "datalog evaluation", [&]() -> Result<FactDatabase> {
        return EvalImpl(program, edb, extra_edb, idb_signatures, ctx, budget);
      });
}

Result<FactDatabase> DatalogEngine::EvalImpl(
    const Program& program, const FactDatabase& edb, const FactDatabase* extra_edb,
    const std::map<std::string, std::vector<std::string>>& idb_signatures,
    const RunContext* ctx, MemoryBudget* budget) const {
  DYNAMITE_FAILPOINT("engine.compile");
  DYNAMITE_TRACE_SPAN("engine.eval");
  trace::Span compile_span("engine.compile");
  const EdbView view{&edb, extra_edb};
  // The IDB relations are the signature map's keys; it serves as their set.
  const std::map<std::string, std::vector<std::string>>& idb = idb_signatures;
  std::string idb_key;
  if (options_.cache_compiled_rules) {
    for (const auto& [name, attrs] : idb_signatures) {
      idb_key += name;
      idb_key += ',';
    }
  }

  // Validate heads against signatures and body atoms against storage.
  for (const Rule& rule : program.rules) {
    DYNAMITE_RETURN_NOT_OK(rule.Validate());
    for (const Atom& h : rule.heads) {
      auto it = idb_signatures.find(h.relation);
      if (it == idb_signatures.end()) {
        return Status::InvalidArgument("head relation " + h.relation +
                                       " missing from IDB signatures");
      }
      if (it->second.size() != h.terms.size()) {
        return Status::InvalidArgument("arity mismatch for head relation " + h.relation);
      }
    }
    for (const Atom& b : rule.body) {
      if (auto it = idb.find(b.relation); it != idb.end()) {
        if (it->second.size() != b.terms.size()) {
          return Status::InvalidArgument("arity mismatch for IDB body relation " +
                                         b.relation);
        }
      } else {
        DYNAMITE_ASSIGN_OR_RETURN(const Relation* rel, view.Find(b.relation));
        if (rel->arity() != b.terms.size()) {
          return Status::InvalidArgument("arity mismatch for body relation " + b.relation +
                                         " (expected " + std::to_string(rel->arity()) +
                                         " got " + std::to_string(b.terms.size()) + ")");
        }
      }
    }
  }

  // Compile (or fetch cached) rules.
  std::vector<std::shared_ptr<CompiledRule>> rules;
  rules.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (options_.cache_compiled_rules) {
      std::string key = RuleCacheKey(rule, idb_key);
      auto it = caches_->rules.find(key);
      if (it != caches_->rules.end()) {
        // Statistics refresh: a cached join order chosen against very
        // different relation sizes can be arbitrarily bad. Re-plan when any
        // EDB body cardinality drifted ≥4x; stale plans are only a
        // performance hazard, so the check is skipped when reordering is
        // off (the plan would come out identical). The IDB half of the
        // check has to wait for round-0 sizes — see Evaluator::Run and the
        // refresh_idb callback below.
        if (options_.reorder_joins && PlanIsStale(*it->second, view)) {
          DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                    CompileRule(rule, idb, view, options_.reorder_joins));
          it->second = std::make_shared<CompiledRule>(std::move(cr));
          ++caches_->plan_refreshes;
          DYNAMITE_METRIC_INC("engine.plan_refreshes");
        }
        rules.push_back(it->second);
        continue;
      }
      DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                CompileRule(rule, idb, view, options_.reorder_joins));
      if (caches_->rules.size() >= Caches::kMaxRules) caches_->rules.clear();
      auto shared = std::make_shared<CompiledRule>(std::move(cr));
      caches_->rules.emplace(std::move(key), shared);
      rules.push_back(std::move(shared));
    } else {
      DYNAMITE_ASSIGN_OR_RETURN(CompiledRule cr,
                                CompileRule(rule, idb, view, options_.reorder_joins));
      rules.push_back(std::make_shared<CompiledRule>(std::move(cr)));
    }
  }

  // Mid-fixpoint replan hook for the IDB statistics refresh: recompile the
  // rule with observed round-0 IDB sizes in place of the kIdbCardinality
  // guess, and swap the cache entry so later Evals inherit the new plan.
  // Disabled (like the EDB check) when reordering is off — the plan would
  // come out identical — or when rules are not cached (no stats survive to
  // drift against).
  IdbRefreshFn refresh_idb;
  if (options_.cache_compiled_rules && options_.reorder_joins) {
    refresh_idb = [this, &program, &idb, view, &idb_key](
                      size_t rule_index, const std::map<std::string, size_t>& idb_sizes)
        -> Result<std::shared_ptr<CompiledRule>> {
      const Rule& rule = program.rules[rule_index];
      DYNAMITE_ASSIGN_OR_RETURN(
          CompiledRule cr, CompileRule(rule, idb, view, /*reorder=*/true, &idb_sizes));
      auto shared = std::make_shared<CompiledRule>(std::move(cr));
      auto it = caches_->rules.find(RuleCacheKey(rule, idb_key));
      if (it != caches_->rules.end()) it->second = shared;
      ++caches_->plan_refreshes;
      DYNAMITE_METRIC_INC("engine.plan_refreshes");
      return shared;
    };
  }

  compile_span.End();
  FactDatabase out;
  caches_->edb_indexes.MaybeEvict();  // safe here: no plan holds index pointers
  Evaluator evaluator(options_, &caches_->edb_indexes,
                      caches_->shared_edb_indexes.get(), ctx, budget);
  DYNAMITE_RETURN_NOT_OK(evaluator.Run(rules, view, idb_signatures, &out, refresh_idb));
  return out;
}

Result<FactDatabase> DatalogEngine::EvalAutoSignatures(const Program& program,
                                                       const FactDatabase& edb,
                                                       const RunContext* ctx) const {
  std::map<std::string, std::vector<std::string>> sigs;
  for (const Rule& rule : program.rules) {
    for (const Atom& h : rule.heads) {
      if (sigs.count(h.relation) > 0) {
        if (sigs[h.relation].size() != h.terms.size()) {
          return Status::InvalidArgument("inconsistent arity for relation " + h.relation);
        }
        continue;
      }
      std::vector<std::string> attrs;
      for (size_t i = 0; i < h.terms.size(); ++i) attrs.push_back("c" + std::to_string(i));
      sigs[h.relation] = std::move(attrs);
    }
  }
  return Eval(program, edb, sigs, ctx);
}

}  // namespace dynamite
