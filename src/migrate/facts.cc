#include "migrate/facts.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "datalog/index.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace dynamite {

std::string ParentColumn(const std::string& record) { return "_parent_" + record; }

std::vector<std::string> FactSignature(const Schema& schema, const std::string& record) {
  std::vector<std::string> attrs;
  if (schema.IsNestedRecord(record)) attrs.push_back(ParentColumn(record));
  for (const std::string& a : schema.AttrsOf(record)) attrs.push_back(a);
  return attrs;
}

std::map<std::string, std::vector<std::string>> FactSignatures(const Schema& schema) {
  std::map<std::string, std::vector<std::string>> sigs;
  for (const std::string& rec : schema.RecordNames()) {
    sigs[rec] = FactSignature(schema, rec);
  }
  return sigs;
}

namespace {

/// Per-call conversion state: the schema's resolved record types (shared
/// with validation) plus the relation each type emits into, indexed by
/// RecordTypeTable::Type::index.
struct EmitPlan {
  RecordTypeTable table;
  std::vector<Relation*> rels;
};

/// Declares one relation per record type — in schema RecordNames() order,
/// single-threaded even under sharded ingest, so relation uids come out in
/// the same sequence as the sequential path.
Status DeclareRelations(const Schema& schema, FactDatabase* db, EmitPlan* plan) {
  for (const std::string& rec : schema.RecordNames()) {
    DYNAMITE_ASSIGN_OR_RETURN(Relation * rel,
                              db->DeclareRelation(rec, FactSignature(schema, rec)));
    plan->rels.push_back(rel);
  }
  return Status::OK();
}

/// Builds one validated record's fact row into `row_buf` (cleared first).
void FillRow(const RecordTypeTable::Type& type, const RecordNode& node,
             const Value* parent_id, const Value& my_id, std::vector<Value>* row_buf) {
  row_buf->clear();
  if (parent_id != nullptr) row_buf->push_back(*parent_id);
  const std::vector<std::string>& attrs = *type.attrs;
  for (size_t i = 0; i < attrs.size(); ++i) {
    row_buf->push_back(type.is_prim[i] ? node.Prim(attrs[i]) : my_id);
  }
}

/// Depth-first emission of one validated root. `Sink` receives each row
/// with its record type; identifiers come from `*next_id` in visit order.
template <typename Sink>
struct TreeEmitter {
  const EmitPlan& plan;
  uint64_t* next_id;
  Sink sink;
  std::vector<Value> row_buf;

  void Emit(const RecordNode& node, const RecordTypeTable::Type& type,
            const Value* parent_id) {
    Value my_id = Value::Id((*next_id)++);
    FillRow(type, node, parent_id, my_id, &row_buf);
    sink(type, row_buf);
    // row_buf is free to reuse below: the sink copied the row.
    const std::vector<std::string>& attrs = *type.attrs;
    for (size_t k = 0; k < type.record_attrs.size(); ++k) {
      const RecordTypeTable::Type& child_type = plan.table.types()[type.record_types[k]];
      for (const RecordNode& child : node.Children(attrs[type.record_attrs[k]])) {
        Emit(child, child_type, &my_id);
      }
    }
  }

  /// Validates `root`, then emits it; a malformed root emits nothing.
  Status EmitRoot(const RecordNode& root) {
    DYNAMITE_ASSIGN_OR_RETURN(const RecordTypeTable::Type* type,
                              plan.table.ValidateRoot(root));
    Emit(root, *type, nullptr);
    return Status::OK();
  }
};

/// Sequential emission over the whole forest (also the sharded path's
/// degradation target: it produces the canonical output by definition).
/// Rows are appended straight into the relations column-wise.
Status EmitSequential(const RecordForest& forest, const EmitPlan& plan, uint64_t* next_id,
                      const RunContext* ctx) {
  auto insert = [&plan](const RecordTypeTable::Type& type, const std::vector<Value>& row) {
    plan.rels[type.index]->InsertRow(row.data(), row.size());
  };
  TreeEmitter<decltype(insert)> emitter{plan, next_id, insert, {}};
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    DYNAMITE_FAILPOINT("facts.emit");
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("facts conversion"));
    }
    DYNAMITE_RETURN_NOT_OK(emitter.EmitRoot(root));
  }
  return Status::OK();
}

/// Records a chunk's emissions for one relation: flat row-major values plus
/// per-row hashes, so the single-threaded merge never hashes (the same
/// recipe as the engine's parallel fixpoint buffers). No local dedup — the
/// merge replays rows through the relations' own dedup tables in exactly
/// the sequential order, folding duplicates identically.
struct ShardBuffer {
  std::vector<Value> values;
  std::vector<size_t> hashes;
};

/// The number of fact rows TreeEmitter would produce for this subtree (one
/// per record reached through schema record attributes). Drives the
/// identifier prefix sums, so it must mirror TreeEmitter::Emit's traversal
/// exactly on valid roots. A malformed root is never emitted and its chunk
/// fails, so whatever it counts never reaches an observable identifier.
size_t CountEmitted(const RecordNode& node, const RecordTypeTable& table,
                    const RecordTypeTable::Type& type) {
  size_t n = 1;
  const std::vector<std::string>& attrs = *type.attrs;
  for (size_t k = 0; k < type.record_attrs.size(); ++k) {
    const RecordTypeTable::Type& child_type = table.types()[type.record_types[k]];
    for (const RecordNode& child : node.Children(attrs[type.record_attrs[k]])) {
      n += CountEmitted(child, table, child_type);
    }
  }
  return n;
}

size_t CountEmittedRoot(const RecordNode& root, const RecordTypeTable& table) {
  const RecordTypeTable::Type* type = table.Find(root.type);
  return type == nullptr ? 1 : CountEmitted(root, table, *type);
}

/// Forests below this many roots ingest sequentially even with a pool:
/// chunk dispatch plus the extra counting pass would cost more than the
/// emission they parallelize.
constexpr size_t kMinRootsForParallelIngest = 128;

/// Sharded parallel emission. Returns OK/error like EmitSequential;
/// `*degraded` is set instead when the attempt must be abandoned with the
/// database untouched (ingest.shard fault or pool-level worker failure) —
/// the caller then reruns EmitSequential for an identical result.
Status EmitSharded(const RecordForest& forest, const EmitPlan& plan, uint64_t* next_id,
                   const RunContext* ctx, ThreadPool* pool,
                   IngestStats* stats, bool* degraded) {
  const size_t num_roots = forest.roots.size();
  const size_t workers = pool->num_workers();
  // Same chunking recipe as the parallel fixpoint: enough chunks for
  // claim-based load balancing, boundaries a pure function of the sizes.
  const size_t num_chunks =
      std::min(workers * 4, std::max<size_t>(1, num_roots / 32));
  auto chunk_lo = [&](size_t c) { return num_roots * c / num_chunks; };

  MemoryBudget* budget = ctx != nullptr ? ctx->memory : nullptr;

  // Pass 1: count each chunk's records (identifier demand) in parallel.
  std::vector<uint64_t> chunk_records(num_chunks, 0);
  std::atomic<size_t> next_count{0};
  Status count_pool_status = pool->Run([&](size_t) {
    for (;;) {
      size_t c = next_count.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      DYNAMITE_TRACE_SPAN("ingest.count");
      uint64_t n = 0;
      for (size_t r = chunk_lo(c); r < chunk_lo(c + 1); ++r) {
        n += CountEmittedRoot(forest.roots[r], plan.table);
      }
      chunk_records[c] = n;
    }
  });
  if (!count_pool_status.ok()) {
    *degraded = true;
    return Status::OK();
  }

  // Prefix sums seed each chunk's identifier block at exactly the value the
  // sequential depth-first walk reaches when it enters the chunk's first
  // root.
  std::vector<uint64_t> chunk_base(num_chunks, 0);
  uint64_t total = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_base[c] = *next_id + total;
    total += chunk_records[c];
  }

  // Pass 2: emit each chunk into its own buffers. Chunk-level failures
  // split two ways: an `ingest.shard` fault (or anything a worker throws,
  // caught by the pool's trampoline) marks the attempt degraded; errors
  // from the emission itself — a root failing validation, ctx
  // interruption, the `facts.emit` failpoint — are typed per chunk and
  // propagate below. Each chunk validates its own roots just before
  // emitting them, so no serial validation pass precedes the shards.
  std::vector<std::vector<ShardBuffer>> chunk_bufs(num_chunks);
  std::vector<Status> chunk_status(num_chunks, Status::OK());
  std::atomic<bool> shard_fault{false};
  std::atomic<size_t> next_emit{0};
  Status emit_pool_status = pool->Run([&](size_t) {
    MemoryBudgetScope mem_scope(budget);
    for (;;) {
      size_t c = next_emit.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      DYNAMITE_TRACE_SPAN("ingest.shard");
      Status injected = DYNAMITE_FAILPOINT_STATUS("ingest.shard");
      if (!injected.ok()) {
        shard_fault.store(true, std::memory_order_relaxed);
        break;
      }
      chunk_status[c] = failpoint::GuardExceptions("sharded ingest", [&]() -> Status {
        std::vector<ShardBuffer>& bufs = chunk_bufs[c];
        bufs.resize(plan.rels.size());
        auto buffer = [&bufs](const RecordTypeTable::Type& type,
                              const std::vector<Value>& row) {
          ShardBuffer& sb = bufs[type.index];
          MemoryBudget::ChargeCurrent(row.size() * sizeof(Value) + sizeof(size_t));
          sb.values.insert(sb.values.end(), row.begin(), row.end());
          sb.hashes.push_back(HashValueRange(row.data(), row.size()));
        };
        uint64_t chunk_next_id = chunk_base[c];
        TreeEmitter<decltype(buffer)> emitter{plan, &chunk_next_id, buffer, {}};
        size_t ticks = 0;
        for (size_t r = chunk_lo(c); r < chunk_lo(c + 1); ++r) {
          Status fp = DYNAMITE_FAILPOINT_STATUS("facts.emit");
          if (!fp.ok()) return fp;
          if (ctx != nullptr && (++ticks & 0xff) == 0) {
            DYNAMITE_RETURN_NOT_OK(ctx->Check("facts conversion"));
          }
          DYNAMITE_RETURN_NOT_OK(emitter.EmitRoot(forest.roots[r]));
        }
        // The counting pass must agree with emission or identifiers would
        // collide across chunks.
        DYNAMITE_CHECK(chunk_next_id == chunk_base[c] + chunk_records[c],
                       "sharded ingest count/emission mismatch");
        return Status::OK();
      });
    }
  });
  if (shard_fault.load(std::memory_order_relaxed) || !emit_pool_status.ok()) {
    *degraded = true;
    return Status::OK();
  }
  // Lowest-chunk error == the first error of the sequential walk (each
  // chunk validates and emits its roots in order, so its recorded error is
  // the chunk's first): the same Status at any worker count.
  for (size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
  }

  // Single-threaded merge. Per relation, the concatenation of chunk
  // buffers in ascending chunk order is exactly the sequential emission
  // order, and InsertRowPrehashed applies the same dedup the sequential
  // InsertRow would — bit-identical contents and row order. (The merge
  // revisits one relation at a time rather than interleaving types the way
  // the depth-first walk does; per-relation order is what dedup and row
  // order depend on, and that is preserved.)
  DYNAMITE_TRACE_SPAN("ingest.merge");
  for (size_t t = 0; t < plan.rels.size(); ++t) {
    Relation* rel = plan.rels[t];
    const size_t arity = rel->arity();
    for (size_t c = 0; c < num_chunks; ++c) {
      if (chunk_bufs[c].empty()) continue;  // chunk emitted nothing
      const ShardBuffer& sb = chunk_bufs[c][t];
      for (size_t r = 0; r < sb.hashes.size(); ++r) {
        rel->InsertRowPrehashed(sb.values.data() + r * arity, arity, sb.hashes[r]);
      }
    }
  }
  *next_id += total;
  if (stats != nullptr) stats->parallel_chunks += num_chunks;
  DYNAMITE_METRIC_ADD("ingest.parallel_chunks", num_chunks);
  return Status::OK();
}

}  // namespace

Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx) {
  return ToFacts(forest, schema, next_id, ctx, IngestOptions{});
}

Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx,
                             const IngestOptions& options) {
  DYNAMITE_TRACE_SPAN("ingest.to_facts");
  FactDatabase db;
  EmitPlan plan{RecordTypeTable(schema), {}};
  DYNAMITE_RETURN_NOT_OK(DeclareRelations(schema, &db, &plan));

  if (options.pool_provider && forest.roots.size() >= kMinRootsForParallelIngest) {
    ThreadPool* pool = options.pool_provider();
    if (pool != nullptr && pool->num_workers() > 1) {
      bool degraded = false;
      DYNAMITE_RETURN_NOT_OK(EmitSharded(forest, plan, next_id, ctx, pool,
                                         options.stats, &degraded));
      if (!degraded) return db;
      // Degradation: nothing reached the relations (buffers were the only
      // state), so the sequential rerun below starts clean and produces the
      // identical database.
      if (options.stats != nullptr) ++options.stats->ingest_fallbacks;
      DYNAMITE_METRIC_INC("ingest.fallbacks");
    }
  }

  DYNAMITE_RETURN_NOT_OK(EmitSequential(forest, plan, next_id, ctx));
  return db;
}

namespace {

/// Posting-list index over a child relation's parent column: build-once,
/// backed by the engine's JoinIndex on key position {0}, so forest
/// reconstruction shares the same open-addressed group table (and the same
/// memory-budget accounting) as join evaluation. Postings are ascending row
/// indices — children rebuild in fact insertion order, exactly like the
/// linear scan the old per-value hash map replaced.
class ChildIndex {
 public:
  explicit ChildIndex(const Relation* rel) : rel_(rel), index_({0}) {
    if (rel_ != nullptr) index_.Refresh(*rel_);
  }

  const PostingList& Lookup(const Value& parent) const {
    static const PostingList kEmpty;
    if (rel_ == nullptr) return kEmpty;
    const PostingList* rows = index_.Lookup(*rel_, &parent, 1);
    return rows == nullptr ? kEmpty : *rows;
  }

  const Relation* relation() const { return rel_; }

 private:
  const Relation* rel_ = nullptr;
  JoinIndex index_;
};

/// BuildRecord over the schema's RecordTypeTable, resolved once per call:
/// each type's primitive attributes and child types come from the table,
/// and each child relation's index lives in a slot indexed by the child's
/// type (a child type has exactly one parent attribute), built on first
/// use. Build then makes no Schema or by-name lookup per cell.
struct Rebuilder {
  const FactDatabase& db;
  const RecordTypeTable& table;
  IngestStats* stats;  // may be null
  std::vector<std::optional<ChildIndex>> child_indexes;  // by Type::index

  const ChildIndex& IndexFor(const RecordTypeTable::Type& child) {
    std::optional<ChildIndex>& index = child_indexes[child.index];
    if (!index.has_value()) {
      const Relation* rel = nullptr;
      auto found = db.Find(*child.name);
      if (found.ok()) rel = found.ValueOrDie();
      index.emplace(rel);
      if (stats != nullptr) ++stats->child_index_builds;
    }
    return *index;
  }

  /// BuildRecord (§3.3): reconstructs one record from its fact row.
  /// `offset` = 1 when the relation has a parent column.
  RecordNode Build(const RecordTypeTable::Type& type, RowRef fact, size_t offset) {
    const std::vector<std::string>& attrs = *type.attrs;
    RecordNode node;
    node.type = *type.name;
    node.prims.reserve(attrs.size() - type.record_attrs.size());
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (type.is_prim[i]) node.prims.push_back({attrs[i], fact[offset + i]});
    }
    node.children.reserve(type.record_attrs.size());
    for (size_t k = 0; k < type.record_attrs.size(); ++k) {
      const size_t i = type.record_attrs[k];
      const RecordTypeTable::Type& child = table.types()[type.record_types[k]];
      const ChildIndex& index = IndexFor(child);
      if (stats != nullptr) ++stats->child_index_lookups;
      const PostingList& rows = index.Lookup(fact[offset + i]);
      std::vector<RecordNode> kids;
      kids.reserve(rows.size());
      for (uint32_t child_row : rows) {
        kids.push_back(Build(child, index.relation()->row(child_row), 1));
      }
      node.children.push_back({attrs[i], std::move(kids)});
    }
    return node;
  }
};

}  // namespace

Result<RecordForest> BuildForest(const FactDatabase& db, const Schema& schema,
                                 const RunContext* ctx, IngestStats* stats) {
  DYNAMITE_TRACE_SPAN("ingest.build_forest");
  // The per-lookup stats increments in Rebuilder are too hot to mirror one
  // by one; the registry gets the run's delta in bulk on success.
  const size_t builds_before = stats != nullptr ? stats->child_index_builds : 0;
  const size_t lookups_before = stats != nullptr ? stats->child_index_lookups : 0;
  const RecordTypeTable table(schema);
  Rebuilder rb{db, table, stats, std::vector<std::optional<ChildIndex>>(table.types().size())};
  RecordForest forest;
  size_t ticks = 0;
  for (const std::string& rec : schema.TopLevelRecords()) {
    auto found = db.Find(rec);
    if (!found.ok()) continue;  // absent relation: no records of this type
    const Relation* rel = found.ValueOrDie();
    size_t expected_arity = FactSignature(schema, rec).size();
    if (rel->arity() != expected_arity) {
      return Status::InvalidArgument("relation " + rec + " has arity " +
                                     std::to_string(rel->arity()) + ", schema expects " +
                                     std::to_string(expected_arity));
    }
    const RecordTypeTable::Type& type = *table.Find(rec);
    for (size_t r = 0; r < rel->size(); ++r) {
      DYNAMITE_FAILPOINT("facts.build");
      if (ctx != nullptr && (++ticks & 0xff) == 0) {
        DYNAMITE_RETURN_NOT_OK(ctx->Check("forest reconstruction"));
      }
      forest.roots.push_back(rb.Build(type, rel->row(r), 0));
    }
  }
  if (stats != nullptr) {
    DYNAMITE_METRIC_ADD("ingest.child_index_builds",
                        stats->child_index_builds - builds_before);
    DYNAMITE_METRIC_ADD("ingest.child_index_lookups",
                        stats->child_index_lookups - lookups_before);
  }
  return forest;
}

namespace {

std::string CanonicalNode(const RecordNode& node) {
  std::string out = node.type + "{";
  std::vector<std::string> fields;
  for (const auto& [attr, value] : node.prims) {
    fields.push_back(attr + "=" + value.ToString());
  }
  std::sort(fields.begin(), fields.end());
  for (const std::string& f : fields) {
    out += f;
    out += ";";
  }
  std::vector<std::string> child_groups;
  for (const auto& [attr, kids] : node.children) {
    std::vector<std::string> canon_kids;
    canon_kids.reserve(kids.size());
    for (const RecordNode& k : kids) canon_kids.push_back(CanonicalNode(k));
    std::sort(canon_kids.begin(), canon_kids.end());
    canon_kids.erase(std::unique(canon_kids.begin(), canon_kids.end()), canon_kids.end());
    std::string group = attr + ":[";
    for (const std::string& c : canon_kids) {
      group += c;
      group += ",";
    }
    group += "]";
    child_groups.push_back(std::move(group));
  }
  std::sort(child_groups.begin(), child_groups.end());
  for (const std::string& g : child_groups) {
    out += g;
    out += ";";
  }
  out += "}";
  return out;
}

}  // namespace

std::vector<std::string> CanonicalForest(const RecordForest& forest) {
  std::vector<std::string> out;
  out.reserve(forest.roots.size());
  for (const RecordNode& r : forest.roots) out.push_back(CanonicalNode(r));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ForestEquals(const RecordForest& a, const RecordForest& b) {
  return CanonicalForest(a) == CanonicalForest(b);
}

namespace {

/// Recursively produces the flattened rows for one record subtree.
void FlattenNode(const RecordNode& node, const Schema& schema,
                 std::vector<Value>* prefix, std::vector<std::vector<Value>>* out) {
  size_t mark = prefix->size();
  for (const std::string& attr : schema.PrimAttrbsOf(node.type)) {
    prefix->push_back(node.Prim(attr));
  }
  // Cross product over nested collections (outer join: empty -> null pad).
  std::vector<std::string> nested;
  for (const std::string& attr : schema.AttrsOf(node.type)) {
    if (schema.IsRecord(attr)) nested.push_back(attr);
  }
  if (nested.empty()) {
    out->push_back(*prefix);
    prefix->resize(mark);
    return;
  }
  // For each nested attribute, compute the flattened sub-rows of each child
  // and pad with nulls when there are none.
  std::vector<std::vector<std::vector<Value>>> per_attr;  // attr -> rows
  for (const std::string& attr : nested) {
    std::vector<std::vector<Value>> sub_rows;
    for (const RecordNode& child : node.Children(attr)) {
      std::vector<Value> sub_prefix;
      std::vector<std::vector<Value>> child_rows;
      FlattenNode(child, schema, &sub_prefix, &child_rows);
      for (auto& r : child_rows) sub_rows.push_back(std::move(r));
    }
    if (sub_rows.empty()) {
      size_t width = schema.PrimAttrbsOfTree(attr).size();
      sub_rows.push_back(std::vector<Value>(width, Value::Null()));
    }
    per_attr.push_back(std::move(sub_rows));
  }
  // Cross product of the per-attribute row sets.
  std::vector<std::vector<Value>> acc = {{}};
  for (const auto& sub_rows : per_attr) {
    std::vector<std::vector<Value>> next;
    for (const auto& base : acc) {
      for (const auto& sub : sub_rows) {
        std::vector<Value> row = base;
        row.insert(row.end(), sub.begin(), sub.end());
        next.push_back(std::move(row));
      }
    }
    acc = std::move(next);
  }
  for (const auto& suffix : acc) {
    std::vector<Value> row = *prefix;
    row.insert(row.end(), suffix.begin(), suffix.end());
    out->push_back(std::move(row));
  }
  prefix->resize(mark);
}

}  // namespace

Result<Relation> FlattenForestView(const RecordForest& forest, const Schema& schema,
                                   const std::string& top_record,
                                   const RunContext* ctx) {
  if (!schema.IsRecord(top_record)) {
    return Status::InvalidArgument("not a record type: " + top_record);
  }
  Relation view("flat_" + top_record, schema.PrimAttrbsOfTree(top_record));
  size_t ticks = 0;
  for (const RecordNode& root : forest.roots) {
    if (root.type != top_record) continue;
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      DYNAMITE_RETURN_NOT_OK(ctx->Check("flatten view"));
    }
    std::vector<Value> prefix;
    std::vector<std::vector<Value>> rows;
    FlattenNode(root, schema, &prefix, &rows);
    for (const auto& r : rows) view.InsertRow(r.data(), r.size());
  }
  return view;
}

Result<Relation> FlattenView(const FactDatabase& db, const Schema& schema,
                             const std::string& top_record, const RunContext* ctx) {
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest forest, BuildForest(db, schema, ctx));
  // Keep only the requested tree's roots (BuildForest builds all).
  return FlattenForestView(forest, schema, top_record, ctx);
}

}  // namespace dynamite
