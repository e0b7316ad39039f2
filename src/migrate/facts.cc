#include "migrate/facts.h"

#include <algorithm>
#include <optional>

#include "datalog/index.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
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

/// Depth-first emission of roots whose structure CountRoot checked: each
/// record's row is appended straight into its type's relation, with
/// identifiers drawn from `*next_id` in visit order. Emit reads every
/// primitive cell once, checking it as it goes into the row.
struct TreeEmitter {
  const RecordTypeTable& table;
  /// The relation each record type emits into, by Type::index.
  std::vector<Relation*> rels;
  uint64_t* next_id;
  std::vector<Value> row_buf;

  /// Emits `node` and its subtree; false at the first primitive cell that
  /// is missing or of the wrong type (the caller then discards every row).
  bool Emit(const RecordNode& node, const RecordTypeTable::Type& type,
            const Value* parent_id) {
    Value my_id = Value::Id((*next_id)++);
    row_buf.clear();
    if (parent_id != nullptr) row_buf.push_back(*parent_id);
    const std::vector<Name>& attrs = type.attrs;
    RecordTypeTable::PrimReader prims(node);
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (!type.is_prim[i]) {
        row_buf.push_back(my_id);
        continue;
      }
      const Value& v = prims.Next(attrs[i]);
      if (!ValueMatchesType(v, type.prim_type[i])) return false;  // null matches no type
      row_buf.push_back(v);
    }
    rels[type.index]->InsertRow(row_buf.data(), row_buf.size());
    // row_buf is free to reuse below: InsertRow copied the row.
    for (size_t k = 0; k < type.record_attrs.size(); ++k) {
      const RecordTypeTable::Type& child_type = table.types()[type.record_types[k]];
      for (const RecordNode& child : node.Children(attrs[type.record_attrs[k]])) {
        if (!Emit(child, child_type, &my_id)) return false;
      }
    }
    return true;
  }
};

}  // namespace

Result<FactDatabase> ToFacts(const RecordForest& forest, const Schema& schema,
                             uint64_t* next_id, const RunContext* ctx, size_t* records) {
  DYNAMITE_TRACE_SPAN("ingest.to_facts");
  const RecordTypeTable table(schema);
  const size_t num_roots = forest.roots.size();
  const uint64_t first_id = *next_id;
  // The checks are split over the two passes, so a failure in either is
  // answered after the fact: with the first error ValidateRoot finds among
  // the first `checked` roots (exactly ValidateForest's, and nothing is
  // then drawn from *next_id), else with `failure` itself.
  auto first_error = [&](size_t checked, Status failure) -> Status {
    for (size_t r = 0; r < checked; ++r) {
      Status status = table.ValidateRoot(forest.roots[r]).status();
      if (!status.ok()) {
        *next_id = first_id;
        return status;
      }
    }
    return failure;
  };
  size_t ticks = 0;
  // Pass 1: check every root's structure, counting the records of each type.
  std::vector<size_t> counts(table.types().size(), 0);
  std::vector<const RecordTypeTable::Type*> root_types;
  root_types.reserve(num_roots);
  for (size_t r = 0; r < num_roots; ++r) {
    if (ctx != nullptr && (++ticks & 0xff) == 0) {
      if (Status status = ctx->Check("facts conversion"); !status.ok()) {
        return first_error(r, std::move(status));
      }
    }
    const RecordTypeTable::Type* type = table.CountRoot(forest.roots[r], &counts);
    if (type == nullptr) {
      return first_error(r + 1, Status::Internal("facts conversion: malformed root"));
    }
    root_types.push_back(type);
  }
  // One relation per record type, declared in schema RecordNames() order
  // (so relation uids ascend in that order) and sized for its records.
  FactDatabase db;
  TreeEmitter emitter{table, {}, next_id, {}};
  for (const RecordTypeTable::Type& type : table.types()) {
    DYNAMITE_ASSIGN_OR_RETURN(Relation * rel,
                              db.DeclareRelation(type.name, FactSignature(schema, type.name)));
    if (!rel->Reserve(counts[type.index])) {
      return first_error(num_roots, MemoryBudget::Current()->ToStatus("facts conversion"));
    }
    emitter.rels.push_back(rel);
  }
  // Pass 2: emit, in the same root order, checking the primitive cells.
  auto emit = [&]() -> Status {
    for (size_t r = 0; r < num_roots; ++r) {
      DYNAMITE_FAILPOINT("facts.emit");
      if (ctx != nullptr && (++ticks & 0xff) == 0) {
        DYNAMITE_RETURN_NOT_OK(ctx->Check("facts conversion"));
      }
      if (!emitter.Emit(forest.roots[r], *root_types[r], nullptr)) {
        return Status::Internal("facts conversion: malformed cell");
      }
    }
    return Status::OK();
  };
  if (Status status = emit(); !status.ok()) return first_error(num_roots, std::move(status));
  if (records != nullptr) {
    *records = 0;
    for (size_t n : counts) *records += n;
  }
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

  PostingList Lookup(const Value& parent) const {
    return rel_ == nullptr ? PostingList() : index_.Lookup(*rel_, &parent, 1);
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
/// use. Build then makes no Schema or by-name lookup per cell, and copies
/// the table's Names into the records it builds.
struct Rebuilder {
  const FactDatabase& db;
  const RecordTypeTable& table;
  IngestStats* stats;  // may be null
  std::vector<std::optional<ChildIndex>> child_indexes;  // by Type::index
  size_t built = 0;  // records built so far
  /// Heap bytes of the records built since the last charge to the
  /// MemoryBudget: cell entries, child lists and child records.
  size_t uncharged_bytes = 0;

  const ChildIndex& IndexFor(const RecordTypeTable::Type& child) {
    std::optional<ChildIndex>& index = child_indexes[child.index];
    if (!index.has_value()) {
      const Relation* rel = nullptr;
      auto found = db.Find(child.name);
      if (found.ok()) rel = found.ValueOrDie();
      index.emplace(rel);
      if (stats != nullptr) ++stats->child_index_builds;
    }
    return *index;
  }

  /// BuildRecord (§3.3): reconstructs one record from its fact row.
  /// `offset` = 1 when the relation has a parent column.
  RecordNode Build(const RecordTypeTable::Type& type, RowRef fact, size_t offset) {
    const std::vector<Name>& attrs = type.attrs;
    ++built;
    RecordNode node;
    node.type = type.name;
    node.prims.reserve(attrs.size() - type.record_attrs.size());
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (type.is_prim[i]) node.prims.push_back({attrs[i], fact[offset + i]});
    }
    node.children.reserve(type.record_attrs.size());
    uncharged_bytes += node.prims.capacity() * sizeof(node.prims[0]) +
                       node.children.capacity() * sizeof(node.children[0]);
    for (size_t k = 0; k < type.record_attrs.size(); ++k) {
      const size_t i = type.record_attrs[k];
      const RecordTypeTable::Type& child = table.types()[type.record_types[k]];
      const ChildIndex& index = IndexFor(child);
      if (stats != nullptr) ++stats->child_index_lookups;
      const PostingList rows = index.Lookup(fact[offset + i]);
      std::vector<RecordNode> kids;
      kids.reserve(rows.size());
      uncharged_bytes += kids.capacity() * sizeof(RecordNode);
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
                                 const RunContext* ctx, IngestStats* stats, size_t* records) {
  DYNAMITE_TRACE_SPAN("ingest.build_forest");
  // The per-lookup stats increments in Rebuilder are too hot to mirror one
  // by one; the registry gets the run's delta in bulk on success.
  const size_t builds_before = stats != nullptr ? stats->child_index_builds : 0;
  const size_t lookups_before = stats != nullptr ? stats->child_index_lookups : 0;
  const RecordTypeTable table(schema);
  Rebuilder rb{db, table, stats, std::vector<std::optional<ChildIndex>>(table.types().size())};
  // Each row of a top-level relation is a root.
  size_t num_roots = 0;
  for (const std::string& rec : schema.TopLevelRecords()) {
    if (auto found = db.Find(rec); found.ok()) num_roots += found.ValueOrDie()->size();
  }
  // The output forest is charged to the MemoryBudget like the child
  // indexes: the root array before it is allocated, and each root's
  // subtree in bulk, every 256 roots and at the end.
  auto charge = [](size_t bytes) -> Status {
    if (MemoryBudget::ChargeCurrent(bytes)) return Status::OK();
    return MemoryBudget::Current()->ToStatus("forest reconstruction");
  };
  DYNAMITE_RETURN_NOT_OK(charge(num_roots * sizeof(RecordNode)));
  RecordForest forest;
  forest.roots.reserve(num_roots);
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
      if ((++ticks & 0xff) == 0) {
        DYNAMITE_RETURN_NOT_OK(charge(rb.uncharged_bytes));
        rb.uncharged_bytes = 0;
        if (ctx != nullptr) DYNAMITE_RETURN_NOT_OK(ctx->Check("forest reconstruction"));
      }
      forest.roots.push_back(rb.Build(type, rel->row(r), 0));
    }
  }
  DYNAMITE_RETURN_NOT_OK(charge(rb.uncharged_bytes));
  if (stats != nullptr) {
    DYNAMITE_METRIC_ADD("ingest.child_index_builds",
                        stats->child_index_builds - builds_before);
    DYNAMITE_METRIC_ADD("ingest.child_index_lookups",
                        stats->child_index_lookups - lookups_before);
  }
  if (records != nullptr) *records = rb.built;
  return forest;
}

namespace {

std::string CanonicalNode(const RecordNode& node) {
  std::string out = node.type.str() + "{";
  std::vector<std::string> fields;
  for (const auto& [attr, value] : node.prims) {
    fields.push_back(attr.str() + "=" + value.ToString());
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
    std::string group = attr.str() + ":[";
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
