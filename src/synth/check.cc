#include "synth/check.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "migrate/facts.h"

namespace dynamite {

/// One candidate IDB resolved against the tree: each type's relation
/// (null when absent) and, built on first use, each nested type's rows
/// ordered by the hash of their parent column.
class CandidateCheck::Candidate {
 public:
  Candidate(const CandidateCheck& check, const FactDatabase& idb)
      : rels_(check.types_.size(), nullptr), by_parent_(check.types_.size()) {
    for (size_t t = 0; t < check.types_.size(); ++t) {
      const std::string& name = check.types_[t].name;
      if (idb.Has(name)) rels_[t] = idb.Find(name).ValueOrDie();
    }
  }

  const Relation* rel(size_t t) const { return rels_[t]; }

  /// Calls `fn(row)` for each row of nested type `t` whose parent column
  /// equals `parent`, in ascending row order (BuildForest's child order).
  template <typename Fn>
  void ForEachChild(size_t t, const Value& parent, Fn fn) const {
    const Relation* rel = rels_[t];
    if (rel == nullptr) return;
    std::vector<std::pair<size_t, uint32_t>>& order = by_parent_[t];
    if (order.size() != rel->size()) {
      order.clear();
      order.reserve(rel->size());
      for (size_t r = 0; r < rel->size(); ++r) {
        order.push_back({rel->cell(r, 0).Hash(), static_cast<uint32_t>(r)});
      }
      std::sort(order.begin(), order.end());
    }
    const size_t h = parent.Hash();
    for (auto it = std::lower_bound(order.begin(), order.end(), std::make_pair(h, uint32_t{0}));
         it != order.end() && it->first == h; ++it) {
      if (rel->cell(it->second, 0) == parent) fn(it->second);
    }
  }

 private:
  std::vector<const Relation*> rels_;
  mutable std::vector<std::vector<std::pair<size_t, uint32_t>>> by_parent_;
};

size_t CandidateCheck::KeyHash::operator()(const std::vector<int>& key) const {
  size_t seed = key.size();
  for (int k : key) HashCombine(&seed, k);
  return seed;
}

size_t CandidateCheck::AddType(const Schema& target, const std::string& name) {
  const size_t t = types_.size();
  types_.emplace_back();
  std::vector<std::string> sig = FactSignature(target, name);
  const size_t offset = target.IsNestedRecord(name) ? 1 : 0;
  std::vector<std::pair<size_t, std::string>> nested;  // (column, record)
  const std::vector<std::string>& attrs = target.AttrsOf(name);
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (target.IsPrimitive(attrs[i])) {
      types_[t].prims.push_back(attrs[i]);
      types_[t].prim_cols.push_back(offset + i);
    } else if (target.IsRecord(attrs[i])) {
      nested.push_back({offset + i, attrs[i]});
    }
  }
  types_[t].name = name;
  types_[t].arity = sig.size();
  types_[t].view_width = target.PrimAttrbsOfTree(name).size();
  sigs_[name] = std::move(sig);
  for (const auto& [col, record] : nested) {
    const size_t child = AddType(target, record);
    types_[t].record_cols.push_back(col);
    types_[t].child_types.push_back(child);
  }
  return t;
}

Result<CandidateCheck> CandidateCheck::Make(const Schema& target, const std::string& top,
                                            const RecordForest& expected) {
  if (!target.IsRecord(top) || target.IsNestedRecord(top)) {
    return Status::InvalidArgument("not a top-level target record: " + top);
  }
  CandidateCheck check;
  check.AddType(target, top);
  DYNAMITE_ASSIGN_OR_RETURN(check.expected_view_, FlattenForestView(expected, target, top));
  for (const RecordNode& root : expected.roots) {
    if (root.type != top) continue;
    const int id = check.InternExpected(root, 0);
    if (id < 0) check.expected_producible_ = false;
    check.expected_roots_.push_back(id);
  }
  std::sort(check.expected_roots_.begin(), check.expected_roots_.end());
  check.expected_roots_.erase(
      std::unique(check.expected_roots_.begin(), check.expected_roots_.end()),
      check.expected_roots_.end());
  return check;
}

int CandidateCheck::InternClass(const Value& v) {
  std::string text = v.ToString();
  const int fresh = static_cast<int>(text_class_.size());
  const int c = text_class_.emplace(text, fresh).first->second;
  if (!v.is_float()) {
    value_class_.emplace(v, c);
  } else {
    // A float that prints as an integer shares its class with that Int.
    int64_t n = 0;
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
    if (ec == std::errc() && end == text.data() + text.size() && std::to_string(n) == text) {
      value_class_.emplace(Value::Int(n), c);
    }
  }
  return c;
}

int CandidateCheck::ClassOf(const Value& v) const {
  if (v.is_float()) {
    auto it = text_class_.find(v.ToString());
    return it == text_class_.end() ? -1 : it->second;
  }
  auto it = value_class_.find(v);
  return it == value_class_.end() ? -1 : it->second;
}

int CandidateCheck::InternExpected(const RecordNode& node, size_t t) {
  const TreeType& type = types_[t];
  // A candidate record has exactly the schema's primitives and one child
  // list per nested collection; any other shape prints differently.
  if (node.type != type.name || node.prims.size() != type.prims.size() ||
      node.children.size() != type.child_types.size()) {
    return -1;
  }
  std::vector<int> key = {static_cast<int>(t)};
  for (const std::string& attr : type.prims) {
    auto it = std::find_if(node.prims.begin(), node.prims.end(),
                           [&attr](const auto& p) { return p.first == attr; });
    if (it == node.prims.end()) return -1;
    key.push_back(InternClass(it->second));
  }
  for (size_t k = 0; k < type.child_types.size(); ++k) {
    const size_t child = type.child_types[k];
    const std::string& attr = types_[child].name;
    auto it = std::find_if(node.children.begin(), node.children.end(),
                           [&attr](const auto& g) { return g.first == attr; });
    if (it == node.children.end()) return -1;
    std::vector<int> ids;
    for (const RecordNode& kid : it->second) {
      const int id = InternExpected(kid, child);
      if (id < 0) return -1;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    key.push_back(static_cast<int>(ids.size()));
    key.insert(key.end(), ids.begin(), ids.end());
  }
  const int fresh = static_cast<int>(node_ids_.size());
  return node_ids_.emplace(std::move(key), fresh).first->second;
}

int CandidateCheck::CandidateId(const Candidate& cand, size_t t, size_t row) const {
  const TreeType& type = types_[t];
  const Relation& rel = *cand.rel(t);
  std::vector<int> key;
  key.reserve(1 + type.prim_cols.size() + 2 * type.record_cols.size());
  key.push_back(static_cast<int>(t));
  for (size_t col : type.prim_cols) {
    const int c = ClassOf(rel.cell(row, col));
    if (c < 0) return -1;
    key.push_back(c);
  }
  std::vector<int> ids;
  for (size_t k = 0; k < type.record_cols.size(); ++k) {
    const size_t child = type.child_types[k];
    ids.clear();
    bool producible = true;
    cand.ForEachChild(child, rel.cell(row, type.record_cols[k]), [&](uint32_t child_row) {
      if (!producible) return;
      const int id = CandidateId(cand, child, child_row);
      if (id < 0) producible = false;
      ids.push_back(id);
    });
    if (!producible) return -1;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    key.push_back(static_cast<int>(ids.size()));
    key.insert(key.end(), ids.begin(), ids.end());
  }
  auto it = node_ids_.find(key);
  return it == node_ids_.end() ? -1 : it->second;
}

Status CandidateCheck::CheckTopArity(const Relation* top) const {
  if (top == nullptr || top->arity() == types_[0].arity) return Status::OK();
  return Status::InvalidArgument("relation " + types_[0].name + " has arity " +
                                 std::to_string(top->arity()) + ", schema expects " +
                                 std::to_string(types_[0].arity));
}

Result<bool> CandidateCheck::Matches(const FactDatabase& idb) const {
  Candidate cand(*this, idb);
  const Relation* top = cand.rel(0);
  DYNAMITE_RETURN_NOT_OK(CheckTopArity(top));
  if (top == nullptr) return expected_roots_.empty();
  if (!expected_producible_) return false;
  std::vector<int> roots;
  roots.reserve(top->size());
  for (size_t r = 0; r < top->size(); ++r) {
    const int id = CandidateId(cand, 0, r);
    if (id < 0) return false;
    roots.push_back(id);
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots == expected_roots_;
}

void CandidateCheck::FlattenRow(const Candidate& cand, size_t t, size_t row,
                                std::vector<Value>* prefix,
                                std::vector<std::vector<Value>>* out) const {
  // FlattenNode (facts.cc) over fact rows: the record's primitives, then
  // the cross product of its nested collections' flattened rows, a
  // collection without children padding with nulls.
  const TreeType& type = types_[t];
  const Relation& rel = *cand.rel(t);
  const size_t mark = prefix->size();
  for (size_t col : type.prim_cols) prefix->push_back(rel.cell(row, col));
  if (type.record_cols.empty()) {
    out->push_back(*prefix);
    prefix->resize(mark);
    return;
  }
  std::vector<std::vector<std::vector<Value>>> per_attr;
  per_attr.reserve(type.record_cols.size());
  for (size_t k = 0; k < type.record_cols.size(); ++k) {
    const size_t child = type.child_types[k];
    std::vector<std::vector<Value>> sub_rows;
    cand.ForEachChild(child, rel.cell(row, type.record_cols[k]), [&](uint32_t child_row) {
      std::vector<Value> sub_prefix;
      FlattenRow(cand, child, child_row, &sub_prefix, &sub_rows);
    });
    if (sub_rows.empty()) sub_rows.emplace_back(types_[child].view_width, Value::Null());
    per_attr.push_back(std::move(sub_rows));
  }
  std::vector<std::vector<Value>> acc = {{}};
  for (const auto& sub_rows : per_attr) {
    std::vector<std::vector<Value>> next;
    next.reserve(acc.size() * sub_rows.size());
    for (const auto& base : acc) {
      for (const auto& sub : sub_rows) {
        std::vector<Value> r = base;
        r.insert(r.end(), sub.begin(), sub.end());
        next.push_back(std::move(r));
      }
    }
    acc = std::move(next);
  }
  for (const auto& suffix : acc) {
    std::vector<Value> r = *prefix;
    r.insert(r.end(), suffix.begin(), suffix.end());
    out->push_back(std::move(r));
  }
  prefix->resize(mark);
}

Result<Relation> CandidateCheck::View(const FactDatabase& idb) const {
  Candidate cand(*this, idb);
  const Relation* top = cand.rel(0);
  DYNAMITE_RETURN_NOT_OK(CheckTopArity(top));
  Relation view(expected_view_.name(), expected_view_.attributes());
  if (top == nullptr) return view;
  std::vector<Value> prefix;
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < top->size(); ++r) {
    rows.clear();
    FlattenRow(cand, 0, r, &prefix, &rows);
    for (const auto& row : rows) view.InsertRow(row.data(), row.size());
  }
  return view;
}

}  // namespace dynamite
