// The candidate check of sketch completion (§4.3): is a candidate
// program's output on the example the expected output, and, when it is
// not, what is its flattened view for MDP analysis?
//
// The reference semantics are those of src/migrate/facts.h: a candidate
// matches when CanonicalForest(BuildForest(idb)) equals the canonical form
// of the expected roots, and its view is FlattenForestView of that forest.
// CandidateCheck reaches the same answers without building either. It
// resolves one target record tree once per rule: the tree's relations,
// columns and signatures, and the expected output interned as a table of
// canonical node keys. A candidate's IDB rows are then judged in place: a
// node's key is its type, the classes of its primitive values and, per
// nested collection, the sorted set of its children's node ids. A node
// whose key is not in the expected table cannot appear in an equal
// instance, so the first such node reachable from a root decides "no".
//
// Value classes follow CanonicalForest, which compares Value::ToString
// text: Int(1) and Float(1.0) both print "1" and so are one class, and
// floats that print alike are one class. Non-float values map to classes
// through a hashed Value table; floats go through their text. (The joined
// strings of CanonicalForest could also collide when a string value
// contains its separators, such as ";" or "="; the key table compares
// structure and does not reproduce such collisions.)

#ifndef DYNAMITE_SYNTH_CHECK_H_
#define DYNAMITE_SYNTH_CHECK_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "instance/record_forest.h"
#include "schema/schema.h"
#include "util/result.h"
#include "value/database.h"
#include "value/relation.h"

namespace dynamite {

class CandidateCheck {
 public:
  /// Resolves the tree of top-level record `top` in `target`, and the roots
  /// of type `top` in `expected` (roots of other types are ignored).
  static Result<CandidateCheck> Make(const Schema& target, const std::string& top,
                                     const RecordForest& expected);

  /// The IDB signature of each relation of the tree (FactSignature), as
  /// DatalogEngine::Eval takes them.
  const std::map<std::string, std::vector<std::string>>& signatures() const { return sigs_; }

  /// FlattenForestView of the expected roots.
  const Relation& expected_view() const { return expected_view_; }

  /// True iff `idb` holds the expected instance: the decision
  /// CanonicalForest(BuildForest(idb)) == CanonicalForest(expected roots)
  /// for an `idb` whose only target relations are the tree's. Fails like
  /// BuildForest when the top relation's arity is not the schema's.
  Result<bool> Matches(const FactDatabase& idb) const;

  /// FlattenForestView(BuildForest(idb), top): the same attributes and the
  /// same rows, in the same order.
  Result<Relation> View(const FactDatabase& idb) const;

 private:
  /// One record type of the tree, resolved to relation columns.
  struct TreeType {
    std::string name;
    size_t arity = 0;                  ///< FactSignature size
    std::vector<std::string> prims;    ///< primitive attributes, schema order
    std::vector<size_t> prim_cols;     ///< their fact columns
    std::vector<size_t> record_cols;   ///< fact columns of nested collections
    std::vector<size_t> child_types;   ///< their types (index into types_)
    size_t view_width = 0;             ///< PrimAttrbsOfTree(name).size()
  };

  struct KeyHash {
    size_t operator()(const std::vector<int>& key) const;
  };

  class Candidate;

  CandidateCheck() = default;

  /// Adds `name` and its nested types (pre-order); returns its index.
  size_t AddType(const Schema& target, const std::string& name);

  /// The class of an expected value, interned on first sight.
  int InternClass(const Value& v);
  /// The class of a candidate value; -1 when no expected value has it.
  int ClassOf(const Value& v) const;

  /// The node id of an expected record of type `t`; -1 when no candidate
  /// record can equal it (it does not have the schema's shape).
  int InternExpected(const RecordNode& node, size_t t);
  /// The node id of candidate row `row` of type `t`; -1 when it equals no
  /// expected record.
  int CandidateId(const Candidate& cand, size_t t, size_t row) const;

  /// BuildForest's error when the top relation (null when absent) does
  /// not have the schema's arity.
  Status CheckTopArity(const Relation* top) const;

  void FlattenRow(const Candidate& cand, size_t t, size_t row, std::vector<Value>* prefix,
                  std::vector<std::vector<Value>>* out) const;

  std::vector<TreeType> types_;  ///< types_[0] is the top record
  std::map<std::string, std::vector<std::string>> sigs_;
  Relation expected_view_;

  std::unordered_map<Value, int> value_class_;        ///< non-float values
  std::unordered_map<std::string, int> text_class_;   ///< ToString text
  std::unordered_map<std::vector<int>, int, KeyHash> node_ids_;
  std::vector<int> expected_roots_;  ///< sorted, unique
  bool expected_producible_ = true;  ///< every expected root has an id
};

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_CHECK_H_
