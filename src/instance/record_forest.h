// RecordForest: the common in-memory form of a database instance.
//
// Relational, document, and graph instances all convert to/from a forest of
// typed records (each record has primitive attribute values and, for
// record-typed attributes, lists of child records). The instance-to-facts
// conversion (§3.3) and its inverse BuildRecord operate on this form, so
// each concrete instance kind only needs a RecordForest adapter.
//
// A record's type and its attribute names are Names (value/name.h): 8-byte
// handles to strings interned once for the life of the process, so a record
// is 56 bytes and a primitive cell 24, not 80 and 48 with std::string
// names. Name equality is identity (one pointer compare), which is how
// Prim, Children and the RecordTypeTable below match names. The name table
// is separate from Value's StringPool: names take no Value string id.

#ifndef DYNAMITE_INSTANCE_RECORD_FOREST_H_
#define DYNAMITE_INSTANCE_RECORD_FOREST_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "schema/schema.h"
#include "util/result.h"
#include "value/name.h"
#include "value/value.h"

namespace dynamite {

/// One record instance: primitive attribute values plus child records per
/// record-typed attribute.
struct RecordNode {
  Name type;  ///< record type name in the schema
  std::vector<std::pair<Name, Value>> prims;  ///< attr -> value
  std::vector<std::pair<Name, std::vector<RecordNode>>> children;

  /// Value of primitive attribute `attr`; Null if absent.
  const Value& Prim(Name attr) const;

  /// Children under record-typed attribute `attr` (empty list if absent).
  const std::vector<RecordNode>& Children(Name attr) const;
};

/// A forest of top-level records, possibly of several record types.
struct RecordForest {
  std::vector<RecordNode> roots;

  /// Roots of the given record type.
  std::vector<const RecordNode*> RootsOfType(Name type) const;

  /// Total number of records (including nested ones).
  size_t TotalRecords() const;
};

/// A schema's record types resolved once for per-record work, so validation,
/// fact emission, forest rebuild and the instance adapters make no by-name
/// schema lookup per cell and intern no name per record: each type and
/// attribute name is held as a Name, compared and copied as a pointer.
class RecordTypeTable {
 public:
  /// One record type, resolved.
  struct Type {
    size_t index = 0;                      ///< RecordNames() position
    Name name;                             ///< the schema's name
    std::vector<Name> attrs;               ///< Schema::AttrsOf, in order
    std::vector<bool> is_prim;             ///< parallel to attrs
    std::vector<PrimitiveType> prim_type;  ///< set where is_prim
    std::vector<size_t> record_attrs;      ///< indices of record attrs
    std::vector<size_t> record_types;      ///< their types' indexes
    bool nested = false;                   ///< nested in another record

    /// This type's Name for attribute `attr`, found among `attrs` without
    /// interning; `attr` interned when the type has no such attribute.
    Name AttrName(std::string_view attr) const;
  };

  /// Reads a record's primitive values in its type's attribute order. Each
  /// attribute is tried at the next unread position of `prims` first, where
  /// instances built from the schema keep it, and found by name otherwise.
  /// Each value read is the one RecordNode::Prim returns: every entry before
  /// that position was read for an earlier attribute, and a record's
  /// attribute names are distinct (Schema::Validate), so none of them can
  /// carry this attribute's name.
  class PrimReader {
   public:
    explicit PrimReader(const RecordNode& node) : node_(node) {}

    /// The value of `attr`, the type's next primitive attribute.
    const Value& Next(Name attr) {
      if (next_ < node_.prims.size() && node_.prims[next_].first == attr) {
        return node_.prims[next_++].second;
      }
      return node_.Prim(attr);
    }

   private:
    const RecordNode& node_;
    size_t next_ = 0;  ///< prims[0, next_) were read at their positions
  };

  explicit RecordTypeTable(const Schema& schema);

  /// Types in schema RecordNames() order; Type::index is the position.
  const std::vector<Type>& types() const { return types_; }

  /// The record type named `name`; nullptr when `name` is not a record type.
  /// A scan of types() by Name handle: a schema has a few record types.
  const Type* Find(Name name) const;

  /// The structure-only half of ValidateRoot: checks one top-level
  /// record's type, that the type is not nested, and under each child list
  /// the list's attribute and every child's type, and adds one per record
  /// to its type's entry of `records_by_type` (sized types().size()).
  /// Returns the root's type, or nullptr when ValidateRoot would fail on a
  /// check made here. Primitive cells are left to the caller for every
  /// record reached through Type::record_attrs (the first child list under
  /// each); the records under any other child list are validated in full.
  const Type* CountRoot(const RecordNode& root, std::vector<size_t>* records_by_type) const;

  /// Validates one top-level record and its subtree and returns its type;
  /// the error is the one ValidateForest reports when this root is the
  /// first bad one. With `records_by_type` (sized types().size()), adds one
  /// per validated record to its type's entry.
  Result<const Type*> ValidateRoot(const RecordNode& root,
                                   std::vector<size_t>* records_by_type = nullptr) const;

  /// ValidateForest against this table's schema.
  Status Validate(const RecordForest& forest) const;

 private:
  Status ValidateNode(const RecordNode& node, const Type& type,
                      std::vector<size_t>* records_by_type) const;
  bool CountNode(const RecordNode& node, const Type& type,
                 std::vector<size_t>* records_by_type) const;

  std::vector<Type> types_;
};

/// Validates that every record in the forest conforms to `schema`: known
/// record types, every primitive attribute present with a type-compatible
/// value, children only under record-typed attributes. Returns the first
/// error in root order (depth-first within a root).
Status ValidateForest(const RecordForest& forest, const Schema& schema);

}  // namespace dynamite

#endif  // DYNAMITE_INSTANCE_RECORD_FOREST_H_
