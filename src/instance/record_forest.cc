#include "instance/record_forest.h"

#include "util/trace.h"

namespace dynamite {

const Value& RecordNode::Prim(Name attr) const {
  static const Value kNull;
  for (const auto& [name, value] : prims) {
    if (name == attr) return value;
  }
  return kNull;
}

const std::vector<RecordNode>& RecordNode::Children(Name attr) const {
  static const std::vector<RecordNode> kEmpty;
  for (const auto& [name, kids] : children) {
    if (name == attr) return kids;
  }
  return kEmpty;
}

std::vector<const RecordNode*> RecordForest::RootsOfType(Name type) const {
  std::vector<const RecordNode*> out;
  for (const RecordNode& r : roots) {
    if (r.type == type) out.push_back(&r);
  }
  return out;
}

namespace {
size_t CountRecords(const RecordNode& node) {
  size_t n = 1;
  for (const auto& [attr, kids] : node.children) {
    for (const RecordNode& k : kids) n += CountRecords(k);
  }
  return n;
}
}  // namespace

size_t RecordForest::TotalRecords() const {
  size_t n = 0;
  for (const RecordNode& r : roots) n += CountRecords(r);
  return n;
}

RecordTypeTable::RecordTypeTable(const Schema& schema) {
  const std::vector<std::string>& names = schema.RecordNames();
  types_.resize(names.size());
  for (size_t t = 0; t < names.size(); ++t) {
    types_[t].index = t;
    types_[t].name = names[t];
  }
  for (size_t t = 0; t < names.size(); ++t) {
    Type& type = types_[t];
    const std::vector<std::string>& attrs = schema.AttrsOf(names[t]);
    type.attrs.assign(attrs.begin(), attrs.end());
    type.nested = schema.IsNestedRecord(names[t]);
    type.is_prim.resize(attrs.size());
    type.prim_type.resize(attrs.size(), PrimitiveType::kInt);
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (schema.IsPrimitive(attrs[i])) {
        type.is_prim[i] = true;
        type.prim_type[i] = schema.PrimitiveOf(attrs[i]);
      } else if (const Type* child = Find(type.attrs[i]); child != nullptr) {
        type.record_attrs.push_back(i);
        type.record_types.push_back(child->index);
      }
    }
  }
}

Name RecordTypeTable::Type::AttrName(std::string_view attr) const {
  for (Name name : attrs) {
    if (name == attr) return name;
  }
  return Name(attr);
}

const RecordTypeTable::Type* RecordTypeTable::Find(Name name) const {
  for (const Type& type : types_) {
    if (type.name == name) return &type;
  }
  return nullptr;
}

const RecordTypeTable::Type* RecordTypeTable::CountRoot(
    const RecordNode& root, std::vector<size_t>* records_by_type) const {
  const Type* type = Find(root.type);
  if (type == nullptr || type->nested) return nullptr;
  return CountNode(root, *type, records_by_type) ? type : nullptr;
}

bool RecordTypeTable::CountNode(const RecordNode& node, const Type& type,
                                std::vector<size_t>* records_by_type) const {
  ++(*records_by_type)[type.index];
  for (const auto& [attr, kids] : node.children) {
    size_t k = 0;
    while (k < type.record_attrs.size() && type.attrs[type.record_attrs[k]] != attr) ++k;
    if (k == type.record_attrs.size() || &node.Children(attr) != &kids) {
      // A walk over the type's record attributes never reaches this list,
      // so its records are validated in full here.
      const Type* kid_type = Find(attr);
      if (kid_type == nullptr) return false;
      for (const RecordNode& kid : kids) {
        if (kid.type != attr || !ValidateNode(kid, *kid_type, records_by_type).ok()) {
          return false;
        }
      }
      continue;
    }
    const Type& kid_type = types_[type.record_types[k]];
    for (const RecordNode& kid : kids) {
      if (kid.type != attr || !CountNode(kid, kid_type, records_by_type)) return false;
    }
  }
  return true;
}

Result<const RecordTypeTable::Type*> RecordTypeTable::ValidateRoot(
    const RecordNode& root, std::vector<size_t>* records_by_type) const {
  const Type* type = Find(root.type);
  if (type == nullptr) {
    return Status::InvalidArgument("unknown record type in instance: " + root.type.str());
  }
  if (type->nested) {
    return Status::InvalidArgument("nested record type " + root.type.str() +
                                   " cannot appear at the top level");
  }
  DYNAMITE_RETURN_NOT_OK(ValidateNode(root, *type, records_by_type));
  return type;
}

Status RecordTypeTable::ValidateNode(const RecordNode& node, const Type& type,
                                     std::vector<size_t>* records_by_type) const {
  if (records_by_type != nullptr) ++(*records_by_type)[type.index];
  const std::vector<Name>& attrs = type.attrs;
  PrimReader prims(node);
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (!type.is_prim[i]) continue;
    const Value& v = prims.Next(attrs[i]);
    if (v.is_null()) {
      return Status::InvalidArgument("record " + node.type.str() + " missing attribute " +
                                     attrs[i].str());
    }
    if (!ValueMatchesType(v, type.prim_type[i])) {
      return Status::TypeError("record " + node.type.str() + " attribute " + attrs[i].str() +
                               " has value " + v.ToString() + " incompatible with " +
                               PrimitiveTypeToString(type.prim_type[i]));
    }
  }
  for (const auto& [attr, kids] : node.children) {
    const Type* kid_type = Find(attr);
    if (kid_type == nullptr) {
      return Status::InvalidArgument("record " + node.type.str() + " has children under " +
                                     attr.str() + " which is not a record type");
    }
    for (const RecordNode& k : kids) {
      if (k.type != attr) {
        return Status::InvalidArgument("child of type " + k.type.str() +
                                       " stored under attribute " + attr.str());
      }
      DYNAMITE_RETURN_NOT_OK(ValidateNode(k, *kid_type, records_by_type));
    }
  }
  return Status::OK();
}

Status RecordTypeTable::Validate(const RecordForest& forest) const {
  DYNAMITE_TRACE_SPAN("instance.validate");
  for (const RecordNode& r : forest.roots) {
    DYNAMITE_RETURN_NOT_OK(ValidateRoot(r).status());
  }
  return Status::OK();
}

Status ValidateForest(const RecordForest& forest, const Schema& schema) {
  return RecordTypeTable(schema).Validate(forest);
}

}  // namespace dynamite
