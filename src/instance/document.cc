#include "instance/document.h"

namespace dynamite {

void DocumentInstance::Add(const std::string& collection, Json document) {
  collections_[collection].push_back(std::move(document));
}

Result<DocumentInstance> DocumentInstance::FromJson(const Json& root) {
  if (!root.is_object()) {
    return Status::ParseError("document instance root must be a JSON object");
  }
  DocumentInstance inst;
  for (const auto& [name, value] : root.AsObject()) {
    if (!value.is_array()) {
      return Status::ParseError("collection " + name + " must be a JSON array");
    }
    for (const Json& doc : value.AsArray()) {
      if (!doc.is_object()) {
        return Status::ParseError("collection " + name + " contains a non-object element");
      }
      inst.Add(name, doc);
    }
  }
  return inst;
}

Result<DocumentInstance> DocumentInstance::FromJsonText(std::string_view text) {
  DYNAMITE_ASSIGN_OR_RETURN(Json root, Json::Parse(text));
  return FromJson(root);
}

Json DocumentInstance::ToJson() const {
  Json root = Json::MakeObject();
  for (const auto& [name, docs] : collections_) {
    Json arr = Json::MakeArray();
    for (const Json& d : docs) arr.Append(d);
    root.Set(name, std::move(arr));
  }
  return root;
}

namespace {

Result<Value> JsonToValue(const Json& j, PrimitiveType type, const std::string& attr) {
  switch (type) {
    case PrimitiveType::kInt:
      if (j.is_int()) return Value::Int(j.AsInt());
      break;
    case PrimitiveType::kFloat:
      if (j.is_number()) return Value::Float(j.AsDouble());
      break;
    case PrimitiveType::kBool:
      if (j.is_bool()) return Value::Bool(j.AsBool());
      break;
    case PrimitiveType::kString:
      // TryString: documents are external input; pool overflow must come
      // back as a typed error, not abort the process.
      if (j.is_string()) return Value::TryString(j.AsString());
      break;
  }
  return Status::TypeError("field " + attr + " has JSON value " + j.Dump() +
                           " incompatible with " + PrimitiveTypeToString(type));
}

Json ValueToJson(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kInt:
      return Json::Int(v.AsInt());
    case ValueKind::kFloat:
      return Json::Double(v.AsFloat());
    case ValueKind::kBool:
      return Json::Bool(v.AsBool());
    case ValueKind::kString:
      return Json::String(v.AsString());
    case ValueKind::kId:
      return Json::Int(static_cast<int64_t>(v.AsId()));
    case ValueKind::kNull:
      return Json::Null();
  }
  return Json::Null();
}

Result<RecordNode> DocToNode(const Json& doc, const RecordTypeTable::Type& type,
                             const RecordTypeTable& types) {
  RecordNode node;
  node.type = type.name;
  node.prims.reserve(type.attrs.size() - type.record_attrs.size());
  node.children.reserve(type.record_attrs.size());
  size_t next_record = 0;  // position in type.record_attrs
  for (size_t i = 0; i < type.attrs.size(); ++i) {
    const Name attr = type.attrs[i];
    const Json* field = doc.Find(attr.str());
    if (type.is_prim[i]) {
      if (field == nullptr) {
        return Status::InvalidArgument("document of type " + type.name.str() + " missing field " +
                                       attr.str());
      }
      DYNAMITE_ASSIGN_OR_RETURN(Value v, JsonToValue(*field, type.prim_type[i], attr));
      node.prims.push_back({attr, std::move(v)});
    } else {
      // Null only in a schema that never passed Schema::Validate.
      const RecordTypeTable::Type* kid_type = nullptr;
      if (next_record < type.record_attrs.size() && type.record_attrs[next_record] == i) {
        kid_type = &types.types()[type.record_types[next_record++]];
      }
      std::vector<RecordNode> kids;
      if (field != nullptr) {
        if (!field->is_array()) {
          return Status::InvalidArgument("nested field " + attr.str() + " must be an array");
        }
        for (const Json& sub : field->AsArray()) {
          if (!sub.is_object()) {
            return Status::InvalidArgument("nested field " + attr.str() +
                                           " contains a non-object");
          }
          if (kid_type == nullptr) {
            return Status::InvalidArgument("record " + type.name.str() + " has children under " +
                                           attr.str() + " which is not a record type");
          }
          DYNAMITE_ASSIGN_OR_RETURN(RecordNode kid, DocToNode(sub, *kid_type, types));
          kids.push_back(std::move(kid));
        }
      }
      node.children.push_back({attr, std::move(kids)});
    }
  }
  return node;
}

Json NodeToDoc(const RecordNode& node, const RecordTypeTable& types) {
  const RecordTypeTable::Type& type = *types.Find(node.type);
  Json doc = Json::MakeObject();
  for (size_t i = 0; i < type.attrs.size(); ++i) {
    const Name attr = type.attrs[i];
    if (type.is_prim[i]) {
      doc.Set(attr, ValueToJson(node.Prim(attr)));
    } else {
      Json arr = Json::MakeArray();
      for (const RecordNode& kid : node.Children(attr)) {
        arr.Append(NodeToDoc(kid, types));
      }
      doc.Set(attr, std::move(arr));
    }
  }
  return doc;
}

}  // namespace

Result<RecordForest> DocumentInstance::ToForest(const Schema& schema) const {
  const RecordTypeTable types(schema);
  RecordForest forest;
  for (const auto& [name, docs] : collections_) {
    const RecordTypeTable::Type* type = types.Find(name);
    if (type == nullptr) {
      return Status::InvalidArgument("collection " + name + " not in schema");
    }
    for (const Json& doc : docs) {
      DYNAMITE_ASSIGN_OR_RETURN(RecordNode node, DocToNode(doc, *type, types));
      forest.roots.push_back(std::move(node));
    }
  }
  DYNAMITE_RETURN_NOT_OK(types.Validate(forest));
  return forest;
}

Result<DocumentInstance> DocumentInstance::FromForest(const RecordForest& forest,
                                                      const Schema& schema) {
  const RecordTypeTable types(schema);
  DYNAMITE_RETURN_NOT_OK(types.Validate(forest));
  DocumentInstance inst;
  for (const RecordNode& root : forest.roots) {
    inst.Add(root.type, NodeToDoc(root, types));
  }
  return inst;
}

}  // namespace dynamite
