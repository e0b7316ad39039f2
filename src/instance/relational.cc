#include "instance/relational.h"

namespace dynamite {

Status RelationalInstance::DeclareTable(const Schema& schema, const std::string& record) {
  if (!schema.IsRecord(record)) {
    return Status::InvalidArgument("not a record type: " + record);
  }
  for (const std::string& attr : schema.AttrsOf(record)) {
    if (!schema.IsPrimitive(attr)) {
      return Status::InvalidArgument("relational table " + record +
                                     " has non-primitive column " + attr);
    }
  }
  tables_.emplace(record, Relation(record, schema.AttrsOf(record)));
  return Status::OK();
}

Status RelationalInstance::Insert(const std::string& table, Tuple row) {
  return InsertRow(table, row.values());
}

Status RelationalInstance::InsertRow(const std::string& table,
                                     const std::vector<Value>& row) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table named " + table);
  if (row.size() != it->second.arity()) {
    return Status::InvalidArgument("arity mismatch inserting into " + table);
  }
  it->second.InsertRow(row.data(), row.size());
  return Status::OK();
}

Result<const Relation*> RelationalInstance::Table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return &it->second;
}

Result<RecordForest> RelationalInstance::ToForest(const Schema& schema) const {
  const RecordTypeTable types(schema);
  RecordForest forest;
  for (const auto& [name, rel] : tables_) {
    const RecordTypeTable::Type* type = types.Find(name);
    if (type == nullptr) {
      return Status::InvalidArgument("table " + name + " not in schema");
    }
    const std::vector<Name>& attrs = type->attrs;
    for (size_t r = 0; r < rel.size(); ++r) {
      RecordNode node;
      node.type = type->name;
      node.prims.reserve(attrs.size());
      for (size_t i = 0; i < attrs.size(); ++i) {
        node.prims.push_back({attrs[i], rel.cell(r, i)});
      }
      forest.roots.push_back(std::move(node));
    }
  }
  DYNAMITE_RETURN_NOT_OK(types.Validate(forest));
  return forest;
}

Result<RelationalInstance> RelationalInstance::FromForest(const RecordForest& forest,
                                                          const Schema& schema) {
  const RecordTypeTable types(schema);
  DYNAMITE_RETURN_NOT_OK(types.Validate(forest));
  RelationalInstance inst;
  for (const std::string& rec : schema.TopLevelRecords()) {
    DYNAMITE_RETURN_NOT_OK(inst.DeclareTable(schema, rec));
  }
  std::vector<Value> row;
  for (const RecordNode& root : forest.roots) {
    row.clear();
    for (Name attr : types.Find(root.type)->attrs) {
      row.push_back(root.Prim(attr));
    }
    DYNAMITE_RETURN_NOT_OK(inst.InsertRow(root.type, row));
  }
  return inst;
}

std::string RelationalInstance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : tables_) {
    out += rel.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace dynamite
