#include "instance/graph.h"

#include "schema/schema_builder.h"

namespace dynamite {

Result<RecordForest> GraphInstance::ToForest(const Schema& schema) const {
  const RecordTypeTable types(schema);
  RecordForest forest;
  for (const GraphNode& n : nodes_) {
    const RecordTypeTable::Type* type = types.Find(n.label);
    if (type == nullptr) {
      return Status::InvalidArgument("node label " + n.label + " not in schema");
    }
    RecordNode rec;
    rec.type = type->name;
    rec.prims.reserve(n.properties.size());
    for (const auto& [attr, value] : n.properties) {
      rec.prims.push_back({type->AttrName(attr), value});
    }
    forest.roots.push_back(std::move(rec));
  }
  for (const GraphEdge& e : edges_) {
    const RecordTypeTable::Type* type = types.Find(e.label);
    if (type == nullptr) {
      return Status::InvalidArgument("edge label " + e.label + " not in schema");
    }
    RecordNode rec;
    rec.type = type->name;
    // The schema's first two attributes of an edge record are, by
    // construction in GraphSchemaBuilder, the source and target attributes.
    const std::vector<Name>& attrs = type->attrs;
    if (attrs.size() < 2) {
      return Status::InvalidArgument("edge record " + e.label + " lacks source/target");
    }
    rec.prims.reserve(2 + e.properties.size());
    rec.prims.push_back({attrs[0], Value::Int(e.source)});
    rec.prims.push_back({attrs[1], Value::Int(e.target)});
    for (const auto& [attr, value] : e.properties) {
      rec.prims.push_back({type->AttrName(attr), value});
    }
    forest.roots.push_back(std::move(rec));
  }
  DYNAMITE_RETURN_NOT_OK(types.Validate(forest));
  return forest;
}

Result<GraphInstance> GraphInstance::FromForest(
    const RecordForest& forest, const Schema& schema,
    const std::vector<std::pair<std::string, std::string>>& edge_prefixes) {
  DYNAMITE_RETURN_NOT_OK(ValidateForest(forest, schema));
  GraphInstance g;
  // Each edge record type with its source and target attributes, resolved
  // once for the whole forest.
  struct EdgeNames {
    Name type, source, target;
  };
  std::vector<EdgeNames> edge_names;
  edge_names.reserve(edge_prefixes.size());
  for (const auto& [rec, prefix] : edge_prefixes) {
    edge_names.push_back({rec, GraphSchemaBuilder::SourceAttr(prefix),
                          GraphSchemaBuilder::TargetAttr(prefix)});
  }
  auto find_edge = [&](Name type) -> const EdgeNames* {
    for (const EdgeNames& edge : edge_names) {
      if (edge.type == type) return &edge;
    }
    return nullptr;
  };
  for (const RecordNode& rec : forest.roots) {
    if (const EdgeNames* edge = find_edge(rec.type); edge != nullptr) {
      GraphEdge e;
      e.label = rec.type;
      const Value& src = rec.Prim(edge->source);
      const Value& tgt = rec.Prim(edge->target);
      if (!src.is_int() || !tgt.is_int()) {
        return Status::TypeError("edge record " + rec.type.str() +
                                 " has non-integer source/target");
      }
      e.source = src.AsInt();
      e.target = tgt.AsInt();
      for (const auto& [attr, value] : rec.prims) {
        if (attr != edge->source && attr != edge->target) e.properties.push_back({attr, value});
      }
      g.AddEdge(std::move(e));
    } else {
      GraphNode n;
      n.label = rec.type;
      n.properties.assign(rec.prims.begin(), rec.prims.end());
      g.AddNode(std::move(n));
    }
  }
  return g;
}

std::string GraphInstance::ToString() const {
  std::string out;
  for (const GraphNode& n : nodes_) {
    out += "node " + n.label + " {";
    for (size_t i = 0; i < n.properties.size(); ++i) {
      if (i > 0) out += ", ";
      out += n.properties[i].first + ": " + n.properties[i].second.ToString();
    }
    out += "}\n";
  }
  for (const GraphEdge& e : edges_) {
    out += "edge " + e.label + " " + std::to_string(e.source) + " -> " +
           std::to_string(e.target) + " {";
    for (size_t i = 0; i < e.properties.size(); ++i) {
      if (i > 0) out += ", ";
      out += e.properties[i].first + ": " + e.properties[i].second.ToString();
    }
    out += "}\n";
  }
  return out;
}

}  // namespace dynamite
