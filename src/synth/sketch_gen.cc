#include "synth/sketch_gen.h"

#include <algorithm>

namespace dynamite {

namespace {

/// Head connector variable for nested target record C.
std::string HeadConnectorVar(const std::string& record) { return "v_" + record; }

/// Builds the fixed head atoms for `target_record` and its nested records
/// (GenIntensionalPreds, Figure 5). Head variables are named after their
/// target attribute; nested records are linked by connector variables.
void GenIntensionalPreds(const Schema& target, const std::string& record,
                         std::vector<Atom>* heads) {
  Atom atom;
  atom.relation = record;
  if (target.IsNestedRecord(record)) {
    atom.terms.push_back(Term::Var(HeadConnectorVar(record)));
  }
  for (const std::string& attr : target.AttrsOf(record)) {
    if (target.IsPrimitive(attr)) {
      atom.terms.push_back(Term::Var(attr));
    } else {
      atom.terms.push_back(Term::Var(HeadConnectorVar(attr)));
    }
  }
  heads->push_back(std::move(atom));
  for (const std::string& attr : target.AttrsOf(record)) {
    if (target.IsRecord(attr)) GenIntensionalPreds(target, attr, heads);
  }
}

/// The source schema and Ψ resolved once per SketchGen call, so building a
/// sketch makes no by-name schema lookup per hole.
struct SourcePlan {
  /// One source record: its chain from the top-level ancestor, and per
  /// attribute the attribute's primitive index (-1 for record attributes).
  struct Record {
    std::vector<std::string> chain;
    bool nested = false;
    std::vector<int> attr_prim;
  };

  const AttributeMapping& psi;
  std::vector<std::string> prims;  ///< Schema::PrimAttrbs()
  std::vector<const std::string*> rec_of;  ///< RecName per primitive
  std::vector<PrimitiveType> type_of;      ///< PrimitiveOf per primitive
  std::map<std::string, Record> records;
  /// Source aliases per primitive (PrimAttrbs order, itself excluded);
  /// resolved on first use.
  std::vector<std::vector<int>> aliases;
  std::vector<bool> aliases_known;

  SourcePlan(const AttributeMapping& mapping, const Schema& source)
      : psi(mapping), prims(source.PrimAttrbs()) {
    std::map<std::string, int> prim_index;
    for (size_t i = 0; i < prims.size(); ++i) {
      prim_index.emplace(prims[i], static_cast<int>(i));
      rec_of.push_back(&source.RecName(prims[i]));
      type_of.push_back(source.PrimitiveOf(prims[i]));
    }
    for (const std::string& rec : source.RecordNames()) {
      Record& r = records[rec];
      r.chain = source.ChainToTopLevel(rec);
      r.nested = source.IsNestedRecord(rec);
      for (const std::string& attr : source.AttrsOf(rec)) {
        auto it = prim_index.find(attr);
        r.attr_prim.push_back(it == prim_index.end() ? -1 : it->second);
      }
    }
    aliases.resize(prims.size());
    aliases_known.resize(prims.size(), false);
  }

  /// True if y ∈ Ψ(x) or x ∈ Ψ(y).
  bool AliasOf(const std::string& x, const std::string& y) const {
    auto it = psi.find(x);
    if (it != psi.end() && it->second.count(y) > 0) return true;
    auto jt = psi.find(y);
    return jt != psi.end() && jt->second.count(x) > 0;
  }

  const std::vector<int>& AliasesOf(int a) {
    const size_t i = static_cast<size_t>(a);
    if (!aliases_known[i]) {
      for (size_t j = 0; j < prims.size(); ++j) {
        if (j != i && AliasOf(prims[i], prims[j])) aliases[i].push_back(static_cast<int>(j));
      }
      aliases_known[i] = true;
    }
    return aliases[i];
  }
};

/// State for building the body and domains of one rule sketch.
struct BodyBuilder {
  const Schema& source;
  const SourcePlan& plan;
  RuleSketch* sketch;
  // Copies per source relation (CopyNum).
  std::map<std::string, int> copy_count;
  std::vector<int> hole_prim;  // primitive index of each hole's attribute
  int fresh_connector = 0;

  /// Adds one copy of the extensional predicate chain for record `rec`
  /// (GenExtensionalPreds, Figure 6): predicates for every record from the
  /// top-level ancestor down to `rec`, linked by fresh connector variables.
  void AddChainCopy(const std::string& rec) {
    std::vector<int> chain_holes;
    const std::vector<std::string>& chain = plan.records.at(rec).chain;
    // Assign a copy index to each record on the chain.
    std::vector<int> copy_idx;
    for (const std::string& r : chain) copy_idx.push_back(++copy_count[r]);
    // Connector variable between consecutive chain links: link_var[i]
    // joins chain[i] to its parent chain[i - 1].
    std::vector<std::string> link_var(chain.size());
    for (size_t i = 1; i < chain.size(); ++i) {
      link_var[i] = "v" + std::to_string(++fresh_connector);
    }
    for (size_t i = 0; i < chain.size(); ++i) {
      const std::string& r = chain[i];
      const SourcePlan::Record& record = plan.records.at(r);
      SketchBodyAtom atom;
      atom.relation = r;
      if (record.nested) {
        BodySlot s;
        s.kind = BodySlot::Kind::kVar;
        s.var = link_var[i];
        atom.slots.push_back(std::move(s));
      }
      const std::string* next = (i + 1 < chain.size()) ? &chain[i + 1] : nullptr;
      const std::vector<std::string>& attrs = source.AttrsOf(r);
      for (size_t k = 0; k < attrs.size(); ++k) {
        BodySlot s;
        if (record.attr_prim[k] >= 0) {
          s.kind = BodySlot::Kind::kHole;
          s.hole = static_cast<int>(sketch->holes.size());
          chain_holes.push_back(s.hole);
          hole_prim.push_back(record.attr_prim[k]);
          SketchHole hole;
          hole.source_attr = attrs[k];
          hole.copy = copy_idx[i];
          sketch->holes.push_back(std::move(hole));
        } else if (next != nullptr && attrs[k] == *next) {
          s.kind = BodySlot::Kind::kVar;
          s.var = link_var[i + 1];
        } else {
          s.kind = BodySlot::Kind::kWildcard;
        }
        atom.slots.push_back(std::move(s));
      }
      sketch->body.push_back(std::move(atom));
    }
    sketch->chain_copies.push_back({rec, std::move(chain_holes)});
  }
};

Result<RuleSketch> GenRuleSketchWithPlan(
    SourcePlan* plan, const Schema& source, const Schema& target,
    const std::string& target_record,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options) {
  const AttributeMapping& psi = plan->psi;
  if (!target.IsRecord(target_record) || target.IsNestedRecord(target_record)) {
    return Status::InvalidArgument("not a top-level target record: " + target_record);
  }
  RuleSketch sketch;
  sketch.target_record = target_record;
  GenIntensionalPreds(target, target_record, &sketch.heads);

  // Target attributes this rule must produce.
  std::vector<std::string> tree_attrs = target.PrimAttrbsOfTree(target_record);
  std::set<std::string> tree_attr_set(tree_attrs.begin(), tree_attrs.end());

  // Body skeleton: one chain copy of RecName(a) per (a, alias-in-this-tree).
  BodyBuilder builder{source, *plan, &sketch, {}, {}, 0};
  for (const auto& [a, aliases] : psi) {
    size_t k = 0;
    for (const std::string& a2 : aliases) {
      if (tree_attr_set.count(a2) > 0) ++k;
    }
    for (size_t i = 0; i < k; ++i) builder.AddChainCopy(source.RecName(a));
  }
  if (sketch.body.empty()) {
    return Status::SynthesisFailure(
        "attribute mapping relates no source attribute to target record " + target_record);
  }

  // Intern head variable symbols.
  std::map<std::string, int> head_var;
  for (const std::string& attr : tree_attrs) {
    SketchSymbol sym;
    sym.kind = SketchSymbol::Kind::kHeadVar;
    sym.name = attr;
    sym.attr = attr;
    head_var.emplace(attr, sketch.symbols.Intern(std::move(sym)));
  }
  // Intern body attribute variable symbols v^i_a for every copy; ids are
  // remembered per (primitive, copy), so each is interned once.
  std::vector<std::vector<int>> body_symbols(plan->prims.size());
  auto body_attr_symbol = [&](int prim, int copy) {
    std::vector<int>& ids = body_symbols[static_cast<size_t>(prim)];
    if (ids.size() <= static_cast<size_t>(copy)) ids.resize(static_cast<size_t>(copy) + 1, -1);
    int& id = ids[static_cast<size_t>(copy)];
    if (id < 0) {
      const std::string& attr = plan->prims[static_cast<size_t>(prim)];
      SketchSymbol sym;
      sym.kind = SketchSymbol::Kind::kBodyAttrVar;
      sym.name = attr + std::to_string(copy);
      sym.attr = attr;
      id = sketch.symbols.Intern(std::move(sym));
    }
    return id;
  };

  // Domain generation (Algorithm 2, lines 13-18).
  for (size_t h = 0; h < sketch.holes.size(); ++h) {
    SketchHole& hole = sketch.holes[h];
    const std::string& a = hole.source_attr;
    const int prim = builder.hole_prim[h];
    // Head variables for target aliases of a.
    auto it = psi.find(a);
    if (it != psi.end()) {
      for (const std::string& a2 : it->second) {
        if (tree_attr_set.count(a2) > 0) hole.domain.push_back(head_var.at(a2));
      }
    }
    // Body attribute variables of a and of every source alias of a.
    hole.own_symbol = body_attr_symbol(prim, hole.copy);
    auto add_copies = [&](int a2) {
      auto cit = builder.copy_count.find(*plan->rec_of[static_cast<size_t>(a2)]);
      if (cit == builder.copy_count.end()) return;
      for (int copy = 1; copy <= cit->second; ++copy) {
        hole.domain.push_back(body_attr_symbol(a2, copy));
      }
    };
    add_copies(prim);
    for (int a2 : plan->AliasesOf(prim)) add_copies(a2);
    // Filtering extension: constants from the output example whose type
    // matches the hole's attribute.
    if (options.enable_filtering) {
      size_t added = 0;
      PrimitiveType want = plan->type_of[static_cast<size_t>(prim)];
      for (const auto& [tattr, values] : output_value_sets) {
        if (!target.IsPrimitive(tattr) || target.PrimitiveOf(tattr) != want) continue;
        if (tree_attr_set.count(tattr) == 0) continue;
        for (const Value& v : values) {
          if (added >= options.max_constants_per_hole) break;
          SketchSymbol sym;
          sym.kind = SketchSymbol::Kind::kConstant;
          sym.constant = v;
          hole.domain.push_back(sketch.symbols.Intern(std::move(sym)));
          ++added;
        }
      }
    }
    std::sort(hole.domain.begin(), hole.domain.end());
    hole.domain.erase(std::unique(hole.domain.begin(), hole.domain.end()),
                      hole.domain.end());
    if (hole.domain.empty()) {
      // A hole with an empty domain can never be filled; give it a private
      // fresh variable (equivalent to a wildcard position).
      SketchSymbol sym;
      sym.kind = SketchSymbol::Kind::kBodyAttrVar;
      sym.name = a + "_free" + std::to_string(h);
      sym.attr = a;
      hole.domain.push_back(sketch.symbols.Intern(std::move(sym)));
    }
  }

  // Connector unknowns for nested target records: the head connector
  // variable unifies with some body variable — a source connector variable
  // or any body attribute variable (grouping by attribute value).
  std::vector<int> connector_domain_base;
  {
    // Source connector variables present in the body.
    for (const SketchBodyAtom& atom : sketch.body) {
      for (const BodySlot& s : atom.slots) {
        if (s.kind == BodySlot::Kind::kVar) {
          SketchSymbol sym;
          sym.kind = SketchSymbol::Kind::kConnectorVar;
          sym.name = s.var;
          connector_domain_base.push_back(sketch.symbols.Intern(std::move(sym)));
        }
      }
    }
    // Body attribute variables (all copies of all attributes with holes):
    // each hole's own variable, interned above.
    for (const SketchHole& hole : sketch.holes) connector_domain_base.push_back(hole.own_symbol);
    std::sort(connector_domain_base.begin(), connector_domain_base.end());
    connector_domain_base.erase(
        std::unique(connector_domain_base.begin(), connector_domain_base.end()),
        connector_domain_base.end());
  }
  for (const std::string& nested : target.NestedRecordsOf(target_record)) {
    SketchConnector conn;
    conn.target_record = nested;
    conn.head_var = HeadConnectorVar(nested);
    conn.domain = connector_domain_base;
    if (conn.domain.empty()) {
      return Status::SynthesisFailure("no candidate grouping variable for nested record " +
                                      nested);
    }
    sketch.connectors.push_back(std::move(conn));
  }

  // Filtering extension, head side: a target attribute whose example output
  // column holds a single value may be pinned to that constant instead of
  // being produced by the body (the head form of an equality filter).
  if (options.enable_filtering) {
    for (const std::string& attr : tree_attrs) {
      auto vit = output_value_sets.find(attr);
      if (vit == output_value_sets.end() || vit->second.size() != 1) continue;
      SketchHeadBinding binding;
      binding.target_attr = attr;
      binding.head_var_symbol = head_var.at(attr);
      binding.domain.push_back(binding.head_var_symbol);
      SketchSymbol sym;
      sym.kind = SketchSymbol::Kind::kConstant;
      sym.constant = *vit->second.begin();
      binding.domain.push_back(sketch.symbols.Intern(std::move(sym)));
      sketch.head_bindings.push_back(std::move(binding));
    }
  }

  return sketch;
}

}  // namespace

Result<RuleSketch> GenRuleSketch(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::string& target_record,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options) {
  SourcePlan plan(psi, source);
  return GenRuleSketchWithPlan(&plan, source, target, target_record, output_value_sets,
                               options);
}

Result<std::vector<RuleSketch>> SketchGen(
    const AttributeMapping& psi, const Schema& source, const Schema& target,
    const std::map<std::string, std::set<Value>>& output_value_sets,
    const SketchGenOptions& options) {
  SourcePlan plan(psi, source);
  std::vector<RuleSketch> sketches;
  for (const std::string& rec : target.TopLevelRecords()) {
    DYNAMITE_ASSIGN_OR_RETURN(
        RuleSketch sketch,
        GenRuleSketchWithPlan(&plan, source, target, rec, output_value_sets, options));
    sketches.push_back(std::move(sketch));
  }
  return sketches;
}

}  // namespace dynamite
