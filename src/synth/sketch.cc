#include "synth/sketch.h"


namespace dynamite {

std::string SketchSymbol::ToString() const {
  switch (kind) {
    case Kind::kHeadVar:
    case Kind::kBodyAttrVar:
    case Kind::kConnectorVar:
      return name;
    case Kind::kConstant:
      return constant.ToString();
  }
  return "?";
}

namespace {
std::string SymbolKey(const SketchSymbol& s) {
  std::string key = std::to_string(static_cast<int>(s.kind));
  key += '|';
  key += s.name;
  key += '|';
  key += s.constant.ToString();
  return key;
}
}  // namespace

int SymbolTable::Intern(SketchSymbol symbol) {
  std::string key = SymbolKey(symbol);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  int id = static_cast<int>(symbols_.size());
  symbols_.push_back(std::move(symbol));
  index_[key] = id;
  return id;
}

int SymbolTable::FindHeadVar(const std::string& attr) const {
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (symbols_[i].kind == SketchSymbol::Kind::kHeadVar && symbols_[i].attr == attr) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double RuleSketch::SearchSpaceSize() const {
  double size = 1;
  for (const SketchHole& h : holes) size *= static_cast<double>(h.domain.size());
  for (const SketchConnector& c : connectors) {
    size *= static_cast<double>(c.domain.size());
  }
  for (const SketchHeadBinding& b : head_bindings) {
    size *= static_cast<double>(b.domain.size());
  }
  return size;
}

std::string RuleSketch::ToString() const {
  std::string out;
  for (size_t i = 0; i < heads.size(); ++i) {
    if (i > 0) out += ", ";
    out += heads[i].ToString();
  }
  out += " :- ";
  int hole_counter = 0;
  (void)hole_counter;
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += body[i].relation + "(";
    for (size_t j = 0; j < body[i].slots.size(); ++j) {
      if (j > 0) out += ", ";
      const BodySlot& s = body[i].slots[j];
      switch (s.kind) {
        case BodySlot::Kind::kVar:
          out += s.var;
          break;
        case BodySlot::Kind::kWildcard:
          out += "_";
          break;
        case BodySlot::Kind::kHole:
          out += "??" + std::to_string(s.hole);
          break;
      }
    }
    out += ")";
  }
  out += ".\n";
  for (size_t h = 0; h < holes.size(); ++h) {
    out += "  ??" + std::to_string(h) + " in {";
    for (size_t d = 0; d < holes[h].domain.size(); ++d) {
      if (d > 0) out += ", ";
      out += symbols.At(holes[h].domain[d]).ToString();
    }
    out += "}\n";
  }
  for (const SketchConnector& c : connectors) {
    out += "  " + c.head_var + " in {";
    for (size_t d = 0; d < c.domain.size(); ++d) {
      if (d > 0) out += ", ";
      out += symbols.At(c.domain[d]).ToString();
    }
    out += "}\n";
  }
  return out;
}

Result<Rule> Instantiate(const RuleSketch& sketch, const SketchModel& model) {
  if (model.hole_choice.size() != sketch.holes.size() ||
      model.connector_choice.size() != sketch.connectors.size() ||
      model.head_binding_choice.size() != sketch.head_bindings.size()) {
    return Status::InvalidArgument("model shape does not match sketch");
  }
  // Head connector variable -> chosen body variable name.
  std::map<std::string, std::string> connector_subst;
  for (size_t c = 0; c < sketch.connectors.size(); ++c) {
    const SketchSymbol& sym = sketch.symbols.At(model.connector_choice[c]);
    if (sym.kind == SketchSymbol::Kind::kConstant) {
      return Status::InvalidArgument("connector cannot be a constant");
    }
    connector_subst[sketch.connectors[c].head_var] = sym.name;
  }
  // Head attribute -> pinned constant (filtering extension).
  std::map<std::string, Value> head_consts;
  for (size_t b = 0; b < sketch.head_bindings.size(); ++b) {
    int choice = model.head_binding_choice[b];
    if (choice == sketch.head_bindings[b].head_var_symbol) continue;  // body-bound
    const SketchSymbol& sym = sketch.symbols.At(choice);
    if (sym.kind != SketchSymbol::Kind::kConstant) {
      return Status::InvalidArgument("head binding must be sentinel or constant");
    }
    head_consts[sketch.head_bindings[b].target_attr] = sym.constant;
  }

  Rule rule;
  for (const Atom& h : sketch.heads) {
    Atom out = h;
    for (Term& t : out.terms) {
      if (t.is_variable()) {
        auto cit = head_consts.find(t.var());
        if (cit != head_consts.end()) {
          t = Term::Const(cit->second);
          continue;
        }
        auto it = connector_subst.find(t.var());
        if (it != connector_subst.end()) t = Term::Var(it->second);
      }
    }
    rule.heads.push_back(std::move(out));
  }
  for (const SketchBodyAtom& b : sketch.body) {
    Atom atom;
    atom.relation = b.relation;
    for (const BodySlot& s : b.slots) {
      switch (s.kind) {
        case BodySlot::Kind::kVar:
          atom.terms.push_back(Term::Var(s.var));
          break;
        case BodySlot::Kind::kWildcard:
          atom.terms.push_back(Term::Wildcard());
          break;
        case BodySlot::Kind::kHole: {
          const SketchSymbol& sym = sketch.symbols.At(model.hole_choice[static_cast<size_t>(s.hole)]);
          if (sym.kind == SketchSymbol::Kind::kConstant) {
            atom.terms.push_back(Term::Const(sym.constant));
          } else {
            atom.terms.push_back(Term::Var(sym.name));
          }
          break;
        }
      }
    }
    rule.body.push_back(std::move(atom));
  }
  return rule;
}

}  // namespace dynamite
