// Datalog program sketches (§4.2).
//
// A rule sketch has a fixed head (intensional predicates for one top-level
// target record and all its nested records) and a body of extensional
// predicates where attribute positions are holes. Each hole ranges over a
// finite domain of *symbols*: head variables (target attribute variables),
// body attribute variables v^i_a ("the a attribute of the i-th copy of its
// relation"), and — when the filtering extension is enabled — constants
// drawn from the output example.
//
// Beyond the paper's presentation, target-side nesting introduces connector
// choices: the head variable linking a nested target record to its parent
// must be unified with some body variable (a source connector or an
// attribute variable), which decides how target records group. Connector
// choices are encoded as additional finite-domain unknowns.

#ifndef DYNAMITE_SYNTH_SKETCH_H_
#define DYNAMITE_SYNTH_SKETCH_H_

#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "util/result.h"
#include "value/value.h"

namespace dynamite {

/// One element of a hole/connector domain.
struct SketchSymbol {
  enum class Kind : uint8_t {
    kHeadVar,       ///< target attribute variable (name == attribute)
    kBodyAttrVar,   ///< v^i_a, rendered "a<i>" (paper style: id1, id2, ...)
    kConnectorVar,  ///< body connector variable linking nested source records
    kConstant,      ///< filtering extension: literal from the output example
  };
  Kind kind = Kind::kHeadVar;
  std::string name;   ///< variable name (kHeadVar/kBodyAttrVar/kConnectorVar)
  std::string attr;   ///< associated attribute (for head/body attr vars)
  Value constant;     ///< for kConstant

  std::string ToString() const;
};

/// Symbol table: interns symbols and hands out dense integer ids (these ids
/// are the finite-domain values seen by the solver).
class SymbolTable {
 public:
  /// Interns a symbol; returns its id (existing id if already interned —
  /// identity is by kind+name+constant).
  int Intern(SketchSymbol symbol);

  const SketchSymbol& At(int id) const { return symbols_[static_cast<size_t>(id)]; }
  size_t size() const { return symbols_.size(); }

  /// Id of the head variable symbol for `attr`, or -1.
  int FindHeadVar(const std::string& attr) const;

 private:
  std::vector<SketchSymbol> symbols_;
  std::map<std::string, int> index_;
};

/// A position in a body atom: fixed variable, wildcard, or hole reference.
struct BodySlot {
  enum class Kind : uint8_t { kVar, kWildcard, kHole };
  Kind kind = Kind::kWildcard;
  std::string var;  ///< for kVar
  int hole = -1;    ///< for kHole
};

/// A body atom of the sketch.
struct SketchBodyAtom {
  std::string relation;
  std::vector<BodySlot> slots;
};

/// A hole with its domain.
struct SketchHole {
  std::string source_attr;   ///< attribute this hole's position belongs to
  int copy = 0;              ///< which copy of RecName(source_attr) it sits in
  int own_symbol = -1;       ///< symbol id of the hole's own variable v^copy_attr
  std::vector<int> domain;   ///< symbol ids
};

/// A connector unknown: which body variable the head connector variable of
/// a nested target record unifies with.
struct SketchConnector {
  std::string target_record;  ///< nested target record name
  std::string head_var;       ///< variable name used in the fixed head
  std::vector<int> domain;    ///< symbol ids (connector + body attr vars)
};

/// A head-binding unknown (filtering extension, §5): a target attribute is
/// either produced by the body (some hole carries its head variable) or
/// pinned to a constant from the output example — the Datalog form of an
/// equality filter whose constant also appears in the output.
struct SketchHeadBinding {
  std::string target_attr;
  int head_var_symbol = -1;  ///< sentinel meaning "bound in body"
  std::vector<int> domain;   ///< head_var_symbol + constant symbol ids
};

/// A complete rule sketch for one top-level target record.
struct RuleSketch {
  std::string target_record;
  std::vector<Atom> heads;  ///< fixed head atoms (variables only)
  std::vector<SketchBodyAtom> body;
  std::vector<SketchHole> holes;
  std::vector<SketchConnector> connectors;
  std::vector<SketchHeadBinding> head_bindings;  ///< filtering mode only
  /// Chain copies for symmetry breaking: copies of the same extensional
  /// chain are interchangeable (swapping their hole assignments reorders
  /// body atoms without changing semantics), so the encoder may restrict
  /// the search to lexicographically sorted copies. Key = chain identity
  /// (the record the chain was generated for); value = the chain's hole
  /// indices in a fixed order.
  std::vector<std::pair<std::string, std::vector<int>>> chain_copies;
  SymbolTable symbols;

  /// Number of possible completions: product of domain sizes.
  double SearchSpaceSize() const;

  /// Renders the sketch with `??k ∈ {...}` annotations for documentation.
  std::string ToString() const;
};

/// A model: chosen symbol id per hole, connector, and head binding.
struct SketchModel {
  std::vector<int> hole_choice;
  std::vector<int> connector_choice;
  std::vector<int> head_binding_choice;
};

/// Instantiates the sketch under a model, producing a concrete Datalog rule.
/// Fails only on a model that does not fit the sketch. The rule is not
/// range-checked here: the sketch encoding's head-coverage constraint makes
/// every model's rule well-formed, and DatalogEngine::Eval validates each
/// rule it runs (Rule::Validate), so a candidate is validated once, where
/// it is evaluated.
Result<Rule> Instantiate(const RuleSketch& sketch, const SketchModel& model);

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_SKETCH_H_
