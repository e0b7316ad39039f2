#include "baselines/mitra.h"

#include "datalog/engine.h"
#include "migrate/facts.h"
#include "synth/attr_map.h"
#include "synth/sketch.h"
#include "synth/sketch_gen.h"
#include "util/timer.h"

namespace dynamite {

MitraSynthesizer::MitraSynthesizer(Schema source, Schema target, MitraOptions options)
    : source_(std::move(source)), target_(std::move(target)), options_(options) {}

namespace {

/// Depth-first enumeration over all completions of a sketch, calling `test`
/// on each until it returns true. Returns false when exhausted or budget
/// exceeded. This is Mitra's table-formation search: no learning, each
/// failed candidate eliminates only itself.
bool EnumerateCompletions(const RuleSketch& sketch, size_t max_candidates,
                          const Timer& timer, double timeout_seconds,
                          size_t* candidates,
                          const std::function<bool(const SketchModel&)>& test) {
  SketchModel model;
  model.hole_choice.assign(sketch.holes.size(), 0);
  model.connector_choice.assign(sketch.connectors.size(), 0);

  // Odometer over hole domains then connector domains.
  size_t total_positions = sketch.holes.size() + sketch.connectors.size();
  std::vector<size_t> counter(total_positions, 0);
  auto domain_size = [&](size_t pos) {
    return pos < sketch.holes.size()
               ? sketch.holes[pos].domain.size()
               : sketch.connectors[pos - sketch.holes.size()].domain.size();
  };
  for (;;) {
    for (size_t p = 0; p < total_positions; ++p) {
      if (p < sketch.holes.size()) {
        model.hole_choice[p] = sketch.holes[p].domain[counter[p]];
      } else {
        model.connector_choice[p - sketch.holes.size()] =
            sketch.connectors[p - sketch.holes.size()].domain[counter[p]];
      }
    }
    ++*candidates;
    if (test(model)) return true;
    if (*candidates >= max_candidates) return false;
    if ((*candidates & 0xff) == 0 && timer.ElapsedSeconds() > timeout_seconds) return false;
    // Advance odometer.
    size_t p = 0;
    while (p < total_positions) {
      if (++counter[p] < domain_size(p)) break;
      counter[p] = 0;
      ++p;
    }
    if (p == total_positions) return false;  // exhausted
  }
}

}  // namespace

Result<MitraResult> MitraSynthesizer::Synthesize(const Example& example) const {
  Timer timer;
  MitraResult out;

  // Phase 1: per-column path extraction — shared with our attribute-mapping
  // machinery (value-containment between document paths and table columns).
  DYNAMITE_ASSIGN_OR_RETURN(AttributeMapping psi,
                            InferAttrMapping(source_, target_, example));
  DYNAMITE_ASSIGN_OR_RETURN(
      std::vector<RuleSketch> sketches,
      SketchGen(psi, source_, target_, AttributeValueSets(example.output, target_), {}));

  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, ToFacts(example.input, source_, &next_id));
  DatalogEngine::Options eval_opts;
  eval_opts.timeout_seconds = 2.0;
  eval_opts.max_derived_tuples = 200'000;
  DatalogEngine engine(eval_opts);

  // Phase 2: table formation by exhaustive enumeration, one target table at
  // a time.
  for (const RuleSketch& sketch : sketches) {
    RecordForest expected;
    for (const RecordNode& root : example.output.roots) {
      if (root.type == sketch.target_record) expected.roots.push_back(root);
    }
    std::vector<std::string> expected_canon = CanonicalForest(expected);
    std::map<std::string, std::vector<std::string>> idb_sigs;
    idb_sigs[sketch.target_record] = FactSignature(target_, sketch.target_record);
    for (const std::string& nested : target_.NestedRecordsOf(sketch.target_record)) {
      idb_sigs[nested] = FactSignature(target_, nested);
    }

    bool found = false;
    Rule found_rule;
    EnumerateCompletions(
        sketch, options_.max_candidates, timer, options_.timeout_seconds,
        &out.candidates_tried, [&](const SketchModel& model) {
          auto rule = Instantiate(sketch, model);
          if (!rule.ok()) return false;  // model does not fit the sketch
          // An ill-formed rule (head var missing) fails Eval's validation.
          Program candidate;
          candidate.rules.push_back(*rule);
          auto eval = engine.Eval(candidate, edb, idb_sigs);
          if (!eval.ok()) return false;
          auto actual = BuildForest(*eval, target_);
          if (!actual.ok()) return false;
          if (CanonicalForest(*actual) != expected_canon) return false;
          found = true;
          found_rule = *rule;
          return true;
        });
    if (!found) {
      if (timer.ElapsedSeconds() > options_.timeout_seconds) {
        return Status::Timeout("Mitra timeout");
      }
      return Status::SynthesisFailure("Mitra: no consistent table program for " +
                                      sketch.target_record);
    }
    out.program.rules.push_back(std::move(found_rule));
  }
  out.javascript = ProgramToJavaScript(out.program, source_, target_);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

std::string ProgramToJavaScript(const Program& program, const Schema& source,
                                const Schema& target) {
  (void)target;
  std::string js;
  js += "// Auto-generated migration program (Mitra-style traversal).\n";
  js += "function migrate(db) {\n";
  js += "  const out = {};\n";
  for (const Rule& rule : program.rules) {
    for (const Atom& head : rule.heads) {
      js += "  out." + head.relation + " = [];\n";
    }
    // Nested loops over body atoms.
    std::string indent = "  ";
    std::map<std::string, int> copy;
    std::vector<std::string> loop_vars;
    for (const Atom& atom : rule.body) {
      int c = copy[atom.relation]++;
      std::string var = atom.relation + std::to_string(c);
      loop_vars.push_back(var);
      bool nested = source.IsDefined(atom.relation) && source.IsNestedRecord(atom.relation);
      if (nested) {
        js += indent + "for (const " + var + " of " + loop_vars.front() + "." +
              atom.relation + " ?? []) {\n";
      } else {
        js += indent + "for (const " + var + " of db." + atom.relation + ") {\n";
      }
      indent += "  ";
      // Emit equality filters for repeated variables / constants.
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const Term& t = atom.terms[i];
        if (t.is_constant()) {
          js += indent + "if (" + var + "[" + std::to_string(i) +
                "] !== " + t.constant().ToString() + ") continue;\n";
        }
      }
    }
    for (const Atom& head : rule.heads) {
      js += indent + "out." + head.relation + ".push([";
      for (size_t i = 0; i < head.terms.size(); ++i) {
        if (i > 0) js += ", ";
        js += "/*" + head.terms[i].ToString() + "*/ null";
      }
      js += "]);\n";
    }
    for (size_t i = 0; i < rule.body.size(); ++i) {
      indent.resize(indent.size() - 2);
      js += indent + "}\n";
    }
  }
  js += "  return out;\n";
  js += "}\n";
  return js;
}

}  // namespace dynamite
