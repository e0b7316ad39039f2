// Shared test helpers: schemas and instances of the paper's motivating
// example (§2) and small builder shorthands.

#ifndef DYNAMITE_TESTS_TESTING_H_
#define DYNAMITE_TESTS_TESTING_H_

#include <gtest/gtest.h>

#include "instance/document.h"
#include "schema/schema_builder.h"
#include "synth/example.h"
#include "synth/sketch.h"

namespace dynamite {
namespace testing {

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    auto _st = (expr);                                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    auto _st = (expr);                                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                     \
  auto DYNAMITE_CONCAT_(_r_, __LINE__) = (expr);            \
  ASSERT_TRUE(DYNAMITE_CONCAT_(_r_, __LINE__).ok())         \
      << DYNAMITE_CONCAT_(_r_, __LINE__).status().ToString(); \
  lhs = std::move(DYNAMITE_CONCAT_(_r_, __LINE__)).ValueOrDie()

/// Source schema of §2: Univ documents with nested Admit.
inline Schema UnivSchema() {
  DocumentSchemaBuilder b;
  b.AddCollection("Univ", {{"id", PrimitiveType::kInt}, {"name", PrimitiveType::kString}});
  b.AddCollection("Admit", {{"uid", PrimitiveType::kInt}, {"count", PrimitiveType::kInt}},
                  "Univ");
  return b.Build().ValueOrDie();
}

/// Target schema of §2: flat Admission documents.
inline Schema AdmissionSchema() {
  DocumentSchemaBuilder b;
  b.AddCollection("Admission", {{"grad", PrimitiveType::kString},
                                {"ug", PrimitiveType::kString},
                                {"num", PrimitiveType::kInt}});
  return b.Build().ValueOrDie();
}

/// One Univ record with nested admits {uid, count}.
inline RecordNode UnivRecord(int64_t id, const std::string& name,
                             std::vector<std::pair<int64_t, int64_t>> admits) {
  RecordNode univ;
  univ.type = "Univ";
  univ.prims = {{"id", Value::Int(id)}, {"name", Value::String(name)}};
  std::vector<RecordNode> kids;
  for (auto [uid, count] : admits) {
    RecordNode admit;
    admit.type = "Admit";
    admit.prims = {{"uid", Value::Int(uid)}, {"count", Value::Int(count)}};
    kids.push_back(std::move(admit));
  }
  univ.children.push_back({"Admit", std::move(kids)});
  return univ;
}

inline RecordNode AdmissionRecord(const std::string& grad, const std::string& ug,
                                  int64_t num) {
  RecordNode rec;
  rec.type = "Admission";
  rec.prims = {{"grad", Value::String(grad)},
               {"ug", Value::String(ug)},
               {"num", Value::Int(num)}};
  return rec;
}

/// The example of Figure 2.
inline Example MotivatingExample() {
  Example e;
  e.input.roots.push_back(UnivRecord(1, "U1", {{1, 10}, {2, 50}}));
  e.input.roots.push_back(UnivRecord(2, "U2", {{2, 20}, {1, 40}}));
  e.output.roots.push_back(AdmissionRecord("U1", "U1", 10));
  e.output.roots.push_back(AdmissionRecord("U2", "U2", 20));
  e.output.roots.push_back(AdmissionRecord("U1", "U2", 50));
  e.output.roots.push_back(AdmissionRecord("U2", "U1", 40));
  return e;
}

/// Flat record builder for relational-style tests.
inline RecordNode FlatRecord(Name type, std::vector<std::pair<Name, Value>> prims) {
  RecordNode rec;
  rec.type = type;
  rec.prims = std::move(prims);
  return rec;
}

/// A sketch of `copies` same-shaped chain copies of `width` holes each, all
/// over one domain of `symbols` body variables: the shape whose
/// symmetry-breaking lex-leq chain dominates encoding.
inline RuleSketch ChainCopiesSketch(int copies, int width, int symbols) {
  RuleSketch sketch;
  sketch.target_record = "T";
  std::vector<int> domain;
  for (int d = 0; d < symbols; ++d) {
    SketchSymbol sym;
    sym.kind = SketchSymbol::Kind::kBodyAttrVar;
    sym.name = "a" + std::to_string(d);
    sym.attr = "a";
    domain.push_back(sketch.symbols.Intern(std::move(sym)));
  }
  for (int c = 0; c < copies; ++c) {
    std::vector<int> holes;
    for (int w = 0; w < width; ++w) {
      SketchHole hole;
      hole.source_attr = "a";
      hole.copy = c + 1;
      hole.domain = domain;
      holes.push_back(static_cast<int>(sketch.holes.size()));
      sketch.holes.push_back(std::move(hole));
    }
    sketch.chain_copies.push_back({"R", std::move(holes)});
  }
  return sketch;
}

}  // namespace testing
}  // namespace dynamite

#endif  // DYNAMITE_TESTS_TESTING_H_
