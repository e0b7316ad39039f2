// End-to-end synthesis on the paper's motivating example (§2): document
// schema Univ/Admit to flat Admission, expected program
//   Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
//                               Univ(id2, ug, _).

#include <gtest/gtest.h>

#include "api/session.h"
#include "datalog/simplify.h"
#include "synth/attr_map.h"
#include "synth/sketch_gen.h"
#include "testing.h"

namespace dynamite {
namespace {

using testing::AdmissionSchema;
using testing::MotivatingExample;
using testing::UnivRecord;
using testing::UnivSchema;

TEST(AttrMappingMotivating, MatchesPaper) {
  Example e = MotivatingExample();
  ASSERT_OK_AND_ASSIGN(AttributeMapping psi,
                       InferAttrMapping(UnivSchema(), AdmissionSchema(), e));
  // id -> {uid}, uid -> {id}, name -> {grad, ug}, count -> {num} (§2).
  EXPECT_EQ(psi.at("id"), std::set<std::string>({"uid"}));
  EXPECT_EQ(psi.at("uid"), std::set<std::string>({"id"}));
  EXPECT_EQ(psi.at("name"), std::set<std::string>({"grad", "ug"}));
  EXPECT_EQ(psi.at("count"), std::set<std::string>({"num"}));
}

TEST(SketchGenMotivating, MatchesPaperShape) {
  Example e = MotivatingExample();
  Schema src = UnivSchema();
  Schema tgt = AdmissionSchema();
  ASSERT_OK_AND_ASSIGN(AttributeMapping psi, InferAttrMapping(src, tgt, e));
  ASSERT_OK_AND_ASSIGN(RuleSketch sketch,
                       GenRuleSketch(psi, src, tgt, "Admission", {}));
  // §2: three occurrences of Univ and one of Admit in the body.
  size_t univ = 0, admit = 0;
  for (const auto& atom : sketch.body) {
    if (atom.relation == "Univ") ++univ;
    if (atom.relation == "Admit") ++admit;
  }
  EXPECT_EQ(univ, 3u);
  EXPECT_EQ(admit, 1u);
  // 8 holes: id+name per Univ copy (6) and uid+count for Admit (2).
  EXPECT_EQ(sketch.holes.size(), 8u);
  // Hole domain sizes per §2: id/uid holes have 4 options, name holes 5,
  // count hole 2.
  for (const SketchHole& h : sketch.holes) {
    if (h.source_attr == "id" || h.source_attr == "uid") {
      EXPECT_EQ(h.domain.size(), 4u) << h.source_attr;
    } else if (h.source_attr == "name") {
      EXPECT_EQ(h.domain.size(), 5u);
    } else if (h.source_attr == "count") {
      EXPECT_EQ(h.domain.size(), 2u);
    }
  }
  // 64,000 completions (§2: 4*5*4*2*4*5*4*5 = 64000).
  EXPECT_DOUBLE_EQ(sketch.SearchSpaceSize(), 64000.0);
}

TEST(SynthesizeMotivating, FindsCorrectProgram) {
  Example e = MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(UnivSchema(), AdmissionSchema()));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, session.Synthesize(e));
  ASSERT_EQ(result.program.rules.size(), 1u);

  // The synthesized program must be equivalent to the golden one.
  ASSERT_OK_AND_ASSIGN(Program golden, Program::Parse(R"(
    Admission(grad, ug, num) :- Univ(id1, grad, v1), Admit(v1, id2, num),
                                Univ(id2, ug, _).
  )"));
  EXPECT_TRUE(RuleEquivalent(result.program.rules[0], golden.rules[0]))
      << "synthesized: " << result.program.ToString();

  // And it must generalize: run it on a bigger instance.
  RecordForest big;
  big.roots.push_back(UnivRecord(1, "A", {{2, 7}, {3, 8}}));
  big.roots.push_back(UnivRecord(2, "B", {{1, 5}}));
  big.roots.push_back(UnivRecord(3, "C", {}));
  ASSERT_OK_AND_ASSIGN(RecordForest migrated, session.Migrate(result.program, big));
  // Expected: A<-B:7, A<-C:8, B<-A:5.
  RecordForest expected;
  expected.roots.push_back(testing::AdmissionRecord("A", "B", 7));
  expected.roots.push_back(testing::AdmissionRecord("A", "C", 8));
  expected.roots.push_back(testing::AdmissionRecord("B", "A", 5));
  EXPECT_TRUE(ForestEquals(migrated, expected))
      << "program: " << result.program.ToString();
}

TEST(SynthesizeMotivating, EnumBaselineFindsSameAnswerSlower) {
  Example e = MotivatingExample();
  SessionOptions options;
  options.synthesis.use_analysis = false;  // Dynamite-Enum
  ASSERT_OK_AND_ASSIGN(Session enum_synth,
                       Session::Create(UnivSchema(), AdmissionSchema(), options));
  ASSERT_OK_AND_ASSIGN(SynthesisResult enum_result, enum_synth.Synthesize(e));

  ASSERT_OK_AND_ASSIGN(Session smart, Session::Create(UnivSchema(), AdmissionSchema()));
  ASSERT_OK_AND_ASSIGN(SynthesisResult smart_result, smart.Synthesize(e));

  // Both consistent. On an example this tiny the two searches are within
  // noise of each other (the decisive gap appears on the full benchmark
  // suite, Figure 9a); assert the analysis-based search is never much
  // worse.
  EXPECT_LE(smart_result.iterations, enum_result.iterations + 10);
}

TEST(SynthesizeMotivating, ReportsStats) {
  Example e = MotivatingExample();
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(UnivSchema(), AdmissionSchema()));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, session.Synthesize(e));
  EXPECT_DOUBLE_EQ(result.search_space, 64000.0);
  EXPECT_GE(result.iterations, 1u);
  EXPECT_EQ(result.rule_stats.size(), 1u);
  EXPECT_EQ(result.rule_stats[0].target_record, "Admission");
}

}  // namespace
}  // namespace dynamite
