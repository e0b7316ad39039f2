// Tests for the Mitra-like and Eirene-like baseline reimplementations.

#include <gtest/gtest.h>

#include "api/session.h"
#include "baselines/eirene.h"
#include "baselines/mitra.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

TEST(Mitra, SolvesMotivatingExample) {
  Example e = testing::MotivatingExample();
  MitraSynthesizer mitra(testing::UnivSchema(), testing::AdmissionSchema());
  ASSERT_OK_AND_ASSIGN(MitraResult result, mitra.Synthesize(e));
  ASSERT_EQ(result.program.rules.size(), 1u);
  EXPECT_GT(result.candidates_tried, 0u);
  EXPECT_FALSE(result.javascript.empty());
}

TEST(Mitra, GeneratedJavaScriptHasLoopNest) {
  Example e = testing::MotivatingExample();
  MitraSynthesizer mitra(testing::UnivSchema(), testing::AdmissionSchema());
  ASSERT_OK_AND_ASSIGN(MitraResult result, mitra.Synthesize(e));
  // The traversal program iterates the source collections.
  EXPECT_NE(result.javascript.find("for (const"), std::string::npos);
  EXPECT_NE(result.javascript.find("out.Admission"), std::string::npos);
}

TEST(Mitra, TriesMoreCandidatesThanDynamite) {
  Example e = testing::MotivatingExample();
  MitraSynthesizer mitra(testing::UnivSchema(), testing::AdmissionSchema());
  ASSERT_OK_AND_ASSIGN(MitraResult mitra_result, mitra.Synthesize(e));
  ASSERT_OK_AND_ASSIGN(Session dynamite,
                       Session::Create(testing::UnivSchema(), testing::AdmissionSchema()));
  ASSERT_OK_AND_ASSIGN(SynthesisResult dyn_result, dynamite.Synthesize(e));
  EXPECT_GT(mitra_result.candidates_tried, dyn_result.iterations)
      << "enumeration should sample more candidates than conflict-driven search";
}

TEST(Mitra, SolvesDocToRelBenchmark) {
  const workload::Benchmark* bench = workload::FindBenchmark("DBLP-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example e,
                       workload::MakeExample(*bench, bench->example_seed, bench->example_scale));
  MitraOptions options;
  options.timeout_seconds = 120;
  MitraSynthesizer mitra(bench->source, bench->target, options);
  ASSERT_OK_AND_ASSIGN(MitraResult result, mitra.Synthesize(e));
  ASSERT_OK_AND_ASSIGN(bool agrees,
                       workload::AgreesWithGolden(*bench, result.program, 99, 8));
  EXPECT_TRUE(agrees);
}

TEST(Eirene, SolvesRelToRelBenchmark) {
  const workload::Benchmark* bench = workload::FindBenchmark("Airbnb-3");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example e,
                       workload::MakeExample(*bench, bench->example_seed, bench->example_scale));
  EireneSynthesizer eirene(bench->source, bench->target);
  ASSERT_OK_AND_ASSIGN(EireneResult result, eirene.Synthesize(e));
  ASSERT_OK_AND_ASSIGN(bool agrees, workload::AgreesWithGolden(*bench, result.glav, 99, 8));
  EXPECT_TRUE(agrees);
}

TEST(Eirene, MappingsKeepRedundantPredicates) {
  // Figure 10(b): Eirene's fitted tgds are unminimized — its distance to
  // the optimal mapping is at least Dynamite's.
  const workload::Benchmark* bench = workload::FindBenchmark("Airbnb-3");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example e,
                       workload::MakeExample(*bench, bench->example_seed, bench->example_scale));
  EireneSynthesizer eirene(bench->source, bench->target);
  ASSERT_OK_AND_ASSIGN(EireneResult eirene_result, eirene.Synthesize(e));
  ASSERT_OK_AND_ASSIGN(Session dynamite, Session::Create(bench->source, bench->target));
  ASSERT_OK_AND_ASSIGN(SynthesisResult dyn_result, dynamite.Synthesize(e));
  size_t eirene_preds = 0, dynamite_preds = 0;
  for (const Rule& r : eirene_result.glav.rules) eirene_preds += r.body.size();
  for (const Rule& r : dyn_result.program.rules) dynamite_preds += r.body.size();
  EXPECT_GE(eirene_preds, dynamite_preds);
}

}  // namespace
}  // namespace dynamite
