// Pins of sketch completion's per-candidate path on every rule sketch of
// the 28 Table 3 benchmarks:
//   * the CNF each sketch encodes to (SAT variables, stored clauses) and the
//     first models enumerated under model-equality blocking, so any change
//     to the encoding's numbering or clause order shows up here directly,
//     not only when it happens to change a synthesized program;
//   * candidate evaluation with and without the compiled-rule cache, which
//     must agree row for row: the synthesizer's canonical candidate engine
//     runs uncached, the portfolio workers and the migration engine cached.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/attr_map.h"
#include "synth/check.h"
#include "synth/encode.h"
#include "synth/sketch_gen.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

/// One Table 3 benchmark's rule sketches as Session::Synthesize builds them
/// with default options (no filtering), plus the example they came from.
struct BenchmarkSketches {
  std::string name;
  Example example;
  std::vector<RuleSketch> sketches;
};

std::vector<BenchmarkSketches> Table3Sketches() {
  std::vector<BenchmarkSketches> out;
  for (const workload::Benchmark& b : workload::AllBenchmarks()) {
    BenchmarkSketches entry;
    entry.name = b.name;
    entry.example = workload::MakeExample(b, b.example_seed, b.example_scale).ValueOrDie();
    AttributeMapping psi = InferAttrMapping(b.source, b.target, entry.example).ValueOrDie();
    entry.sketches = SketchGen(psi, b.source, b.target, {}).ValueOrDie();
    out.push_back(std::move(entry));
  }
  return out;
}

/// The encoded size of one sketch and a digest of its first models.
struct CnfPin {
  std::string sketch;  ///< "<benchmark>/<target record>" or "chain/<shape>"
  int vars = 0;
  size_t clauses = 0;
  uint64_t models_digest = 0;

  bool operator==(const CnfPin& o) const {
    return sketch == o.sketch && vars == o.vars && clauses == o.clauses &&
           models_digest == o.models_digest;
  }
};

std::ostream& operator<<(std::ostream& os, const CnfPin& pin) {
  return os << "{\"" << pin.sketch << "\", " << pin.vars << ", " << pin.clauses << ", 0x"
            << std::hex << pin.models_digest << std::dec << "ull}";
}

constexpr size_t kPinnedModels = 50;

void Fold(uint64_t* h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    *h *= 1099511628211ull;  // FNV-1a
  }
}

/// Encodes `sketch` and enumerates up to kPinnedModels models under
/// model-equality blocking (Dynamite-Enum).
CnfPin Measure(const std::string& name, const RuleSketch& sketch) {
  CnfPin pin;
  pin.sketch = name;
  FdSolver solver;
  SketchEncoding enc = EncodeSketch(sketch, &solver).ValueOrDie();
  pin.vars = solver.num_bool_vars();
  pin.clauses = solver.num_clauses();
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < kPinnedModels; ++i) {
    if (!solver.Solve().ValueOrDie()) break;
    SketchModel model = ExtractModel(enc, solver);
    for (int c : model.hole_choice) Fold(&h, c);
    Fold(&h, -1);
    for (int c : model.connector_choice) Fold(&h, c);
    Fold(&h, -2);
    for (int c : model.head_binding_choice) Fold(&h, c);
    Fold(&h, -3);
    EXPECT_TRUE(solver.AddClause(BlockingClause(ModelEquality(enc, model))).ok());
  }
  pin.models_digest = h;
  return pin;
}

// Captured before the lex-leq constraint was emitted straight to clauses;
// the clause-direct encoding must reproduce every number. A mismatch
// prints the measured row in this table's syntax.
const CnfPin kCnfPins[] = {
    {"Yelp-1/BusinessT", 147, 392, 0x9ae232d9858e189bull},
    {"Yelp-1/ReviewT", 313, 866, 0x76ea0c08fa09bcf5ull},
    {"Yelp-1/UserT", 60, 124, 0xffd0e7bfc31196ecull},
    {"IMDB-1/FilmT", 118, 318, 0xba1525d71160df45ull},
    {"IMDB-1/ActingT", 24, 25, 0xed0c5bd3c82d972eull},
    {"IMDB-1/PersonT", 118, 318, 0xba1525d71160df45ull},
    {"DBLP-1/ArticleT", 277, 843, 0xbfa6f68212810978ull},
    {"DBLP-1/AuthorshipT", 128, 293, 0x3856625d015fe5beull},
    {"DBLP-1/InprocT", 277, 843, 0xbfa6f68212810978ull},
    {"DBLP-1/InpAuthT", 128, 293, 0x3856625d015fe5beull},
    {"Mondial-1/CountryT", 134, 367, 0x2f925e5a52dceaffull},
    {"Mondial-1/ProvinceT", 112, 264, 0xf651b25f3cd8858full},
    {"Mondial-1/CityT", 147, 336, 0xe58cd1b50de4786eull},
    {"Mondial-1/OrgT", 134, 367, 0x8320d32008adc742ull},
    {"MLB-1/TeamDoc", 163, 446, 0x42a0d599c7e303a4ull},
    {"MLB-1/PitchDoc", 68, 144, 0x1511f37522eeac5ull},
    {"Airbnb-1/HostDoc", 337, 1115, 0xf3313e5d552d6673ull},
    {"Patent-1/PatentDoc", 163, 446, 0xac4e812aaa461832ull},
    {"Patent-1/PartyDoc", 55, 121, 0x6ed44a25d26b7464ull},
    {"Bike-1/StationDoc", 269, 918, 0x6a7ca63424d0f3e3ull},
    {"Tencent-1/FollowT", 65, 151, 0x708f46614dfc5191ull},
    {"Retina-1/NeuronT", 285, 933, 0xe677effba3dcb591ull},
    {"Retina-1/LinkT", 76, 173, 0xa7ad3f4a06d352c0ull},
    {"Movie-1/FilmRT", 45, 99, 0xeb6f88c74fb64616ull},
    {"Movie-1/ActRT", 15, 14, 0x5f1b5fa7d8ab0405ull},
    {"Movie-1/RateRT", 15, 14, 0x4e499d1c6fce6bd5ull},
    {"Movie-1/PersonRT", 3, 2, 0x439272e8fe37548full},
    {"Movie-1/UserRT", 3, 2, 0x439272e8fe37548full},
    {"Soccer-1/PlayerRT", 45, 99, 0xeb6f88c74fb64616ull},
    {"Soccer-1/ClubRT", 45, 99, 0xeb6f88c74fb64616ull},
    {"Soccer-1/TransferRT", 71, 151, 0x95a02e6229f2a64ull},
    {"Soccer-1/SquadRT", 16, 14, 0xa60aea3be55d7cf5ull},
    {"Soccer-1/CoachRT", 15, 14, 0x18640c76ba5990d5ull},
    {"Tencent-2/FollowDoc", 65, 151, 0x708f46614dfc5191ull},
    {"Retina-2/NeuronDoc", 224, 693, 0x8919354b4dd97957ull},
    {"Movie-2/FilmDoc", 93, 223, 0x1d4090d6e2931897ull},
    {"Soccer-2/ClubDoc", 96, 234, 0x3bfc0a8d88b39a89ull},
    {"Soccer-2/TransferDoc", 65, 145, 0xb0e98c5e9071e516ull},
    {"Yelp-2/BizNode", 55, 121, 0xeb6507c20bb8ecb4ull},
    {"Yelp-2/UserNode", 60, 124, 0xffd0e7bfc31196ecull},
    {"Yelp-2/ReviewedE", 139, 318, 0x895405de5d55c079ull},
    {"IMDB-2/MovNode", 45, 99, 0x1795911c31d2f571ull},
    {"IMDB-2/PerNode", 45, 99, 0x1795911c31d2f571ull},
    {"IMDB-2/ActEdge", 110, 253, 0x21ea5c2cd754e127ull},
    {"DBLP-2/PubNode", 55, 121, 0xeb6507c20bb8ecb4ull},
    {"DBLP-2/AuthNode", 85, 187, 0xdc2f2e11893c1f98ull},
    {"DBLP-2/WroteE", 23, 23, 0xc83ecdb06afbedf4ull},
    {"Mondial-2/CountryNode", 56, 124, 0xb40d63c3fde3a98dull},
    {"Mondial-2/CityNode", 95, 209, 0xdee196395a12f334ull},
    {"Mondial-2/InCountryE", 29, 32, 0x69a87e4c0043cbedull},
    {"MLB-2/TeamNode", 57, 124, 0x97f704fca96da70dull},
    {"MLB-2/PlayerNode", 67, 146, 0xcf90809d6a23283bull},
    {"MLB-2/PlaysForE", 180, 490, 0x2ff3e9e82579a915ull},
    {"MLB-2/GameE", 237, 839, 0x216ae37d86d8248dull},
    {"Airbnb-2/HostNode", 58, 124, 0x8f3e35d984621cd0ull},
    {"Airbnb-2/ListingNode", 76, 168, 0x4e4c45f35ffbbbffull},
    {"Airbnb-2/HostsE", 208, 564, 0x1096dbea959a8da8ull},
    {"Patent-2/PatentNode", 57, 124, 0x3c025f19b3b4ea4cull},
    {"Patent-2/CaseNode", 80, 182, 0xa4967fef178e52dfull},
    {"Patent-2/LitigatesE", 198, 554, 0x18c9138778b460b2ull},
    {"Bike-2/StationNode", 77, 178, 0xab262bf7cc739b04ull},
    {"Bike-2/BikeNode", 50, 106, 0x9b3f598b7ffad6e6ull},
    {"Bike-2/TripEdge", 578, 2374, 0xc014598665e06d22ull},
    {"MLB-3/RosterT", 67, 144, 0x9382d59c8aed1c60ull},
    {"MLB-3/TeamT", 45, 99, 0xeb6f88c74fb64616ull},
    {"MLB-3/SpeedT", 12, 8, 0x97764d652ed56105ull},
    {"MLB-3/GameT", 63, 145, 0xbefd49ec25571476ull},
    {"Airbnb-3/ListingFullT", 207, 557, 0x369b7f848f013257ull},
    {"Airbnb-3/HostT", 45, 99, 0xeb6f88c74fb64616ull},
    {"Airbnb-3/RatingT", 12, 8, 0x802eebbe044c44a5ull},
    {"Airbnb-3/HoodT", 48, 102, 0x72277ce2b2faa178ull},
    {"Patent-3/CaseFullT", 67, 144, 0x50a91ba2c9a24b57ull},
    {"Patent-3/PartyFullT", 68, 144, 0x5ded43f505f507eaull},
    {"Patent-3/PatentT", 45, 99, 0xeb6f88c74fb64616ull},
    {"Patent-3/AttorneyT", 11, 8, 0x1d7a616ec0d91965ull},
    {"Bike-3/TripFullT", 77, 173, 0x1a7ecb41b8a40350ull},
    {"Bike-3/StationT", 163, 441, 0x283315d9b9a24239ull},
    {"Bike-3/BikeTripT", 13, 12, 0xb50da78d333885a5ull},
    {"Bike-3/WeatherT", 45, 99, 0xeb6f88c74fb64616ull},
    {"chain/24x6x8", 4603, 18045, 0x2f1315628b3dcb91ull},
    {"chain/2x31x64", 9952, 205434, 0x85005f517103f8e6ull},
};

TEST(EncodingPin, EveryTable3SketchKeepsItsCnfAndFirstModels) {
  std::vector<CnfPin> measured;
  for (const BenchmarkSketches& b : Table3Sketches()) {
    for (const RuleSketch& sketch : b.sketches) {
      measured.push_back(Measure(b.name + "/" + sketch.target_record, sketch));
    }
  }
  measured.push_back(Measure("chain/24x6x8", testing::ChainCopiesSketch(24, 6, 8)));
  measured.push_back(Measure("chain/2x31x64", testing::ChainCopiesSketch(2, 31, 64)));

  const size_t num_pins = sizeof(kCnfPins) / sizeof(kCnfPins[0]);
  EXPECT_EQ(measured.size(), num_pins);
  for (size_t i = 0; i < measured.size(); ++i) {
    if (i >= num_pins) {
      ADD_FAILURE() << "unpinned: " << measured[i];
      continue;
    }
    EXPECT_EQ(measured[i], kCnfPins[i]) << "measured: " << measured[i];
  }
}

constexpr size_t kParityCandidates = 64;

/// Asserts two evaluation outcomes agree: same status code, and on success
/// the same relations with the same rows in the same order.
void ExpectSameOutcome(const Result<FactDatabase>& cached, const Result<FactDatabase>& uncached,
                       const std::string& what) {
  ASSERT_EQ(cached.ok(), uncached.ok()) << what;
  if (!cached.ok()) {
    EXPECT_EQ(cached.status().code(), uncached.status().code()) << what;
    return;
  }
  const std::vector<std::string> names = cached->RelationNames();
  ASSERT_EQ(names, uncached->RelationNames()) << what;
  for (const std::string& name : names) {
    const Relation& a = *cached->Find(name).ValueOrDie();
    const Relation& b = *uncached->Find(name).ValueOrDie();
    ASSERT_EQ(a.size(), b.size()) << what << " " << name;
    for (size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a.TupleAt(r), b.TupleAt(r)) << what << " " << name << " row " << r;
    }
  }
}

TEST(CacheOffParity, FirstCandidatesOfEveryTable3RuleEvaluateIdentically) {
  size_t evaluated = 0;
  for (const BenchmarkSketches& b : Table3Sketches()) {
    const workload::Benchmark& bench = *workload::FindBenchmark(b.name);
    uint64_t next_id = 1;
    ASSERT_OK_AND_ASSIGN(FactDatabase edb, ToFacts(b.example.input, bench.source, &next_id));
    // The synthesizer's per-candidate budgets.
    DatalogEngine::Options options;
    options.timeout_seconds = 5.0;
    options.max_derived_tuples = 500'000;
    options.cache_compiled_rules = true;
    DatalogEngine cached(options);
    options.cache_compiled_rules = false;
    DatalogEngine uncached(options);
    for (const RuleSketch& sketch : b.sketches) {
      ASSERT_OK_AND_ASSIGN(CandidateCheck check,
                           CandidateCheck::Make(bench.target, sketch.target_record,
                                                b.example.output));
      FdSolver solver;
      ASSERT_OK_AND_ASSIGN(SketchEncoding enc, EncodeSketch(sketch, &solver));
      for (size_t i = 0; i < kParityCandidates; ++i) {
        ASSERT_OK_AND_ASSIGN(bool sat, solver.Solve());
        if (!sat) break;
        SketchModel model = ExtractModel(enc, solver);
        ASSERT_OK_AND_ASSIGN(Rule rule, Instantiate(sketch, model));
        Program candidate;
        candidate.rules.push_back(std::move(rule));
        const std::string what = b.name + "/" + sketch.target_record + " candidate " +
                                 std::to_string(i) + ": " + candidate.ToString();
        ExpectSameOutcome(cached.Eval(candidate, edb, check.signatures()),
                          uncached.Eval(candidate, edb, check.signatures()), what);
        ++evaluated;
        ASSERT_OK(solver.AddClause(BlockingClause(ModelEquality(enc, model))));
      }
    }
  }
  EXPECT_GT(evaluated, 1000u);
}

}  // namespace
}  // namespace dynamite
