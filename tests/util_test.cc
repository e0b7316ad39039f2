// Unit tests for util: Status, Result, strings, Rng.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace dynamite {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto fn = [](bool fail) -> Status {
    DYNAMITE_RETURN_NOT_OK(fail ? Status::Timeout("slow") : Status::OK());
    return Status::AlreadyExists("fellthrough");
  };
  EXPECT_EQ(fn(true).code(), StatusCode::kTimeout);
  EXPECT_EQ(fn(false).code(), StatusCode::kAlreadyExists);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::ParseError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Unsat("no");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    DYNAMITE_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(outer(false).ValueOrDie(), 10);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kUnsat);
}

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("database", "data"));
  EXPECT_FALSE(StartsWith("db", "data"));
  EXPECT_TRUE(EndsWith("schema.json", ".json"));
  EXPECT_FALSE(EndsWith("x", "xy"));
}

TEST(Strings, FormatAndLower) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "ab"), "3-ab");
  EXPECT_EQ(AsciiToLower("AbC9_Z"), "abc9_z");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(9);
  auto sample = rng.SampleIndices(20, 10);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (size_t i : sample) EXPECT_LT(i, 20u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// The DYNAMITE_NUM_THREADS parse alone: no pool is built, so no thread
// starts, whatever the value asks for.
TEST(NumThreadsEnv, AcceptsOnlyWholeCountsInRange) {
  EXPECT_EQ(ParseNumThreadsEnv("4"), 4u);
  EXPECT_EQ(ParseNumThreadsEnv("2"), 2u);
  EXPECT_EQ(ParseNumThreadsEnv("256"), 256u);
  EXPECT_EQ(ParseNumThreadsEnv("4x"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv(" 4"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("+4"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv(""), 1u);
  EXPECT_EQ(ParseNumThreadsEnv(nullptr), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("-3"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("0"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("1"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("257"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("100000"), 1u);
  EXPECT_EQ(ParseNumThreadsEnv("99999999999999999999999"), 1u);
}

TEST(NumThreadsEnv, ExplicitKnobIsNeverOverridden) {
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(3), 3u);
}

// Resolution alone: no pool is built, so no thread starts, whatever the
// knob asks for.
TEST(NumThreadsEnv, ExplicitKnobIsClampedToTheCap) {
  EXPECT_EQ(ResolveNumThreads(kMaxNumThreads), kMaxNumThreads);
  EXPECT_EQ(ResolveNumThreads(kMaxNumThreads + 1), kMaxNumThreads);
  EXPECT_EQ(ResolveNumThreads(100000), kMaxNumThreads);
  EXPECT_EQ(ResolveNumThreads(SIZE_MAX), kMaxNumThreads);
  EXPECT_EQ(kMaxNumThreads, 256u);
}

}  // namespace
}  // namespace dynamite
