// Tests for Name, the interned handle that records carry for their type and
// attribute names, and for the record layout it buys.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "instance/record_forest.h"
#include "json/json.h"
#include "migrate/facts.h"
#include "schema/schema_builder.h"
#include "testing.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "value/name.h"
#include "value/string_pool.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"
#include "workload/families.h"

namespace dynamite {
namespace {

#if UINTPTR_MAX == UINT64_MAX
// LP64: a name is one pointer, a cell entry a name and a 16-byte Value, and
// a record a name and two vectors (80 and 48 bytes with std::string names).
static_assert(sizeof(Name) == 8, "Name is one pointer");
static_assert(sizeof(std::pair<Name, Value>) == 24, "a cell entry is 24 bytes");
static_assert(sizeof(RecordNode) == 56, "a record is 56 bytes");
#endif

TEST(Name, EveryWayOfMakingANameGivesTheSameHandle) {
  const std::string text = "b_city";
  const Schema& schema = workload::GetFamily("Yelp").schema;
  const RecordTypeTable table(schema);
  const RecordTypeTable::Type* business = table.Find("Business");
  ASSERT_NE(business, nullptr);
  ASSERT_GT(business->attrs.size(), 2u);
  ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(R"({"b_city": 1})"));
  ASSERT_EQ(parsed.AsObject().size(), 1u);

  const std::vector<Name> names = {
      Name(text),                              // std::string
      Name(std::string_view(text)),            // std::string_view
      Name("b_city"),                          // const char*
      Name(parsed.AsObject().begin()->first),  // a parsed JSON key
      business->attrs[2],                      // a RecordTypeTable entry
  };
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      SCOPED_TRACE(std::to_string(i) + " vs " + std::to_string(j));
      EXPECT_TRUE(names[i] == names[j]);
      EXPECT_FALSE(names[i] != names[j]);
      EXPECT_FALSE(names[i] < names[j]);
      EXPECT_EQ(&names[i].str(), &names[j].str());
      EXPECT_EQ(std::hash<Name>{}(names[i]), std::hash<Name>{}(names[j]));
      EXPECT_EQ(std::hash<std::string>{}(names[i]), std::hash<std::string>{}(names[j]));
    }
    EXPECT_EQ(std::hash<std::string>{}(names[i]), std::hash<std::string>{}(text));
    EXPECT_TRUE(names[i] == text);
    EXPECT_TRUE(names[i] == std::string_view(text));
    EXPECT_TRUE(names[i] == "b_city");
    EXPECT_TRUE(text == names[i]);
    EXPECT_EQ(static_cast<const std::string&>(names[i]), text);
  }
}

TEST(Name, DistinctStringsAreDistinctNamesOrderedByContent) {
  const Name a = "name_test_a";
  const Name b = "name_test_b";
  EXPECT_NE(a, b);
  EXPECT_TRUE(a != "name_test_b");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(Name(), Name(""));
  EXPECT_EQ(Name().str(), "");
}

TEST(Name, ComparingWithAStringInternsNothing) {
  const Name a = "name_test_compare";
  const size_t before = Name::TableSize();
  EXPECT_FALSE(a == "name_test_never_interned_1");
  EXPECT_TRUE(a != std::string("name_test_never_interned_2"));
  EXPECT_FALSE(std::string_view("name_test_never_interned_3") == a);
  EXPECT_EQ(Name::TableSize(), before);
}

TEST(Name, ConcurrentInterningGivesOneHandlePerString) {
  // Threads intern the same fresh strings in different orders; every
  // thread must get the same handle for each string.
  constexpr size_t kThreads = 4;
  constexpr size_t kNames = 256;
  std::vector<std::vector<Name>> seen(kThreads, std::vector<Name>(kNames));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (size_t k = 0; k < kNames; ++k) {
        const size_t i = t % 2 == 0 ? k : kNames - 1 - k;
        seen[t][i] = Name("name_race_" + std::to_string(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < kNames; ++i) {
    for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]);
    EXPECT_EQ(seen[0][i].str(), "name_race_" + std::to_string(i));
  }
}

TEST(Name, BuildingAForestInternsNoValueString) {
  // Names live in their own table: a forest of fresh record and attribute
  // names over integer values leaves Value's StringPool as it was, through
  // generation, validation, facts and rebuild alike.
  ASSERT_OK_AND_ASSIGN(Schema schema,
                       RelationalSchemaBuilder()
                           .AddTable("name_test_rows", {{"name_test_x", PrimitiveType::kInt},
                                                        {"name_test_y", PrimitiveType::kInt}})
                           .Build());
  const size_t pool_before = StringPool::Global().size();
  const size_t names_before = Name::TableSize();
  Rng rng(7);
  RecordForest forest = workload::ZipfFlatInstance(
      "name_test_rows",
      {{"name_test_x", /*is_string=*/false, 8}, {"name_test_y", /*is_string=*/false, 8}},
      /*rows=*/100, /*s=*/1.0, &rng);
  ASSERT_OK(ValidateForest(forest, schema));
  uint64_t next_id = 1;
  ASSERT_OK_AND_ASSIGN(FactDatabase facts, ToFacts(forest, schema, &next_id));
  ASSERT_OK_AND_ASSIGN(RecordForest rebuilt, BuildForest(facts, schema));
  EXPECT_TRUE(ForestEquals(forest, rebuilt));
  EXPECT_EQ(StringPool::Global().size(), pool_before);
  EXPECT_GT(Name::TableSize(), names_before);

  // The same for every benchmark's generated instance once its values are
  // interned: regenerating and rebuilding it adds no Value string and, the
  // names resolved the first time, no name either.
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    ASSERT_OK(workload::GenerateSource(bench, /*seed=*/3, /*scale=*/20).status());
  }
  const size_t pool_warm = StringPool::Global().size();
  const size_t names_warm = Name::TableSize();
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    ASSERT_OK_AND_ASSIGN(RecordForest source,
                         workload::GenerateSource(bench, /*seed=*/3, /*scale=*/20));
    uint64_t id = 1;
    ASSERT_OK_AND_ASSIGN(FactDatabase db, ToFacts(source, bench.source, &id));
    ASSERT_OK_AND_ASSIGN(RecordForest back, BuildForest(db, bench.source));
    EXPECT_TRUE(ForestEquals(source, back));
  }
  EXPECT_EQ(StringPool::Global().size(), pool_warm);
  EXPECT_EQ(Name::TableSize(), names_warm);
}

TEST(Name, NamesNeverPassTheStringPoolFailpoint) {
  // Armed hit_1:oor, string_pool.intern fails the first novel Value string.
  // Generating and validating a forest whose values are all interned
  // already, and whose record and attribute names are all new, succeeds:
  // no name reaches the site. The probe at the end shows the arming was
  // live all along.
  ASSERT_OK_AND_ASSIGN(
      Schema schema,
      RelationalSchemaBuilder()
          .AddTable("name_fp_rows", {{"name_fp_s", PrimitiveType::kString},
                                     {"name_fp_i", PrimitiveType::kInt}})
          .Build());
  const workload::Benchmark* bench = workload::FindBenchmark("Yelp-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK(workload::GenerateSource(*bench, /*seed=*/11, /*scale=*/30).status());
  // "name_fp_s_<rank>" are the string column's values: intern them first.
  for (size_t rank = 0; rank < 4; ++rank) {
    ASSERT_OK(Value::TryString(workload::Pooled("name_fp_s", rank)).status());
  }

  ASSERT_OK(failpoint::ArmFromString("string_pool.intern", "hit_1:oor"));
  Rng rng(3);
  RecordForest forest = workload::ZipfFlatInstance(
      "name_fp_rows", {{"name_fp_s", /*is_string=*/true, 4}, {"name_fp_i", false, 4}},
      /*rows=*/50, /*s=*/0.5, &rng);
  Status flat = ValidateForest(forest, schema);
  Result<RecordForest> generated = workload::GenerateSource(*bench, /*seed=*/11, /*scale=*/30);
  Result<Value> probe = Value::TryString("name_fp_novel_value_probe");
  failpoint::DisarmAll();

  EXPECT_OK(flat);
  EXPECT_OK(generated.status());
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dynamite
