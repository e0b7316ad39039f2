// Differential test of the resolved candidate check (synth/check.h) against
// its reference semantics: CanonicalForest equality of BuildForest's
// forest for the decision, FlattenForestView of that forest for the view.
// Inputs are seeded target instances of all 28 Table 3 benchmarks, nested
// document targets included, mutated at the forest level (changed value,
// dropped or duplicated child or root, reordering) and at the fact level
// (an Int printed like a Float, orphan children, parents sharing children).

#include <gtest/gtest.h>

#include <functional>

#include "migrate/facts.h"
#include "synth/check.h"
#include "testing.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

/// Every record of the subtree, pre-order.
void Collect(RecordNode* node, std::vector<RecordNode*>* out) {
  out->push_back(node);
  for (auto& [attr, kids] : node->children) {
    for (RecordNode& kid : kids) Collect(&kid, out);
  }
}

void ShuffleTree(RecordNode* node, Rng* rng) {
  rng->Shuffle(&node->prims);
  rng->Shuffle(&node->children);
  for (auto& [attr, kids] : node->children) {
    rng->Shuffle(&kids);
    for (RecordNode& kid : kids) ShuffleTree(&kid, rng);
  }
}

Value Changed(const Value& v, Rng* rng) {
  switch (v.kind()) {
    case ValueKind::kInt:
      return Value::Int(v.AsInt() + 1 + static_cast<int64_t>(rng->NextBelow(3)));
    case ValueKind::kFloat:
      return Value::Float(v.AsFloat() + 0.5);
    case ValueKind::kBool:
      return Value::Bool(!v.AsBool());
    case ValueKind::kString:
      return Value::String(std::string(v.AsString()) + "~");
    default:
      return Value::Int(7);
  }
}

/// One forest-level mutation of `forest` (roots of one type); false when
/// the forest has nothing the mutation applies to.
bool MutateForest(RecordForest* forest, uint64_t kind, Rng* rng) {
  std::vector<RecordNode*> nodes;
  for (RecordNode& root : forest->roots) Collect(&root, &nodes);
  if (nodes.empty()) return false;
  switch (kind) {
    case 0: {  // change one primitive value
      RecordNode* node = nodes[rng->NextIndex(nodes.size())];
      if (node->prims.empty()) return false;
      Value& v = node->prims[rng->NextIndex(node->prims.size())].second;
      v = Changed(v, rng);
      return true;
    }
    case 1:    // drop a child
    case 2: {  // duplicate a child
      std::vector<std::vector<RecordNode>*> lists;
      for (RecordNode* node : nodes) {
        for (auto& [attr, kids] : node->children) {
          if (!kids.empty()) lists.push_back(&kids);
        }
      }
      if (lists.empty()) return false;
      std::vector<RecordNode>* kids = lists[rng->NextIndex(lists.size())];
      const size_t k = rng->NextIndex(kids->size());
      if (kind == 1) {
        kids->erase(kids->begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        kids->push_back((*kids)[k]);
      }
      return true;
    }
    case 3:  // drop a root
      forest->roots.erase(forest->roots.begin() +
                          static_cast<std::ptrdiff_t>(rng->NextIndex(forest->roots.size())));
      return true;
    case 4:  // duplicate a root
      forest->roots.push_back(forest->roots[rng->NextIndex(forest->roots.size())]);
      return true;
    case 5: {  // copy one attribute's value from another record of the type
      RecordNode* a = nodes[rng->NextIndex(nodes.size())];
      RecordNode* b = nodes[rng->NextIndex(nodes.size())];
      if (a->type != b->type || a->prims.empty()) return false;
      const size_t i = rng->NextIndex(a->prims.size());
      for (auto& [attr, value] : b->prims) {
        if (attr == a->prims[i].first) value = a->prims[i].second;
      }
      return true;
    }
    default:
      return false;
  }
}

/// `db` with every row passed through `edit`, which may change it or drop
/// it (by returning false).
FactDatabase Rewrite(const FactDatabase& db,
                     const std::function<bool(const std::string&, std::vector<Value>*)>& edit) {
  FactDatabase out;
  for (const std::string& name : db.RelationNames()) {
    const Relation& rel = *db.Find(name).ValueOrDie();
    Relation* copy = out.DeclareRelation(name, rel.attributes()).ValueOrDie();
    for (size_t r = 0; r < rel.size(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < rel.arity(); ++c) row.push_back(rel.cell(r, c));
      if (edit(name, &row)) copy->InsertRow(row);
    }
  }
  return out;
}

/// One fact-level mutation; false when it does not apply.
bool MutateFacts(FactDatabase* db, const Schema& target, uint64_t kind, Rng* rng) {
  bool applied = false;
  const uint64_t pick = rng->Next();
  size_t seen = 0;
  FactDatabase out = Rewrite(*db, [&](const std::string& name, std::vector<Value>* row) {
    ++seen;
    if (applied || (pick + seen) % 3 != 0) return true;
    switch (kind) {
      case 0:  // an Int becomes the Float that prints like it
        for (Value& v : *row) {
          if (v.is_int()) {
            v = Value::Float(static_cast<double>(v.AsInt()));
            applied = true;
            break;
          }
        }
        return true;
      case 1:  // a nested record's child list is shared with another parent
        if (!target.NestedRecordsOf(name).empty() || target.IsNestedRecord(name)) {
          for (size_t c = 0; c < row->size(); ++c) {
            if (c > 0 && (*row)[c].is_id()) {
              (*row)[c] = Value::Id((*row)[c].AsId() + 1);
              applied = true;
              break;
            }
          }
        }
        return true;
      default:
        return true;
    }
  });
  if (kind == 2) {  // an orphan row in a nested relation
    for (const std::string& name : out.RelationNames()) {
      if (!target.IsNestedRecord(name)) continue;
      Relation* rel = out.FindMutable(name).ValueOrDie();
      if (rel->size() == 0) continue;
      std::vector<Value> row;
      for (size_t c = 0; c < rel->arity(); ++c) row.push_back(rel->cell(0, c));
      row[0] = Value::Id(1u << 30);
      rel->InsertRow(row);
      applied = true;
      break;
    }
  }
  *db = std::move(out);
  return applied;
}

RecordForest RootsOf(const RecordForest& forest, const std::string& top) {
  RecordForest out;
  for (const RecordNode& root : forest.roots) {
    if (root.type == top) out.roots.push_back(root);
  }
  return out;
}

TEST(CandidateCheck, AgreesWithCanonicalForestOnMutatedTable3Instances) {
  size_t matches = 0, mismatches = 0, nested_cases = 0, cases = 0;
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ASSERT_OK_AND_ASSIGN(Example example, workload::MakeExample(bench, seed, 3 + seed));
      for (const std::string& top : bench.target.TopLevelRecords()) {
        SCOPED_TRACE(bench.name + " " + top + " seed " + std::to_string(seed));
        ASSERT_OK_AND_ASSIGN(CandidateCheck check,
                             CandidateCheck::Make(bench.target, top, example.output));
        const RecordForest expected = RootsOf(example.output, top);
        const std::vector<std::string> expected_canon = CanonicalForest(expected);
        const bool nested = !bench.target.NestedRecordsOf(top).empty();
        Rng rng(seed * 1000003 + std::hash<std::string>()(bench.name + top));
        for (uint64_t trial = 0; trial < 12; ++trial) {
          RecordForest mutated = expected;
          if (trial > 0 && !mutated.roots.empty()) {
            for (uint64_t m = 0, n = 1 + rng.NextBelow(2); m < n; ++m) {
              MutateForest(&mutated, rng.NextBelow(6), &rng);
            }
          }
          for (RecordNode& root : mutated.roots) ShuffleTree(&root, &rng);
          rng.Shuffle(&mutated.roots);
          uint64_t next_id = 1 + rng.NextBelow(100);
          ASSERT_OK_AND_ASSIGN(FactDatabase idb, ToFacts(mutated, bench.target, &next_id));
          if (trial % 3 == 2) MutateFacts(&idb, bench.target, rng.NextBelow(3), &rng);

          ASSERT_OK_AND_ASSIGN(RecordForest built, BuildForest(idb, bench.target));
          const bool want = CanonicalForest(built) == expected_canon;
          ASSERT_OK_AND_ASSIGN(bool got, check.Matches(idb));
          ASSERT_EQ(got, want) << "trial " << trial;
          (want ? matches : mismatches) += 1;
          nested_cases += nested ? 1 : 0;
          ++cases;

          ASSERT_OK_AND_ASSIGN(Relation view, check.View(idb));
          ASSERT_OK_AND_ASSIGN(Relation reference, FlattenForestView(built, bench.target, top));
          ASSERT_EQ(view.attributes(), reference.attributes());
          ASSERT_TRUE(view.SetEquals(reference)) << "trial " << trial;
        }
      }
    }
  }
  // Both outcomes, and nested targets, are exercised.
  EXPECT_GT(matches, cases / 10);
  EXPECT_GT(mismatches, cases / 4);
  EXPECT_GT(nested_cases, cases / 20);
}

TEST(CandidateCheck, ExpectedViewIsFlattenForestView) {
  for (const workload::Benchmark& bench : workload::AllBenchmarks()) {
    ASSERT_OK_AND_ASSIGN(Example example, workload::MakeExample(bench, 5, 4));
    for (const std::string& top : bench.target.TopLevelRecords()) {
      ASSERT_OK_AND_ASSIGN(CandidateCheck check,
                           CandidateCheck::Make(bench.target, top, example.output));
      ASSERT_OK_AND_ASSIGN(Relation reference,
                           FlattenForestView(example.output, bench.target, top));
      EXPECT_EQ(check.expected_view().attributes(), reference.attributes());
      EXPECT_TRUE(check.expected_view().SetEquals(reference)) << bench.name;
    }
  }
}

TEST(CandidateCheck, RejectsANonTopLevelRecord) {
  const workload::Benchmark* bench = workload::FindBenchmark("Bike-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example example, workload::MakeExample(*bench, 7, 3));
  EXPECT_FALSE(CandidateCheck::Make(bench->target, "NoSuchRecord", example.output).ok());
}

}  // namespace
}  // namespace dynamite
