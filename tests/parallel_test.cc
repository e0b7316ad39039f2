// Thread-safety suite for what still runs on several threads: the sharded
// StringPool must survive concurrent interning, and a Session's synthesized
// program and migration output must not depend on its thread count (the
// synthesis portfolio). This binary is part of the TSan CI job.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "testing.h"
#include "value/string_pool.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

// ------------------------------------------ StringPool under concurrency --

TEST(ParallelStringPool, ConcurrentInternsAreConsistent) {
  // 8 threads intern overlapping string sets while also reading back
  // earlier ids: every thread must observe the same string -> id mapping,
  // ids must come out dense, and Get must round-trip. Under TSan this is
  // the pool's shard/storage synchronization proof.
  constexpr int kThreads = 8;
  constexpr int kDistinct = 500;
  constexpr int kInternsPerThread = 4000;
  StringPool pool;
  auto name = [](int i) { return "hammer_" + std::to_string(i); };

  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kDistinct, UINT32_MAX));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kInternsPerThread; ++k) {
        int i = (k * 13 + t * 7) % kDistinct;
        uint32_t id = pool.Intern(name(i));
        if (ids[t][i] == UINT32_MAX) {
          ids[t][i] = id;
        } else {
          // Idempotent within a thread.
          ASSERT_EQ(ids[t][i], id);
        }
        // Lock-free read-back while other threads keep interning.
        ASSERT_EQ(pool.Get(id), name(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(pool.size(), static_cast<size_t>(kDistinct));
  std::set<uint32_t> distinct_ids;
  for (int i = 0; i < kDistinct; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[0][i], ids[t][i]) << "string " << i << " thread " << t;
    }
    ASSERT_NE(ids[0][i], UINT32_MAX);
    EXPECT_LT(ids[0][i], static_cast<uint32_t>(kDistinct));  // dense
    distinct_ids.insert(ids[0][i]);
    EXPECT_EQ(pool.Get(ids[0][i]), name(i));
  }
  EXPECT_EQ(distinct_ids.size(), static_cast<size_t>(kDistinct));
}

// ------------------------------------- synthesizer end-to-end (satellite) --

TEST(ParallelSession, SynthesizeAndMigrateDeterministicAcrossThreadCounts) {
  const auto* bench = workload::FindBenchmark("Tencent-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example example, workload::MakeExample(*bench, 7, 3));
  ASSERT_OK_AND_ASSIGN(RecordForest source, workload::GenerateSource(*bench, 77, 300));

  std::string program_at_one;
  size_t records_at_one = 0;
  for (size_t threads : {1u, 8u}) {
    SessionOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(Session session,
                         Session::Create(bench->source, bench->target, options));
    ASSERT_OK_AND_ASSIGN(PipelineResult result,
                         session.SynthesizeAndMigrate(example, source));
    if (threads == 1) {
      program_at_one = result.synthesis.program.ToString();
      records_at_one = result.migrated.TotalRecords();
      EXPECT_GT(records_at_one, 0u);
    } else {
      EXPECT_EQ(result.synthesis.program.ToString(), program_at_one);
      EXPECT_EQ(result.migrated.TotalRecords(), records_at_one);
    }
  }
}

}  // namespace
}  // namespace dynamite
