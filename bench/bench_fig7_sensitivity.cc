// Regenerates Figure 7 (and Figures 11-12 with --all): sensitivity to the
// number and quality of examples. For each example size r in [1, 8], draw N
// random source instances, derive the output with the golden program, and
// measure (a) mean synthesis time and (b) the fraction of runs whose
// synthesized program agrees with the golden program on a validation
// instance (within a timeout).
//
// Usage: bench_fig7_sensitivity [--all] [trials]   (default: 4 headline
// benchmarks, 10 trials per point)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace dynamite;
  using namespace dynamite::workload;

  bool all = false;
  size_t trials = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else {
      trials = static_cast<size_t>(std::atoi(argv[i]));
    }
  }

  std::vector<std::string> names;
  if (all) {
    for (const Benchmark& b : AllBenchmarks()) names.push_back(b.name);
  } else {
    names = {"Yelp-1", "IMDB-1", "DBLP-1", "Mondial-1"};  // Figure 7
  }

  std::printf("Figure 7%s: sensitivity to number of examples (%zu trials/point, "
              "30s timeout)\n\n",
              all ? " + Figures 11-12" : "", trials);
  bench::TablePrinter table({{"Benchmark", 12},
                             {"r", 4},
                             {"MeanTime(s)", 13},
                             {"SuccessRate", 13}});
  table.PrintHeader();

  SessionOptions options;
  options.default_budget_seconds = 30;  // scaled-down stand-in for 10 min
  for (const std::string& name : names) {
    const Benchmark* b = FindBenchmark(name);
    if (b == nullptr) continue;
    auto session = Session::Create(b->source, b->target, options);
    if (!session.ok()) continue;
    for (size_t r = 1; r <= 8; ++r) {
      double total_time = 0;
      size_t successes = 0, timed = 0;
      for (size_t trial = 0; trial < trials; ++trial) {
        uint64_t seed = 1000 * r + trial;
        auto example = MakeExample(*b, seed, r);
        if (!example.ok()) continue;
        auto result = session->Synthesize(*example);
        if (!result.ok()) continue;  // timeout / no program: failure
        total_time += result->seconds;
        ++timed;
        auto agrees = AgreesWithGolden(*b, result->program, /*seed=*/seed + 7, /*scale=*/8);
        if (agrees.ok() && *agrees) ++successes;
      }
      table.PrintRow({name, std::to_string(r),
                      timed > 0 ? bench::Fmt("%.3f", total_time / static_cast<double>(timed))
                                : std::string("-"),
                      bench::Fmt("%.0f%%", 100.0 * static_cast<double>(successes) /
                                               static_cast<double>(trials))});
    }
  }
  std::printf("\nPaper reference: >90%% success with 2-3 random records on 26/28\n"
              "benchmarks; roughly linear time growth on 24/28.\n");
  return 0;
}
