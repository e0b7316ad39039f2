// Regenerates Table 3 (main results, §6.1): for every benchmark — example
// sizes, sketch search-space size, synthesis time, number of rules,
// predicates per rule, rules syntactically identical to the golden
// ("optimal") program, distance to optimal in extra body predicates, and
// end-to-end migration time on a generated instance.
//
// Migration runs at a configurable scale (default 200 primary entities per
// benchmark; pass a number as argv[1] to change it). Absolute times are not
// comparable to the paper's GB-scale datasets; the shape (seconds-level
// synthesis, migration dominated by evaluation) is.
//
// Exits 1 when any benchmark fails to build its example, to synthesize, or
// to migrate, so the harness doubles as an end-to-end check. The summary
// ends with the process's peak resident set size (getrusage ru_maxrss), so
// every run logs memory next to time; it is reported, not checked.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "bench_util.h"
#include "datalog/simplify.h"
#include "util/timer.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace dynamite;
  using namespace dynamite::workload;

  size_t migration_scale = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 200;

  std::printf("Table 3: Main results (migration scale = %zu primary entities)\n\n",
              migration_scale);
  bench::TablePrinter table({{"Benchmark", 12},
                             {"ExIn", 6},
                             {"ExOut", 7},
                             {"SearchSpace", 13},
                             {"Synth(ms)", 10},
                             {"Rules", 7},
                             {"Preds/Rule", 12},
                             {"OptimRules", 12},
                             {"DistOptim", 11},
                             {"Migrate(ms)", 12}});
  table.PrintHeader();

  double sum_synth = 0, sum_preds = 0, sum_rules = 0, sum_optim = 0, sum_dist = 0,
         sum_migr = 0, log_space = 0;
  size_t solved = 0, migrate_failures = 0;

  SessionOptions options;
  options.default_budget_seconds = 300;
  for (const Benchmark& b : AllBenchmarks()) {
    auto example = MakeExample(b, b.example_seed, b.example_scale);
    if (!example.ok()) {
      table.PrintRow({b.name, "-", "-", "-", "example-gen failed", "-", "-", "-", "-"});
      continue;
    }
    auto session = Session::Create(b.source, b.target, options);
    if (!session.ok()) {
      table.PrintRow({b.name, "-", "-", "-", session.status().ToString(), "-", "-", "-", "-"});
      continue;
    }
    auto result = session->Synthesize(*example);
    if (!result.ok()) {
      table.PrintRow({b.name, std::to_string(example->input.roots.size()),
                      std::to_string(example->output.roots.size()), "-",
                      result.status().ToString(), "-", "-", "-", "-"});
      continue;
    }
    ++solved;

    // Quality metrics vs the golden program.
    Program golden_simplified = SimplifyProgram(b.golden);
    size_t optim_rules = 0;
    int dist = 0;
    size_t body_preds = 0;
    for (const Rule& rule : result->program.rules) {
      body_preds += rule.body.size();
      // Match against the golden rule with the same head relation.
      const Rule* golden_rule = nullptr;
      for (const Rule& g : golden_simplified.rules) {
        if (!g.heads.empty() && !rule.heads.empty() &&
            g.heads[0].relation == rule.heads[0].relation) {
          golden_rule = &g;
        }
      }
      if (golden_rule != nullptr) {
        if (rule.body.size() == golden_rule->body.size() &&
            RuleIsomorphic(rule, *golden_rule)) {
          ++optim_rules;
        }
        dist += DistanceToOptimal(rule, *golden_rule);
      }
    }

    // Migration at scale.
    double migrate_seconds = 0;
    bool migrated = false;
    {
      auto source = GenerateSource(b, /*seed=*/123, migration_scale);
      if (source.ok()) {
        Timer timer;
        migrated = session->Migrate(result->program, *source).ok();
        if (migrated) migrate_seconds = timer.ElapsedSeconds();
      }
    }
    if (!migrated) ++migrate_failures;

    size_t n_rules = result->program.rules.size();
    double preds_per_rule = static_cast<double>(body_preds) / static_cast<double>(n_rules);
    table.PrintRow(
        {b.name, std::to_string(example->input.roots.size()),
         std::to_string(example->output.roots.size()), bench::FmtSci(result->search_space),
         bench::Fmt("%.2f", 1e3 * result->seconds), std::to_string(n_rules),
         bench::Fmt("%.1f", preds_per_rule), std::to_string(optim_rules),
         bench::Fmt("%.2f", static_cast<double>(dist) / static_cast<double>(n_rules)),
         migrated ? bench::Fmt("%.2f", 1e3 * migrate_seconds) : "fail"});

    sum_synth += result->seconds;
    sum_rules += static_cast<double>(n_rules);
    sum_preds += preds_per_rule;
    sum_optim += static_cast<double>(optim_rules);
    sum_dist += static_cast<double>(dist) / static_cast<double>(n_rules);
    sum_migr += migrate_seconds;
    log_space += std::log10(result->search_space);
  }

  if (solved > 0) {
    double n = static_cast<double>(solved);
    table.PrintRow({"Average", "-", "-", "1e" + bench::Fmt("%.0f", log_space / n),
                    bench::Fmt("%.2f", 1e3 * sum_synth / n), bench::Fmt("%.1f", sum_rules / n),
                    bench::Fmt("%.1f", sum_preds / n), bench::Fmt("%.1f", sum_optim / n),
                    bench::Fmt("%.2f", sum_dist / n), bench::Fmt("%.2f", 1e3 * sum_migr / n)});
  }
  std::printf("\nSolved %zu / %zu benchmarks.\n", solved, AllBenchmarks().size());
  if (migrate_failures > 0) std::printf("Migration failed on %zu.\n", migrate_failures);
  std::printf("Paper reference: 28/28 solved, avg synthesis 7.3s, avg search space "
              "5.1e39,\navg 8.0 rules, 2.5 preds/rule, 5.8 optimal rules, dist 0.79.\n");
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // Linux reports ru_maxrss in KiB.
    std::printf("Peak RSS: %.1f MB\n", static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  return solved == AllBenchmarks().size() && migrate_failures == 0 ? 0 : 1;
}
