// perfbench — the repository benchmark.
//
// Runs one named workload over the 28 migration scenarios of Table 3
// (workload::AllBenchmarks()) through the public Session API, checks every
// output against a reference the measured run does not compute, and prints
// one JSON result line last:
//
//   table3             Session::Synthesize on each scenario's curated
//                      example, then Session::Migrate of a generated source
//                      instance (~250 primary entities) with the program.
//   migrate-large-seq  Session::Migrate of the 28 golden programs on
//                      ~5,000-entity instances; no synthesis, no solver.
//
// Both run at num_threads = 1 (the default Session), so every Session call
// runs on the calling thread. Calls are timed in process CPU time, which
// equals wall time on an idle host but leaves out the time a shared host
// gives the CPU to someone else, and every time reported is scaled to a
// reference host speed by a speed probe (see SpeedProbeSeconds). After one
// call per scenario, the run makes rounds over all scenarios until
// --seconds have passed; each scenario's time is the median over the
// rounds, so a burst of load on the host lands in a few rounds of every
// scenario rather than in all samples of a few.
//
// With --trace 1 the run instead makes one Session call of each kind per
// scenario, each followed by direct calls into the layers' public functions
// (attribute mapping, sketch generation, encoding, validation, fact ingest,
// evaluation, forest build), reads deltas of metrics::Snapshot() around the
// Session calls, and reports the per-layer metrics. Nothing inside the
// library is instrumented for this.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             [--scale <n>] [--revision <text>]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/session.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/attr_map.h"
#include "synth/encode.h"
#include "synth/sketch_gen.h"
#include "util/hash.h"
#include "util/mem_budget.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "workload/benchmarks.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using dynamite::DatalogEngine;
using dynamite::Example;
using dynamite::Program;
using dynamite::RecordForest;
using dynamite::RunContext;
using dynamite::Session;
using dynamite::SessionOptions;
using dynamite::Timer;
using dynamite::workload::Benchmark;

// Set-ups per run, at least, and until kSetupSeconds have been spent;
// setup_s is their median.
constexpr size_t kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.0;
// Primary entities of the held-out instance each synthesized program must
// also migrate correctly, and of the wrong-program self-test's instance.
constexpr size_t kHeldOutScale = 100;
constexpr size_t kSelfTestScale = 30;
// Seed of table3's migration instances (see SetUp).
constexpr uint64_t kTable3InstanceSeed = 123;
// Measuring rounds after the first call per scenario: at least
// kMinRounds, then more while --seconds last, up to kMaxRounds. A round
// synthesizes again every scenario whose first synthesis took less than
// kSynthRepeatBelow seconds (all but Bike-1 and Retina-2 here), and
// migrates every scenario once.
constexpr size_t kMinRounds = 5;
constexpr size_t kMaxRounds = 200;
constexpr double kSynthRepeatBelow = 0.5;
// Per-call byte budget: large enough never to trip here, present so every
// stage charges it and util.mem_high_water_bytes has a value.
constexpr size_t kMemoryBudgetBytes = size_t{8} << 30;
// The speed probe's CPU seconds on the host every reported time is scaled
// to: about its median on a shared 4-vCPU Xeon VM (GCC 12.2, Release) when
// the benchmark was defined.
constexpr double kProbeSeconds = 0.055;

struct WorkloadSpec {
  const char* name;
  bool synthesize;  // table3: synthesize, then migrate the result
  size_t scale;     // primary entities per generated source instance
};

// Neither workload runs the thread pool, the sharded ingest or the parallel
// fixpoint: on a shared host with a few cores, several threads measure the
// host's scheduler more than the program.
constexpr WorkloadSpec kWorkloads[] = {
    {"table3", true, 250},
    {"migrate-large-seq", false, 5000},
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <table3|migrate-large-seq> "
               "--seed <n> --seconds <n> --trace <0|1> [--scale <n>] "
               "[--revision <text>]\n",
               error.c_str());
  std::exit(2);
}

// Strict unsigned parse: decimal digits only, no sign, no overflow, in
// [lo, hi]. (atoi would turn "abc" into 0.)
uint64_t ParseUnsigned(const std::string& flag, const std::string& text, uint64_t lo,
                       uint64_t hi) {
  bool digits = !text.empty() && text.size() <= 20 &&
                std::all_of(text.begin(), text.end(),
                            [](char c) { return c >= '0' && c <= '9'; });
  errno = 0;
  char* end = nullptr;
  unsigned long long v = digits ? std::strtoull(text.c_str(), &end, 10) : 0;
  if (!digits || errno != 0 || *end != '\0' || v < lo || v > hi) {
    Usage(flag + " expects an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t scale = 0;
  std::string revision = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args.spec = &w;
      }
      if (args.spec == nullptr) Usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned(flag, value, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUnsigned(flag, value, 1, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = ParseUnsigned(flag, value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--scale") {
      args.scale = ParseUnsigned(flag, value, 1, 1000000);
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      Usage("unknown argument '" + flag + "'");
    }
  }
  if (args.spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

// Per-scenario instance seeds derived from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  return dynamite::Mix64(seed ^ dynamite::Mix64(stream));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Digest of a record subtree with the equality of CanonicalForest: the
// type, the primitive attributes in any order, and each nested collection
// as a set of children. Record identifiers never enter it. Hashing values
// instead of building CanonicalForest's strings keeps the check of a
// 2.56M-record workload well under its migration time.
uint64_t NodeDigest(const dynamite::RecordNode& node) {
  std::hash<std::string> hash;
  uint64_t prims = 0;
  for (const auto& [attr, value] : node.prims) {
    prims += dynamite::Mix64(hash(attr) ^ dynamite::Mix64(value.Hash()));
  }
  uint64_t groups = 0;
  std::vector<uint64_t> kids;
  for (const auto& [attr, children] : node.children) {
    kids.clear();
    for (const dynamite::RecordNode& child : children) kids.push_back(NodeDigest(child));
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    uint64_t group = hash(attr);
    for (uint64_t k : kids) group = dynamite::Mix64(group ^ k);
    groups += dynamite::Mix64(group);
  }
  return dynamite::Mix64(hash(node.type) ^ dynamite::Mix64(prims ^ dynamite::Mix64(groups)));
}

// Digest of a target instance: its roots as a set.
uint64_t Digest(const RecordForest& forest) {
  std::vector<uint64_t> roots;
  roots.reserve(forest.roots.size());
  for (const dynamite::RecordNode& root : forest.roots) roots.push_back(NodeDigest(root));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  uint64_t h = roots.size();
  for (uint64_t r : roots) h = dynamite::Mix64(h ^ r);
  return h;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Stopwatch over the CPU time of the whole process (all threads), with the
// interface of dynamite::Timer. Every measured figure is taken with it;
// Timer (wall time) only paces the run.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}
  void Reset() { start_ = Now(); }
  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

// The speed probe: a fixed computation of the benchmark's own, built from
// the standard library only. Returns its CPU seconds (~55 ms). How fast a
// shared host runs changes by up to half within minutes, in CPU time too;
// every time the run reports is scaled by the probe (see HostSpeed). It has
// two halves:
//   - string keys made, hashed into a map, probed and sorted, which moves
//     with the host about as the migrations of migrate-large-seq do;
//   - records formatted through a string stream, some parsed back with a
//     regular expression, indexed in ordered and hashed containers and
//     sorted: much more code, which moves about as table3's many small calls
//     do.
// On a shared 4-vCPU host, scaling by either half alone left the other
// workload's figures spread by 0.12-0.16 of their median; by their sum,
// 0.02-0.03 on both workloads over 5 runs.
double SpeedProbeSeconds() {
  CpuTimer t;
  uint64_t x = 88172645463325252ull;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  size_t sink = 0;
  {
    constexpr size_t kKeys = 50000;
    std::vector<std::string> keys;
    keys.reserve(kKeys);
    for (size_t i = 0; i < kKeys; ++i) {
      keys.push_back("key-" + std::to_string(next() % (4 * kKeys)));
    }
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < keys.size(); ++i) index.emplace(keys[i], i);
    for (size_t i = 0; i < keys.size(); i += 2) sink += index.count(keys[i]);
    std::sort(keys.begin(), keys.end());
    sink += keys.front().size();
  }
  {
    constexpr size_t kRecords = 10000;
    std::vector<std::string> records;
    records.reserve(kRecords);
    for (size_t i = 0; i < kRecords; ++i) {
      std::ostringstream os;
      os << "rec-" << next() % (5 * kRecords) << ",name_" << next() % 977 << ","
         << static_cast<double>(next() % 100000) / 7.0;
      records.push_back(os.str());
    }
    static const std::regex kRecord("rec-([0-9]+),name_([0-9]+),([0-9.]+)");
    std::map<long, std::vector<std::string>> by_name;
    std::smatch match;
    for (size_t i = 0; i < records.size(); i += 8) {
      if (std::regex_match(records[i], match, kRecord)) {
        by_name[std::stol(match[2].str())].push_back(match[1].str());
      }
    }
    std::set<std::string> ordered(records.begin(), records.end());
    std::unordered_map<std::string, size_t> hashed;
    for (size_t i = 0; i < records.size(); ++i) {
      hashed.emplace(records[i].substr(0, records[i].find(',')), i);
    }
    for (size_t i = 0; i < 2 * kRecords; ++i) {
      sink += hashed.count("rec-" + std::to_string(next() % (5 * kRecords)));
    }
    std::vector<std::pair<std::string, size_t>> rows(hashed.begin(), hashed.end());
    std::sort(rows.begin(), rows.end());
    auto shorter = [](const std::string& a, const std::string& b) { return a.size() < b.size(); };
    std::stable_sort(records.begin(), records.end(), shorter);
    sink += ordered.size() + by_name.size() + rows.size() + records.front().size();
  }
  volatile size_t keep = sink;
  (void)keep;
  return t.ElapsedSeconds();
}

// One timed call: its CPU seconds and the speed probe taken last before it.
struct Sample {
  double cpu_s;
  size_t probe;
};

// The speed probes of a run. Each call is timed between two probes and its
// CPU seconds are scaled by kProbeSeconds over their mean, so it reads as
// seconds on a host where the probe takes kProbeSeconds.
class HostSpeed {
 public:
  void Probe() { probes_.push_back(SpeedProbeSeconds()); }

  // A call of `cpu_s` CPU seconds made since the latest probe.
  Sample Take(double cpu_s) const { return {cpu_s, probes_.size() - 1}; }

  double Scaled(const Sample& sample) const {
    double probe = probes_[sample.probe];
    if (sample.probe + 1 < probes_.size()) probe = 0.5 * (probe + probes_[sample.probe + 1]);
    return sample.cpu_s * kProbeSeconds / probe;
  }

  // The factor for sums over many calls (the per-layer times): kProbeSeconds
  // over the median probe.
  double Factor() const { return kProbeSeconds / Median(probes_); }

  void Print() const {
    std::printf("host speed: probe %.5f s CPU, median of %zu; times are CPU seconds scaled "
                "to a %.3f s probe\n",
                Median(probes_), probes_.size(), kProbeSeconds);
  }

 private:
  std::vector<double> probes_;
};

// ----------------------------------------------------------- scenarios ---

SessionOptions MeasuredOptions() {
  SessionOptions options;
  options.num_threads = 1;
  options.max_memory_bytes = kMemoryBudgetBytes;
  return options;
}

// The checker's own session: sequential and on the scalar probe path, so
// the reference output comes from other code than a parallel or blocked
// measured run.
SessionOptions ReferenceOptions() {
  SessionOptions options;
  options.num_threads = 1;
  options.engine.probe_block_rows = 1;
  return options;
}

// Output digest of `program` on `instance`, computed by the reference
// session.
dynamite::Result<uint64_t> ReferenceDigest(const Benchmark& b, const Program& program,
                                           const RecordForest& instance) {
  DYNAMITE_ASSIGN_OR_RETURN(Session reference,
                            Session::Create(b.source, b.target, ReferenceOptions()));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest out, reference.Migrate(program, instance));
  return Digest(out);
}

struct Scenario {
  const Benchmark* bench = nullptr;
  std::unique_ptr<Session> session;
  Example example;            // table3 only
  RecordForest instance;      // measured migration input
  RecordForest held_out;      // table3 only
  size_t instance_records = 0;
  // Reference digests (golden program through the reference session).
  uint64_t instance_digest = 0;
  uint64_t held_out_digest = 0;
  uint64_t example_digest = 0;  // the curated example's output
};

struct Workload {
  const WorkloadSpec* spec = nullptr;
  size_t scale = 0;
  std::vector<Scenario> scenarios;
};

// One set-up: generate every input and create the measured sessions.
dynamite::Status SetUp(Workload* w, uint64_t seed, double* generate_seconds) {
  const auto& all = dynamite::workload::AllBenchmarks();
  *generate_seconds = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const Benchmark& b = all[i];
    Scenario s;
    s.bench = &b;
    // table3 migrates one fixed instance per scenario: the synthesized
    // programs' extra joins make migration time swing by a quarter from
    // one instance to the next, which would drown any change in the
    // engine. The seed picks its held-out and self-test instances.
    const uint64_t instance_seed = Mix(w->spec->synthesize ? kTable3InstanceSeed : seed, 2 * i);
    CpuTimer gen;
    DYNAMITE_ASSIGN_OR_RETURN(s.instance,
                              dynamite::workload::GenerateSource(b, instance_seed, w->scale));
    *generate_seconds += gen.ElapsedSeconds();
    s.instance_records = s.instance.TotalRecords();
    if (w->spec->synthesize) {
      gen.Reset();
      DYNAMITE_ASSIGN_OR_RETURN(
          s.example.input,
          dynamite::workload::GenerateSource(b, b.example_seed, b.example_scale));
      DYNAMITE_ASSIGN_OR_RETURN(
          s.held_out,
          dynamite::workload::GenerateSource(b, Mix(seed, 2 * i + 1), kHeldOutScale));
      *generate_seconds += gen.ElapsedSeconds();
      // The curated example's output is the golden program's output on its
      // input, as in workload::MakeExample, but through a Session.
      DYNAMITE_ASSIGN_OR_RETURN(Session reference,
                                Session::Create(b.source, b.target, ReferenceOptions()));
      DYNAMITE_ASSIGN_OR_RETURN(s.example.output,
                                reference.Migrate(b.golden, s.example.input));
    }
    DYNAMITE_ASSIGN_OR_RETURN(Session session,
                              Session::Create(b.source, b.target, MeasuredOptions()));
    s.session = std::make_unique<Session>(std::move(session));
    w->scenarios.push_back(std::move(s));
  }
  return dynamite::Status::OK();
}

// Reference outputs for the checks; computed once, outside every timer.
dynamite::Status ComputeReferences(Workload* w) {
  for (Scenario& s : w->scenarios) {
    DYNAMITE_ASSIGN_OR_RETURN(s.instance_digest,
                              ReferenceDigest(*s.bench, s.bench->golden, s.instance));
    if (w->spec->synthesize) {
      DYNAMITE_ASSIGN_OR_RETURN(s.held_out_digest,
                                ReferenceDigest(*s.bench, s.bench->golden, s.held_out));
      s.example_digest = Digest(s.example.output);
    }
  }
  return dynamite::Status::OK();
}

// Outcome of one Session call. kFailed: an error, or an output that is
// wrong for the program run (the system broke its contract). kDisagrees:
// correct for the program run, but the program is not equivalent to the
// golden one (a synthesis-quality failure). Both count against ok_frac;
// only kFailed makes the run incorrect.
enum class Outcome { kOk, kDisagrees, kFailed };

const char* OutcomeName(Outcome o) {
  return o == Outcome::kOk ? "ok" : o == Outcome::kDisagrees ? "DISAGREES" : "FAILED";
}

// The check of every migration: `out` is `program` run on `instance`;
// `golden` is the golden program's output digest there. An output that
// differs from the golden one is told apart by running `program` through
// the reference session as well.
Outcome CheckMigration(const Benchmark& b, const Program& program,
                       const RecordForest& instance, uint64_t golden,
                       const dynamite::Result<RecordForest>& out, std::string* why) {
  if (!out.ok()) {
    *why = out.status().ToString();
    return Outcome::kFailed;
  }
  const uint64_t digest = Digest(*out);
  if (digest == golden) return Outcome::kOk;
  auto reference = ReferenceDigest(b, program, instance);
  if (!reference.ok() || *reference != digest) {
    *why = "output differs from the reference run of the same program";
    return Outcome::kFailed;
  }
  *why = "output differs from the golden program's";
  return Outcome::kDisagrees;
}

// The check of every synthesis: the program must reproduce the curated
// example (the synthesis contract) and agree with the golden program on a
// held-out instance the example never showed (its quality).
Outcome CheckSynthesis(const Scenario& s, const Program& program, std::string* why) {
  auto example = ReferenceDigest(*s.bench, program, s.example.input);
  if (!example.ok() || *example != s.example_digest) {
    *why = "program does not reproduce the example";
    return Outcome::kFailed;
  }
  auto held_out = ReferenceDigest(*s.bench, program, s.held_out);
  if (!held_out.ok()) {
    *why = "held-out migration failed: " + held_out.status().ToString();
    return Outcome::kFailed;
  }
  if (*held_out != s.held_out_digest) {
    *why = "program disagrees with the golden program on the held-out instance";
    return Outcome::kDisagrees;
  }
  return Outcome::kOk;
}

// Shows the output check is not vacuous: every scenario's golden program
// minus its last rule must fail the check the measured run uses. Returns
// the number of scenarios whose wrong program failed it.
size_t SelfTest(const Workload& w, uint64_t seed) {
  size_t rejected = 0;
  for (size_t i = 0; i < w.scenarios.size(); ++i) {
    const Benchmark& b = *w.scenarios[i].bench;
    auto instance = dynamite::workload::GenerateSource(b, Mix(seed, 1000 + i), kSelfTestScale);
    if (!instance.ok()) continue;
    auto golden = ReferenceDigest(b, b.golden, *instance);
    if (!golden.ok()) continue;
    Program wrong = b.golden;
    wrong.rules.pop_back();
    std::string why;
    if (CheckMigration(b, wrong, *instance, *golden,
                       w.scenarios[i].session->Migrate(wrong, *instance),
                       &why) != Outcome::kOk) {
      ++rejected;
    }
  }
  return rejected;
}

// ------------------------------------------------------ program quality ---

struct Quality {
  size_t rules = 0;
  size_t optimal_rules = 0;  // rules isomorphic to the golden rule (Table 3)
  int distance = 0;          // extra body atoms vs the golden rules (Table 3)
  size_t body_atoms = 0;
  size_t golden_body_atoms = 0;
};

Quality Assess(const Program& program, const Program& golden) {
  Program optimal = dynamite::SimplifyProgram(golden);
  Quality q;
  for (const dynamite::Rule& rule : program.rules) {
    ++q.rules;
    q.body_atoms += rule.body.size();
    const dynamite::Rule* match = nullptr;
    for (const dynamite::Rule& g : optimal.rules) {
      if (!g.heads.empty() && !rule.heads.empty() &&
          g.heads[0].relation == rule.heads[0].relation) {
        match = &g;
      }
    }
    if (match == nullptr) continue;
    q.golden_body_atoms += match->body.size();
    if (rule.body.size() == match->body.size() && dynamite::RuleIsomorphic(rule, *match)) {
      ++q.optimal_rules;
    }
    q.distance += dynamite::DistanceToOptimal(rule, *match);
  }
  return q;
}

// ---------------------------------------------------------- measuring ---

uint64_t CounterDelta(const dynamite::metrics::MetricsSnapshot& before,
                      const dynamite::metrics::MetricsSnapshot& after, const char* name) {
  return after.counter(name) - before.counter(name);
}

// One scenario's program, synthesized from its example (table3) or its
// golden program, and its Session::Synthesize calls.
struct ProgramRun {
  bool have_program = true;
  Program program;
  std::vector<Sample> synth_s;  // one per call
  size_t iterations = 0;
  uint64_t solves = 0;
  std::vector<Outcome> outcomes;  // one per call
  Outcome worst = Outcome::kOk;
  std::string why;  // of the worst call
  Quality quality;
};

// One scenario's Session::Migrate calls.
struct Migrations {
  std::vector<Sample> seconds;  // one per call
  std::vector<Outcome> outcomes;
  Outcome worst = Outcome::kOk;
  std::string why;  // of the worst call
};

void Record(Outcome outcome, const std::string& why, std::vector<Outcome>* outcomes,
            Outcome* worst, std::string* worst_why) {
  outcomes->push_back(outcome);
  if (outcome > *worst) {
    *worst = outcome;
    *worst_why = why;
  }
}

// Per-layer totals of the traced phase.
struct Layers {
  double api_synthesize_s = 0, api_migrate_s = 0;
  double attr_map_s = 0, sketch_gen_s = 0, encode_s = 0;
  uint64_t encode_vars = 0, encode_clauses = 0;
  double candidate_eval_us_sum = 0;
  size_t candidate_evals = 0;
  double validate_s = 0, ingest_s = 0, eval_s = 0, build_s = 0;
  uint64_t source_facts = 0, target_facts = 0;
  uint64_t iterations = 0;
  double log10_space_sum = 0;
  size_t synthesized = 0;
  double traced_s = 0;  // Session calls plus direct calls, checks excluded
  // Registry deltas accumulated around the Session calls only, so the
  // direct breakdown calls do not count twice.
  std::map<std::string, uint64_t> counters;

  // Scales every time by the host factor (see HostSpeed::Factor).
  void Scale(double f) {
    for (double* t : {&api_synthesize_s, &api_migrate_s, &attr_map_s, &sketch_gen_s, &encode_s,
                      &candidate_eval_us_sum, &validate_s, &ingest_s, &eval_s, &build_s,
                      &traced_s}) {
      *t *= f;
    }
  }
};

const char* const kTracedCounters[] = {
    "solver.solves",          "synth.speculative_hits", "synth.prefix_memo_hits",
    "synth.parallel_fallbacks", "engine.plan_refreshes", "engine.parallel_fallbacks",
    "ingest.parallel_chunks", "ingest.fallbacks",       "ingest.child_index_lookups",
};

void AddCounters(const dynamite::metrics::MetricsSnapshot& before,
                 const dynamite::metrics::MetricsSnapshot& after, Layers* layers) {
  for (const char* name : kTracedCounters) {
    layers->counters[name] += CounterDelta(before, after, name);
  }
}

// Times the synthesis setup stages by calling them directly with the
// options the Session uses.
void TraceSynthesisStages(const Scenario& s, const Program& program, Layers* layers) {
  const Benchmark& b = *s.bench;
  dynamite::SynthesisOptions synth;  // the Session's synthesis defaults
  CpuTimer t;
  auto psi = dynamite::InferAttrMapping(b.source, b.target, s.example);
  layers->attr_map_s += t.ElapsedSeconds();
  if (!psi.ok()) return;
  dynamite::SketchGenOptions gen;
  gen.enable_filtering = synth.enable_filtering;
  gen.max_constants_per_hole = synth.max_constants_per_hole;
  t.Reset();
  auto sketches = dynamite::SketchGen(
      *psi, b.source, b.target, dynamite::AttributeValueSets(s.example.output, b.target), gen);
  layers->sketch_gen_s += t.ElapsedSeconds();
  if (!sketches.ok()) return;
  for (const dynamite::RuleSketch& sketch : *sketches) {
    dynamite::FdSolver solver;
    t.Reset();
    auto encoding = dynamite::EncodeSketch(sketch, &solver);
    layers->encode_s += t.ElapsedSeconds();
    layers->encode_vars += solver.NumVars();
    layers->encode_clauses += solver.num_clauses();
  }
  // One evaluation of the synthesized program on the example's facts, on
  // an engine configured like the synthesis stage's candidate engine.
  uint64_t next_id = 1;
  auto edb = dynamite::ToFacts(s.example.input, b.source, &next_id);
  if (!edb.ok()) return;
  DatalogEngine::Options eval;
  eval.timeout_seconds = synth.eval_timeout_seconds;
  eval.max_derived_tuples = synth.eval_max_tuples;
  eval.num_threads = 1;
  DatalogEngine engine(eval);
  auto signatures = dynamite::FactSignatures(b.target);
  t.Reset();
  auto derived = engine.Eval(program, *edb, signatures);
  layers->candidate_eval_us_sum += t.ElapsedSeconds() * 1e6;
  ++layers->candidate_evals;
}

// Times the migration stages by calling them directly: validation, fact
// ingest, evaluation and forest build, under a memory budget like the
// Session's.
void TraceMigrationStages(const Scenario& s, const Program& program, DatalogEngine* engine,
                          Layers* layers) {
  const Benchmark& b = *s.bench;
  dynamite::MemoryBudget budget(kMemoryBudgetBytes);
  dynamite::MemoryBudgetScope scope(&budget);
  RunContext ctx;
  ctx.memory = &budget;
  CpuTimer t;
  dynamite::Status valid = dynamite::ValidateForest(s.instance, b.source);
  layers->validate_s += t.ElapsedSeconds();
  if (!valid.ok()) return;
  uint64_t next_id = 1;
  t.Reset();
  auto edb = dynamite::ToFacts(s.instance, b.source, &next_id, &ctx);
  layers->ingest_s += t.ElapsedSeconds();
  if (!edb.ok()) return;
  layers->source_facts += edb->TotalFacts();
  t.Reset();
  auto idb = engine->Eval(program, *edb, dynamite::FactSignatures(b.target), &ctx);
  layers->eval_s += t.ElapsedSeconds();
  if (!idb.ok()) return;
  layers->target_facts += idb->TotalFacts();
  t.Reset();
  auto forest = dynamite::BuildForest(*idb, b.target, &ctx);
  layers->build_s += t.ElapsedSeconds();
}

// One checked Session::Synthesize call of scenario `s`. The first call's
// program is the one the scenario migrates. With `layers`, the call's
// stages are also timed by direct calls.
void SynthesizeOnce(const Scenario& s, const HostSpeed& speed, ProgramRun* run,
                    Layers* layers) {
  const bool first = run->outcomes.empty();
  auto before = dynamite::metrics::Snapshot();
  CpuTimer t;
  auto result = s.session->Synthesize(s.example);
  run->synth_s.push_back(speed.Take(t.ElapsedSeconds()));
  auto after = dynamite::metrics::Snapshot();
  run->solves = CounterDelta(before, after, "solver.solves");
  std::string why;
  Outcome outcome = Outcome::kFailed;
  if (!result.ok()) {
    if (first) run->have_program = false;
    why = result.status().ToString();
  } else {
    if (first) run->program = result->program;
    run->iterations = result->iterations;
    outcome = CheckSynthesis(s, result->program, &why);
  }
  Record(outcome, why, &run->outcomes, &run->worst, &run->why);
  if (layers != nullptr) {
    layers->api_synthesize_s += run->synth_s.back().cpu_s;
    layers->traced_s += run->synth_s.back().cpu_s;
    AddCounters(before, after, layers);
    if (result.ok()) {
      layers->iterations += result->iterations;
      layers->log10_space_sum += std::log10(result->search_space);
      ++layers->synthesized;
      CpuTimer direct;
      TraceSynthesisStages(s, result->program, layers);
      layers->traced_s += direct.ElapsedSeconds();
    }
  }
}

// One checked Session::Migrate call of scenario `s` with its program. With
// `engine` and `layers`, the call's stages are also timed by direct calls.
void MigrateOnce(const Scenario& s, const ProgramRun& program, const HostSpeed& speed,
                 Migrations* m, DatalogEngine* engine, Layers* layers) {
  auto before = dynamite::metrics::Snapshot();
  CpuTimer t;
  auto out = s.session->Migrate(program.program, s.instance);
  m->seconds.push_back(speed.Take(t.ElapsedSeconds()));
  auto after = dynamite::metrics::Snapshot();
  std::string why;
  Outcome outcome =
      CheckMigration(*s.bench, program.program, s.instance, s.instance_digest, out, &why);
  Record(outcome, why, &m->outcomes, &m->worst, &m->why);
  if (layers != nullptr) {
    layers->api_migrate_s += m->seconds.back().cpu_s;
    layers->traced_s += m->seconds.back().cpu_s;
    AddCounters(before, after, layers);
    CpuTimer direct;
    TraceMigrationStages(s, program.program, engine, layers);
    layers->traced_s += direct.ElapsedSeconds();
  }
}

// The first call per scenario: its program (synthesized on table3, else
// the golden one) and, when it has one, its first migration. The speed
// probe runs before each scenario and once after the last.
void FirstCalls(const Workload& w, HostSpeed* speed, std::vector<ProgramRun>* programs,
                std::vector<Migrations>* migrations, std::vector<DatalogEngine>* engines,
                Layers* layers) {
  for (size_t i = 0; i < w.scenarios.size(); ++i) {
    const Scenario& s = w.scenarios[i];
    speed->Probe();
    ProgramRun run;
    run.program = s.bench->golden;
    if (w.spec->synthesize) SynthesizeOnce(s, *speed, &run, layers);
    if (run.have_program) run.quality = Assess(run.program, s.bench->golden);
    Migrations m;
    if (run.have_program) {
      MigrateOnce(s, run, *speed, &m, engines == nullptr ? nullptr : &(*engines)[i], layers);
    } else {
      Record(Outcome::kFailed, "no program", &m.outcomes, &m.worst, &m.why);
    }
    programs->push_back(std::move(run));
    migrations->push_back(std::move(m));
  }
  speed->Probe();
}

// The measuring rounds: each synthesizes again every quick scenario and
// migrates every scenario with a program once, then runs the speed probe,
// round after round, while kMinRounds, kMaxRounds and `seconds` allow.
void Rounds(const Workload& w, double seconds, HostSpeed* speed,
            std::vector<ProgramRun>* programs, std::vector<Migrations>* migrations) {
  Timer pacing;
  for (size_t round = 0;
       round < kMaxRounds && (round < kMinRounds || pacing.ElapsedSeconds() < seconds);
       ++round) {
    for (size_t i = 0; i < w.scenarios.size(); ++i) {
      const Scenario& s = w.scenarios[i];
      ProgramRun& run = (*programs)[i];
      if (!run.have_program) continue;
      if (w.spec->synthesize && run.synth_s.front().cpu_s < kSynthRepeatBelow) {
        SynthesizeOnce(s, *speed, &run, nullptr);
      }
      MigrateOnce(s, run, *speed, &(*migrations)[i], nullptr, nullptr);
    }
    speed->Probe();
  }
}

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// The run's results: each scenario's program and migrations.
struct RunResult {
  std::vector<ProgramRun> programs;
  std::vector<Migrations> migrations;
  std::vector<double> synth_s;    // per scenario: median synthesis seconds
  std::vector<double> migrate_s;  // per scenario: median migration seconds
  size_t attempted = 0, failed = 0, disagreed = 0;  // Session calls
  // Syntheses and migrations, one of each per scenario (one per scenario
  // on the migration workloads), and how many had every call ok. Unlike
  // the call counts these do not depend on how many calls fit the time.
  size_t stages = 0, stages_ok = 0;
  // Peak resident set once set-up and the first call per scenario are done.
  // Later rounds add to it in proportion to their number (see README), which
  // depends on the host's speed.
  double peak_rss_mb = 0;

  // Counts the outcomes and takes each scenario's median scaled times.
  void Summarize(const HostSpeed& speed) {
    auto median = [&speed](const std::vector<Sample>& samples) {
      std::vector<double> scaled;
      for (const Sample& sample : samples) scaled.push_back(speed.Scaled(sample));
      return Median(scaled);
    };
    auto count = [this](Outcome o) {
      ++attempted;
      if (o == Outcome::kFailed) ++failed;
      if (o == Outcome::kDisagrees) ++disagreed;
    };
    for (const ProgramRun& p : programs) {
      for (Outcome o : p.outcomes) count(o);
      synth_s.push_back(median(p.synth_s));
      if (!p.outcomes.empty()) {
        ++stages;
        if (p.worst == Outcome::kOk) ++stages_ok;
      }
    }
    for (const Migrations& m : migrations) {
      for (Outcome o : m.outcomes) count(o);
      ++stages;
      if (m.worst == Outcome::kOk) ++stages_ok;
      migrate_s.push_back(median(m.seconds));
    }
  }
};

// One row per scenario with the Table 3 columns, then the Table 3 averages.
void PrintTable(const Workload& w, const RunResult& run) {
  std::printf("%-12s %10s %10s %8s %10s %7s %5s %4s %7s  %s\n", "scenario", "synth_s",
              "iterations", "solves", "migrate_s", "optimal", "rules", "dist", "calls",
              "outcome");
  double synth_total = 0, optimal = 0, dist_per_rule = 0;
  for (size_t i = 0; i < w.scenarios.size(); ++i) {
    const ProgramRun& p = run.programs[i];
    const Migrations& m = run.migrations[i];
    const bool migration_worse = m.worst > p.worst;
    const Outcome outcome = migration_worse ? m.worst : p.worst;
    const std::string& why = migration_worse ? m.why : p.why;
    const std::string calls = std::to_string(p.outcomes.size()) + "+" +
                              std::to_string(m.outcomes.size());
    std::printf("%-12s %10.4f %10zu %8" PRIu64 " %10.4f %7zu %5zu %4d %7s  %s%s%s\n",
                w.scenarios[i].bench->name.c_str(), run.synth_s[i], p.iterations, p.solves,
                run.migrate_s[i], p.quality.optimal_rules, p.quality.rules, p.quality.distance,
                calls.c_str(), OutcomeName(outcome), outcome == Outcome::kOk ? "" : ": ",
                why.c_str());
    synth_total += run.synth_s[i];
    optimal += static_cast<double>(p.quality.optimal_rules);
    if (p.quality.rules > 0) {
      dist_per_rule +=
          static_cast<double>(p.quality.distance) / static_cast<double>(p.quality.rules);
    }
  }
  const double n = static_cast<double>(w.scenarios.size());
  std::printf("calls: attempted=%zu failed=%zu disagreed=%zu; all calls ok in %zu of %zu "
              "syntheses and migrations\n",
              run.attempted, run.failed, run.disagreed, run.stages_ok, run.stages);
  if (w.spec->synthesize) {
    std::printf("synth_total_s=%.4f s  synth_p50_s=%.6f s (of %zu scenarios)  "
                "optimal_rules_mean=%.3f rules  dist_to_optimal_mean=%.3f atoms/rule\n",
                synth_total, Median(run.synth_s), w.scenarios.size(), optimal / n,
                dist_per_rule / n);
  }
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const RunResult& run,
                                    double setup_s) {
  // Scenario figures are combined by geometric means: every scenario
  // weighs the same, so no single call decides them. Bike-1's synthesis,
  // one call of about half a minute, would otherwise be most of any sum,
  // and its time follows the host's load over that half minute. A scenario
  // without a program (failed synthesis) has no migration time and stays
  // out of the geometric means; ok_frac counts it.
  double log_scenario_s = 0, log_records_per_s = 0, migrated = 0;
  Quality q;
  for (size_t i = 0; i < w.scenarios.size(); ++i) {
    const ProgramRun& p = run.programs[i];
    if (p.have_program) {
      migrated += 1;
      log_scenario_s += std::log(run.synth_s[i] + run.migrate_s[i]);
      log_records_per_s +=
          std::log(static_cast<double>(w.scenarios[i].instance_records) / run.migrate_s[i]);
    }
    q.optimal_rules += p.quality.optimal_rules;
    q.body_atoms += p.quality.body_atoms;
    q.golden_body_atoms += p.quality.golden_body_atoms;
  }
  const double n = static_cast<double>(w.scenarios.size());
  return {
      {"setup_s", setup_s, "s"},
      {"scenario_geomean_s", migrated > 0 ? std::exp(log_scenario_s / migrated) : 0, "s"},
      {"migrate_records_per_s", migrated > 0 ? std::exp(log_records_per_s / migrated) : 0,
       "records/s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"ok_frac", static_cast<double>(run.stages_ok) / static_cast<double>(run.stages),
       "fraction"},
      {"optimal_rules_mean", static_cast<double>(q.optimal_rules) / n, "rules"},
      {"body_atoms_vs_optimal",
       static_cast<double>(q.body_atoms) / static_cast<double>(q.golden_body_atoms),
       "ratio"},
  };
}

std::vector<Metric> LayerMetrics(Layers& layers, double generate_s, double overhead_s,
                                 const dynamite::metrics::MetricsSnapshot& start,
                                 const dynamite::metrics::MetricsSnapshot& end) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto counter = [&](const char* name) {
    return static_cast<double>(layers.counters[name]);
  };
  auto run_counter = [&](const char* name) {
    return static_cast<double>(CounterDelta(start, end, name));
  };
  const double iterations = static_cast<double>(layers.iterations);
  const double search_s = std::max(
      0.0, layers.api_synthesize_s - layers.attr_map_s - layers.sketch_gen_s - layers.encode_s);
  return {
      {"api.synthesize_s", layers.api_synthesize_s, "s"},
      {"api.migrate_s", layers.api_migrate_s, "s"},
      {"synth.search_s", search_s, "s"},
      {"synth.iterations", iterations, "count"},
      {"synth.iterations_per_s", ratio(iterations, search_s), "1/s"},
      {"synth.speculative_hits", counter("synth.speculative_hits"), "count"},
      {"synth.speculative_hit_rate", ratio(counter("synth.speculative_hits"), iterations),
       "ratio"},
      {"synth.prefix_memo_hits", counter("synth.prefix_memo_hits"), "count"},
      {"synth.parallel_fallbacks", counter("synth.parallel_fallbacks"), "count"},
      {"solver.solves", counter("solver.solves"), "count"},
      {"solver.encode_vars", static_cast<double>(layers.encode_vars), "count"},
      {"solver.encode_clauses", static_cast<double>(layers.encode_clauses), "count"},
      {"synth.attr_map_s", layers.attr_map_s, "s"},
      {"synth.sketch_gen_s", layers.sketch_gen_s, "s"},
      {"synth.encode_s", layers.encode_s, "s"},
      {"synth.search_space_log10",
       ratio(layers.log10_space_sum, static_cast<double>(layers.synthesized)), "log10"},
      {"datalog.candidate_eval_us",
       ratio(layers.candidate_eval_us_sum, static_cast<double>(layers.candidate_evals)),
       "us"},
      {"datalog.eval_s", layers.eval_s, "s"},
      {"datalog.target_facts", static_cast<double>(layers.target_facts), "count"},
      {"datalog.plan_refreshes", counter("engine.plan_refreshes"), "count"},
      {"datalog.parallel_fallbacks", counter("engine.parallel_fallbacks"), "count"},
      {"instance.validate_s", layers.validate_s, "s"},
      {"migrate.ingest_s", layers.ingest_s, "s"},
      {"migrate.ingest_self_s", std::max(0.0, layers.ingest_s - layers.validate_s), "s"},
      {"migrate.build_s", layers.build_s, "s"},
      {"migrate.source_facts", static_cast<double>(layers.source_facts), "count"},
      {"migrate.parallel_chunks", counter("ingest.parallel_chunks"), "count"},
      {"migrate.ingest_fallbacks", counter("ingest.fallbacks"), "count"},
      {"migrate.child_index_lookups", counter("ingest.child_index_lookups"), "count"},
      {"value.interned_strings", run_counter("string_pool.interned_strings"), "count"},
      {"value.interned_bytes", run_counter("string_pool.interned_bytes"), "bytes"},
      {"util.mem_high_water_bytes",
       static_cast<double>(end.gauge("mem.budget_high_water_bytes")), "bytes"},
      {"workload.generate_s", generate_s, "s"},
      {"bench.trace_overhead_s", overhead_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Workload w;
  w.spec = args.spec;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  w.scale = args.scale != 0 ? args.scale : w.spec->scale;
  std::printf("host: nproc=%zu threads=1 build=%s compiler=\"%s\" revision=%s\n", nproc,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, args.revision.c_str());
  std::printf("workload: %s seed=%" PRIu64 " scale=%zu seconds=%g trace=%d\n", w.spec->name,
              args.seed, w.scale, args.seconds, args.trace ? 1 : 0);
  const auto start_metrics = dynamite::metrics::Snapshot();

  // Set up several times; keep the last. The previous set-up is freed
  // first so peak memory holds one copy of the inputs. Each set-up is
  // followed by a speed probe, and its times are scaled by that probe.
  std::vector<double> setup_s, generate_s;
  Timer setting_up;
  while (setup_s.size() < kSetupRepeats || setting_up.ElapsedSeconds() < kSetupSeconds) {
    w.scenarios.clear();
    double gen = 0;
    CpuTimer t;
    dynamite::Status st = SetUp(&w, args.seed, &gen);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double cpu_s = t.ElapsedSeconds();
    const double scale = kProbeSeconds / SpeedProbeSeconds();
    setup_s.push_back(scale * cpu_s);
    generate_s.push_back(scale * gen);
  }
  Timer checks;
  dynamite::Status st = ComputeReferences(&w);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: reference migration failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t n = w.scenarios.size();
  const size_t self_test_rejected = SelfTest(w, args.seed);
  std::printf("setup: %.4f s scaled, median of %zu; references and self-test: %.3f s\n",
              Median(setup_s), setup_s.size(), checks.ElapsedSeconds());
  std::printf("self-test: wrong programs (golden minus one rule) rejected %zu / %zu\n",
              self_test_rejected, n);

  HostSpeed speed;
  if (!args.trace) {
    // One call of each kind per scenario, then the measuring rounds, whose
    // number scales with --seconds.
    RunResult run;
    FirstCalls(w, &speed, &run.programs, &run.migrations, nullptr, nullptr);
    run.peak_rss_mb = PeakRssMb();
    Rounds(w, args.seconds, &speed, &run.programs, &run.migrations);
    speed.Print();
    run.Summarize(speed);
    PrintTable(w, run);
    PrintResult(run.failed == 0 && self_test_rejected == n, run.attempted, run.failed,
                EndToEndMetrics(w, run, Median(setup_s)));
    return 0;
  }

  // Traced run: one Session call of each kind per scenario, each followed by
  // the direct per-layer calls. The overhead those add is the traced time
  // beyond the Session calls.
  DatalogEngine::Options engine = MeasuredOptions().engine;
  engine.num_threads = 1;  // as Session applies num_threads
  std::vector<DatalogEngine> engines;  // one per scenario, like the sessions'
  for (size_t i = 0; i < n; ++i) engines.emplace_back(engine);
  Layers layers;
  RunResult traced;
  FirstCalls(w, &speed, &traced.programs, &traced.migrations, &engines, &layers);
  speed.Print();
  traced.Summarize(speed);
  layers.Scale(speed.Factor());
  PrintTable(w, traced);
  const auto end_metrics = dynamite::metrics::Snapshot();
  PrintResult(traced.failed == 0 && self_test_rejected == n, traced.attempted, traced.failed,
              LayerMetrics(layers, Median(generate_s),
                           layers.traced_s - layers.api_synthesize_s - layers.api_migrate_s,
                           start_metrics, end_metrics));
  return 0;
}
