#!/usr/bin/env python3
"""CI speedup gate: assert a parallel benchmark arm beats its sequential arm.

One script for the two parallel gates (fixpoint, synthesis) that used to
live as near-identical heredocs in ci.yml. Protocol, shared by all
callers:

  * The benchmark binary is run with --benchmark_repetitions=N and its JSON
    (DYNAMITE_BENCH_JSON) is handed to this script.
  * Per arm we take the BEST (minimum) wall_ms across repetitions -- min is
    robust to descheduling spikes on shared CI vCPUs, where mean/median are
    not. Aggregate rows (_mean/_median/_stddev/_cv) are ignored.
  * The gate asserts best(seq)/best(par) >= --min-ratio, but only on
    machines with at least --min-cores cores (default 4): below that the
    ratio measures oversubscription, not scaling, so the script prints the
    numbers and exits 0.

Exit status: 0 on pass or skip, 1 on a failed ratio or missing benchmark.
"""

import argparse
import json
import os
import sys

# google-benchmark emits one row per repetition plus these synthetic
# aggregate rows; only the raw repetitions participate in best-of-N.
AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv")


def best_of(benchmarks, name):
    """Minimum wall_ms across repetitions of `name`, or None if absent."""
    best = None
    for b in benchmarks:
        if b["name"] != name:
            continue
        if best is None or b["wall_ms"] < best:
            best = b["wall_ms"]
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", required=True,
                        help="benchmark JSON file (DYNAMITE_BENCH_JSON output)")
    parser.add_argument("--seq", required=True,
                        help="benchmark name of the sequential arm")
    parser.add_argument("--par", required=True,
                        help="benchmark name of the parallel arm")
    parser.add_argument("--min-ratio", type=float, required=True,
                        help="required seq/par speedup on a capable machine")
    parser.add_argument("--min-cores", type=int, default=4,
                        help="skip (exit 0) on machines with fewer cores")
    parser.add_argument("--label", default=None,
                        help="human label for log lines (default: --par)")
    args = parser.parse_args(argv)

    label = args.label or args.par
    with open(args.json) as f:
        doc = json.load(f)
    benchmarks = [b for b in doc["benchmarks"]
                  if not b["name"].endswith(AGGREGATE_SUFFIXES)]

    seq = best_of(benchmarks, args.seq)
    par = best_of(benchmarks, args.par)
    if seq is None or par is None:
        missing = [n for n, v in ((args.seq, seq), (args.par, par)) if v is None]
        print(f"{label}: missing benchmark(s) {missing} in {args.json}",
              file=sys.stderr)
        return 1

    cores = os.cpu_count() or 1
    ratio = seq / par
    print(f"{label} best-of-N: seq {seq:.3f}ms par {par:.3f}ms "
          f"speedup {ratio:.2f}x ({cores} cores)")
    if cores < args.min_cores:
        print(f"fewer than {args.min_cores} cores: gate skipped")
        return 0
    if ratio < args.min_ratio:
        print(f"{label}: speedup {ratio:.2f}x below required "
              f"{args.min_ratio:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
