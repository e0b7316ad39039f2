#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <table3|migrate-large-seq> \
        --seed <n> --seconds <n> --trace <0|1> [--scale <n>]

The first run configures and builds the dynamite library and the harness in
Release mode under the directory named by CARGO_TARGET_DIR (default
`.bench_build`), relative to the checkout root; later runs rebuild
incrementally. Build output goes to stderr. The harness's output is passed
through unchanged: per-scenario rows, then one JSON result line last.

Exits 2 on a malformed argument and 1 when the checkout holds no library
sources, the build fails or the harness fails; no result line is printed
then.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table3", "migrate-large-seq")
HARNESS_TIMEOUT_S = 170


def unsigned(lo, hi):
    """argparse type: a decimal integer in [lo, hi], digits only."""

    def parse(text):
        if not (text.isascii() and text.isdigit()) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [{lo}, {hi}], got {text!r}")
        return text

    return parse


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=unsigned(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=unsigned(1, 3600))
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=unsigned(1, 1_000_000),
                        help="primary entities per instance (default: the workload's)")
    return parser.parse_args()


def revision(root):
    """The git revision, or a digest of the library sources outside git."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(root, build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return build_dir / "perfbench"


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"perfbench: no dynamite sources (CMakeLists.txt, src/) under {root}",
              file=sys.stderr)
        return 1
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--revision", revision(root)]
    if args.scale is not None:
        command += ["--scale", args.scale]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=root, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return 1 if result.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
