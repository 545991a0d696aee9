#!/usr/bin/env python3
"""Builds and runs the txml end-to-end benchmark.

    python3 perfbench/run.py --workload query_mix|ingest|mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The txml libraries are built from
src/ in the shipping configuration (default build type, lock-rank checker
and failpoints off) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); outputs go to .bench_out/. The last line of
standard output is the result JSON of the benchmark program
(perfbench/src/main.cc); build logs go to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The first run builds; every run after it must end within 180 s.
RUN_TIMEOUT_S = 170


def digest(paths):
    """sha256 over the relative names and contents of every file under paths."""
    h = hashlib.sha256()
    for base in paths:
        for f in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "txml_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "txml_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query_mix", "ingest", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"txml sources not found under {ROOT}/src", file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir),
               "--git-sha", git_sha(),
               "--src-digest", digest([ROOT / "src", BENCH_DIR / "src"])]
    started = time.monotonic()
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    print(f"run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
