#!/usr/bin/env python3
"""frlbench entry point.

Builds the benchmark (and the frlfi library under it) from source into
.bench_build/, runs one workload, writes the run's record to
.bench_build/records/, and prints the result as the last stdout line:

    python3 frlbench/run.py --workload grid_train --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--smoke runs one system for three ops (used by test_smoke.py).
Exits non-zero without printing a result when the build or a run fails.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
RECORDS = ROOT / ".bench_build" / "records"
BINARY = BUILD / "frlbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"frlbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no frlfi sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    out = json.loads(lines[-1])

    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    record = dict(out["record"])
    record.update(commit=commit(), source_sha256=source_digest(),
                  nproc=os.cpu_count(), argv=sys.argv[1:],
                  utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
                  result=result)
    RECORDS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    name = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RECORDS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
