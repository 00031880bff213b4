#!/usr/bin/env python3
"""Build and run the ibpower benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_grid --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --regen-digests

The first form builds the benchmark (perfbench/CMakeLists.txt, which compiles
the simulator from ../src) into $CARGO_TARGET_DIR/ibpower_perfbench, or
.bench_build/ibpower_perfbench when that variable is unset, then runs one
workload. The program's last stdout line is the JSON result. Build output goes
to stderr. The second form rewrites perfbench/digests.txt from serial
reference runs; do that only when a change is meant to alter simulated
results.
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
DIGESTS = BENCH_DIR / "digests.txt"
WORKLOADS = ("paper_grid", "policy_sweep", "fabric_replay")
PINNED_SEEDS = (42, 1009)  # the default seed and one held out
RUN_TIMEOUT_S = 170
# Set-up differs from process to process but hardly within one, so setup_s
# is the median over this many set-up-only launches plus the measuring one.
SETUP_LAUNCHES = 6


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "ibpower_perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "ibpower_perfbench"


def source_sha256():
    """Digest of every source the benchmark is built from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "bench" / "bench_common.hpp")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def workdir():
    d = build_dir() / "work"
    d.mkdir(parents=True, exist_ok=True)
    return d


def run_bench(binary, args, timeout=RUN_TIMEOUT_S, stderr=None):
    """Runs the benchmark binary to completion; returns (returncode, stdout)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark exceeded {timeout} s")
    return proc.returncode, out


def regen_digests(binary):
    lines = ["# Expected result digests: workload size seed index fnv1a64.",
             "# Written by `python3 perfbench/run.py --regen-digests` from a",
             "# serial run (1 worker, 1 shard)."]
    for w in WORKLOADS:
        for size in ("full", "tiny"):
            for seed in PINNED_SEEDS:
                rc, out = run_bench(binary, [
                    "--print-reference", "--workload", w, "--seed", str(seed),
                    "--size", size, "--workdir", str(workdir())], timeout=600)
                if rc:
                    fail(f"reference run failed for {w} {size} {seed}")
                lines.extend(out.strip().splitlines())
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true")
    a = ap.parse_args()

    if not a.regen_digests and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    if a.regen_digests:
        regen_digests(binary)
        return 0
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--workdir", str(workdir())]
    samples = []
    for _ in range(SETUP_LAUNCHES):
        rc, out = run_bench(binary, common + [
            "--setup-only", "--launch-ns", str(time.monotonic_ns())])
        if rc:
            fail("set-up launch failed")
        samples.append(out.split()[-1])
    rc, out = run_bench(binary, common + [
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--digests", str(DIGESTS), "--git-sha", git_sha(),
        "--source-sha", source_sha256(), "--setup-samples", ",".join(samples),
        "--launch-ns", str(time.monotonic_ns())])
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
