#!/usr/bin/env python3
"""Self-tests of the ibpower benchmark.

Run from the repository root:  python3 perfbench/selftest.py

Each workload runs at --size tiny. The checks: every metric named in
BENCHMARK.json is emitted with its unit; the pinned digests match on both
pinned seeds; the traced run's span tree is well formed and its file holds
the closure rows and metrics; a corrupted expected digest makes the run
report failures, also on a seed that has no pinned digests; and run.py exits non-zero without a result when the
simulator sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run_tiny(workload, seed, trace, digests=bench.DIGESTS, stderr=None):
    rc, out = bench.run_bench(bench.BINARY, [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
        "--trace", str(trace), "--size", "tiny", "--digests", str(digests),
        "--workdir", str(bench.workdir())], stderr=stderr)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if rc == 0 and lines else None
    return rc, lines, result


def metrics_match(result, defs):
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return got == want and all(
        isinstance(v.get("value"), (int, float)) for v in result["metrics"].values())


def spans_well_formed(path):
    doc = json.loads(Path(path).read_text())
    spans = doc["spans"]
    for i, s in enumerate(spans):
        if s["id"] != i or s["end_ns"] < s["start_ns"]:
            return False, f"span {i}: bad id or negative duration"
        if s["parent"] >= 0:
            if s["parent"] >= len(spans):
                return False, f"span {i}: missing parent"
            p = spans[s["parent"]]
            if p["pass"] != s["pass"]:
                return False, f"span {i}: parent in another pass"
            if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                return False, f"span {i} ({s['name']}) outside parent {p['name']}"
    for key in ("provenance", "closure", "layer_self_ms", "metrics",
                "tracing_overhead_ms"):
        if key not in doc:
            return False, f"missing {key}"
    if not spans or not doc["closure"]:
        return False, "no spans or no closure rows"
    names = {d["name"] for d in SPEC["per_layer"]}
    if set(doc["metrics"]) != names:
        return False, "metrics block differs from BENCHMARK.json per_layer"
    return True, ""


def corrupted_digests(workload):
    """A copy of the pinned digests with the first tiny/42 digest of
    `workload` flipped."""
    lines = bench.DIGESTS.read_text().splitlines()
    for i, line in enumerate(lines):
        f = line.split()
        if f[:4] == [workload, "tiny", "42", "0"]:
            f[4] = "%016x" % (int(f[4], 16) ^ 1)
            lines[i] = " ".join(f)
            break
    path = bench.workdir() / f"corrupted-{workload}.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def check_missing_sources():
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero."""
    root = bench.build_dir() / "selftest-nosrc"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", root)
    for p in SPEC["paths"]:
        shutil.copytree(bench.ROOT / p, root / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(root, ignore_errors=True)
    check(r.returncode != 0 and r.stdout.strip() == "",
          "no simulator sources: non-zero exit and no result")


def main():
    bench.BINARY = bench.build()
    for w in (x["name"] for x in SPEC["workloads"]):
        for seed in bench.PINNED_SEEDS:
            rc, lines, res = run_tiny(w, seed, 0)
            check(res is not None, f"{w} seed {seed}: exit 0 with a result")
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} seed {seed}: digests match ({res['failed']} of "
                  f"{res['attempted']} failed)")
            check(any("reference pinned" in ln for ln in lines),
                  f"{w} seed {seed}: reference is the pinned digest")
            check(any(ln.startswith("provenance {") for ln in lines),
                  f"{w} seed {seed}: provenance stamp printed")
            check(any(ln.startswith("fail_ratio") for ln in lines),
                  f"{w} seed {seed}: fail_ratio printed")
            check(metrics_match(res, SPEC["end_to_end"]),
                  f"{w} seed {seed}: every end-to-end metric with its unit")

        rc, lines, res = run_tiny(w, 42, 1)
        check(res is not None and res["correct"],
              f"{w} traced: exit 0, digests match")
        if res is not None:
            check(metrics_match(res, SPEC["per_layer"]),
                  f"{w} traced: every per-layer metric with its unit")
            path = next((ln.split(" written to ", 1)[1] for ln in lines
                         if ln.startswith("spans ") and " written to " in ln),
                        None)
            ok, why = spans_well_formed(path) if path else (False, "no file")
            check(ok, f"{w} traced: span tree well formed {why}".rstrip())

        bad = corrupted_digests(w)
        rc, lines, res = run_tiny(w, 42, 0, bad, stderr=subprocess.DEVNULL)
        check(res is not None and res["failed"] > 0 and not res["correct"],
              f"{w}: a corrupted digest is reported as a failure")
        # Seed 7 has no pinned digests; its run's pinned tiny pass at the
        # default seed must still see the corrupted entry.
        rc, lines, res = run_tiny(w, 7, 0, bad, stderr=subprocess.DEVNULL)
        check(res is not None and res["failed"] > 0 and not res["correct"],
              f"{w}: an unpinned seed still checks the pinned digests")

    check_missing_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
