#!/usr/bin/env python3
"""Build and run the NTCS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (Release, lock-rank checks off) from the checkout's own sources
into .bench_build/; later runs only rebuild what changed. One run measures
one workload in a process of its own. It prints every metric by name with
its unit, then, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json. The full record, with provenance, is
written to .bench_build/perfbench-out/. Exit codes: 0 result printed, 2 the
build failed or sources are missing, 3 the run failed, 4 the record was
incomplete, 1 the self-test failed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "ntcs_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no NTCS sources (src/CMakeLists.txt) in this checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if any((Path(p) / "ninja").is_file()
               for p in os.environ.get("PATH", "").split(os.pathsep)):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def provenance():
    """Commit (when the checkout is a git tree) and a hash of the sources."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                cache["cmake_build_type"] = line.split("=", 1)[1]
    return {"commit": commit, "source_sha256": h.hexdigest()[:16], **cache}


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary once; returns its record or None."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT_DIR)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"run.py: {workload} exited {r.returncode}")
        return None
    return json.loads(lines[-1])


def check_record(record, names):
    """Every named metric present, with a unit and a finite value."""
    missing = []
    for m in names:
        got = record["metrics"].get(m["name"])
        if (got is None or got.get("unit") != m["unit"]
                or not isinstance(got.get("value"), (int, float))
                or not math.isfinite(got["value"])):
            missing.append(m["name"])
    return missing


def measure(workload, seed, seconds, trace):
    """One run: record, validated; (exit code, final line or None)."""
    s = spec()
    if workload not in [w["name"] for w in s["workloads"]]:
        log(f"run.py: unknown workload {workload}")
        return 2, None
    if not build():
        return 2, None
    record = run_once(workload, seed, seconds, trace)
    if record is None:
        return 3, None
    names = s["per_layer"] if trace else s["end_to_end"]
    missing = check_record(record, names)
    if missing:
        log("run.py: metrics missing from the record: " + ", ".join(missing))
        return 4, None
    record["info"].update(provenance())
    record["info"]["repetitions"] = "1 run; set-up repeated, see setup_repetitions"
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    info = record["info"]
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace} "
          f"build={info.get('build_type')} lock_checks={info.get('ntcs_lock_checks')} "
          f"sanitizer={info.get('sanitizer')} nproc={info.get('nproc')} "
          f"commit={info.get('commit')} sources={info.get('source_sha256')}")
    if "flag" in info:
        print("# WARNING: " + info["flag"])
    rate = record["failed"] / max(record["attempted"], 1)
    print(f"{'error_rate':32s} {rate:.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for err in record.get("errors", []):
        print("# error: " + err)
    final = {
        "correct": bool(record["correct"]) and record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in names},
    }
    return 0, final


def self_test():
    """Short runs: every metric present with a unit, zero errors at the
    default seed and at a second seed."""
    ok = True
    for w in [w["name"] for w in spec()["workloads"]]:
        for seed, trace in ((1, 0), (1, 1), (7, 0)):
            code, final = measure(w, seed, 2, trace)
            good = code == 0 and final["correct"] and final["failed"] == 0
            log(f"self-test {w} seed={seed} trace={trace}: "
                f"{'ok' if good else 'FAILED (exit %d)' % code}")
            ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    code, final = measure(a.workload, a.seed, a.seconds, a.trace)
    if final is not None:
        print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
