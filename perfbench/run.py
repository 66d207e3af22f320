#!/usr/bin/env python3
"""Builds and runs the gran benchmark; prints one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the gran libraries and the perfbench binary from source
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload, passes the
binary's human-readable report through, and prints as its last line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full record (host, commit, sample counts, fail_ratio) is written next to the
build as out/<workload>-seed<n>-trace<t>.json.

--smoke runs every workload on tiny inputs, traced and untraced, and checks
that every metric of BENCHMARK.json is printed with its unit and that every
correctness check passes.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("gran sources (src/) not found next to perfbench/; nothing to build")
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report and result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def source_identity():
    """Commit when this is a git checkout, and always a digest of the sources."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the binary; returns (exit code, result record or None)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", out_dir,
           "--result", result_path]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    if not os.path.isfile(result_path):
        return r.returncode, None
    with open(result_path) as f:
        record = json.load(f)
    if trace:
        # A layer the workload does not exercise is reported as 0.
        for m in load_spec()["per_layer"]:
            if m["name"] not in record["metrics"]:
                print(f"metric {m['name']:<28} n/a (layer not exercised by {workload})")
                record["metrics"][m["name"]] = {"value": 0, "unit": m["unit"],
                                                "samples": 0, "measured": False}
    commit, digest = source_identity()
    record["host"]["commit"] = commit
    record["host"]["src_sha256"] = digest
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)
    return r.returncode, record


def check(spec, record, trace):
    """Problems with a record against BENCHMARK.json (empty list = none)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = record["metrics"]
    problems = []
    names = {m["name"] for m in wanted}
    if set(got) != names:
        problems.append(f"metric names differ: missing {sorted(names - set(got))}, "
                        f"unexpected {sorted(set(got) - names)}")
    for m in wanted:
        g = got.get(m["name"])
        if g is None:
            continue
        if g["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {g['unit']} != {m['unit']}")
        if not math.isfinite(g["value"]):
            problems.append(f"{m['name']}: not a finite number")
        if not trace and g["value"] <= 0:
            problems.append(f"{m['name']}: end-to-end metric is not positive")
    if record["failed"] != 0 or record["attempted"] < 1:
        problems.append(f"{record['failed']} of {record['attempted']} checks failed")
    return problems


def smoke(spec, binary):
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, record = run_once(binary, w["name"], 1, 1, trace, smoke=True)
            problems = ["perfbench exited with %d" % code] if code != 0 else []
            problems += check(spec, record, trace) if record else ["no result"]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}")
            bad += bool(problems)
    print(f"smoke: {'ok' if bad == 0 else f'{bad} failing'}")
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        fail(f"--workload must be one of {names}")
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")
    binary = build()
    if args.smoke:
        return smoke(spec, binary)

    code, record = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if record is None:
        fail(f"perfbench exited with {code} and wrote no result")
    problems = check(spec, record, args.trace)
    if code != 0:
        problems.append(f"perfbench exited with {code}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in wanted if m["name"] in record["metrics"]}
    print(json.dumps({"correct": not problems, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
