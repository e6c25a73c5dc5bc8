#!/usr/bin/env python3
"""DynaSoRe benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt compiles the src/
tree it measures) into .bench_build/perfbench, runs one workload, checks
that the metrics it printed are exactly the ones BENCHMARK.json names with
the units it names, writes the full result with a host stamp to
.bench_out/, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (and a Chrome trace lands next to the result). Exit code 0
only when every check passed.

    python3 perfbench/run.py --workload serve-light --seed 7 --seconds 10 --trace 0
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path.
    Compiler temporaries go under the build directory, so the build writes
    nothing outside the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "dsbench")


def source_digest():
    """sha256 over the files the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of the repository the benchmark sits at the root of, if any."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.samefile(lines[0], ROOT) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(metrics, expected, trace):
    """Returns the list of problems with the printed metrics."""
    problems = []
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(expected) - set(metrics)),
                                      sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        value = m.get("value")
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s unit %r != %r" % (name, m.get("unit"),
                                                  expected[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number: %r" % (name, value))
        elif not trace and value <= 0:
            problems.append("%s must be positive, got %r" % (name, value))
    return problems


def finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else sys.float_info.max


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload %r" % args.workload)
        return 2
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)

    stamp = {
        "hardware_concurrency": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    stamp["loadavg_after"] = list(os.getloadavg())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("dsbench printed nothing (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]

    problems = check_metrics(metrics, expected, args.trace)
    for p in problems:
        log("CHECK FAILED " + p)
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    correct = (result["correct"] and not problems and not failed_checks
               and proc.returncode == 0)

    artefact = {"stamp": stamp, "correct": correct, "problems": problems,
                "result": result}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(artefact, f, indent=1, allow_nan=True)

    print("# stamp " + json.dumps(stamp))
    for c in result["checks"]:
        print("# check %-28s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL",
                                       c["detail"]))
    for k, v in result.get("info", {}).items():
        print("# info  %-28s %s" % (k, v))
    for k, m in metrics.items():
        print("%-34s %16.6g %s" % (k, finite(m["value"]), m["unit"]))
    line = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": finite(m["value"]), "unit": m["unit"]}
                    for k, m in metrics.items() if k in expected},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
