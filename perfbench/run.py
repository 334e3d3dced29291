#!/usr/bin/env python3
"""quongram benchmark: three workloads timed end to end and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(perfbench/child.py), so the module memos and ``lru_cache``s start empty as
they do for each CLI call.  One process with one thread runs at a time: a
closed loop with one caller.

--trace 0 makes cold passes until the next one would end after --seconds
(always at least one) plus SETUP_SAMPLES set-up-only starts, and reports
the medians of the end-to-end metrics in BENCHMARK.json.  It also prints
solve_s and certify_s, which split total_s but vary too much from run to
run on a shared machine to carry a bound.
--trace 1 makes one untraced pass and one traced pass with the same seed
and reports the per-layer metrics, plus the traced total time over the
untraced one.

The last line of stdout is the JSON result; the lines above it give every
metric with its unit, the failed-check ratio and the environment.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "quongram")
WORKLOADS = ("symbolic-inverse", "symbolic-det", "point-n5")
PRINTED_ONLY = {"solve_s": "s", "certify_s": "s"}      # name -> unit
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170      # a whole run must end within 180 s


class BenchError(Exception):
    pass


def child(workload, seed, mode, deadline):
    """Run one child to completion; return (its JSON result, wall time
    from just before start to exit)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    if deadline - t0 < 1:
        raise BenchError(f"no time left for a {mode} child")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), mode, repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child timed out") from None
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def count_checks(results):
    attempted = failed = 0
    for res in results:
        for name, ok, error in res["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}: {error or 'wrong answer'}",
                      file=sys.stderr)
        for error in res["errors"]:
            print(f"solve step raised: {error}", file=sys.stderr)
    return attempted, failed


def git_sha():
    """HEAD's sha read from .git without running git; "unknown" outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    src_lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as f:
                src_lines += sum(1 for _ in f)
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy, "nproc": os.cpu_count(),
            "repo.src_lines": src_lines}


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics: medians over set-up starts and cold passes."""
    setups = [child(workload, seed, "setup", deadline)[0]["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes, walls = [], []
    start = time.monotonic()
    while True:
        res, wall = child(workload, seed, "pass", deadline)
        passes.append(res)
        walls.append(wall)
        end = time.monotonic() + wall
        if end - start > seconds or end > deadline:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "certify_s": statistics.median(p["certify_s"] for p in passes),
        "total_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"{workload}: {len(passes)} cold pass(es), "
          f"{len(setups)} set-up samples")
    return metrics, passes


def trace(workload, seed, deadline):
    """Per-layer metrics from one traced pass, and its overhead over an
    untraced pass with the same seed."""
    plain, plain_wall = child(workload, seed, "pass", deadline)
    traced, traced_wall = child(workload, seed, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    return metrics, [plain, traced]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit(f"quongram sources not found under {PACKAGE}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    compileall.compile_dir(PACKAGE, quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            values, results = trace(args.workload, args.seed, deadline)
        else:
            values, results = measure(args.workload, args.seed, args.seconds,
                                      deadline)
    except BenchError as exc:
        sys.exit(f"{args.workload}: {exc}")
    attempted, failed = count_checks(results)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    for name, unit in PRINTED_ONLY.items():
        if name in values:
            print(f"{args.workload} {name} = {values[name]} {unit} "
                  "(not gated)")
    print(f"{args.workload} failed_ratio = {failed / attempted} "
          f"({failed} of {attempted} checks)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
