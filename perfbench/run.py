#!/usr/bin/env python3
"""Benchmark entry point: builds PRISMA and the workloads from source, runs one
workload in a fresh process, and prints the result as the last line.

    python3 perfbench/run.py --workload tf_nvme --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the workload untraced and then traced, each in its own process, and prints
the per-layer metrics of the traced run plus trace.overhead_frac. Run from
the root of a checkout; everything it writes stays in that checkout
(.bench_build, .bench_data, .bench_run). See perfbench/README.md.
"""
import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = ".bench_data"  # relative to ROOT, like the run directories
RUN = ".bench_run"
DEADLINE_S = 170  # the whole run, build excluded, must end within 180 s


def load_spec():
    """BENCHMARK.json: the workloads and the metrics each run kind reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("no PRISMA sources next to perfbench/; run from a full checkout", 2)
    tmp = os.path.join(ROOT, RUN, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd), 2)


def run_binary(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("out of time before " + " ".join(cmd))
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        die("exit %d: %s" % (p.returncode, " ".join(cmd)))
    return p.stdout


def run_workload(args, trace, deadline):
    # A fresh process per run: peak_rss_mb is a lifetime peak. Sockets and
    # span files live in a directory of this run, removed however it ends.
    run_dir = os.path.join(RUN, "%d-s%d-t%d" % (os.getpid(), args.seed, trace))
    cmd = [os.path.join(BUILD, "perfbench_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--data-root", DATA, "--run-dir", run_dir]
    if trace:
        # Kept after the run, one file per workload, for a look at where a
        # sample's time went.
        cmd += ["--spans-out", os.path.join(RUN, "spans-%s.tsv" % args.workload)]
    try:
        out = run_binary(cmd, deadline)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        die("no report from " + " ".join(cmd))
    return json.loads(lines[-1])


def remove_stale():
    """Removes what runs killed before their cleanup left behind."""
    for path in glob.glob(os.path.join(ROOT, DATA, "tmp-*")):
        shutil.rmtree(path, ignore_errors=True)
    for path in glob.glob(os.path.join(ROOT, RUN, "*-s*-t*")):
        pid = os.path.basename(path).split("-")[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def pick(report, names, extra=None):
    values = dict(report["metrics"])
    values.update(extra or {})
    missing = [n for n in names if n not in values]
    if missing:
        die("report lacks " + ", ".join(missing))
    return {n: {"value": values[n], "unit": u} for n, u in names.items()}


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    # A terminated run still removes its run directory (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if args.selftest:
        build(["perfbench_selftest"])
        code = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                               os.path.join(RUN, "selftest")], cwd=ROOT).returncode
        sys.exit(code)
    if args.workload is None:
        ap.error("--workload is required")

    build(["perfbench_workload"])
    deadline = time.monotonic() + DEADLINE_S
    remove_stale()
    if args.workload != "tf_nvme":
        # Written once per seed, outside every timed region.
        run_binary([os.path.join(BUILD, "perfbench_workload"), "--materialize",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--data-root", DATA], deadline)

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    untraced = run_workload(args, 0, deadline)
    reports = [untraced]
    if args.trace == 0:
        metrics = pick(untraced, end_to_end)
    else:
        traced = run_workload(args, 1, deadline)
        reports.append(traced)
        base = untraced["metrics"]["samples_per_s"]
        overhead = 1.0 - traced["metrics"]["samples_per_s"] / base if base else 1.0
        metrics = pick(traced, per_layer, {"trace.overhead_frac": overhead})
    for r in reports:
        if r.get("error"):
            print("perfbench: " + r["error"], file=sys.stderr)
    print(json.dumps({"metadata": [r["meta"] for r in reports]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
