"""Benchmark of the `reachdec` command line on one generated workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload diffusion --seed 1 --seconds 20 --trace 0

The run generates the workload's scenario from the seed, times a fresh
interpreter's set-up, runs rounds of `reach`, `check` and `compare` in one
worker process for about ``--seconds`` seconds, checks every output
against references computed apart from `reachdec`, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` (commands) and ``metrics``.
Command times are timed between two runs of the calibration kernel and
reported in calibrated seconds (see calibrate.py); set-up time is wall
time.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the worker is traced and the metrics are per layer.
Progress and per-command figures go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for setup_s; reporting their median
#: keeps the first one, which may compile and cache bytecode, from moving
#: the result
SETUP_RUNS = 5
#: seconds a worker may take beyond its measuring time
WORKER_GRACE = 120

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reachdec
t1 = time.perf_counter()
reachdec.parse_scenario(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

#: environment of the timed interpreters: single-threaded BLAS unless the
#: caller fixed a thread count, and bytecode caching on, so that imports
#: after the first read compiled modules as an installed package would
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    CHILD_ENV.setdefault(_var, "1")

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import checks  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from worker import COMMANDS  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(scenario):
    """[(import_s, parse_s)] of SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
            capture_output=True, text=True, timeout=60, check=True,
            env=CHILD_ENV)
        times.append(tuple(float(v) for v in proc.stdout.split()))
    return times


def run_worker(job_path, seconds):
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   timeout=seconds + WORKER_GRACE, check=True, env=CHILD_ENV)


def verify(w, result, out, seed):
    """Problems per command record, in the order of ``result["rounds"]``,
    and the tube width of the first round."""
    samples = checks.simulate(w, np.random.default_rng([seed, 7]))
    sample_problems = checks.check_property_samples(w, samples)
    ref = checks.exact_hull(w) if w.exact_hull else None
    by_content = {}
    width = None

    def tube_problems(round_dir):
        csv_path = round_dir / "tube.csv"
        poly_path = round_dir / "tube.poly"
        key = hashlib.sha256(b"".join(
            p.read_bytes() for p in (csv_path, poly_path) if p.exists())).digest()
        if key not in by_content:
            try:
                tube = checks.read_tube(csv_path)
                polys = checks.read_poly(poly_path) \
                    if w.scheme.startswith("eps:") else None
            except (OSError, ValueError) as e:
                by_content[key] = ([f"unreadable tube output: {e}"], None)
                return by_content[key]
            found = checks.check_shape(tube, w)
            if not found:
                found = checks.check_contains(tube, samples)
                if polys is not None:
                    found += checks.check_polygons(polys, samples)
                if ref is not None:
                    found += checks.check_exact_hull(tube, *ref)
            by_content[key] = (found, checks.tube_width(tube))
        return by_content[key]

    problems = []
    for i, records in enumerate(result["rounds"]):
        for rec in records:
            code, stdout = rec["code"], rec["stdout"]
            if rec["cmd"] == "reach":
                found = checks.check_reach_output(code, stdout, w)
                if not found:
                    tube_found, tube_w = tube_problems(out / f"round-{i}")
                    found += tube_found
                    if width is None:
                        width = tube_w
            elif rec["cmd"] == "check":
                found = checks.check_verdict(code, stdout, w) + sample_problems
            else:
                found = checks.check_compare_output(code, stdout)
            problems.append(found)
    return problems, width


def median_of(rounds, cmd, calibrated=True):
    """Median time of ``cmd`` over the rounds, calibrated or wall."""
    return statistics.median(
        calibrate.scaled(r["seconds"], r["kernel_s"]) if calibrated
        else r["seconds"]
        for records in rounds for r in records if r["cmd"] == cmd)


def layer_report(result, setup):
    """Per-layer metrics (median over rounds, command times calibrated,
    set-up times in wall seconds) and each layer's share of each command's
    time."""
    absent = set(result["absent"])
    split = {"import": statistics.median(t[0] for t in setup),
             "parse": statistics.median(t[1] for t in setup)}
    per_round = []
    for records in result["rounds"]:
        selfs, counts = {}, {}
        for rec in records:
            for k, v in rec["self"].items():
                selfs[k] = selfs.get(k, 0.0) + calibrate.scaled(
                    v, rec["kernel_s"])
            for k, v in rec["counts"].items():
                counts[k] = counts.get(k, 0) + v
        per_round.append(tracing.layer_metrics(selfs, counts, split, absent))
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in per_round[0]}
    shares = {}
    for cmd in COMMANDS:
        recs = [r for records in result["rounds"] for r in records
                if r["cmd"] == cmd]
        total = statistics.median(r["seconds"] for r in recs)
        names = {k for r in recs for k in r["self"]}
        shares[cmd] = {"seconds": total, "self_share": {
            k: statistics.median(r["self"].get(k, 0.0) for r in recs) / total
            for k in sorted(names)}}
    return metrics, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reachdec" / "__init__.py").is_file():
        log(f"no reachdec sources under {SRC}")
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    w = scenarios.generate(args.workload, args.seed, work / "scenario")
    setup = measure_setup(w.path)
    log("setup s: " + ", ".join(f"{a + b:.4f}" for a, b in setup))

    out = work / "out"
    job = {"src": str(SRC), "scenario": str(w.path), "out": str(out),
           "seconds": args.seconds, "seed": args.seed,
           "trace": bool(args.trace),
           "result": str(work / "result.json"),
           "trace_file": str(work / "trace.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    run_worker(job_path, args.seconds)
    result = json.loads((work / "result.json").read_text())
    if result["missing"]:
        log(f"traced names not found: {result['missing']}; "
            f"absent metrics: {result['absent']}")

    for i, records in enumerate(result["rounds"]):
        log(f"round {i}: " + ", ".join(
            f"{r['cmd']} {r['seconds']:.3f}s (kernel {r['kernel_s']:.4f}s) "
            f"exit {r['code']}" for r in records))
    problems, width = verify(w, result, out, args.seed)
    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p:
            log(f"FAILED: {line}")

    if args.trace:
        metrics, shares = layer_report(result, setup)
        (work / "shares.json").write_text(json.dumps(shares, indent=1))
        for cmd, s in shares.items():
            top = sorted(s["self_share"].items(), key=lambda kv: -kv[1])[:6]
            log(f"{cmd} {s['seconds']:.3f}s: " + ", ".join(
                f"{k} {v:.0%}" for k, v in top))
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in metrics.items()}
    else:
        rounds = result["rounds"]
        log("wall medians: " + ", ".join(
            f"{cmd} {median_of(rounds, cmd, calibrated=False):.4f}s"
            for cmd in COMMANDS))
        metrics = {
            "setup_s": (statistics.median(a + b for a, b in setup), "s"),
            "reach_s": (median_of(rounds, "reach"), "s"),
            "check_s": (median_of(rounds, "check"), "s"),
            "compare_s": (median_of(rounds, "compare"), "s"),
            "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
            "tube_width": (width if width is not None else 0.0, "state"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
