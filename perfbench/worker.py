"""The measured process: rounds of `reach`, `check` and `compare`.

Run by run.py as ``python3 worker.py <job.json>``.  It imports `reachdec`
from the job's source directory, optionally installs the tracer, and
calls `reachdec.cli.main` for each command of a round, each round with its
own output directory.  It times the calibration kernel of `calibrate.py`
before the first command and after every command, so each command has a
kernel run on either side.  It starts another round only while the next
one is expected to end within the job's time, and always runs at least
one.  The result (command times, each command's kernel time from the
kernel runs on either side, exit codes, output, peak resident memory and,
when traced, per-layer figures) is written as JSON to the job's result
path.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from collections import Counter

import numpy as np

from calibrate import kernel, kernel_time

COMMANDS = ("reach", "check", "compare")


def run_round(main, scenario, out_dir, tracer, kernel_before, seed):
    """One round; returns per-command records and the last kernel run."""
    records = []
    for cmd in COMMANDS:
        argv = [cmd, "--scenario", scenario, "--out", out_dir]
        gc.collect()
        # scipy's sparse expm estimates norms with random vectors from
        # numpy's global generator; seeding it makes every round and run
        # of one seed do the same work
        np.random.seed(seed)
        buf = io.StringIO()
        counts_before = Counter(tracer.counts) if tracer else None
        first = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer:
                root = tracer.begin(f"cmd.{cmd}")
                try:
                    code = main(argv)
                finally:
                    tracer.end(root)
            else:
                code = main(argv)
        seconds = time.perf_counter() - start
        kernel_after = kernel()
        rec = {"cmd": cmd, "code": code, "seconds": seconds,
               "kernel_s": kernel_time(kernel_before, kernel_after),
               "stdout": buf.getvalue().splitlines()}
        kernel_before = kernel_after
        if tracer:
            rec["self"] = tracer.self_times(first)
            rec["counts"] = dict(tracer.counts - counts_before)
        records.append(rec)
    return records, kernel_before


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import reachdec.cli

    tracer = None
    missing = []
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install()
    rounds = []
    kernel()  # warm-up
    start = time.perf_counter()
    last_kernel = kernel()
    while True:
        t0 = time.perf_counter()
        out_dir = f"{job['out']}/round-{len(rounds)}"
        records, last_kernel = run_round(reachdec.cli.main, job["scenario"],
                                         out_dir, tracer, last_kernel,
                                         job["seed"])
        rounds.append(records)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > job["seconds"]:
            break
    result = {"rounds": rounds,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "missing": missing,
              "absent": tracer.absent_metrics() if tracer else []}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    if tracer:
        with open(job["trace_file"], "w") as fh:
            json.dump({"spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    main()
