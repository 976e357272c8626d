#!/usr/bin/env python3
"""paratile benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a process of its own
(``harness.py``), single threaded, so its peak RSS is its own.  Set-up is
timed three times, from process start to the first timed operation: twice in
probe processes that stop after set-up, once in the measuring process.
Every time is scaled to a fixed host speed by the gauge in ``gauge.py``.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The line before it holds details: pass and sample
counts, the tail percentile, per-operation medians, wall and scaled pass
times and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import gauge
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2
TIME_LIMIT_S = 170
# one thread: no BLAS or OpenMP pool next to the interpreter
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def spawn(args, extra, deadline):
    """Run harness.py to completion; return its parsed last line and the
    seconds from just before the spawn to the end of its set-up, scaled by
    the speed the gauge saw over that time."""
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = dict(os.environ, **SINGLE_THREAD)
    rate = gauge.REF_CHUNK_S / gauge.chunk_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"harness did not finish in time: {' '.join(cmd)}") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"harness exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    out = json.loads(lines[-1])
    setup = out["setup"]
    return out, (setup["ready"] - t0) * statistics.fmean(
        [rate] + setup["rates"])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the harness
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isdir(os.path.join(ROOT, "src", "paratile")):
        print("benchmark failed: no src/paratile next to perfbench/",
              file=sys.stderr)
        return 1

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, ["--probe"], deadline)[1])
        out, setup = spawn(args, [], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    metrics = out["metrics"]
    details = dict(out["details"], workload=args.workload, seed=args.seed)
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        details["setup_s_samples"] = setups
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
