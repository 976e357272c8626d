#!/usr/bin/env python3
"""The measuring process of the benchmark.

Sets up one workload (imports, schemas, fixtures, generated inputs, one
warm-up operation), then runs passes of its operation list back to back,
one client in a closed loop, for the given number of seconds.  Without
tracing it reports end-to-end figures; with tracing it alternates untraced
and traced passes and reports per-layer figures and the tracing overhead.
Prints one JSON object as its last line.  ``run.py`` starts this process;
``--probe`` stops it right after set-up, so set-up can be timed again.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List, Optional, Tuple

from gauge import Gauge
from tracer import HARNESS, LAYERS, Tracer, open_span
from workloads import WORKLOADS, OpResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3
TICK_S = 0.05  # how often the speed gauge samples during an operation
MIN_TRACED_PASSES = 2
COVERAGE_TOLERANCE = 0.10
SCHEMA_KINDS = ("matrix", "lattice", "polytope", "tiling_report",
                "construction_report", "sampler_stats", "fixture")


class CoverageError(RuntimeError):
    """Per-layer self times do not add up to the traced pass time."""


def tail(values: List[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank ``pct`` percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_ops_for_tail(pct: float) -> int:
    """Fewest samples that leave ten beyond the ``pct`` percentile."""
    n = 11
    while tail(list(range(n)), pct)[1] < 10:
        n += 1
    return n


def run_op(op, tracer=None, gauge=None) -> Tuple[float, Optional[str]]:
    """Run one operation; return its time scaled by ``gauge`` (one that
    does not tick, by default) and a failure reason."""
    gauge = gauge or Gauge(None)
    with open_span(tracer, "harness.op"):
        cli = importlib.import_module("paratile.cli")
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                if op.argv is not None:
                    return cli.main(op.argv), None, None
                return 0, op.call(), None
            except Exception as exc:  # a raising operation is a failed one
                return -1, None, f"raised {type(exc).__name__}: {exc}"

        with redirect_stdout(out), redirect_stderr(err):
            (code, value, error), _, elapsed = gauge.time(call)
        res = OpResult(code, out.getvalue(), err.getvalue(), value)
        if error is None:
            try:
                error = op.check(res)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
    return elapsed, error


class Tally:
    """Pass times, scaled operation times and failures of one run."""

    def __init__(self, gauge: Optional[Gauge] = None) -> None:
        self.gauge = gauge
        self.pass_s: List[float] = []  # wall
        self.scaled_pass_s: List[float] = []  # sums of scaled op times
        self.op_s: List[List[float]] = []  # scaled, by position in the pass
        self.attempted = 0
        self.failures: List[str] = []

    def one_pass(self, ops, tracer=None) -> float:
        t0 = time.perf_counter()
        if not self.op_s:
            self.op_s = [[] for _ in ops]
        scaled = 0.0
        for op, times in zip(ops, self.op_s):
            elapsed, error = run_op(op, tracer, self.gauge)
            self.attempted += 1
            times.append(elapsed)
            scaled += elapsed
            if error:
                self.failures.append(f"{op.label}: {error}")
        wall = time.perf_counter() - t0
        self.pass_s.append(wall)
        self.scaled_pass_s.append(scaled)
        return wall


def measure(wl, seconds: float) -> Dict:
    """Untraced passes; every time is scaled by the speed gauge."""
    tally = Tally(Gauge(TICK_S))
    passes = max(MIN_PASSES, math.ceil(min_ops_for_tail(wl.tail_pct)
                                       / len(wl.ops)))
    t_end = time.perf_counter() + seconds
    # a pass while the next one, as long as the longest so far, still ends
    # by the deadline
    while len(tally.pass_s) < passes or \
            time.perf_counter() + max(tally.pass_s) <= t_end:
        tally.one_pass(wl.ops)
    op_p50 = [statistics.median(times) for times in tally.op_s]
    tail_s, beyond = tail([t for times in tally.op_s for t in times],
                          wl.tail_pct)
    metrics = {
        "run_s": (statistics.median(tally.scaled_pass_s), "s"),
        "op_s.p50": (statistics.median(op_p50), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mib": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "passes": len(tally.pass_s),
        "ops_per_pass": len(wl.ops),
        "op_samples": sum(map(len, tally.op_s)),
        "op_s.tail_percentile": wl.tail_pct,
        "op_s.tail_samples_beyond": beyond,
        "ops_failed_frac": len(tally.failures) / tally.attempted,
        "op_s.p50_by_op": {f"{i}: {op.label}": t
                           for i, (op, t) in enumerate(zip(wl.ops, op_p50))},
        "pass_s": tally.pass_s,
        "scaled_pass_s": tally.scaled_pass_s,
    }
    if wl.name == "tiling-audit":  # every operation is an audit
        details["audit_samples_per_s"] = wl.samples_per_pass / sum(op_p50)
    return {"tally": tally, "metrics": metrics, "details": details}


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict) -> Dict[str, Tuple[float, str]]:
    """The per-layer figures of one traced pass."""
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS + (HARNESS,):
        out[f"{layer}.self_s"] = (summary[f"{layer}.self_s"], "s")
        out[f"{layer}.calls"] = (summary[f"{layer}.calls"], "count")
    get = summary.get
    counts = ("linalg.max_matrix_entries", "lattices.enum_vectors",
              "polytopes.vertices", "polytopes.facets",
              "intervals.calls_escalated", "sampler.tries", "verify.samples",
              "verify.bigint_samples", "verify.translates",
              "serialization.bytes_out")
    for key in counts:
        out[key] = (get(key, 0), "bytes" if key.endswith("bytes_out")
                    else "count")
    out["polytopes.voronoi_useful_share"] = (_share(
        get("polytopes.voronoi_facets", 0),
        get("polytopes.voronoi_candidates", 0)), "share")
    out["radicals.sign_calls"] = (get("calls:radicals.SqrtSum.sign", 0),
                                  "count")
    out["intervals.escalated_share"] = (_share(
        get("intervals.calls_escalated", 0),
        get("intervals.ladder_calls", 0)), "share")
    out["sampler.accept_share"] = (_share(get("sampler.accepted", 0),
                                          get("sampler.tries", 0)), "share")
    out["verify.samples_per_s"] = (_share(get("verify.samples", 0),
                                          get("verify.inclusive_s", 0)), "1/s")
    out["serialization.validate_calls"] = (
        get("calls:serialization.validate_document", 0), "count")
    out["trace.spans"] = (summary["spans"], "count")
    return out


def check_coverage(name: str, summary: Dict, wall: float) -> float:
    """Share of the traced pass that the layer self times plus the harness's
    own spans account for; raise when it is off by more than the limit."""
    coverage = summary["accounted_s"] / wall
    if abs(coverage - 1) > COVERAGE_TOLERANCE or \
            summary["negative_self_spans"]:
        raise CoverageError(
            f"{name}: layer self times plus harness time cover "
            f"{coverage:.3f} of the traced pass ({summary['accounted_s']:.3f} "
            f"s of {wall:.3f} s, {summary['negative_self_spans']} spans with "
            f"negative self time); the limit is {COVERAGE_TOLERANCE:.0%}")
    return coverage


def measure_traced(wl, seconds: float, trace_path: str) -> Dict:
    """Alternate untraced and traced passes; check that the spans add up."""
    tracer = Tracer()
    # traced passes keep the gauge's ticks out of the layers' self times
    plain, traced = Tally(Gauge(TICK_S)), Tally(Gauge(None))
    per_pass: List[Dict[str, Tuple[float, str]]] = []
    kept = []
    t_end = time.perf_counter() + seconds
    # a pair of passes, one traced and one not, while the next pair, as
    # long as the longest so far, still ends by the deadline
    while len(traced.pass_s) < MIN_TRACED_PASSES or time.perf_counter() + \
            max(traced.pass_s) + max(plain.pass_s) <= t_end:
        # untraced and traced passes alternate, each side going first in
        # turn, so drift over the run falls on both alike
        if len(traced.pass_s) % 2 == 0:
            plain.one_pass(wl.ops)
        tracer.reset()
        tracer.install()
        try:
            wall = traced.one_pass(wl.ops, tracer)
        finally:
            tracer.uninstall()
        if len(traced.pass_s) % 2 == 0:
            plain.one_pass(wl.ops)
        summary = tracer.pass_summary()
        coverage = check_coverage(wl.name, summary, wall)
        metrics = layer_metrics(summary)
        metrics["trace.coverage"] = (coverage, "share")
        per_pass.append(metrics)
        kept.append((len(kept), tracer.spans))
    tracer.dump(trace_path, kept)
    metrics = {key: (statistics.median(p[key][0] for p in per_pass), unit)
               for key, (_, unit) in per_pass[0].items()}
    plain_s = statistics.median(plain.scaled_pass_s)
    traced_s = statistics.median(traced.scaled_pass_s)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    tally = Tally()  # the operations of both kinds of pass
    tally.attempted = plain.attempted + traced.attempted
    tally.failures = plain.failures + traced.failures
    details = {"passes": len(traced.pass_s), "trace_file":
               os.path.relpath(trace_path, ROOT)}
    return {"tally": tally, "metrics": metrics, "details": details}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="stop after set-up and report when it ended")
    args = p.parse_args(argv)
    setup_gauge = Gauge(TICK_S)
    setup_gauge.start()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    importlib.import_module("paratile.cli")  # and with it every layer
    serialization = importlib.import_module("paratile.serialization")
    for kind in SCHEMA_KINDS:
        serialization.load_schema(kind)

    workdir = os.path.join(WORK, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        _, error = run_op(wl.warmup)
        if error:  # the timed operations will fail their checks too
            print(f"warm-up failed: {error}", file=sys.stderr)
        # when set-up ended, less the gauge's ticks, and the speeds it saw
        setup = {"ready": time.monotonic() - setup_gauge.spent}
        setup_gauge.stop()
        setup["rates"] = setup_gauge.rates
        if args.probe:
            print(json.dumps({"setup": setup}))
            return 0
        if args.trace:
            trace_path = os.path.join(
                WORK, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            out = measure_traced(wl, args.seconds, trace_path)
        else:
            out = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = out["tally"]
    result = {
        "setup": setup,
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out["metrics"].items()},
        "details": dict(out["details"], failures=tally.failures[:10]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
