"""Tests of the benchmark itself: tracing changes no output, exceptions pass
through the wrappers unchanged, the spans add up, and every workload's
correctness check rejects a wrong ratio and a wrong verdict.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import sys
from array import array
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import gauge  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from paratile import construction, intervals, lattices  # noqa: E402
from paratile.intervals import Interval, PrecisionExhausted  # noqa: E402
from paratile.lattices import EnumerationCap, Lattice  # noqa: E402
from paratile.construction import (ConstructionError,  # noqa: E402
                                   RecursionConfig)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def run(op):
    """Run an operation as the harness does; keep its full result."""
    results = []
    check = op.check
    op.check = lambda res: results.append(res)
    try:
        harness.run_op(op)
    finally:
        op.check = check
    return results[0]


def small_ops(tmp_path):
    worked = tmp_path / "worked.json"
    worked.write_text(json.dumps({"rows": 2, "cols": 4, "entries": [
        ["1", "1", "0", "0"], ["0", "0", "1", "1"]]}))
    cube3 = os.path.join(wl.FIXTURES, "cube3.json")
    scaled = os.path.join(wl.FIXTURES, "scaled_cube3.json")
    argvs = [
        ["construct", "--n", "4", "--matrix-override", str(worked),
         "--override-s", "1"],
        ["construct", "--n", "6", "--seed", "3"],
        ["construct", "--n", "100000", "--bound-only"],
        ["verify", "--fixture", cube3, "--samples", "300", "--seed", "5"],
        ["verify", "--fixture", scaled, "--samples", "300", "--seed", "5"],
        ["sample-matrix", "--m", "16", "--n", "40", "--d", "4",
         "--verify-s", "2", "--seed", "1"],
        ["sample-matrix", "--m", "8", "--n", "64", "--d", "4",
         "--verify-s", "2", "--seed", "1"],
    ]
    ops = [wl.Op(" ".join(a[:1]), lambda res: None, argv=a) for a in argvs]
    ops.append(wl.Op("construct(5)", lambda res: None,
                     call=lambda: wl.lib("construction").construct(5)))
    return ops


def test_traced_run_gives_the_same_reports_and_exit_codes(tmp_path):
    ops = small_ops(tmp_path)
    plain = [run(op) for op in ops]
    t = Tracer()
    t.install()
    try:
        traced = [run(op) for op in ops]
        summary = t.pass_summary()
    finally:
        t.uninstall()
    assert {r.code for r in plain} == {0, 1}  # both outcomes are exercised
    for a, b in zip(plain, traced):
        assert (a.code, a.stdout) == (b.code, b.stdout)
    assert str(plain[-1].value.ratio_exact) == str(traced[-1].value.ratio_exact)
    assert summary["cli.calls"] > 0 and summary["polytopes.calls"] > 0
    assert summary["negative_self_spans"] == 0


def test_wrappers_replace_every_binding_and_uninstall_restores():
    original = construction.inverse
    t = Tracer()
    t.install()
    try:
        from paratile import linalg
        assert construction.inverse is linalg.inverse
        assert construction.inverse is not original
        assert construction.inverse.__wrapped__ is original
        assert "__add__" not in [n.split(".")[-1] for n in t.names]
    finally:
        t.uninstall()
    assert construction.inverse is original


@pytest.mark.parametrize("exc_type, call", [
    (EnumerationCap, lambda: lattices.shortest_vector_sq(
        Lattice.from_columns([[7, 0, 0], [3, 9, 0], [1, 4, 11]]), node_cap=1)),
    (PrecisionExhausted, lambda: intervals.refine(
        lambda prec: Interval(Fraction(0), Fraction(1)), lambda iv: False,
        ladder=(64, 128), what="never decided")),
    (ConstructionError, lambda: construction.base_level(
        Lattice.from_columns([[Fraction(1, 2), 0], [0, 1]]),
        RecursionConfig())),
])
def test_exceptions_pass_through_the_wrappers_unchanged(exc_type, call):
    with pytest.raises(exc_type) as plain:
        call()
    t = Tracer()
    t.install()
    try:
        with pytest.raises(exc_type) as traced:
            call()
        summary = t.pass_summary()  # raises if a span was left open
    finally:
        t.uninstall()
    assert type(traced.value) is type(plain.value)
    assert traced.value.args == plain.value.args
    assert summary["spans"] > 0 and summary["negative_self_spans"] == 0


def test_self_time_subtracts_child_spans():
    t = Tracer()
    outer, inner = t.name_id("cli.main"), t.name_id("linalg.inverse")
    harness_id = t.name_id("harness.op")
    t.spans = array("q", [harness_id, 0, 100, -1,
                          outer, 10, 90, 0,
                          inner, 20, 50, 1,
                          inner, 60, 70, 1])
    s = t.pass_summary()
    assert s["cli.self_s"] == pytest.approx(40e-9)
    assert s["linalg.self_s"] == pytest.approx(40e-9)
    assert s["harness.self_s"] == pytest.approx(20e-9)
    assert s["accounted_s"] == pytest.approx(100e-9)
    assert harness.check_coverage("x", s, 100e-9) == pytest.approx(1)
    with pytest.raises(harness.CoverageError):
        harness.check_coverage("x", s, 150e-9)


def test_untraced_run_reports_medians_of_scaled_times(monkeypatch):
    times = iter([0.3, 0.1, 0.2, 0.4, 0.5, 0.2])  # two operations a pass
    monkeypatch.setattr(harness, "run_op", lambda op, tracer=None,
                        gauge=None: (next(times), None))
    monkeypatch.setattr(harness, "min_ops_for_tail", lambda pct: 6)
    work = SimpleNamespace(name="x", tail_pct=75, ops=[
        SimpleNamespace(label="a"), SimpleNamespace(label="b")])
    out = harness.measure(work, 0)
    got = {k: v for k, (v, _) in out["metrics"].items()}
    assert out["details"]["passes"] == harness.MIN_PASSES
    assert got["run_s"] == pytest.approx(0.6)  # passes 0.4, 0.6, 0.7
    assert got["op_s.p50"] == pytest.approx(0.25)  # medians 0.3 and 0.2
    assert got["op_s.tail"] == pytest.approx(0.4)  # 5th of 6 samples


def test_tail_leaves_ten_samples_beyond():
    values = list(range(40))
    value, beyond = harness.tail(values, 75)
    assert (value, beyond) == (29, 10)
    assert harness.min_ops_for_tail(75) == 40


def test_dependency_search_matches_a_plain_pair_loop():
    def plain(masks):
        if 0 in masks:
            return 1
        if len(set(masks)) != len(masks):
            return 2
        if any(a ^ b in masks for i, a in enumerate(masks)
               for b in masks[i + 1:]):
            return 3
        return None

    rng = random.Random(3)
    found = set()
    for _ in range(300):
        masks = [rng.getrandbits(10) for _ in range(rng.randrange(3, 20))]
        found.add(plain(masks))
        assert wl.shortest_dependency_up_to_3(masks) == plain(masks)
    assert found == {1, 2, 3, None}


def test_gauge_scales_by_the_reference_speed(monkeypatch):
    chunks = iter([gauge.REF_CHUNK_S * 2, gauge.REF_CHUNK_S * 2])
    monkeypatch.setattr(gauge, "chunk_s", lambda: next(chunks))
    result, wall, scaled = gauge.Gauge(None).time(lambda: 7)
    assert result == 7
    assert scaled == pytest.approx(wall / 2)  # a host at half speed


# --- correctness checks reject wrong ratios and wrong verdicts ---------------------

def built(cls, tmp_path):
    w = cls(7, str(tmp_path))
    w.setup()
    return w


def find(w, text):
    return next(op for op in w.ops if text in op.label)


def mutated(res, edit):
    doc = json.loads(res.stdout)
    edit(doc)
    return wl.OpResult(res.code, json.dumps(doc), res.stderr, res.value)


def fail_first_check(doc):
    doc["levels"][0]["checks"][0]["ok"] = False


def test_cube_highdim_check_rejects_wrong_ratio_and_verdict(tmp_path):
    w = built(wl.CubeHighdim, tmp_path)
    op = find(w, "--n 24")
    res = run(op)
    assert op.check(res) is None
    bad_ratio = mutated(res, lambda d: d["final"]["ratio_exact"]["terms"][0]
                        .update(coeff="47"))
    assert "ratio" in op.check(bad_ratio)
    assert op.check(mutated(res, fail_first_check))
    assert op.check(wl.OpResult(1, "", "certification failed", None))
    report = SimpleNamespace(bound_only=False, ratio_exact="301", levels=[
        SimpleNamespace(mode="cube", checks=(("ratio_le_2n", True),))])
    lib_op = find(w, "construct(150)")
    assert "ratio" in lib_op.check(wl.OpResult(0, "", "", report))
    report.ratio_exact = "300"
    assert lib_op.check(wl.OpResult(0, "", "", report)) is None
    report.levels[0].checks = (("ratio_le_2n", False),)
    assert lib_op.check(wl.OpResult(0, "", "", report))


def test_geometric_step_check_rejects_wrong_ratio_and_verdict(tmp_path):
    w = built(wl.GeometricStep, tmp_path)
    op = find(w, "worked_n4")
    res = run(op)
    assert op.check(res) is None
    bad_ratio = mutated(res, lambda d: d["final"]["ratio_exact"]["terms"][0]
                        .update(radicand="3"))
    assert "ratio" in op.check(bad_ratio)
    assert op.check(mutated(res, fail_first_check))


def test_tiling_audit_check_rejects_wrong_ratio_and_verdict(tmp_path):
    w = built(wl.TilingAudit, tmp_path)
    op = w.warmup
    res = run(op)
    assert op.check(res) is None
    wrong_ratio = wl.OpResult(res.code, res.stdout, res.stderr.replace(
        "ratio = 6)", "ratio = 7)"), None)
    assert "ratio" in op.check(wrong_ratio)
    assert op.check(mutated(res, lambda d: d.update(passed=False)))
    assert op.check(wl.OpResult(1, res.stdout, res.stderr, None))
    scaled = find(w, "scaled_cube3")
    no_overlap = {"passed": False, "overlap_violations": 0,
                  "gap_violations": 0, "volume_equal": False,
                  "samples": w.SAMPLES, "engine": "int64", "translates": 32}
    assert "no violation" in scaled.check(
        wl.OpResult(1, json.dumps(no_overlap), "", None))
    no_overlap.update(overlap_violations=5)
    assert scaled.check(wl.OpResult(1, json.dumps(no_overlap), "", None)) \
        is None
    assert scaled.check(wl.OpResult(0, json.dumps(no_overlap), "", None))


def test_schedule_sampler_check_rejects_wrong_ratio_and_verdict(tmp_path):
    w = built(wl.ScheduleSampler, tmp_path)
    op = find(w, "--n 10000 --bound-only")
    res = run(op)
    assert op.check(res) is None
    assert "bound" in op.check(mutated(
        res, lambda d: d["final"].update(ratio_hi="19999")))
    dependent = next(op for op in w.ops if "dependency" in op.label
                     and "None" not in op.label)
    res = run(dependent)
    assert res.code == 1 and dependent.check(res) is None
    wrong_witness = wl.OpResult(1, "", "s-independence FAILED at s=3: "
                                "dependent columns (0, 1, 2)", None)
    assert "XOR" in dependent.check(wrong_witness)
    assert dependent.check(wl.OpResult(0, res.stdout, "", None))
    independent = find(w, "dependency None")
    assert independent.check(wl.OpResult(1, "", res.stderr, None))
    scan = find(w, "scan_induction")
    records = [{"n": 65 + i, "covered": True, "induction_covers": True}
               for i in range(1000)]
    assert scan.check(wl.OpResult(0, "", "", records))
    records[3]["covered"] = False
    assert "uncovered" in scan.check(wl.OpResult(0, "", "", records))
