"""End-to-end acceptance gate.

One test per criterion; each prints a single summary line

    ACCEPTANCE <k>: PASS|FAIL - <detail> (<elapsed>s)

and then asserts, so `pytest -v -s tests/test_acceptance.py` yields one
verdict line per criterion.  Budgets are wall-clock and asserted.
"""

import time
from collections import Counter
from fractions import Fraction

from paratile.construction import (RecursionConfig, construct,
                                   construct_bound_only,
                                   isoperimetric_ratio_lower, scan_induction)
from paratile.lattices import Lattice, shortest_vector_sq
from paratile.linalg import (QMatrix, complete_to_full_rank,
                             operator_norm_upper, rank_over_rationals)
from paratile.polytopes import HPolytope, voronoi_cell
from paratile.radicals import SqrtSum
from paratile.sampler import (LdpcParams, admissible_s, default_c,
                              expected_collisions, largest_verified_s,
                              matrix_to_masks, return_prob_bound,
                              return_prob_exact, sample_ldpc,
                              verify_s_independence)
from paratile.verify import verify_tiling

from oracles import rayleigh_lower_sq, return_prob_brute

# Voronoi-cell corpus for the inequality suite: basis columns, dims 2 to 4.
CORPUS = [
    [[1, 0], [0, 1]],
    [[1, 1], [1, -1]],
    [[1, 0], [0, 2]],
    [[1, 0], [0, 3]],
    [[2, 0], [0, 3]],
    [[2, 1], [0, 2]],
    [[2, 0], [1, 3]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
    [[2, 0, 1], [0, 2, 1], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
    [[1, 1, 0], [0, 1, 1], [0, 0, 2]],
    [[2, 0, 0], [1, 2, 0], [1, 1, 2]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 1], [-1, 1, 0, 1], [0, -1, 1, 1], [0, 0, -1, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2]],
    [[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
]

WORKED_B = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])


def _verdict(k: int, failures, detail: str, elapsed: float, budget: float):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    extra = "" if not failures else f"; failures: {'; '.join(failures)}"
    print(f"ACCEPTANCE {k}: {status} - {detail}{extra} ({elapsed:.2f}s, "
          f"budget {budget:g}s)")
    assert not failures, f"criterion {k}: {'; '.join(failures)}"
    assert elapsed < budget, f"criterion {k}: {elapsed:.2f}s over budget"


def test_criterion_1_cube_baseline():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 7):
        cell = voronoi_cell(Lattice.standard(n))
        want = set()
        for i in range(n):
            for sign in (1, -1):
                a = tuple(Fraction(sign if j == i else 0) for j in range(n))
                want.add((a, Fraction(1, 2)))
        if set(cell.ambient_halfspaces()) != want:
            failures.append(f"Z^{n} halfspace set differs")
        if cell.volume() != SqrtSum.from_rational(1):
            failures.append(f"Z^{n} volume != 1")
        if cell.measures().surface != SqrtSum.from_rational(2 * n):
            failures.append(f"Z^{n} surface != {2 * n}")
    _verdict(1, failures, "Voronoi cells of Z^1..Z^6 are exact unit cubes",
             time.perf_counter() - t0, 5.0)


def test_criterion_2_walk_exactness():
    t0 = time.perf_counter()
    failures = []
    for m in range(1, 5):
        for t in range(0, 7):
            if return_prob_exact(m, t) != return_prob_brute(m, t):
                failures.append(f"exact != brute at m={m} t={t}")
    for m in range(1, 65):
        for t in range(2, 21, 2):
            p = return_prob_exact(m, t)
            if p > return_prob_bound(m, t):
                failures.append(f"bound violated at m={m} t={t}")
    _verdict(2, failures,
             "exact return probabilities match enumeration and the "
             "2(t/m)^(t/2) bound",
             time.perf_counter() - t0, 10.0)


def test_criterion_3_sampler_conformance():
    t0 = time.perf_counter()
    failures = []
    m, n, d = 32, 256, 4
    row_cap = -(-4 * d * n // m)   # 128
    mats = []
    first_try = 0
    for seed in range(100):
        mat, stats = sample_ldpc(LdpcParams(m=m, n=n, d=d, seed=seed))
        mats.append(mat)
        first_try += stats["tries"] == 1
        col_w = max(sum(mat.col(j)) for j in range(n))
        row_w = max(sum(mat.num[i]) for i in range(m))
        if col_w > d:
            failures.append(f"seed {seed}: column weight {col_w} > {d}")
        if row_w > row_cap:
            failures.append(f"seed {seed}: row weight {row_w} > {row_cap}")
    rate = first_try / 100
    if rate < 0.2:
        failures.append(f"row-sparsity acceptance rate {rate} < 0.2")

    c = default_c()
    s_val = admissible_s(m, n, d, c)
    masks = [matrix_to_masks(mat) for mat in mats]
    if s_val >= 1:
        for seed, mk in enumerate(masks):
            ok, witness = verify_s_independence(mk, s_val)
            if not ok:
                failures.append(
                    f"seed {seed}: dependency of size <= {s_val}: {witness}")
        e_d = expected_collisions(m, n, d, s_val)
        if not e_d < Fraction(1, 3):
            failures.append(f"expected collisions {e_d} >= 1/3 at s={s_val}")
    # The schedule must refuse every positive level here, for three reasons:
    # - (m^d/n^2)^(1/(d-2)) = 4 exactly, so the level is floor(c), which is
    #   0 for every constant below 1 (default_c() is about 3.07e-4);
    # - the exact expected number of dependent subsets at s = 1 is
    #   256 * P[a 4-step walk returns] = 47/64, above the schedule's own
    #   acceptance bound of 1/3, whatever the constant;
    # - the sampled matrices break s = 1: a zero column fails even
    #   1-independence, so a positive level would be wrong on this data.
    e_1 = expected_collisions(m, n, d, 1)
    levels = Counter(largest_verified_s(mk, 2) for mk in masks)
    if s_val != 0:
        failures.append(
            f"admissible s = {s_val} with the default constant, expected 0: "
            f"the (32, 256, 4) regime admits no positive independence level")
    if not e_1 >= Fraction(1, 3):
        failures.append(
            f"expected collisions {e_1} < 1/3 at s=1: the schedule's bound "
            f"no longer rules out s = 1")
    if levels[0] == 0:
        failures.append("no sampled matrix has a zero column: nothing shows "
                        "that s = 1 fails on this data")
    _verdict(3, failures,
             f"100-seed sweep at (32, 256, 4): weights within bounds, "
             f"acceptance rate {rate:.2f}, admissible s = {s_val} "
             f"(E[collisions at s=1] = {e_1} >= 1/3), verified level per "
             f"seed 0: {levels[0]}, 1: {levels[1]}, 2: {levels[2]}",
             time.perf_counter() - t0, 60.0)


def test_criterion_4_worked_construction():
    t0 = time.perf_counter()
    failures = []
    cfg = RecursionConfig(matrix_override=((WORKED_B, 1),))
    rep = construct(4, cfg)
    six_rt2 = SqrtSum.from_rational(6) * SqrtSum.sqrt(2)
    if rep.ratio_exact != six_rt2:
        failures.append(f"ratio {rep.ratio_exact} != 6*sqrt(2)")
    iv = rep.ratio_exact.interval_with_width(Fraction(1, 10 ** 10))
    if iv.width > Fraction(1, 10 ** 10):
        failures.append(f"ratio interval width {float(iv.width)} > 1e-10")
    step = rep.levels[0]
    parts = step.ratio_kernel + step.ratio_image
    if parts != six_rt2:
        failures.append("2*sqrt(2) + 4*sqrt(2) != 6*sqrt(2)")
    ivk = step.ratio_kernel.interval_with_width(Fraction(1, 10 ** 12))
    ivi = step.ratio_image.interval_with_width(Fraction(1, 10 ** 12))
    sum_iv = ivk + ivi
    if not (sum_iv.lo <= iv.lo and iv.hi <= sum_iv.hi + sum_iv.width):
        failures.append("interval additivity enclosure failed")
    body = rep.body
    if body.volume() != SqrtSum.from_rational(1):
        failures.append("volume != 1")
    tiling = verify_tiling(body, Lattice.standard(4), samples=100000)
    if not tiling.passed:
        failures.append(
            f"tiling audit failed: {tiling.overlap_violations} overlaps, "
            f"{tiling.gap_violations} gaps, volume_equal="
            f"{tiling.volume_equal}")
    _verdict(4, failures,
             "override pipeline yields ratio 6*sqrt(2) exactly and tiles "
             "under 10^5 dyadic samples",
             time.perf_counter() - t0, 120.0)


def test_criterion_5_inequality_suite():
    t0 = time.perf_counter()
    failures = []
    for cols in CORPUS:
        lat = Lattice.from_columns(cols)
        r = lat.rank
        cell = voronoi_cell(lat)
        lam = shortest_vector_sq(lat)
        # a shortest vector is Voronoi-relevant: its facet is the nearest
        if 4 * cell.inradius_sq() != lam:
            failures.append(f"{cols}: 4 inradius^2 != lambda_1^2")
        # ratio <= r / R with R = sqrt(lam)/2, i.e. ratio * sqrt(lam) <= 2r
        if not cell.ratio() * SqrtSum.sqrt(lam) \
                <= SqrtSum.from_rational(2 * r):
            failures.append(f"{cols}: ratio exceeds r/R")
        if cell.volume() != lat.covolume():
            failures.append(f"{cols}: cell volume != covolume")
        if lat.covolume() == SqrtSum.from_rational(1):
            iso = isoperimetric_ratio_lower(r)
            if cell.ratio().interval(96).lo < iso.hi:
                failures.append(f"{cols}: isoperimetric bound undecided")
    worked = construct(
        4, RecursionConfig(matrix_override=((WORKED_B, 1),)))
    iso4 = isoperimetric_ratio_lower(4)
    if worked.ratio_exact.interval(96).lo < iso4.hi:
        failures.append("worked body: isoperimetric bound undecided")

    for seed in range(100):
        a, _ = sample_ldpc(LdpcParams(m=8, n=24, d=3, seed=seed))
        base = operator_norm_upper(a)
        res = complete_to_full_rank(a, base)
        if rank_over_rationals(res.matrix) != 8:
            failures.append(f"completion seed {seed}: rank < m")
        if res.norm_usq > base + 1:
            failures.append(
                f"completion seed {seed}: certified norm^2 "
                f"{res.norm_usq} > {base} + 1")
        if rayleigh_lower_sq(res.matrix, 4) > res.norm_usq:
            failures.append(f"completion seed {seed}: certificate below "
                            f"attained Rayleigh quotient")
    _verdict(5, failures,
             "ratio <= n/R on 20 Voronoi cells, isoperimetric lower bounds, "
             "and 100 norm-certified completions",
             time.perf_counter() - t0, 60.0)


def test_criterion_6_asymptotic_substitute():
    t0 = time.perf_counter()
    failures = []
    rep = construct_bound_only(10 ** 6, RecursionConfig(kappa=4))
    if not rep.bound_only or rep.body is not None:
        failures.append("bound-only run materialized geometry")
    if rep.predicted is None:
        failures.append("no predicted bound enclosure")
    if rep.within_predicted is not True:
        failures.append("certified chain exceeds the predicted bound")
    recs = scan_induction(4, 10 ** 6, 1000)
    if len(recs) != 1000:
        failures.append(f"scan produced {len(recs)} points, wanted 1000")
    bad = [r["n"] for r in recs if not r["covered"]]
    if bad:
        failures.append(f"{len(bad)} uncovered scan points, first {bad[:5]}")
    _verdict(6, failures,
             "n = 10^6 arithmetic chain within the predicted bound; "
             "induction inequality covered at all 1000 grid points",
             time.perf_counter() - t0, 30.0)


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    failures = []
    body = HPolytope.cube(3, Fraction(101, 200))
    rep = verify_tiling(body, Lattice.standard(3), samples=20000)
    if rep.passed:
        failures.append("inflated cube passed the tiling audit")
    if rep.overlap_violations == 0:
        failures.append("inflated cube shows no multiplicity >= 2 samples")
    dup = QMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
    ok, witness = verify_s_independence(matrix_to_masks(dup), 2)
    if ok:
        failures.append("duplicated column passed s = 2 verification")
    if witness != (0, 2):
        failures.append(f"unexpected dependency witness {witness}")
    if largest_verified_s(matrix_to_masks(dup), 3) != 1:
        failures.append("largest verified level should stop at 1")
    _verdict(7, failures,
             "inflated cube fails with overlaps; duplicated column fails "
             "pair independence",
             time.perf_counter() - t0, 10.0)
