import hashlib
import importlib
import itertools
import json
import pkgutil
import time
from fractions import Fraction

import pytest

import paratile
from paratile import construction, intervals, linalg, radicals
from paratile.construction import (ConstructionError, RecursionConfig,
                                   RegimeError, bound_value, choose_m,
                                   construct, construct_bound_only,
                                   isoperimetric_ratio_lower,
                                   predicted_bound_interval, scan_induction,
                                   schedule_parameters)
from paratile.lattices import Lattice, kernel_and_image, shortest_vector_sq
from paratile.linalg import QMatrix, det_q, inverse
from paratile.radicals import SqrtSum
from paratile.serialization import construction_report_to_json, dump_json
from paratile.verify import verify_tiling

from oracles import (mp_isoperimetric_ratio, mp_reference,
                     reference_isoperimetric_ratio_lower,
                     reference_scan_induction)

WORKED_B = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])


def worked_config(**kw):
    return RecursionConfig(matrix_override=((WORKED_B, 1),), **kw)


# --- parameter schedule -----------------------------------------------------


def test_choose_m_at_a_million():
    assert choose_m(10 ** 6, 4) == 510


def test_choose_m_rejects_base_regime():
    # n <= 4 kappa^2 belongs to the base case, not the schedule
    with pytest.raises(RegimeError):
        choose_m(64, 4)
    with pytest.raises(RegimeError):
        choose_m(10, 4)


@pytest.mark.parametrize("n, kappa, m", [
    (256, 1, 16),           # 2^8 e^-sqrt(2 ln 2^8 ln 2) = 2^(8 - 4)
    (65536, 2, 256),        # 2^16 with 2 kappa = 2^2: 2^(16 - 8)
    (8 ** 8, 4, 4096),      # 2^24 with 2 kappa = 2^3: 2^(24 - 12)
    (2 ** 18, 1, 4096),     # 2^(18 - 6)
])
def test_choose_m_at_an_exact_power(n, kappa, m):
    # n e^-g(n) is an integer here, so no enclosure decides its floor
    assert choose_m(n, kappa) == m


def test_choose_m_shrinks():
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        m = choose_m(n, 4)
        assert 0 <= m < n


def test_predicted_bound_n1_is_sixteen():
    iv = predicted_bound_interval(1, 4)
    # ln 1 = 0 kills the growth factor, leaving 4 kappa exactly
    assert iv.lo == iv.hi == 16


def test_predicted_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        predicted_bound_interval(0, 4)
    with pytest.raises(ValueError):
        predicted_bound_interval(5, 0)


def test_predicted_bound_dominates_trivial_at_small_n():
    for n in range(1, 8):
        iv = predicted_bound_interval(n, 4)
        assert iv.lo > 2 * n


def test_schedule_parameters_at_a_million():
    m, d = schedule_parameters(10 ** 6, RecursionConfig())
    assert (m, d) == (510, 4)


def test_schedule_rejects_tiny_m():
    # just above the base regime the schedule collapses to m < 4
    with pytest.raises(RegimeError):
        schedule_parameters(70, RecursionConfig())


def test_the_aspect_constant_is_below_one():
    # m ln m <= n ln(n) e^-g(n) <= n 2 / (e^2 ln 2) for kappa >= 1, so
    # n d >= m ln m needs no check once d >= 3
    iv = intervals.enclose(96, lambda iv: 2 / (iv.exp(2) * iv.log(2)))
    assert iv.hi < Fraction(2, 5) < 1


def test_the_schedule_meets_the_aspect_wherever_it_returns():
    grid = sorted({round(10 ** (k / 4)) for k in range(4, 121)})
    returned = refused = 0
    for kappa in (1, 4, 16):
        for epsilon in (Fraction(2), Fraction(1), Fraction(1, 10)):
            config = RecursionConfig(kappa=kappa, epsilon=epsilon)
            for n in grid:
                if n <= 4 * kappa ** 2:
                    continue
                try:
                    m, d = schedule_parameters(n, config)
                except RegimeError:
                    refused += 1
                    continue
                returned += 1
                assert 3 <= d <= m <= n and m >= 4
                m_ln_m = intervals.enclose(96, lambda iv: m * iv.log(m))
                assert m_ln_m.hi <= n * d, (n, kappa, epsilon)
    assert returned and refused


def test_every_irrational_decision_goes_through_the_one_ladder(monkeypatch):
    calls = []

    def counting_refine(compute, decided, ladder=intervals.PREC_LADDER,
                        what="enclosure"):
        calls.append(what)
        return intervals.refine(compute, decided, ladder, what)

    monkeypatch.setattr(construction, "refine", counting_refine)
    monkeypatch.setattr(radicals, "refine", counting_refine)
    mixed = SqrtSum.sqrt(2) - 1
    decisions = [
        lambda: construction.choose_m(10 ** 6, 4),
        lambda: construction.schedule_parameters(10 ** 6, RecursionConfig()),
        lambda: construction._induction_inequality_holds(10 ** 6, 510, 4),
        mixed.sign,
        lambda: mixed.interval_with_width(Fraction(1, 10 ** 12)),
    ]
    for decide in decisions:
        before = len(calls)
        decide()
        assert len(calls) > before
    # rational and one-signed sums need no enclosure at all
    before = len(calls)
    assert (SqrtSum.sqrt(2) + 1).sign() == 1
    assert len(calls) == before


# --- geometric construction -------------------------------------------------


def test_construct_cube_dimensions():
    for n in range(1, 5):
        rep = construct(n)
        assert not rep.bound_only
        assert [lv.mode for lv in rep.levels] == ["cube"]
        assert rep.ratio_exact == SqrtSum.from_rational(2 * n)
        assert rep.trivial_bound == 2 * n
        assert rep.within_predicted is True
        assert rep.body.measures().volume == SqrtSum.from_rational(1)


def test_construct_cube_at_a_thousand_within_budget():
    # the cube base case must stay integer work, not n x n Fraction algebra
    t0 = time.perf_counter()
    rep = construct(1000)
    assert time.perf_counter() - t0 < 12.0
    assert not rep.bound_only
    assert [lv.mode for lv in rep.levels] == ["cube"]
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    assert rep.ratio_exact == SqrtSum.from_rational(2000)
    assert rep.ratio_upper == 2000 and rep.trivial_bound == 2000


def test_construct_steps_only_on_an_override(monkeypatch):
    # geometric construct never consults the schedule: without an override
    # it returns the cube, and with one it steps on the given matrix
    def no_schedule(*args):
        raise AssertionError(f"schedule consulted at {args}")

    monkeypatch.setattr(construction, "_schedule_step", no_schedule)
    rep = construct(1000)
    assert [lv.mode for lv in rep.levels] == ["cube"]
    assert rep.ratio_exact == SqrtSum.from_rational(2000)
    rep = construct(4, worked_config())
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert rep.ratio_exact == SqrtSum.from_rational(6) * SqrtSum.sqrt(2)


@pytest.mark.parametrize("s_opt, searches", [
    (None, {"largest_verified_s": 1, "verify_s_independence": 0}),
    (1, {"largest_verified_s": 0, "verify_s_independence": 1}),
])
def test_override_step_runs_one_independence_search(monkeypatch, s_opt,
                                                    searches):
    calls = dict.fromkeys(searches, 0)
    for name in searches:
        def counted(*args, _name=name, _fn=getattr(construction, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(construction, name, counted)
    rep = construct(4, RecursionConfig(matrix_override=((WORKED_B, s_opt),)))
    assert calls == searches
    assert rep.levels[0].s == 1
    assert ("s_independence", True) in rep.levels[0].checks


def _override_step(m):
    """Identity plus the columns (1,1,0,...) and (0,1,1,0,...): n = m + 2."""
    rows = [[int(i == j) for j in range(m)] + [int(i in (0, 1)),
                                              int(i in (1, 2))]
            for i in range(m)]
    b = QMatrix.from_rows(rows)
    return b, construct(m + 2, RecursionConfig(matrix_override=((b, None),)))


def test_override_step_at_m8_within_budget():
    # the image of the 8-cube is a parallelepiped: measures by formula, not
    # 2^8 swept vertices and 8! simplices
    t0 = time.perf_counter()
    _, rep = _override_step(8)
    assert time.perf_counter() - t0 < 2.0
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    assert rep.ratio_exact == SqrtSum.from_rational(Fraction(21, 2)) \
        + 4 * SqrtSum.sqrt(2) + 3 * SqrtSum.sqrt(3)


def test_two_level_override_measures_its_outer_image_from_the_factors():
    # the outer image of (kernel cell x image of the inner product) keeps
    # the product's chart table, so its 8-dimensional image is neither
    # swept nor triangulated
    def step(m):
        return QMatrix.from_rows(
            [[int(i == j) for j in range(m)] + [int(i in (0, 1)),
                                                int(i in (1, 2))]
             for i in range(m)])

    t0 = time.perf_counter()
    rep = construct(10, RecursionConfig(
        matrix_override=((step(8), None), (step(6), None))))
    assert time.perf_counter() - t0 < 2.0
    assert [lv.mode for lv in rep.levels] == ["step", "step", "cube"]
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    assert rep.ratio_exact == SqrtSum.from_rational(Fraction(13, 2)) \
        + 2 * SqrtSum.sqrt(2) + 5 * SqrtSum.sqrt(3) \
        + 2 * SqrtSum.sqrt(5) + SqrtSum.from_rational(Fraction(1, 4)) \
        * SqrtSum.sqrt(6)


def test_override_step_at_m16_image_ratio_is_twice_the_dual_norms():
    b, rep = _override_step(16)
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    # the image is T = B^T (B B^T)^-1 applied to the unit cube, a
    # parallelepiped with ratio 2 * sum_i |b_i*| over the dual basis b_i* of
    # T's columns, whose squared norms are the diagonal of (T^T T)^-1
    t = b.t() @ inverse(b @ b.t())
    dual_gram = inverse(t.t() @ t)
    want = SqrtSum.zero()
    for i in range(16):
        want = want + 2 * SqrtSum.sqrt(dual_gram.entries[i][i])
    assert rep.levels[0].ratio_image.terms == want.terms
    assert rep.ratio_exact == rep.levels[0].ratio_kernel + want


def test_construct_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        construct(0)


def test_construct_falls_back_when_schedule_fails():
    # n = 70 passes the regime gate but yields m = 1: the bound chain of
    # construct --bound-only falls back to the cube
    value, traces = bound_value(70, RecursionConfig())
    assert value == 140
    assert [lv.mode for lv in traces] == ["cube"]


def test_worked_example_exact_ratio():
    rep = construct(4, worked_config())
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert rep.ratio_exact == SqrtSum.from_rational(6) * SqrtSum.sqrt(2)
    step = rep.levels[0]
    assert step.s == 1
    assert step.norm_usq == 2
    assert step.ratio_kernel == SqrtSum.from_rational(2) * SqrtSum.sqrt(2)
    assert step.ratio_image == SqrtSum.from_rational(4) * SqrtSum.sqrt(2)
    assert step.ratio == step.ratio_kernel + step.ratio_image
    assert all(ok for _, ok in step.checks)
    assert rep.body.measures().volume == SqrtSum.from_rational(1)


def test_worked_example_deterministic_bytes():
    doc_a = dump_json(construction_report_to_json(
        construct(4, worked_config()), "0"))
    doc_b = dump_json(construction_report_to_json(
        construct(4, worked_config()), "0"))
    assert doc_a == doc_b


def _record_calls(monkeypatch, name, record):
    """Wrap linalg.<name> under whichever module's name for it, appending
    record(*args) per call to the returned list."""
    seen = []
    original = getattr(linalg, name)

    def counted(*args):
        seen.append(record(*args))
        return original(*args)

    for info in pkgutil.iter_modules(paratile.__path__):
        module = importlib.import_module(f"paratile.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return seen


def _count_rank_calls(monkeypatch):
    """Shapes of the matrices the package hands to rank_over_rationals."""
    return _record_calls(monkeypatch, "rank_over_rationals",
                         lambda m: m.shape)


def test_cube_path_makes_no_rank_elimination(monkeypatch):
    # Z^n is read off its identity basis, the cube states its own
    # halfspaces, and Lattice.standard(n) trusts the identity it builds
    shapes = _count_rank_calls(monkeypatch)
    construct(40)
    assert shapes == []


def test_cube_path_builds_no_n_sized_object(monkeypatch):
    # Z^n and its cube state what they are by rule, so construct builds
    # none of the n x n identities it once built four times over
    n = 10 ** 5
    sizes = _record_calls(monkeypatch, "identity_rows", lambda k, *_: k)
    rep = construct(n)
    assert rep.ratio_exact == SqrtSum.from_rational(2 * n)
    assert rep.ratio_upper == 2 * n
    assert [(lv.mode, lv.checks) for lv in rep.levels] == \
        [("cube", (("ratio_le_2n", True),))]
    assert sizes.count(n) == 0, sizes


def test_cube_path_builds_no_fraction_grid(monkeypatch):
    # the identity tests compare numerators and denominators; reading
    # QMatrix.entries would build n^2 Fractions
    def refuse(self):
        raise AssertionError("QMatrix.entries read on the cube path")

    monkeypatch.setattr(linalg.QMatrix, "entries", property(refuse))
    rep = construct(40)
    assert [lv.mode for lv in rep.levels] == ["cube"]


def test_another_basis_of_z_n_takes_the_certified_voronoi_path():
    # only the identity basis is read as Z^n; a sheared one is still Z^3,
    # and its Voronoi cell is the cube
    body, trace = construction.base_level(
        Lattice.from_columns([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        RecursionConfig())
    assert trace.mode == "voronoi"
    assert all(ok for _, ok in trace.checks)
    assert trace.ratio == SqrtSum.from_rational(6)
    assert body.measures().volume == SqrtSum.from_rational(1)


def test_worked_step_makes_one_rank_elimination(monkeypatch):
    # B T = I certifies the section with no lattice built from T or B, B's
    # rank is the image's Hermite rank, voronoi_cell wraps no reduced basis,
    # and Z^4, the kernel and the image are independent by construction:
    # left is the image body's frame
    shapes = _count_rank_calls(monkeypatch)
    rep = construct(4, worked_config())
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert shapes == [(4, 2)], shapes


def test_a_false_section_fails_projection_image_agree(monkeypatch):
    # T = B^T (B B^T)^-1 with one entry of the inverse off by one is no
    # right inverse of B, and the step must refuse it by name
    def off_by_one(a):
        rows = [list(row) for row in inverse(a).entries]
        rows[0][0] += 1
        return type(a).from_rows(rows)

    monkeypatch.setattr(construction, "inverse", off_by_one)
    with pytest.raises(ConstructionError, match="projection_image_agree"):
        construct(4, worked_config())


# I_m plus the extra columns of perfbench's geometric-step workload
GEOMETRIC_STEPS = (
    (5, ((1, 1, 1, 0, 0), (0, 1, 1, 1, 1))),
    (5, ((1, 1, 0, 0, 0), (0, 1, 1, 0, 0))),
    (6, ((1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0))),
    (6, ((1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 1, 1))),
    (4, ((1, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 0),
         (1, 1, 1, 0))),
)


@pytest.mark.parametrize("override", [(WORKED_B, 1)] + [
    (QMatrix.from_rows([[int(i == j) for j in range(m)] + [c[i] for c in extra]
                        for i in range(m)]), None)
    for m, extra in GEOMETRIC_STEPS])
def test_kernel_shortest_sq_is_the_kernel_minimum(override):
    # read off the kernel cell's inradius, it must be what enumeration finds
    b, _ = override
    n = b.ncols
    step = construct(n, RecursionConfig(matrix_override=(override,))).levels[0]
    assert step.mode == "step" and step.m < n
    kernel, _ = kernel_and_image(Lattice.standard(n), step.matrix)
    assert step.kernel_shortest_sq == shortest_vector_sq(kernel)
    assert dict(step.checks)["kernel_shortest_exceeds_s"]


def test_a_square_step_is_the_image_of_the_cube_alone():
    # a full-rank square B leaves no kernel, so the body is B^-1 applied to
    # the cube of Z^3: its facet pairs are b_i . x = +-1/2 for the rows b_i
    # of B, and with det B = 1 its ratio is 2 sum_i |b_i|, that is
    # 2 sum_i sqrt((B B^T)_ii)
    b = QMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    rep = construct(3, RecursionConfig(matrix_override=((b, None),)))
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    step = rep.levels[0]
    assert step.m == 3
    assert step.ratio_kernel is None and step.kernel_shortest_sq is None
    assert [name for name, _ in step.checks] == [
        "full_rank", "s_independence", "projection_image_agree",
        "inner_integer", "image_ratio_bound", "ratio_additivity",
        "volume_equals_covolume", "recursion_inequality"]
    assert all(ok for _, ok in step.checks)
    gram = b @ b.t()
    want = SqrtSum.zero()
    for i in range(3):
        want = want + 2 * SqrtSum.sqrt(gram.entries[i][i])
    assert rep.ratio_exact.terms == want.terms
    assert rep.ratio_exact == SqrtSum.from_rational(2) \
        + SqrtSum.from_rational(4) * SqrtSum.sqrt(2)


SQUARE_DET2 = QMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
DET2_RATIO = SqrtSum.from_rational(Fraction(3, 2)) \
    * (SqrtSum.sqrt(2) + SqrtSum.sqrt(6))


def test_a_square_step_of_determinant_2_reaches_a_voronoi_base():
    # B Z^3 has index 2, so its Hermite basis is no identity and the base
    # case is the certified Voronoi cell of B Z^3, pulled back through B^-1
    rep = construct(3, RecursionConfig(matrix_override=((SQUARE_DET2, None),)))
    assert [lv.mode for lv in rep.levels] == ["step", "voronoi"]
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    assert rep.ratio_exact == DET2_RATIO
    assert rep.ratio_exact < SqrtSum.from_rational(6)
    tiling = verify_tiling(rep.body, Lattice.standard(3), samples=20000)
    assert tiling.passed
    assert (tiling.translates, tiling.overlap_violations,
            tiling.gap_violations) == (32, 0, 0)


@pytest.mark.parametrize("n, want", [
    (6, SqrtSum.from_rational(5) * SqrtSum.sqrt(2)
     + SqrtSum.from_rational(2) * SqrtSum.sqrt(6)),
    (7, SqrtSum.from_rational(6) * SqrtSum.sqrt(2)
     + SqrtSum.from_rational(2) * SqrtSum.sqrt(7)),
])
def test_the_all_ones_row_certifies_below_2n(n, want):
    # route: one all-ones row, so the kernel Z^n & 1^perp is A_(n-1), whose
    # Voronoi cell has ratio sqrt(2) (n - 1), and the image T [-1/2, 1/2]
    # adds 2 sqrt(n); the sum is below 2n from n = 6 on
    ones = QMatrix.from_rows([[1] * n])
    rep = construct(n, RecursionConfig(matrix_override=((ones, None),)))
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert all(ok for lv in rep.levels for _, ok in lv.checks)
    assert rep.levels[0].ratio_kernel == SqrtSum.from_rational(n - 1) \
        * SqrtSum.sqrt(2)
    assert rep.ratio_exact == want
    assert rep.ratio_exact < SqrtSum.from_rational(2 * n)


def test_no_square_0_1_step_at_n3_beats_determinant_2():
    # the 168 overrides with |det| = 1 give 2n (the permutations) or more,
    # and the 6 with |det| = 2 all give the Voronoi-base value
    ratios = {1: [], 2: []}
    for bits in itertools.product((0, 1), repeat=9):
        b = QMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        det = abs(det_q(b))
        if det:
            ratios[det].append(construct(3, RecursionConfig(
                matrix_override=((b, None),))).ratio_exact)
    assert (len(ratios[1]), len(ratios[2])) == (168, 6)
    assert min(ratios[1]) == 6 and all(r == DET2_RATIO for r in ratios[2])


def test_override_takes_any_integer_valued_matrix():
    q = QMatrix.from_rows([[Fraction(1), 1, 0, 0], [0, 0, 1, 1]])
    rep = construct(4, RecursionConfig(matrix_override=((q, None),)))
    assert [lv.mode for lv in rep.levels] == ["step", "cube"]
    assert rep.levels[0].s == 1 and rep.levels[0].matrix == q
    assert rep.ratio_exact == SqrtSum.from_rational(6) * SqrtSum.sqrt(2)


def test_config_refuses_a_non_integer_override():
    half = QMatrix(((1, 1, 0, 0), (0, 0, 1, 1)), 2)
    with pytest.raises(ValueError, match="integer"):
        RecursionConfig(matrix_override=((half, None),))


def test_override_with_zero_column_errors():
    # a zero column kills even single-column independence
    bad = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ConstructionError):
        construct(4, RecursionConfig(matrix_override=((bad, None),)))


def test_dim_cap_downgrades_to_bound_only():
    rep = construct(4, worked_config(dim_cap=1))
    assert rep.bound_only
    assert rep.body is None
    assert "dim cap" in rep.downgrade_reason
    assert rep.ratio_upper == 8          # trivial chain at n = 4
    assert rep.within_predicted is True


def test_dim_cap_is_decided_before_any_n_by_n_work(monkeypatch):
    # the all-ones row leaves a rank-7 kernel at n = 8; A's row count
    # decides the cap, before the norm, the completion or the Hermite form
    def refuse(*args, **kwargs):
        raise AssertionError("n x n work before the dim-cap decision")

    for name in ("operator_norm_upper", "complete_to_full_rank",
                 "kernel_and_image"):
        monkeypatch.setattr(construction, name, refuse)
    ones = QMatrix.from_rows([[1] * 8])
    rep = construct(8, RecursionConfig(matrix_override=((ones, None),)))
    assert rep.bound_only and rep.body is None
    assert rep.ratio_upper == 16
    assert rep.downgrade_reason == "kernel rank 7 exceeds dim cap 6"


def test_a_downgraded_run_encloses_p_of_n_once(monkeypatch):
    calls = []
    enclosure = construction.predicted_bound_interval

    def counted(n, kappa):
        calls.append(n)
        return enclosure(n, kappa)

    monkeypatch.setattr(construction, "predicted_bound_interval", counted)
    ones = QMatrix.from_rows([[1] * 8])
    rep = construct(8, RecursionConfig(matrix_override=((ones, None),)))
    assert rep.downgrade_reason == "kernel rank 7 exceeds dim cap 6"
    assert calls == [8]


def test_geometric_reports_have_no_downgrade_reason():
    assert construct(3).downgrade_reason is None


# --- bound-only mode --------------------------------------------------------


def test_bound_only_at_a_million():
    rep = construct_bound_only(10 ** 6)
    assert rep.bound_only
    assert rep.ratio_exact is None
    assert rep.body is None
    assert rep.ratio_upper <= 2 * 10 ** 6
    assert rep.within_predicted is True


def test_bound_only_leaves_a_value_inside_the_prediction_undecided(
        monkeypatch):
    # the value 2n lies inside this enclosure of P(n), so neither "within"
    # nor "beyond" is certain; geometric mode says None there too
    monkeypatch.setattr(construction, "predicted_bound_interval",
                        lambda n, kappa: intervals.Interval(2 * n - 1,
                                                            2 * n + 1))
    rep = construct_bound_only(4)
    assert rep.ratio_upper == 8
    assert rep.within_predicted is None


@pytest.mark.parametrize("exponent, s", [
    (3, None), (6, None), (9, None), (12, None), (14, None), (15, 2)])
def test_bound_chain_steps_where_the_schedule_admits_s(exponent, s):
    n = 10 ** exponent
    config = RecursionConfig()
    step = construction._schedule_step(n, config, 0)
    assert (step and step[2]) == s
    _, traces = bound_value(n, config)
    assert (traces[0].mode == "step") == (step is not None)
    assert construction._schedule_step(n, config, config.max_depth) is None


def test_bound_value_trivial_chain():
    # desk-scale schedule gives s = 0, so the chain settles on 2n
    value, traces = bound_value(100, RecursionConfig())
    assert value == 200
    assert [t.mode for t in traces] == ["cube"]


def test_bound_value_keeps_the_cube_when_a_step_is_no_better(monkeypatch):
    # a step to m = n/2 at s = 1 costs 2(n - m) + 2m sqrt(1 + d l) >= 2n
    depths = []

    def one_step(n, config, depth):
        depths.append(depth)
        return (n // 2, 3, 1) if depth == 0 else None

    monkeypatch.setattr(construction, "_schedule_step", one_step)
    value, traces = bound_value(100, RecursionConfig())
    assert depths == [0, 1]
    assert value == 200
    assert traces == [construction.LevelTrace(
        n=100, mode="cube", ratio=SqrtSum.from_rational(200))]


# --- schedule consistency scan ----------------------------------------------


# sha256 of the (n, m, base_covers, induction_covers) records, pinned from
# the scan when every enclosure was assembled from separate exp/log calls
SCAN_DIGEST = \
    "5e15da68a61e28a8c0f1808771ae939f2c4baf0c4c8ab4f457b346827f51353e"


def test_scan_induction_grid():
    recs = scan_induction(4, 10 ** 6, 1000)
    assert len(recs) == 1000
    assert recs[0]["n"] == 65
    assert recs[-1]["n"] == 10 ** 6
    assert all(r["covered"] for r in recs)
    decisions = [(r["n"], r["m"], r["base_covers"], r["induction_covers"])
                 for r in recs]
    digest = hashlib.sha256(json.dumps(decisions).encode()).hexdigest()
    assert digest == SCAN_DIGEST


def test_scan_induction_rejects_empty_range():
    with pytest.raises(ValueError):
        scan_induction(4, 65, 10)


@pytest.mark.parametrize("count", [1, 0, -3])
def test_scan_induction_needs_two_grid_points(count):
    # one point leaves the log-spacing step undefined, and none is no scan
    with pytest.raises(ValueError, match="count >= 2"):
        scan_induction(4, 10 ** 3, count)


@pytest.mark.parametrize("kappa, n_hi", [(1, 10 ** 6), (2, 10 ** 6),
                                         (4, 10 ** 6), (4, 10 ** 7)])
def test_scan_induction_matches_the_three_ladder_reference(kappa, n_hi):
    assert scan_induction(kappa, n_hi, 1000) \
        == reference_scan_induction(kappa, n_hi, 1000)


def test_scan_induction_encloses_each_size_once(monkeypatch):
    # one 96-bit enclosure of P per grid point and per distinct m >= 4; the
    # three-ladder scan made 2,724 enclose calls here
    calls = []

    def counting_enclose(prec, formula):
        calls.append(prec)
        return intervals.enclose(prec, formula)

    monkeypatch.setattr(construction, "enclose", counting_enclose)
    recs = scan_induction(4, 10 ** 6, 1000)
    sizes = {r["n"] for r in recs}
    ms = {r["m"] for r in recs if r["m"] >= 4}
    assert len(calls) <= len(sizes) + len(ms)


def test_induction_from_undecided_bounds_falls_back_to_the_ladder(
        monkeypatch):
    # enclosures of P(n) and P(m) too wide to decide leave the verdict to
    # the inequality's own ladder, which must agree with the scan's
    recs = [r for r in scan_induction(4, 10 ** 6, 40) if r["m"] >= 4]
    holds = construction._induction_inequality_holds
    ladder = []

    def counted(n, m, kappa):
        ladder.append((n, m))
        return holds(n, m, kappa)

    monkeypatch.setattr(construction, "_induction_inequality_holds", counted)

    def wide(x):
        return intervals.Interval(0, 2 * predicted_bound_interval(x, 4).hi)

    assert recs
    for r in recs:
        n, m = r["n"], r["m"]
        ladder.clear()
        verdict = construction._induction_from_bounds(n, m, 4, wide(n),
                                                      wide(m))
        assert ladder == [(n, m)]
        assert verdict == holds(n, m, 4) == r["induction_covers"]


@pytest.mark.parametrize("n, m", [(1000, 999), (10 ** 6, 10 ** 6 - 1),
                                  (10 ** 6, 5000)])
def test_induction_from_bounds_refuses_without_the_ladder(n, m, monkeypatch):
    # an m far above the schedule's choice (510 at n = 10^6) fails the
    # inequality by a margin the 96-bit enclosures already show, so no
    # ladder runs
    holds = construction._induction_inequality_holds

    def refused(*args):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr(construction, "_induction_inequality_holds", refused)
    assert construction._induction_from_bounds(
        n, m, 4, predicted_bound_interval(n, 4),
        predicted_bound_interval(m, 4)) is False
    assert holds(n, m, 4) is False


@pytest.mark.parametrize("n", [1000, 54321, 10 ** 6 + 3, 9 * 10 ** 6])
@pytest.mark.parametrize("k", [1, 20, 80])
def test_scan_decisions_hold_on_any_rational_enclosure(n, k, monkeypatch):
    # P's enclosures widened by 1/3^k are still enclosures, with no
    # power-of-2 denominator: the scan's integer decisions must give
    # choose_m and the inequality's verdict, and a widening far below 96
    # bits must leave to the ladders what the 96-bit enclosures leave
    m_true = choose_m(n, 4)
    holds = construction._induction_inequality_holds(n, m_true, 4)
    ladders = []
    monkeypatch.setattr(construction, "choose_m",
                        lambda *args: ladders.append("m") or m_true)
    monkeypatch.setattr(construction, "_induction_inequality_holds",
                        lambda *args: ladders.append("induction") or holds)

    def decide(widen):
        ladders.clear()
        pn, pm = (predicted_bound_interval(x, 4) for x in (n, m_true))
        pn, pm = (intervals.Interval(p.lo - widen, p.hi + widen)
                  for p in (pn, pm))
        m = construction._m_from_bound(n, 4, pn)
        return m, construction._induction_from_bounds(n, m, 4, pn, pm), \
            list(ladders)

    m, verdict, used = decide(Fraction(1, 3 ** k))
    assert (m, verdict) == (m_true, holds)
    if k == 80:
        assert used == decide(0)[2]


# --- isoperimetric context --------------------------------------------------


def test_isoperimetric_lower_bound_unit_lattice():
    iso = isoperimetric_ratio_lower(3)
    assert Fraction(48, 10) < iso.lo
    assert iso.hi < Fraction(49, 10)
    # the cube attains 6, comfortably above the bound
    assert iso.hi < 6
    with pytest.raises(ValueError):
        isoperimetric_ratio_lower(0)


@pytest.mark.parametrize("n, closed_form", [
    (1, lambda mp: mp.mpf(2)),
    (2, lambda mp: 2 * mp.sqrt(mp.pi)),
    (3, lambda mp: 3 * mp.cbrt(4 * mp.pi / 3)),
    (24, None),
    (250, None),
    (10 ** 5, None),
    (10 ** 6, None),
    (10 ** 9, None),
], ids=["n1", "n2", "n3", "n24", "n250", "n1e5", "n1e6", "n1e9"])
def test_isoperimetric_lower_bound_brackets_the_reference(n, closed_form):
    # at 10^9 the recurrence would take 5 10^8 interval steps; the bound
    # takes one lnGamma
    ref = mp_isoperimetric_ratio(n)
    if closed_form is not None:
        assert abs(mp_reference(closed_form) - ref) < Fraction(1, 2 ** 4000)
    iso = isoperimetric_ratio_lower(n)
    assert iso.lo <= ref <= iso.hi
    # relative 2^-88: below 2^-80 absolute too while ref < 2^8 (n <= 250)
    assert iso.width < ref / 2 ** 88


def test_isoperimetric_lower_bound_overlaps_the_recurrence():
    for n in range(1, 65):
        iso, ref = (isoperimetric_ratio_lower(n),
                    reference_isoperimetric_ratio_lower(n))
        assert iso.lo <= ref.hi and ref.lo <= iso.hi, n
