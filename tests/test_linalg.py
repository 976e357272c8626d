import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratile.linalg import (IntMatrix, QMatrix, clear_denominators,
                             complete_to_full_rank, denominator_lcm, det_int,
                             det_q, inverse, lll_reduce, operator_norm_upper,
                             rank_int_rows, rank_over_rationals, rref)

from oracles import (columns_independent, hnf_basis_columns,
                     integer_kernel_basis, nullspace, rank_over_gf2,
                     rayleigh_lower_sq, solve_unique)

bit_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=1),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))

int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


# --- ranks ------------------------------------------------------------------

def test_rank_basics():
    assert rank_int_rows([[1, 0], [0, 1]]) == 2
    assert rank_int_rows([[1, 2], [2, 4]]) == 1
    assert rank_int_rows([[0, 0]]) == 0
    assert rank_over_gf2(IntMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank_over_gf2(IntMatrix.from_rows([[2, 0], [0, 2]])) == 0


@given(bit_matrices)
def test_gf2_rank_never_exceeds_rational_rank(rows):
    m = IntMatrix.from_rows(rows)
    assert rank_over_gf2(m) <= rank_over_rationals(m)


@given(bit_matrices)
def test_gf2_independence_implies_rational(rows):
    m = IntMatrix.from_rows(rows)
    cols = list(range(m.ncols))
    if columns_independent(m, cols, field="GF2"):
        assert columns_independent(m, cols, field="Q")


def test_independence_counterexamples():
    dup = IntMatrix.from_rows([[1, 1], [0, 0]])
    assert not columns_independent(dup, [0, 1], field="GF2")
    even = IntMatrix.from_rows([[2], [4]])
    assert columns_independent(even, [0], field="Q")
    assert not columns_independent(even, [0], field="GF2")


# --- solving ----------------------------------------------------------------

def test_rref_pivots():
    m = QMatrix.from_rows([[2, 4], [1, 3]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_solve_and_inverse_agree():
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    x = solve_unique(a, [3, 2])
    assert a.mul_vec(x) == (Fraction(3), Fraction(2))
    ainv = inverse(a)
    assert (ainv @ a).entries == QMatrix.identity(2).entries


def test_nullspace_is_kernel():
    a = QMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    basis = nullspace(a)
    assert len(basis) == 1
    assert a.mul_vec(basis[0]) == (Fraction(0), Fraction(0))


@given(int_matrices)
def test_det_matches_rank_deficiency(rows):
    n = min(len(rows), len(rows[0]))
    square = [r[:n] for r in rows[:n]]
    d = det_int(square)
    assert (d == 0) == (rank_int_rows(square) < n)
    assert det_q(QMatrix.from_rows(square)) == d


def test_clear_denominators():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    im, den = clear_denominators(m)
    assert den == 6 and im.entries == ((3, 2),)


def test_denominator_lcm():
    assert denominator_lcm([]) == 1
    assert denominator_lcm([3, -7, 0]) == 1
    assert denominator_lcm([Fraction(1, 4), 2, Fraction(5, 6)]) == 12


def _lcm_loop(values):
    d = 1
    for x in values:
        d = d * x.denominator // math.gcd(d, x.denominator)
    return d


def _clear_denominators_by_loop(m):
    d = _lcm_loop(x for row in m.entries for x in row)
    return tuple(tuple(int(x * d) for x in row) for row in m.entries), d


def _rank_by_row_loop(m):
    rows = []
    for row in m.entries:
        d = _lcm_loop(row)
        rows.append([int(x * d) for x in row])
    return rank_int_rows(rows)


rational_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-6, max_value=6,
                                  max_denominator=12),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(st.one_of(int_matrices, rational_matrices))
def test_clearing_and_rank_match_the_lcm_loops(rows):
    # integer-valued rows take the denominator-1 fast path, others the general
    q = QMatrix.from_rows(rows)
    im, den = clear_denominators(q)
    assert (im.entries, den) == _clear_denominators_by_loop(q)
    assert all(type(x) is int for row in im.entries for x in row)
    assert rank_over_rationals(q) == _rank_by_row_loop(q)
    if all(x.denominator == 1 for row in q.entries for x in row):
        assert rank_over_rationals(im) == _rank_by_row_loop(q)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_identity_matrices(n):
    want = tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))
    assert IntMatrix.identity(n).entries == want
    q = QMatrix.identity(n)
    assert q.entries == want
    assert all(type(x) is Fraction for row in q.entries for x in row)
    assert rank_over_rationals(q) == n


# --- integer kernels ----------------------------------------------------------

def test_kernel_of_worked_matrix():
    b = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    k = integer_kernel_basis(b)
    assert k.shape == (4, 2)
    for j in range(2):
        assert all(v == 0 for v in b.mul_vec(k.col(j)))
    gram = [[sum(a * b_ for a, b_ in zip(k.col(i), k.col(j)))
             for j in range(2)] for i in range(2)]
    assert det_int(gram) != 0


@given(bit_matrices)
def test_kernel_rank_complements_row_rank(rows):
    b = IntMatrix.from_rows(rows)
    k = integer_kernel_basis(b)
    assert k.ncols == b.ncols - rank_over_rationals(b)
    for j in range(k.ncols):
        assert all(v == 0 for v in b.mul_vec(k.col(j)))


def test_hnf_basis_columns_spans_same_lattice():
    gens = IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]])  # rank 1 columns
    basis = hnf_basis_columns(gens)
    assert basis.ncols == 1
    assert rank_over_rationals(basis) == 1


# --- completion ---------------------------------------------------------------

def test_completion_already_full_rank():
    a = IntMatrix.identity(2)
    res = complete_to_full_rank(a)
    assert res.matrix.entries == a.entries
    assert res.added_units == ()


def test_completion_of_repeated_rows():
    a = IntMatrix.from_rows([[1, 1], [1, 1]])
    res = complete_to_full_rank(a)
    rows = set(res.matrix.entries)
    assert (1, 1) in rows
    assert (0, 1) in rows or (1, 0) in rows
    assert rank_int_rows(res.matrix.entries) == 2


def test_completion_of_zero_row():
    a = IntMatrix.from_rows([[1, 0, 0], [0, 0, 0]])
    res = complete_to_full_rank(a)
    assert rank_int_rows(res.matrix.entries) == 2
    assert (1, 0, 0) in set(res.matrix.entries)
    # appended unit row at a non-pivot coordinate
    assert all(res.matrix.entries[i].count(1) == 1 for i in (1,))


def test_completion_keeps_the_first_independent_rows():
    # row 1 repeats row 0 twice over, row 3 is the sum of rows 0 and 2
    a = IntMatrix.from_rows([[1, 0, 1, 0], [2, 0, 2, 0], [0, 1, 0, 0],
                             [1, 1, 1, 0]])
    res = complete_to_full_rank(a)
    assert res.added_units == (2, 3)
    assert res.matrix.entries == ((1, 0, 1, 0), (0, 1, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, 1))


@given(bit_matrices)
def test_completion_certificate_and_kernel(rows):
    a = IntMatrix.from_rows(rows)
    if a.nrows > a.ncols:
        a = a.t()
    res = complete_to_full_rank(a)
    assert rank_int_rows(res.matrix.entries) == a.nrows
    cert_a = operator_norm_upper(a)
    assert res.certificate.usq <= cert_a.usq + 1
    assert rayleigh_lower_sq(res.matrix, iters=5) <= res.certificate.usq


# --- norm bounds ----------------------------------------------------------------

def test_norm_certificate_examples():
    assert operator_norm_upper(IntMatrix.identity(3)).usq == 1
    ones = IntMatrix.from_rows([[1] * 4 for _ in range(2)])
    # rank one: spectral norm sqrt(8), row-col product gives it exactly
    assert operator_norm_upper(ones).usq == 8
    assert rayleigh_lower_sq(ones, iters=3) == 8


@given(int_matrices)
def test_rayleigh_below_certificate(rows):
    m = IntMatrix.from_rows(rows)
    lo = rayleigh_lower_sq(m, iters=4)
    assert lo <= operator_norm_upper(m).usq
    assert lo <= operator_norm_upper(m, refine_steps=2).usq


@given(int_matrices)
def test_transpose_norm_agreement(rows):
    m = IntMatrix.from_rows(rows)
    # both certify the same value, so each dominates the other's floor
    assert rayleigh_lower_sq(m, iters=4) <= operator_norm_upper(m.t()).usq
    assert rayleigh_lower_sq(m.t(), iters=4) <= operator_norm_upper(m).usq


def test_refined_bound_never_worse():
    m = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    base = operator_norm_upper(m).usq
    refined = operator_norm_upper(m, refine_steps=3).usq
    assert refined <= base
    assert rayleigh_lower_sq(m, iters=8) <= refined


# --- basis reduction ---------------------------------------------------------------

def _column_lattice_canonical(q: QMatrix) -> tuple:
    im, den = clear_denominators(q)
    return hnf_basis_columns(im).entries, den


def test_lll_preserves_lattice_and_reduces():
    basis = QMatrix.from_rows([[1, 0], [1000, 1]])
    red = lll_reduce(basis)
    assert _column_lattice_canonical(red) == _column_lattice_canonical(basis)
    # the huge shear must be gone: all entries small
    assert max(abs(x) for row in red.entries for x in row) <= 2


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_lll_same_lattice_when_independent(rows):
    if det_int(rows) == 0:
        return
    basis = QMatrix.from_rows(rows)
    red = lll_reduce(basis)
    assert _column_lattice_canonical(red) == _column_lattice_canonical(basis)
    assert abs(det_q(red)) == abs(det_q(basis))


def test_lll_lovasz_condition():
    basis = QMatrix.from_rows([[4, 1, 7], [1, 5, 2], [0, 3, 9]])
    red = lll_reduce(basis)
    cols = [[red.entries[i][j] for i in range(3)] for j in range(3)]

    def dot(u, v):
        return sum(Fraction(a) * b for a, b in zip(u, v))

    # recompute Gram-Schmidt and check delta = 3/4 condition
    star = [list(map(Fraction, cols[0]))]
    mu = {}
    for i in range(1, 3):
        v = list(map(Fraction, cols[i]))
        for j in range(i):
            mu[i, j] = dot(cols[i], star[j]) / dot(star[j], star[j])
            v = [x - mu[i, j] * y for x, y in zip(v, star[j])]
        star.append(v)
    for i in range(1, 3):
        lhs = dot(star[i], star[i])
        rhs = (Fraction(3, 4) - mu[i, i - 1] ** 2) * dot(star[i - 1], star[i - 1])
        assert lhs >= rhs
        for j in range(i):
            assert abs(mu[i, j]) <= Fraction(1, 2)


def test_lll_rejects_dependent_columns():
    with pytest.raises(ValueError):
        lll_reduce(QMatrix.from_rows([[1, 2], [2, 4]]))
