import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratile.linalg import (QMatrix, complete_to_full_rank, denominator_lcm,
                             det_int, det_q, inverse, lll_reduce,
                             operator_norm_upper, pivot_columns,
                             rank_over_rationals)

from oracles import (columns_independent, grid_det, grid_inverse,
                     grid_product, hnf_basis_columns, integer_kernel_basis,
                     nullspace, rank_over_gf2, rayleigh_lower_sq,
                     reference_lll_reduce, rref, solve_unique)

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
    assert rank_over_rationals(QMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank_over_rationals(QMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank_over_rationals(QMatrix.from_rows([[0, 0]])) == 0
    assert rank_over_gf2(QMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank_over_gf2(QMatrix.from_rows([[2, 0], [0, 2]])) == 0


@given(bit_matrices)
def test_gf2_rank_never_exceeds_rational_rank(rows):
    m = QMatrix.from_rows(rows)
    assert rank_over_gf2(m) <= rank_over_rationals(m)


@given(bit_matrices)
def test_gf2_independence_implies_rational(rows):
    m = QMatrix.from_rows(rows)
    cols = list(range(m.ncols))
    if columns_independent(m, cols, field="GF2"):
        assert columns_independent(m, cols, field="Q")


def test_independence_counterexamples():
    dup = QMatrix.from_rows([[1, 1], [0, 0]])
    assert not columns_independent(dup, [0, 1], field="GF2")
    even = QMatrix.from_rows([[2], [4]])
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
    assert (d == 0) == (len(pivot_columns(square)) < n)
    assert det_q(QMatrix.from_rows(square)) == d


def test_clear_denominators():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    assert m.den == 6 and m.num == ((3, 2),)


def test_from_rows_takes_exact_rationals_only():
    m = QMatrix.from_rows([[np.int64(3), Fraction(1, 2)], [True, 0]])
    assert m.den == 2 and m.num == ((6, 1), (2, 0))
    assert all(type(x) is int for row in m.num for x in row)
    # 0.1 is 3602879701896397 / 2^55, not 1/10; a string is no number
    for bad in (0.1, np.float64(0.5), "1/2", complex(1)):
        with pytest.raises(TypeError, match=type(bad).__name__):
            QMatrix.from_rows([[1, bad]])


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
    return len(pivot_columns(rows))


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
    assert (q.num, q.den) == _clear_denominators_by_loop(q)
    assert all(type(x) is int for row in q.num for x in row)
    assert rank_over_rationals(q) == _rank_by_row_loop(q)
    assert rank_over_rationals(QMatrix(q.num)) == _rank_by_row_loop(q)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_identity_matrices(n):
    want = tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))
    q = QMatrix.identity(n)
    assert q.entries == want and q.entries is q.num and q.is_integer()
    assert all(type(x) is int for row in q.entries for x in row)
    assert rank_over_rationals(q) == n


# --- numerator over denominator against the Fraction-entry oracle ---------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _grids(draw, nrows, ncols, integer):
    cell = st.integers(-4, 4) if integer else small_fractions
    return [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]


def _frac(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@st.composite
def matrix_pairs(draw):
    """(a rows, a integer?, b rows, b integer?) with a m x k, b k x n."""
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    ints = draw(st.tuples(st.booleans(), st.booleans()))
    return (_grids(draw, m, k, ints[0]), ints[0],
            _grids(draw, k, n, ints[1]), ints[1])


@given(matrix_pairs())
def test_products_match_the_fraction_grid(pair):
    a_rows, a_int, b_rows, b_int = pair
    got = QMatrix.from_rows(a_rows) @ QMatrix.from_rows(b_rows)
    # a product of integer matrices stays integer, its entries ints
    if a_int and b_int:
        assert got.is_integer()
        assert all(type(x) is int for row in got.entries for x in row)
    assert got.entries == grid_product(_frac(a_rows), _frac(b_rows))


@st.composite
def rational_grids(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return _grids(draw, m, n, integer=False)


@given(rational_grids(), st.lists(small_fractions, min_size=4, max_size=4))
def test_unary_operations_match_the_fraction_grid(rows, v):
    q, want = QMatrix.from_rows(rows), _frac(rows)
    assert q.entries == want
    assert q.t().entries == tuple(zip(*want))
    assert q.is_integer() == all(x.denominator == 1 for row in want
                                 for x in row)
    vec = v[:q.ncols]
    assert q.mul_vec(vec) == tuple(
        sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in want)
    assert all(Fraction(x, q.den) == y for r, w in zip(q.num, want)
               for x, y in zip(r, w))
    assert rank_over_rationals(q) == len(rref(q)[1])
    k = min(q.nrows, q.ncols)
    square = [row[:k] for row in rows[:k]]
    assert det_q(QMatrix.from_rows(square)) == grid_det(square)


@st.composite
def square_grids(draw):
    n = draw(st.integers(1, 4))
    # entries from a small range make singular draws common
    cell = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return [[draw(cell) for _ in range(n)] for _ in range(n)]


@given(square_grids())
def test_inverse_matches_the_rref_of_the_augmented_grid(rows):
    q = QMatrix.from_rows(rows)
    try:
        want = grid_inverse(_frac(rows))
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(q)
        return
    got = inverse(q)
    assert got.entries == want
    assert q @ got == QMatrix.identity(q.nrows) == got @ q


def test_inverse_refuses_singular_and_non_square_input():
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]],
                 [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError, match="singular"):
            inverse(QMatrix.from_rows(rows))
    with pytest.raises(ValueError, match="not square"):
        inverse(QMatrix.from_rows([[1, 2]]))
    assert inverse(QMatrix(())) == QMatrix(())


@given(rational_grids(), st.integers(-5, 5).filter(bool))
def test_canonical_form_makes_equality_exact(rows, k):
    q = QMatrix.from_rows(rows)
    assert q.den > 0
    assert math.gcd(q.den, *(x for row in q.num for x in row)) == 1
    # the same matrix reached by other routes has the same numbers and hash
    inflated = QMatrix(tuple(tuple(k * x for x in row) for row in q.num),
                       k * q.den)
    over_den = QMatrix(QMatrix.identity(q.ncols).num, q.den)
    others = [inflated, q.t().t(), q @ QMatrix.identity(q.ncols),
              QMatrix.identity(q.nrows) @ q, QMatrix(q.num) @ over_den,
              QMatrix.from_rows(q.entries)]
    for other in others:
        assert (other.num, other.den) == (q.num, q.den)
        assert other == q and hash(other) == hash(q)
    # a zero matrix over any denominator is the integer zero matrix
    zero = QMatrix(tuple((0,) * q.ncols for _ in rows), k * q.den)
    assert zero.den == 1
    assert zero == QMatrix.from_rows([[0] * q.ncols for _ in rows])
    if q.den > 1:
        assert q != QMatrix(q.num)
    with pytest.raises(ZeroDivisionError):
        QMatrix(q.num, 0)


@given(int_matrices)
def test_integer_matrices_embed_exactly(rows):
    # an integer matrix is den == 1: its entries, products, columns and
    # vector products are ints, and no Fraction grid is ever built
    m = QMatrix.from_rows(rows)
    assert m.is_integer() and m.num == tuple(map(tuple, rows))
    assert m.entries is m.num
    gram = m @ m.t()
    assert gram.is_integer() and gram.entries is gram.num
    assert gram.entries == grid_product(rows, list(zip(*rows)))
    ints = [m.mul_vec(range(m.ncols)), m.col(0)]
    ints += gram.num
    assert all(type(x) is int for vec in ints for x in vec)


@given(int_matrices)
def test_pivot_columns_are_the_rref_pivots(rows):
    assert pivot_columns(rows) == rref(QMatrix.from_rows(rows))[1]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_column_matrices(n):
    z = QMatrix(((),) * n)
    assert z.shape == (n, 0) and z.entries == ((),) * n
    assert z == QMatrix.from_rows([[] for _ in range(n)]) == \
        QMatrix(((),) * n, 7)
    assert z.is_integer() and rank_over_rationals(z) == 0
    assert z.mul_vec([]) == (Fraction(0),) * n
    assert z.t() == QMatrix(())
    assert (z @ QMatrix(())).shape == (n, 0)
    assert (z.num, z.den) == (((),) * n, 1)


# --- integer kernels ----------------------------------------------------------

def test_kernel_of_worked_matrix():
    b = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    k = integer_kernel_basis(b)
    assert k.shape == (4, 2)
    for j in range(2):
        assert all(v == 0 for v in b.mul_vec(k.col(j)))
    gram = [[sum(a * b_ for a, b_ in zip(k.col(i), k.col(j)))
             for j in range(2)] for i in range(2)]
    assert det_int(gram) != 0


@given(bit_matrices)
def test_kernel_rank_complements_row_rank(rows):
    b = QMatrix.from_rows(rows)
    k = integer_kernel_basis(b)
    assert k.ncols == b.ncols - rank_over_rationals(b)
    for j in range(k.ncols):
        assert all(v == 0 for v in b.mul_vec(k.col(j)))


def test_hnf_basis_columns_spans_same_lattice():
    gens = QMatrix.from_rows([[2, 4, 6], [1, 2, 3]])  # rank 1 columns
    basis = hnf_basis_columns(gens)
    assert basis.ncols == 1
    assert rank_over_rationals(basis) == 1


# --- completion ---------------------------------------------------------------

def test_completion_already_full_rank():
    a = QMatrix.identity(2)
    res = complete_to_full_rank(a)
    assert res.matrix == a


def test_completion_of_repeated_rows():
    a = QMatrix.from_rows([[1, 1], [1, 1]])
    res = complete_to_full_rank(a)
    rows = set(res.matrix.entries)
    assert (1, 1) in rows
    assert (0, 1) in rows or (1, 0) in rows
    assert rank_over_rationals(res.matrix) == 2


def test_completion_of_zero_row():
    a = QMatrix.from_rows([[1, 0, 0], [0, 0, 0]])
    res = complete_to_full_rank(a)
    assert rank_over_rationals(res.matrix) == 2
    assert (1, 0, 0) in set(res.matrix.entries)
    # appended unit row at a non-pivot coordinate
    assert all(res.matrix.entries[i].count(1) == 1 for i in (1,))


def test_completion_keeps_the_first_independent_rows():
    # row 1 repeats row 0 twice over, row 3 is the sum of rows 0 and 2
    a = QMatrix.from_rows([[1, 0, 1, 0], [2, 0, 2, 0], [0, 1, 0, 0],
                             [1, 1, 1, 0]])
    res = complete_to_full_rank(a)
    # unit rows at the non-pivot coordinates 2 and 3
    assert res.matrix.entries == ((1, 0, 1, 0), (0, 1, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, 1))


def test_completion_refuses_a_non_integer_matrix():
    # 0/1 numerators over 2: the entries are 1/2, not a step matrix
    with pytest.raises(ValueError, match="integer"):
        complete_to_full_rank(QMatrix(((1, 1, 0, 0), (0, 0, 1, 1)), 2))


@given(bit_matrices)
def test_completion_certificate_and_kernel(rows):
    a = QMatrix.from_rows(rows)
    if a.nrows > a.ncols:
        a = a.t()
    res = complete_to_full_rank(a)
    assert rank_over_rationals(res.matrix) == a.nrows
    assert res.norm_usq <= operator_norm_upper(a) + 1
    assert rayleigh_lower_sq(res.matrix, iters=5) <= res.norm_usq


# --- norm bounds ----------------------------------------------------------------

def test_norm_certificate_examples():
    assert operator_norm_upper(QMatrix.identity(3)) == 1
    ones = QMatrix.from_rows([[1] * 4 for _ in range(2)])
    # rank one: spectral norm sqrt(8), row-col product gives it exactly
    assert operator_norm_upper(ones) == 8
    assert rayleigh_lower_sq(ones, iters=3) == 8


@given(int_matrices)
def test_rayleigh_below_certificate(rows):
    m = QMatrix.from_rows(rows)
    lo = rayleigh_lower_sq(m, iters=4)
    assert lo <= operator_norm_upper(m)
    assert lo <= operator_norm_upper(m, refine_steps=2)


@given(int_matrices)
def test_transpose_norm_agreement(rows):
    m = QMatrix.from_rows(rows)
    # both certify the same value, so each dominates the other's floor
    assert rayleigh_lower_sq(m, iters=4) <= operator_norm_upper(m.t())
    assert rayleigh_lower_sq(m.t(), iters=4) <= operator_norm_upper(m)


def test_refined_bound_never_worse():
    m = QMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    base = operator_norm_upper(m)
    refined = operator_norm_upper(m, refine_steps=3)
    assert refined <= base
    assert rayleigh_lower_sq(m, iters=8) <= refined


# --- basis reduction ---------------------------------------------------------------

def _column_lattice_canonical(q: QMatrix) -> tuple:
    return hnf_basis_columns(QMatrix(q.num)).entries, q.den


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


def test_lll_matches_the_recomputing_reference():
    # the in-place Gram-Schmidt updates decide every step as a full
    # recomputation would, so the reduced bases are identical: random
    # rational bases of rank 2-6, and rank-6 bases sheared far from reduced
    rng = random.Random(20)
    bases = []
    while len(bases) < 150:
        k = rng.randint(2, 6)
        den = rng.randint(1, 6)
        b = QMatrix.from_rows([[Fraction(rng.randint(-9, 9), den)
                                for _ in range(k)]
                               for _ in range(k + rng.randint(0, 2))])
        if rank_over_rationals(b) == k:
            bases.append(b)
    while len(bases) < 156:
        rows = [[rng.randint(-9, 9) * (rng.randint(50, 500) if j > i else 1)
                 for j in range(6)] for i in range(6)]
        if det_int(rows):
            bases.append(QMatrix.from_rows(rows))
    for b in bases:
        assert lll_reduce(b) == reference_lll_reduce(b), b
