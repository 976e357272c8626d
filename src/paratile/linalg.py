"""Exact linear algebra over Z and Q with certified operator norms.

A matrix is one ``QMatrix``: an immutable integer numerator matrix over one
positive denominator.  An integer matrix is the case den == 1, tested by
``is_integer``, and its entries are its numerator rows.  Products,
transposes, inverses, ranks, determinants and equality all run on integers:
inversion and rank are fraction-free eliminations, and a Fraction is built
only for an entry of a non-integer matrix that someone reads, on each read:
a matrix keeps no second copy of itself.  Operator norm upper bounds are
certificates: exact rationals provably at or above the true spectral norm,
never floating-point estimates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .intervals import root_interval

Rat = Union[int, Fraction]


def denominator_lcm(values: Iterable[Rat]) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return math.lcm(*{x.denominator for x in values})


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    """Exact dot product of two sequences of ints or Fractions."""
    return sum(map(mul, a, b))


def _exact_entry(x) -> Rat:
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(
        f"matrix entries must be rational, not {type(x).__name__}")


def scaled_to_int(row: Sequence[Rat], d: int) -> Tuple[int, ...]:
    """The integers d * x; d must clear every denominator in the row."""
    if d == 1:
        return tuple(x.numerator for x in row)
    return tuple(x.numerator * (d // x.denominator) for x in row)


def identity_rows(n: int, one: int = 1) -> Tuple[Tuple[int, ...], ...]:
    """The rows of one * I_n, each one slice of a band 0..0 one 0..0."""
    band = (0,) * (n - 1) + (one,) + (0,) * (n - 1)
    return tuple(band[n - 1 - i:2 * n - 1 - i] for i in range(n))


# --- the matrix container ----------------------------------------------------

@dataclass(frozen=True)
class QMatrix:
    """The rational matrix num / den: integer rows over one denominator.

    The form is canonical, den > 0 and gcd(den, every numerator) = 1, so two
    equal matrices have equal (num, den), and == and hash are exact.  An
    integer matrix is one with den == 1, and its entries are its numerators.
    """

    num: Tuple[Tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 1:
            return
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = tuple(tuple(-x for x in row) for row in num), -den
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            num, den = tuple(tuple(x // g for x in row) for row in num), den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Rat]]) -> "QMatrix":
        """Entries must be numbers.Rational; a float is refused, since 0.1
        would be read as its binary value, not as 1/10."""
        ent = tuple(tuple(map(_exact_entry, row)) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        d = denominator_lcm(chain.from_iterable(ent))
        return QMatrix(tuple(scaled_to_int(row, d) for row in ent), d)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(identity_rows(n))

    @property
    def entries(self) -> Tuple[Tuple[Rat, ...], ...]:
        """The entries: num itself when den == 1, else Fractions built on
        each read."""
        if self.den == 1:
            return self.num
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0]) if self.num else 0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def col(self, j: int) -> Tuple[Rat, ...]:
        c = tuple(r[j] for r in self.num)
        return c if self.den == 1 else tuple(Fraction(x, self.den) for x in c)

    def t(self) -> "QMatrix":
        return QMatrix(tuple(zip(*self.num)) if self.num else (), self.den)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        a, b = self.num, other.num
        if a and b and len(a[0]) != len(b):
            raise ValueError(f"shape mismatch {len(a[0])} vs {len(b)}")
        bt = tuple(zip(*b)) if b else ()
        return QMatrix(tuple(tuple(dot(row, col) for col in bt) for row in a),
                       self.den * other.den)

    def mul_vec(self, v: Sequence[Rat]) -> Tuple[Rat, ...]:
        """M v, clearing v's denominators once: one Fraction per output, or
        one int when M and v are integer."""
        dv = denominator_lcm(v)
        iv = scaled_to_int(v, dv)
        den = self.den * dv
        if den == 1:
            return tuple(dot(row, iv) for row in self.num)
        return tuple(Fraction(dot(row, iv), den) for row in self.num)

    def is_integer(self) -> bool:
        return self.den == 1

    def is_identity(self) -> bool:
        """Whether this is I_n, read row by row off num; no I_n is built."""
        n = self.nrows
        return self.den == 1 and self.ncols == n and all(
            row[i] == 1 and row.count(0) == n - 1
            for i, row in enumerate(self.num))


# --- ranks and elimination ---------------------------------------------------

def pivot_columns(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Pivot columns of an integer row list: the columns that are not
    combinations of the columns before them, the pivots of its reduced row
    echelon form.

    Rows enter an echelon basis one at a time, keyed by leading column; a
    row whose lead is taken is cross-eliminated with that basis row and
    divided by its content until its lead is free or it vanishes.  The
    leads of any echelon basis of the row space are its pivot columns.
    """
    basis = {}
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(basis) == ncols:
            break
        while True:
            lead = next(compress(range(ncols), row), None)
            if lead is None:
                break
            p = basis.get(lead)
            if p is None:
                basis[lead] = row
                break
            a, b = p[lead], row[lead]
            row = [a * x - b * y for x, y in zip(row, p)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return tuple(sorted(basis))


def rank_over_rationals(m: QMatrix) -> int:
    return len(pivot_columns(m.num))


def inverse(a: QMatrix) -> QMatrix:
    """Fraction-free Gauss-Jordan on [N | I] for a = N / den.

    Each step k cross-multiplies every other row by the pivot and divides by
    the previous pivot; by Sylvester's identity (Bareiss 1968) the division
    is exact, every entry being a minor of [N | I].  The elimination ends at
    [d I | d N^-1] with d = +-det N, so a^-1 = den (d N^-1) / d.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError("not square")
    work = [row + unit for row, unit in zip(a.num, identity_rows(n))]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[k], work[piv] = work[piv], work[k]
        pk = work[k]
        p = pk[k]
        for i in range(n):
            if i != k:
                f = work[i][k]
                work[i] = [(p * x - f * y) // prev
                           for x, y in zip(work[i], pk)]
        prev = p
    c = a.den if prev > 0 else -a.den
    return QMatrix(tuple(tuple(c * x for x in row[n:]) for row in work),
                   abs(prev))


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_q(m: QMatrix) -> Fraction:
    return Fraction(det_int(m.num), m.den ** m.nrows)


# --- Hermite forms, kernels, lattice bases -----------------------------------

def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf_rows(mat: Sequence[Sequence[int]]):
    """Row-style Hermite normal form.

    Returns (H, U, pivot_cols) with U unimodular and U @ mat = H.  H is
    canonical: pivots positive, entries above each pivot reduced into
    [0, pivot), zero rows last.
    """
    H = [list(r) for r in mat]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [list(r) for r in identity_rows(m)]
    r = 0
    pivot_cols: List[int] = []
    for col in range(n):
        piv = next((i for i in range(r, m) if H[i][col]), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if H[i][col] == 0:
                continue
            a, b = H[r][col], H[i][col]
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            # [[x, y], [-q, p]] has determinant 1
            H[r], H[i] = ([x * u + y * v for u, v in zip(H[r], H[i])],
                          [-q * u + p * v for u, v in zip(H[r], H[i])])
            U[r], U[i] = ([x * u + y * v for u, v in zip(U[r], U[i])],
                          [-q * u + p * v for u, v in zip(U[r], U[i])])
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        p = H[r][col]
        for i in range(r):
            q = H[i][col] // p
            if q:
                H[i] = [u - q * v for u, v in zip(H[i], H[r])]
                U[i] = [u - q * v for u, v in zip(U[i], U[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    return H, U, tuple(pivot_cols)


# --- operator norm certificates ----------------------------------------------

def _abs_row_sums(entries) -> list:
    return [sum(abs(x) for x in row) for row in entries]


def operator_norm_upper(m: QMatrix, refine_steps: int = 0) -> Fraction:
    """Certified upper bound on the squared spectral norm of m: an exact
    rational at or above it.

    The base certificate is max abs row sum * max abs col sum.  With
    ``refine_steps`` = j > 0 the bound is tightened through Gram powering:
    lambda_max(G)**(2**j) <= max-row-sum(G**(2**j)) for G = m^T m, all in
    exact arithmetic, and the best of all available bounds is kept.
    """
    rows = m.num
    if not rows or not rows[0]:
        return Fraction(0)
    maxrow = max(_abs_row_sums(rows))
    maxcol = max(_abs_row_sums(zip(*rows)))
    best = Fraction(maxrow * maxcol, m.den ** 2)
    if refine_steps > 0:
        power = m.t() @ m
        k = 1
        for step in range(refine_steps):
            if step:
                power = power @ power
                k *= 2
            mrs = Fraction(max(_abs_row_sums(power.num)), power.den)
            cand = root_interval(mrs, k, 32).hi
            best = min(best, cand)
    return best


# --- rank completion ---------------------------------------------------------

@dataclass(frozen=True)
class CompletionResult:
    matrix: QMatrix                # full-rank integer m x n
    norm_usq: Fraction             # certified bound on its squared norm


def complete_to_full_rank(a: QMatrix, base_usq: Optional[Rat] = None
                          ) -> CompletionResult:
    """Replace a possibly rank-deficient m x n matrix by a full-rank one.

    Keeps a maximal independent set of rows of ``a`` and appends standard
    basis rows at coordinates outside the pivot columns; with m <= n there
    are always enough.  The kernel of the result sits inside the kernel of
    ``a``, so any support-size guarantee on kernel vectors survives, and
    the squared-norm bound ``base_usq`` of ``a`` (computed when not given)
    grows by at most 1 (the appended rows contribute a rank-one Gram
    summand each).
    """
    if not a.is_integer():
        raise ValueError("rank completion needs an integer matrix")
    m, n = a.shape
    if m > n:
        raise ValueError("more rows than columns")
    usq_a = operator_norm_upper(a) if base_usq is None else base_usq
    # the pivot columns of a^T are the greedy maximal independent row set
    indep = pivot_columns(a.t().num)
    if len(indep) == m:
        return CompletionResult(a, usq_a)
    rows = tuple(a.num[i] for i in indep)
    pivot_cols = pivot_columns(rows)
    free_cols = [j for j in range(n) if j not in pivot_cols]
    b = QMatrix(rows + tuple(tuple(int(k == j) for k in range(n))
                             for j in free_cols[:m - len(indep)]))
    return CompletionResult(b, min(usq_a + 1, operator_norm_upper(b)))


def ldl_split(g: QMatrix) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """G = U^T diag(d) U with U unit upper triangular; requires G pos. def.

    For G = B^T B this is Gram-Schmidt: d[i] = |b*_i|^2 and U[j][i] is
    mu_ij, the coefficient of b*_j in b_i."""
    n, den = g.nrows, g.den
    a = [[Fraction(x, den) for x in row] for row in g.num]
    d: List[Fraction] = [Fraction(0)] * n
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        acc = a[i][i] - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if acc <= 0:
            raise ValueError("Gram matrix is not positive definite")
        d[i] = acc
        for j in range(i + 1, n):
            s = a[i][j] - sum(d[k] * u[k][i] * u[k][j] for k in range(i))
            u[i][j] = s / acc
    return d, u


LLL_DELTA = Fraction(3, 4)


def lll_reduce(basis: QMatrix) -> QMatrix:
    """Column basis reduction, exact rational arithmetic throughout.

    Same column lattice, far less eccentric basis; keeps downstream point
    enumerations from drowning in a skew slab.  The Gram-Schmidt data is
    the LDL split of B^T B, kept current in place through each size
    reduction and swap (Cohen 1993, Alg. 2.6.3); the steps act on an
    integer transform T, and the result is B T.  Column i is fully size
    reduced before its Lovasz test with delta = 3/4.
    """
    k = basis.ncols
    if k <= 1:
        return basis
    # dependent columns make B^T B singular, and the split refuses it
    bs, u = ldl_split(basis.t() @ basis)
    mu = [[u[j][i] for j in range(i)] for i in range(k)]  # mu[i][j], j < i
    t = [list(row) for row in identity_rows(k)]  # the columns of T
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                t[i] = [x - q * y for x, y in zip(t[i], t[j])]
                mu[i][j] -= q
                for h in range(j):
                    mu[i][h] -= q * mu[j][h]
        c = mu[i][i - 1]
        if bs[i] >= (LLL_DELTA - c * c) * bs[i - 1]:
            i += 1
            continue
        # swap columns i - 1 and i
        t[i], t[i - 1] = t[i - 1], t[i]
        mu[i][:i - 1], mu[i - 1] = mu[i - 1], mu[i][:i - 1]
        b = bs[i] + c * c * bs[i - 1]
        mu[i][i - 1] = c * bs[i - 1] / b
        bs[i], bs[i - 1] = bs[i - 1] * bs[i] / b, b
        for r in range(i + 1, k):
            x = mu[r][i]
            mu[r][i] = mu[r][i - 1] - c * x
            mu[r][i - 1] = x + mu[i][i - 1] * mu[r][i]
        i = max(i - 1, 1)
    return basis @ QMatrix(tuple(zip(*t)))
