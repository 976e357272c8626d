"""Exact linear algebra over Z and Q with certified operator norms.

Matrices are immutable tuples of rows.  Integer work (Hermite forms, kernels,
determinants) never leaves Z; rational elimination uses Fraction arithmetic.
Operator norm upper bounds are certificates: exact rationals provably at or
above the true spectral norm, never floating-point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .intervals import root_interval

Rat = Union[int, Fraction]

# shared by every identity matrix: Fractions are immutable, and two identity
# bases then compare equal entry by entry on object identity alone
_Q_ONE = Fraction(1)
_Q_ZERO = Fraction(0)


def denominator_lcm(values: Iterable[Rat]) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return math.lcm(*{x.denominator for x in values})


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    """Exact dot product of two sequences of ints or Fractions."""
    return sum(map(mul, a, b))


def scaled_to_int(row: Sequence[Rat], d: int) -> Tuple[int, ...]:
    """The integers d * x; d must clear every denominator in the row."""
    if d == 1:
        return tuple(x.numerator for x in row)
    return tuple(x.numerator * (d // x.denominator) for x in row)


def _identity_rows(n: int, one, zero) -> tuple:
    zeros = (zero,) * n
    return tuple(zeros[:i] + (one,) + zeros[i + 1:] for i in range(n))


# --- matrix containers -------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    entries: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        ent = tuple(tuple(int(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        for row in ent:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer entries required")
        return IntMatrix(ent)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n, 1, 0))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> Tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def t(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            return IntMatrix(_matmul(self.entries, other.entries))
        if isinstance(other, QMatrix):
            return QMatrix(_matmul(self.entries, other.entries)).normalized()
        raise TypeError(type(other))

    def to_q(self) -> "QMatrix":
        return QMatrix(tuple(tuple(Fraction(x) for x in row)
                             for row in self.entries))

    def mul_vec(self, v: Sequence[Rat]) -> tuple:
        return tuple(dot(row, v) for row in self.entries)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * x for x in row) for row in self.entries))


@dataclass(frozen=True)
class QMatrix:
    entries: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Rat]]) -> "QMatrix":
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        return QMatrix(ent)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(_identity_rows(n, _Q_ONE, _Q_ZERO))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def t(self) -> "QMatrix":
        return QMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def __matmul__(self, other):
        if isinstance(other, (IntMatrix, QMatrix)):
            return QMatrix(_matmul(self.entries, other.entries)).normalized()
        raise TypeError(type(other))

    def normalized(self) -> "QMatrix":
        return QMatrix(tuple(tuple(Fraction(x) for x in row)
                             for row in self.entries))

    def mul_vec(self, v: Sequence[Rat]) -> tuple:
        return tuple(dot(row, v) for row in self.entries)

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def scale(self, c: Rat) -> "QMatrix":
        c = Fraction(c)
        return QMatrix(tuple(tuple(c * x for x in row) for row in self.entries))


def _matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a[0])} vs {len(b)}")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def as_qmatrix(m: Union[IntMatrix, QMatrix]) -> QMatrix:
    return m.to_q() if isinstance(m, IntMatrix) else m


def clear_denominators(m: QMatrix) -> Tuple[IntMatrix, int]:
    """(N, d) with m = N/d, d the lcm of all entry denominators."""
    d = denominator_lcm(chain.from_iterable(m.entries))
    return IntMatrix(tuple(scaled_to_int(row, d) for row in m.entries)), d


# --- ranks and elimination ---------------------------------------------------

def rank_int_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer row list, by integer cross-elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        a = pr[col]
        for i in range(rank + 1, len(work)):
            b = work[i][col]
            if b:
                row = [a * x - b * y for x, y in zip(work[i], pr)]
                g = 0
                for x in row:
                    g = math.gcd(g, x)
                work[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        col += 1
    return rank


def _int_rows_of(m: Union[IntMatrix, QMatrix]) -> Sequence[Sequence[int]]:
    if isinstance(m, IntMatrix):
        return m.entries
    return [scaled_to_int(row, denominator_lcm(row)) for row in m.entries]


def rank_over_rationals(m: Union[IntMatrix, QMatrix]) -> int:
    return rank_int_rows(_int_rows_of(m))


def rref(m: QMatrix) -> Tuple[QMatrix, Tuple[int, ...]]:
    """Reduced row echelon form with pivot column indices."""
    work = [list(row) for row in m.entries]
    nrows, ncols = len(work), (len(work[0]) if work else 0)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return QMatrix.from_rows(work), tuple(pivots)


def inverse(a: QMatrix) -> QMatrix:
    n = a.nrows
    if a.ncols != n:
        raise ValueError("not square")
    aug = QMatrix.from_rows(
        [list(a.entries[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
         for i in range(n)])
    red, piv = rref(aug)
    if piv != tuple(range(n)):
        raise ValueError("singular matrix")
    return QMatrix.from_rows([row[n:] for row in red.entries])


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
    n, d = clear_denominators(m)
    return Fraction(det_int(n.entries), d ** m.nrows)


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


def hnf_rows(mat: Sequence[Sequence[int]],
             transform: bool = False):
    """Row-style Hermite normal form.

    Returns (H, U, pivot_cols) with U unimodular and U @ mat = H when
    ``transform`` is set, else (H, None, pivot_cols).  H is canonical: pivots
    positive, entries above each pivot reduced into [0, pivot), zero rows last.
    """
    H = [list(r) for r in mat]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    r = 0
    pivot_cols: List[int] = []
    for col in range(n):
        piv = next((i for i in range(r, m) if H[i][col]), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        if U is not None:
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
            if U is not None:
                U[r], U[i] = ([x * u + y * v for u, v in zip(U[r], U[i])],
                              [-q * u + p * v for u, v in zip(U[r], U[i])])
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
            if U is not None:
                U[r] = [-x for x in U[r]]
        p = H[r][col]
        for i in range(r):
            q = H[i][col] // p
            if q:
                H[i] = [u - q * v for u, v in zip(H[i], H[r])]
                if U is not None:
                    U[i] = [u - q * v for u, v in zip(U[i], U[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    return H, U, tuple(pivot_cols)


# --- operator norm certificates ----------------------------------------------

@dataclass(frozen=True)
class NormCertificate:
    """Certified upper bound on a spectral norm: true norm <= sqrt(usq)."""

    usq: Fraction          # exact rational bound on the squared norm


def _abs_row_sums(entries) -> list:
    return [sum(abs(x) for x in row) for row in entries]


def operator_norm_upper(m: Union[IntMatrix, QMatrix],
                        refine_steps: int = 0) -> NormCertificate:
    """Certified upper bound on the spectral norm of m.

    The base certificate is sqrt(max abs row sum * max abs col sum).  With
    ``refine_steps`` = j > 0 the bound is tightened through Gram powering:
    lambda_max(G)**(2**j) <= max-row-sum(G**(2**j)) for G = m^T m, all in
    exact arithmetic, and the best of all available bounds is kept.
    """
    entries = m.entries
    if not entries or not entries[0]:
        return NormCertificate(Fraction(0))
    maxrow = max(_abs_row_sums(entries))
    maxcol = max(_abs_row_sums(tuple(zip(*entries))))
    best = Fraction(maxrow) * Fraction(maxcol)
    if refine_steps > 0:
        power = m.t() @ m  # an IntMatrix stays in integers
        k = 1
        for step in range(refine_steps):
            if step:
                power = power @ power
                k *= 2
            mrs = Fraction(max(_abs_row_sums(power.entries)))
            cand = root_interval(mrs, k, 32).hi
            best = min(best, cand)
    return NormCertificate(best)


# --- rank completion ---------------------------------------------------------

@dataclass(frozen=True)
class CompletionResult:
    matrix: IntMatrix              # full-rank m x n
    certificate: NormCertificate
    added_units: Tuple[int, ...]   # coordinates of the appended unit rows


def complete_to_full_rank(a: IntMatrix,
                          base_cert: Optional[NormCertificate] = None
                          ) -> CompletionResult:
    """Replace a possibly rank-deficient m x n matrix by a full-rank one.

    Keeps a maximal independent set of rows of ``a`` and appends standard
    basis rows at coordinates outside the pivot columns.  The kernel of the
    result sits inside the kernel of ``a``, so any support-size guarantee on
    kernel vectors survives, and the squared-norm certificate grows by at
    most 1 (the appended rows contribute a rank-one Gram summand each).
    """
    m, n = a.shape
    if m > n:
        raise ValueError("more rows than columns")
    # the pivot columns of a^T are the greedy maximal independent row set
    _, indep = rref(a.t().to_q())
    r = len(indep)
    if r == m:
        cert_a = base_cert or operator_norm_upper(a)
        return CompletionResult(a, cert_a, ())
    frame = QMatrix.from_rows([a.entries[i] for i in indep])
    _, pivot_cols = rref(frame)
    free_cols = [j for j in range(n) if j not in pivot_cols]
    added = tuple(free_cols[: m - r])
    if len(added) < m - r:
        raise ValueError("cannot complete: not enough free coordinates")
    rows = [list(a.entries[i]) for i in indep]
    for j in added:
        rows.append([1 if k == j else 0 for k in range(n)])
    b = IntMatrix.from_rows(rows)
    cert_a = base_cert or operator_norm_upper(a)
    derived = cert_a.usq + 1
    own = operator_norm_upper(b)
    cert = NormCertificate(derived) if derived <= own.usq else own
    return CompletionResult(b, cert, added)


def lll_reduce(basis: QMatrix, delta: Fraction = Fraction(3, 4)) -> QMatrix:
    """Column basis reduction, exact rational arithmetic throughout.

    Same column lattice, far less eccentric basis; keeps downstream point
    enumerations from drowning in a skew slab.  The Gram-Schmidt data is
    recomputed from scratch after each update: quadratic waste, irrelevant
    at the ranks this package enumerates.
    """
    k = basis.ncols
    if k <= 1:
        return basis
    cols = [[basis.entries[i][j] for i in range(basis.nrows)]
            for j in range(k)]

    def gso():
        mu = [[Fraction(0)] * k for _ in range(k)]
        star: List[List[Fraction]] = []
        bs: List[Fraction] = []
        for i in range(k):
            v = list(cols[i])
            for j in range(i):
                mu[i][j] = dot(cols[i], star[j]) / bs[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            bs.append(dot(v, v))
            if bs[i] == 0:
                raise ValueError("columns are dependent")
        return mu, bs

    mu, bs = gso()
    i = 1
    while i < k:
        # subtracting q b_j perturbs mu[i][j'] for j' < j, so refresh each time
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[j])]
                mu, bs = gso()
        if bs[i] >= (delta - mu[i][i - 1] ** 2) * bs[i - 1]:
            i += 1
        else:
            cols[i], cols[i - 1] = cols[i - 1], cols[i]
            mu, bs = gso()
            i = max(i - 1, 1)
    return QMatrix.from_rows([[cols[j][r] for j in range(k)]
                              for r in range(basis.nrows)])
