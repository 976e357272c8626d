"""Rational lattices: the kernel/image split, short vectors, covolumes.

A lattice is the integer span of the columns of a rational basis matrix.
Everything here is exact; enumeration uses a fraction-free style Fincke-Pohst
recursion over an exact LDL split of the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import (
    IntMatrix,
    QMatrix,
    as_qmatrix,
    clear_denominators,
    det_q,
    hnf_basis_columns,
    hnf_rows,
    rank_over_rationals,
)
from .radicals import SqrtSum


class EnumerationCap(Exception):
    """Raised when short-vector enumeration exceeds its node budget."""


@dataclass(frozen=True)
class Lattice:
    """Integer span of the basis columns; basis has full column rank."""

    ambient_dim: int
    basis: QMatrix  # ambient_dim x rank, columns are basis vectors

    def __post_init__(self):
        if self.basis.nrows != self.ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        if self.rank and rank_over_rationals(self.basis) != self.rank:
            raise ValueError("basis columns are dependent")

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(n, QMatrix.identity(n))

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Lattice":
        basis = QMatrix.from_rows(cols).t()
        return Lattice(basis.nrows, basis)

    @property
    def rank(self) -> int:
        return self.basis.ncols

    def is_integer(self) -> bool:
        return self.basis.is_integer()

    def gram(self) -> QMatrix:
        return self.basis.t() @ self.basis

    def covolume(self) -> SqrtSum:
        """Volume of a fundamental cell inside the lattice's span."""
        if self.rank == 0:
            return SqrtSum.from_rational(1)
        if self.rank == self.ambient_dim:
            # det(B^T B) = det(B)^2 for a square basis, without the Gram product
            return SqrtSum.sqrt(det_q(self.basis) ** 2)
        return SqrtSum.sqrt(det_q(self.gram()))


def lattices_equal(a: Lattice, b: Lattice) -> bool:
    """Exact equality as subsets of the ambient space."""
    if a.ambient_dim != b.ambient_dim or a.rank != b.rank:
        return False
    if a.basis.entries == b.basis.entries:
        return True  # the same basis spans the same lattice
    na, da = clear_denominators(a.basis)
    nb, db = clear_denominators(b.basis)
    d = math.lcm(da, db)
    ma = na.scale(d // da)
    mb = nb.scale(d // db)
    return hnf_basis_columns(ma).entries == hnf_basis_columns(mb).entries


def kernel_and_image(lat: Lattice, b) -> Tuple[Lattice, Lattice]:
    """Split the lattice L along the matrix b into L meet ker b and b L.

    One Hermite form of the rows of d (b L)^T, d its cleared denominator,
    gives both.  The transform rows that reach zero rows span the kernel
    coordinates over Z; the nonzero rows, divided by d, are the canonical
    basis of the image.
    """
    gens, d = clear_denominators(b @ lat.basis)
    h, u, pivots = hnf_rows(gens.t().entries, transform=True)
    r = len(pivots)  # zero rows come last
    kernel = lat.basis @ IntMatrix(tuple(map(tuple, u[r:]))).t()
    image = QMatrix(tuple(zip(*h[:r])) or ((),) * gens.nrows)
    return (Lattice(lat.ambient_dim, kernel),
            Lattice(gens.nrows, image.scale(Fraction(1, d))))


def apply_matrix(t, lat: Lattice) -> Lattice:
    """Image lattice under an injective-on-the-span linear map."""
    tq = as_qmatrix(t)
    new_basis = tq @ lat.basis
    if rank_over_rationals(new_basis) != lat.rank:
        raise ValueError("map collapses the lattice")
    return Lattice(tq.nrows, new_basis)


# --- short vector enumeration -------------------------------------------------

def ldl_split(g: QMatrix) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """G = U^T diag(d) U with U unit upper triangular; requires G pos. def."""
    n = g.nrows
    a = [[Fraction(g.entries[i][j]) for j in range(n)] for i in range(n)]
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


def _range_for(dcoef: Fraction, shift: Fraction, budget: Fraction
               ) -> Tuple[int, int]:
    """Integer x with dcoef*(x+shift)^2 <= budget; empty when lo > hi.

    With shift = a/b the test reads (b x + a)^2 <= (budget/dcoef) b^2, and
    an integer square is at most a real number iff it is at most its floor,
    so one integer sqrt settles the whole range.
    """
    if budget < 0:
        return 1, 0
    s = budget / dcoef
    a, b = shift.numerator, shift.denominator
    r = math.isqrt(int(s * b * b))
    lo = -((r + a) // b)
    hi = (r - a) // b
    return lo, hi


def enumerate_short_vectors(g: QMatrix, bound: Fraction,
                            center: Optional[Sequence[Fraction]] = None,
                            skip_zero: bool = False,
                            node_cap: int = 10 ** 7
                            ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All integer coordinate vectors x with (x-c)^T G (x-c) <= bound.

    Results are (coords, squared length) pairs sorted by squared length then
    coordinates.  Raises EnumerationCap if the search tree exceeds node_cap.
    """
    n = g.nrows
    bound = Fraction(bound)
    if n == 0:
        return [] if skip_zero else [((), Fraction(0))]
    c = [Fraction(x) for x in center] if center is not None \
        else [Fraction(0)] * n
    d, u = ldl_split(g)
    x = [0] * n
    out: List[Tuple[Tuple[int, ...], Fraction]] = []
    nodes = 0

    def rec(i: int, budget: Fraction):
        nonlocal nodes
        if i < 0:
            vec = tuple(x)
            if skip_zero and center is None and not any(vec):
                return
            out.append((vec, bound - budget))
            return
        z = sum(u[i][j] * (x[j] - c[j]) for j in range(i + 1, n)) - c[i]
        lo, hi = _range_for(d[i], z, budget)
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCap(f"more than {node_cap} nodes")
            x[i] = xi
            rec(i - 1, budget - d[i] * (xi + z) ** 2)
        x[i] = 0

    rec(n - 1, bound)
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def shortest_vector_sq(lat: Lattice, node_cap: int = 10 ** 7
                       ) -> Optional[Fraction]:
    """Squared length of a shortest nonzero lattice vector, exactly."""
    if lat.rank == 0:
        return None
    g = lat.gram()
    start = min(g.entries[i][i] for i in range(g.nrows))
    found = enumerate_short_vectors(g, start, skip_zero=True,
                                    node_cap=node_cap)
    # the shortest basis vector realizes the starting bound, so found is
    # nonempty
    return found[0][1]
