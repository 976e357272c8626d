"""Rational lattices: the kernel/image split, short vectors, covolumes.

A lattice is the integer span of the columns of a rational basis matrix.
Everything here is exact.  Enumeration is a depth-first Fincke-Pohst
recursion over an exact LDL split of the Gram matrix: each node updates its
center and remaining budget in `Fraction` arithmetic, and one integer square
root bounds the next coordinate's range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import QMatrix, det_q, hnf_rows, ldl_split, rank_over_rationals
from .radicals import SqrtSum


class EnumerationCap(Exception):
    """Raised when short-vector enumeration exceeds its node budget."""


class Lattice:
    """Integer span of the basis columns, which are independent.  The
    constructor trusts that, as the package builds only independent bases;
    ``from_columns`` proves it for columns from outside.

    ``standard(n)`` is Z^n with the identity basis, stated by rule: its
    rank, integrality and covolume 1 need no basis, `kernel_and_image` maps
    it by B itself, and the n x n identity is built only when ``basis`` is
    read.  A basis held as a matrix is never read as standard, even the
    identity: the rule is what the lattice was made as, not a test.
    """

    def __init__(self, basis: QMatrix):
        self._basis = basis  # ambient_dim x rank, columns are basis vectors

    @staticmethod
    def standard(n: int) -> "Lattice":
        return _StandardLattice(n)

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Lattice":
        basis = QMatrix.from_rows(cols).t()
        if rank_over_rationals(basis) != basis.ncols:
            raise ValueError("basis columns are dependent")
        return Lattice(basis)

    @property
    def basis(self) -> QMatrix:
        return self._basis

    def is_standard(self) -> bool:
        """Whether this is Z^n made by ``standard(n)``."""
        return False

    @property
    def ambient_dim(self) -> int:
        return self.basis.nrows

    @property
    def rank(self) -> int:
        return self.basis.ncols

    def is_integer(self) -> bool:
        return self.basis.is_integer()

    def gram(self) -> QMatrix:
        return self.basis.t() @ self.basis

    def covolume(self) -> SqrtSum:
        """Volume of a fundamental cell inside the lattice's span,
        sqrt(det(B^T B)) at every rank (an empty Gram matrix has det 1)."""
        return SqrtSum.sqrt(det_q(self.gram()))


class _StandardLattice(Lattice):
    """Z^n with the identity basis: every answer but ``basis`` by rule."""

    def __init__(self, n: int):
        super().__init__(None)
        self._n = n

    @property
    def basis(self) -> QMatrix:
        if self._basis is None:
            self._basis = QMatrix.identity(self._n)
        return self._basis

    def is_standard(self) -> bool:
        return True

    @property
    def ambient_dim(self) -> int:
        return self._n

    @property
    def rank(self) -> int:
        return self._n

    def is_integer(self) -> bool:
        return True

    def covolume(self) -> SqrtSum:
        return SqrtSum.from_rational(1)


def kernel_and_image(lat: Lattice, b) -> Tuple[Lattice, Lattice]:
    """Split the lattice L along the matrix b into L meet ker b and b L.

    One Hermite form of the rows of the numerator of (b L)^T gives both.
    The transform rows that reach zero rows span the kernel coordinates over
    Z; the nonzero rows, over the denominator, are the canonical basis of
    the image.  Unimodular rows and nonzero Hermite rows are independent,
    so neither basis needs a proof.  For Z^n made by ``Lattice.standard``,
    b L is b itself and the kernel coordinates are the kernel vectors, so
    no product with the n x n identity is formed.
    """
    standard = lat.is_standard()
    gens = b if standard else b @ lat.basis
    h, u, pivots = hnf_rows(gens.t().num)
    r = len(pivots)  # zero rows come last
    coords = QMatrix(tuple(zip(*u[r:])) or ((),) * lat.rank)
    kernel = coords if standard else lat.basis @ coords
    image = QMatrix(tuple(zip(*h[:r])) or ((),) * gens.nrows, gens.den)
    return Lattice(kernel), Lattice(image)


# --- short vector enumeration -------------------------------------------------

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
                            node_cap: int = 10 ** 7
                            ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All integer coordinate vectors x with (x-c)^T G (x-c) <= bound.

    Results are (coords, squared length) pairs sorted by squared length then
    coordinates; with no center the zero vector is among them, first.
    Raises EnumerationCap if the search tree exceeds node_cap.
    """
    n = g.nrows
    bound = Fraction(bound)
    c = [Fraction(x) for x in center] if center is not None \
        else [Fraction(0)] * n
    d, u = ldl_split(g)
    x = [0] * n
    out: List[Tuple[Tuple[int, ...], Fraction]] = []
    nodes = 0

    def rec(i: int, budget: Fraction):
        nonlocal nodes
        if i < 0:
            out.append((tuple(x), bound - budget))
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
    start = Fraction(min(g.num[i][i] for i in range(g.nrows)), g.den)
    found = enumerate_short_vectors(g, start, node_cap=node_cap)
    # the shortest basis vector realizes the starting bound, so a nonzero
    # vector is found; the zero vector comes first
    return next(nsq for coords, nsq in found if any(coords))
