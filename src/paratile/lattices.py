"""Rational lattices: the kernel/image split, short vectors, covolumes.

A lattice is the integer span of the columns of a rational basis matrix.
Everything here is exact.  Enumeration is a depth-first Fincke-Pohst
recursion over an exact LDL split of the Gram matrix, scaled to integers once
per call: each node keeps its centre and remaining budget as plain integers,
and one integer square root bounds the next coordinate's range.  Only the
results' squared lengths are built as ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import (QMatrix, denominator_lcm, det_q, dot, hnf_rows, ldl_split,
                     rank_over_rationals)
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

def enumerate_short_vectors(g: QMatrix, bound: Fraction,
                            center: Optional[Sequence[Fraction]] = None,
                            node_cap: int = 10 ** 7
                            ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All integer coordinate vectors x with (x-c)^T G (x-c) <= bound.

    Results are (coords, squared length) pairs sorted by squared length then
    coordinates; with no center the zero vector is among them, first, and a
    bound below 0 has none.  Raises EnumerationCap if the search tree exceeds
    node_cap, and ValueError if the center's length is not G's order.

    With G = U^T diag(d) U from `ldl_split` (Fincke-Pohst 1985), the form
    is the sum over the levels i of d_i (x_i + z_i)^2, where
    z_i = sum_{j>i} u_ij (x_j - c_j) - c_i.  Scaled once per call, level i
    reads W_i (Z_i x_i + w_i)^2 on integers: Z_i clears the denominators of
    z_i, so w_i = Z_i z_i = sum_{j>i} Z_i u_ij x_j + K_i, and one E clears
    those of the bound and of every d_i / Z_i^2, so W_i = E d_i / Z_i^2.
    The budget is E times what is left of the bound, a node's range is one
    integer square root of budget // W_i, and setting x_j moves the w_i of
    the levels below along column j (Schnorr-Euchner 1994), with no sum
    over j per node.
    """
    n = g.nrows
    if center is not None and len(center) != n:
        raise ValueError(f"center has {len(center)} coordinates, "
                         f"the Gram matrix has order {n}")
    bound = Fraction(bound)
    if bound < 0:
        return []
    if n == 0:
        return [((), Fraction(0))]
    c = [Fraction(x) for x in center] if center is not None else [0] * n
    d, u = ldl_split(g)
    scale, offset, rows = [], [], []  # Z_i, K_i and Z_i u_ij for j > i
    for i in range(n):
        row = u[i][i + 1:]
        k = -c[i] - dot(row, c[i + 1:])
        z = denominator_lcm((*row, k))
        scale.append(z)
        offset.append(int(k * z))
        rows.append([int(x * z) for x in row])
    coef = [di / (z * z) for di, z in zip(d, scale)]
    e = denominator_lcm((*coef, bound))
    weight = [int(q * e) for q in coef]
    # cols[j]: the levels i < j whose w_i moves with x_j, and by how much
    cols = [[(i, rows[i][j - i - 1]) for i in range(j) if rows[i][j - i - 1]]
            for j in range(n)]
    top = int(bound * e)
    x = [0] * n
    shift = offset[:]  # w_i for the x_j set so far
    out: List[Tuple[int, Tuple[int, ...]]] = []
    nodes = 0

    def rec(i: int, budget: int):
        nonlocal nodes
        z, wt, sh = scale[i], weight[i], shift[i]
        r = math.isqrt(budget // wt)
        lo, hi = -((r + sh) // z), (r - sh) // z
        if lo > hi:
            return
        # a whole range at once: the count passes the cap iff the tree
        # has more than node_cap nodes, as when counted one by one
        nodes += hi - lo + 1
        if nodes > node_cap:
            raise EnumerationCap(f"more than {node_cap} nodes")
        t = z * lo + sh
        if i == 0:
            for xi in range(lo, hi + 1):
                x[0] = xi
                out.append((top - budget + wt * t * t, tuple(x)))
                t += z
            x[0] = 0
            return
        col = cols[i]
        for k, v in col:
            shift[k] += v * lo
        for xi in range(lo, hi + 1):
            x[i] = xi
            rec(i - 1, budget - wt * t * t)
            t += z
            for k, v in col:
                shift[k] += v
        for k, v in col:
            shift[k] -= v * (hi + 1)
        x[i] = 0

    rec(n - 1, top)
    out.sort()
    return [(coords, Fraction(num, e)) for num, coords in out]


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
