"""Reference implementations that only the tests use.

They compute the same exact values as the library by a slower, independent
route, so a test can demand equal ``SqrtSum`` terms, not just equal values.
The reference sweep is the double description method on ``Fraction``s with
an algebraic adjacency test (a rank per vertex pair) and affine-rank face
tests; the library's sweep is the integer, combinatorial one.
The rest are small helpers the library itself never needs: the integer
kernel and the Hermite column basis of an integer matrix, GF(2) ranks, the
meet-in-the-middle dependency search at every s, a rational solver and
kernel, a Rayleigh lower bound on spectral norms, LLL with the Gram-Schmidt
data recomputed after every step, lattice equality, the
short-vector recursion on ``Fraction`` centres and budgets, the
image of a lattice under a matrix, lattice membership, the
projection of a lattice onto a row span, a grid volume enclosure, the
H-representation parser, 4096-bit reference values of transcendental
formulas, the isoperimetric bound by the ball-volume recurrence, the
per-call sample loop and per-translate membership count of the tiling
audit, and the schedule scan with three ladders per grid point.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

from paratile.construction import (RegimeError, _induction_inequality_holds,
                                   choose_m, predicted_bound_interval)
from paratile.intervals import Interval, enclose, sqrt_upper
from paratile.lattices import Lattice, enumerate_short_vectors
from paratile.linalg import (QMatrix, denominator_lcm, det_q, hnf_rows,
                             inverse, ldl_split, pivot_columns,
                             rank_over_rationals, scaled_to_int)
from paratile.polytopes import (BodyMeasures, DegenerateBody, EmptyBody,
                                HPolytope, Unbounded, primitive_normal)
from paratile.radicals import SqrtSum
from paratile.serialization import SerializationError, parse_frac
from paratile.verify import _MAX_WITNESSES


def mp_reference(formula: Callable) -> Fraction:
    """``formula(mpmath.mp)`` at 4096 bits, as the exact value of the binary
    float it rounds to (within 2^-4000 relative of the true value)."""
    with mpmath.mp.workprec(4096):
        man, exp = (+formula(mpmath.mp)).man_exp
    return Fraction(man) * Fraction(2) ** exp


# --- the reference sweep ---------------------------------------------------------

def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    rows = []
    for p in points[1:]:
        diff = [x - y for x, y in zip(p, p0)]
        rows.append(scaled_to_int(diff, denominator_lcm(diff)))
    return len(pivot_columns(rows))


class ReferenceSweep:
    """Incremental halfspace intersection on ``Fraction`` vertices.

    Vertices i and j are adjacent when the normals of their common active
    halfspaces have rank d - 1, and a halfspace is a facet when the vertices
    on it have affine rank d - 1.
    """

    def __init__(self, dim: int):
        self.d = dim
        self.halfspaces = []
        self.aux = []
        self.verts = []
        self.active = []

    def add_seed_halfspace(self, a, b, aux=False) -> None:
        self.halfspaces.append((tuple(a), Fraction(b)))
        self.aux.append(aux)

    def seed_vertex(self, coords) -> None:
        v = tuple(Fraction(x) for x in coords)
        self.verts.append(v)
        self.active.append(self._active(v))

    def _active(self, v):
        return {k for k, (a, b) in enumerate(self.halfspaces)
                if sum(x * y for x, y in zip(a, v)) == b}

    def insert(self, a, b) -> bool:
        a, b = tuple(a), Fraction(b)
        svals = [sum(x * y for x, y in zip(a, v)) - b for v in self.verts]
        if not any(s > 0 for s in svals):
            return False
        hidx = len(self.halfspaces)
        self.halfspaces.append((a, b))
        self.aux.append(False)
        pos = [i for i, s in enumerate(svals) if s > 0]
        neg = [i for i, s in enumerate(svals) if s < 0]
        if not neg and 0 not in svals:
            raise EmptyBody("cut removes every vertex")
        new = {}
        for i in pos:
            for j in neg:
                common = self.active[i] & self.active[j]
                normals = [self.halfspaces[k][0] for k in common]
                if len(common) < self.d - 1 or \
                        len(pivot_columns(normals)) != self.d - 1:
                    continue
                t = svals[i] / (svals[i] - svals[j])
                new[tuple(x + t * (y - x) for x, y in
                          zip(self.verts[i], self.verts[j]))] = True
        keep = [i for i, s in enumerate(svals) if s <= 0]
        self.verts = [self.verts[i] for i in keep]
        self.active = [self.active[i] | ({hidx} if svals[i] == 0 else set())
                       for i in keep]
        for v in new:
            self.verts.append(v)
            self.active.append(self._active(v))
        return True

    def faces(self):
        """Sorted vertices and sorted (a, b, touching indices) facets."""
        order = sorted(range(len(self.verts)), key=lambda i: self.verts[i])
        verts = tuple(self.verts[i] for i in order)
        touching = {}
        for new, old in enumerate(order):
            for k in self.active[old]:
                touching.setdefault(k, set()).add(new)
        facets = []
        for k, touch in touching.items():
            if not self.aux[k] and \
                    _affine_rank([verts[i] for i in touch]) == self.d - 1:
                a, b = self.halfspaces[k]
                facets.append((a, b, frozenset(touch)))
        return verts, tuple(sorted(facets, key=lambda f: (f[0], f[1])))


def reference_faces(dim: int, halfspaces):
    """(vertices, facets) of a bounded body from a box-seeded reference
    sweep; the box side is the Cramer-Hadamard bound on any vertex."""
    bounds = sorted((sqrt_upper(Fraction(sum(x * x for x in a)) + b * b, 32)
                     for a, b in halfspaces), reverse=True)
    w = math.floor(math.prod(max(x, Fraction(1)) for x in bounds[:dim])) + 1
    sweep = ReferenceSweep(dim)
    for i in range(dim):
        for sign in (1, -1):
            sweep.add_seed_halfspace(
                [sign if j == i else 0 for j in range(dim)], w, aux=True)
    for signs in range(1 << dim):
        sweep.seed_vertex([w if (signs >> i) & 1 else -w for i in range(dim)])
    for a, b in halfspaces:
        sweep.insert(a, b)
    if any(abs(x) == w for v in sweep.verts for x in v):
        raise Unbounded("vertex pinned to the bounding wall")
    return sweep.faces()


def reference_voronoi_faces(g: QMatrix):
    """(vertices, facets) of the Voronoi cell of the lattice with Gram
    matrix g, in its basis coordinates: the basis slab box cut by every
    lattice vector up to four times the box's squared circumradius, in
    order, until a vector reaches four times the running cell's."""
    d = g.nrows
    ginv = inverse(g)
    sweep = ReferenceSweep(d)
    for i in range(d):
        a, gamma = primitive_normal(g.col(i))
        b = Fraction(g.entries[i][i]) / (2 * gamma)
        sweep.add_seed_halfspace(a, b)
        sweep.add_seed_halfspace([-x for x in a], b)
    for signs in range(1 << d):
        sweep.seed_vertex(ginv.mul_vec(
            [Fraction(g.entries[i][i], 2 if (signs >> i) & 1 else -2)
             for i in range(d)]))

    def max_sq():
        return max(sum(x * y for x, y in zip(v, g.mul_vec(v)))
                   for v in sweep.verts)

    r_sq = max_sq()
    for coords, nsq in enumerate_short_vectors(g, 4 * r_sq):
        if nsq >= 4 * r_sq:
            break
        if not any(coords):
            continue
        a, gamma = primitive_normal(g.mul_vec(coords))
        if sweep.insert(a, nsq / (2 * gamma)):
            r_sq = max_sq()
    return sweep.faces()


def reference_triangulation(verts, facets, face, dim, memo):
    """Pulling triangulation of a face (a vertex index set of dimension
    dim): its facets are its intersections with the body's facets that
    have affine rank dim - 1."""
    if face in memo:
        return memo[face]
    if dim == 0:
        result = [(min(face),)]
    else:
        v0 = min(face)
        result = []
        seen = set()
        for _, _, touch in facets:
            child = face & touch
            if face <= touch or not child or child in seen:
                continue
            seen.add(child)
            if v0 not in child and \
                    _affine_rank([verts[i] for i in child]) == dim - 1:
                for s in reference_triangulation(verts, facets, child,
                                                 dim - 1, memo):
                    result.append((v0,) + s)
    memo[face] = result
    return result


def _simplex_det(pts) -> Fraction:
    rows = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    return abs(det_q(QMatrix.from_rows(rows)))


def triangulated_measures(body: HPolytope) -> BodyMeasures:
    """Measures from a pulling triangulation of the whole body.

    The faces come from the reference sweep over the body's halfspaces.
    The chart volume sums d! simplex determinants over the top-dimensional
    triangulation, and each facet measures its triangulated volume in the
    coordinates of a Z-basis C of its normal's kernel times sqrt(det C^T G C).
    This is the enumerated path that ``HPolytope.measures`` replaced.
    """
    d = body.dim
    verts, facets = reference_faces(d, body.halfspaces)
    g = body.metric()
    memo = {}
    top = frozenset(range(len(verts)))
    coordvol = Fraction(0)
    for simplex in reference_triangulation(verts, facets, top, d, memo):
        coordvol += _simplex_det([verts[i] for i in simplex])
    coordvol /= math.factorial(d)
    if coordvol == 0:
        raise DegenerateBody("zero volume in its own chart")
    volume = SqrtSum.from_rational(coordvol) * SqrtSum.sqrt(det_q(g))
    surface = SqrtSum.zero()
    for a, _, touch in facets:
        if d == 1:
            surface = surface + SqrtSum.from_rational(1)
            continue
        cq = integer_kernel_basis(QMatrix.from_rows([list(a)]))
        pinv = inverse(cq.t() @ cq) @ cq.t()
        y0 = verts[min(touch)]
        tmap = {i: pinv.mul_vec([x - y for x, y in zip(verts[i], y0)])
                for i in touch}
        acc = Fraction(0)
        for simplex in reference_triangulation(verts, facets, touch, d - 1,
                                               memo):
            acc += _simplex_det([tmap[i] for i in simplex])
        acc /= math.factorial(d - 1)
        gram = cq.t() @ (g @ cq)
        surface = surface + SqrtSum.from_rational(acc) \
            * SqrtSum.sqrt(det_q(gram))
    return BodyMeasures(volume, surface, surface / volume)


# --- linear algebra ------------------------------------------------------------

def integer_kernel_basis(b: QMatrix) -> QMatrix:
    """Basis (as columns) of {x in Z^n : b @ x = 0}.

    Unimodular row reduction of b-transpose; the transform rows that map to
    zero rows of the Hermite form span the kernel over Z.
    """
    H, U, _ = hnf_rows(b.t().num)
    kernel_rows = [U[i] for i in range(len(H)) if not any(H[i])]
    if not kernel_rows:
        return QMatrix(tuple(() for _ in range(b.ncols)))
    return QMatrix.from_rows(kernel_rows).t()


def hnf_basis_columns(generators: QMatrix) -> QMatrix:
    """Canonical lattice basis (columns) of the group the columns generate."""
    H, _, _ = hnf_rows(generators.t().num)
    keep = [r for r in H if any(r)]
    return QMatrix.from_rows(keep).t() if keep else \
        QMatrix(tuple(() for _ in range(generators.nrows)))


def rank_over_gf2(m: QMatrix) -> int:
    masks = []
    for row in m.entries:
        bits = 0
        for j, x in enumerate(row):
            if x & 1:
                bits |= 1 << j
        masks.append(bits)
    return gf2_rank(masks)


def gf2_rank(masks: Iterable[int]) -> int:
    pivots: List[int] = []
    for v in masks:
        for p in pivots:
            low = p & -p
            if v & low:
                v ^= p
        if v:
            pivots.append(v)
    return len(pivots)


def reference_dependency(masks: Sequence[int], s: int
                        ) -> Optional[Tuple[int, ...]]:
    """A column subset of size <= s with zero XOR, or None.

    Meet in the middle: XORs of all subsets of size <= floor(s/2) are hashed
    (the empty set included), then subsets of the complementary size range
    probe the table.  A collision of distinct subsets yields a dependency via
    their symmetric difference.
    """
    if s < 1:
        return None
    n = len(masks)
    half = s // 2
    table: Dict[int, Tuple[int, ...]] = {0: ()}
    witness: Optional[Tuple[int, ...]] = None

    def consider(a: Tuple[int, ...], b: Tuple[int, ...]
                 ) -> Optional[Tuple[int, ...]]:
        sym = tuple(sorted(set(a) ^ set(b)))
        return sym if sym else None

    for size in range(1, half + 1):
        for combo in itertools.combinations(range(n), size):
            x = 0
            for j in combo:
                x ^= masks[j]
            if x in table:
                witness = consider(table[x], combo)
                if witness:
                    return witness
            else:
                table[x] = combo
    for size in range(1, s - half + 1):
        for combo in itertools.combinations(range(n), size):
            x = 0
            for j in combo:
                x ^= masks[j]
            if x in table:
                witness = consider(table[x], combo)
                if witness:
                    return witness
    return None


def columns_independent(m: QMatrix, cols: Sequence[int],
                        field: str = "Q") -> bool:
    """Whether the selected columns are linearly independent over Q or GF(2)."""
    if len(set(cols)) != len(cols):
        raise ValueError("repeated column index")
    sub_rows = [[row[j] for j in cols] for row in m.entries]
    if field == "Q":
        return rank_over_rationals(QMatrix.from_rows(sub_rows)) == len(cols)
    if field == "GF2":
        if not m.is_integer():
            raise ValueError("GF(2) check needs integer entries")
        return rank_over_gf2(QMatrix.from_rows(sub_rows)) == len(cols)
    raise ValueError(f"unknown field {field!r}")


# Fraction-entry references: every entry a Fraction and every step a Fraction
# operation, so they share no arithmetic with the numerator/denominator code
# they check

def _rref_rows(rows) -> Tuple[List[List[Fraction]], Tuple[int, ...]]:
    work = [[Fraction(x) for x in row] for row in rows]
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
    return work, tuple(pivots)


def rref(m: QMatrix) -> Tuple[QMatrix, Tuple[int, ...]]:
    """Reduced row echelon form with pivot column indices."""
    work, pivots = _rref_rows(m.entries)
    return QMatrix.from_rows(work), pivots


def grid_product(a, b) -> Tuple[Tuple[Fraction, ...], ...]:
    """The product of two row grids of ints or Fractions, as Fractions."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return tuple(tuple(sum((Fraction(x) * y for x, y in zip(row, col)),
                           Fraction(0)) for col in cols) for row in a)


def grid_inverse(a) -> Tuple[Tuple[Fraction, ...], ...]:
    """Inverse of a square grid through the rref of [A | I]."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = _rref_rows(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in red)


def grid_det(a) -> Fraction:
    """Determinant of a square grid by Fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(len(work)):
        piv = next((i for i in range(k, len(work)) if work[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, len(work)):
            f = work[i][k] / work[k][k]
            work[i] = [x - f * y for x, y in zip(work[i], work[k])]
    return det


def solve_unique(a: QMatrix, b: Sequence) -> Tuple[Fraction, ...]:
    """Solve a square nonsingular system exactly."""
    n = a.nrows
    if a.ncols != n or len(b) != n:
        raise ValueError("need a square system")
    aug = QMatrix.from_rows(
        [list(a.entries[i]) + [Fraction(b[i])] for i in range(n)])
    red, piv = rref(aug)
    if piv != tuple(range(n)):
        raise ValueError("singular system")
    return tuple(red.entries[i][n] for i in range(n))


def nullspace(a: QMatrix) -> List[Tuple[Fraction, ...]]:
    """Basis of the rational kernel, one vector per free column."""
    red, pivots = rref(a)
    n = a.ncols
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return basis


def rayleigh_lower_sq(q: QMatrix, iters: int = 8) -> Fraction:
    """Certified lower bound on the squared spectral norm via power iteration."""
    if q.nrows == 0 or q.ncols == 0:
        return Fraction(0)
    g = q.t() @ q
    x = [Fraction(1) for _ in range(g.nrows)]
    best = Fraction(0)
    for _ in range(iters):
        mx = q.mul_vec(x)
        nx = sum(v * v for v in x)
        if nx == 0:
            break
        best = max(best, Fraction(sum(v * v for v in mx)) / nx)
        x = list(g.mul_vec(x))
        # rescale to keep numbers manageable
        mags = [abs(v) for v in x if v]
        if mags:
            s = max(mags)
            x = [Fraction(v) / s for v in x]
    return best


def reference_lll_reduce(basis: QMatrix,
                         delta: Fraction = Fraction(3, 4)) -> QMatrix:
    """LLL with the whole Gram-Schmidt data recomputed from the columns
    after every size reduction and swap: the same steps in the same order
    as ``linalg.lll_reduce``, which keeps that data current in place."""
    k = basis.ncols
    if k <= 1:
        return basis
    cols = [[Fraction(x, basis.den) for x in col] for col in zip(*basis.num)]

    def gso():
        mu = [[Fraction(0)] * k for _ in range(k)]
        star: List[List[Fraction]] = []
        bs: List[Fraction] = []
        for i in range(k):
            v = list(cols[i])
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(cols[i], star[j])) / bs[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            bs.append(sum(x * x for x in v))
            if bs[i] == 0:
                raise ValueError("columns are dependent")
        return mu, bs

    mu, bs = gso()
    i = 1
    while i < k:
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


def lattices_equal(a: Lattice, b: Lattice) -> bool:
    """Exact equality as subsets of the ambient space."""
    if a.ambient_dim != b.ambient_dim or a.rank != b.rank:
        return False
    if a.basis.entries == b.basis.entries:
        return True  # the same basis spans the same lattice
    da, db = a.basis.den, b.basis.den
    d = math.lcm(da, db)
    ma = QMatrix.from_rows([[d // da * x for x in row] for row in a.basis.num])
    mb = QMatrix.from_rows([[d // db * x for x in row] for row in b.basis.num])
    return hnf_basis_columns(ma).entries == hnf_basis_columns(mb).entries


def apply_matrix(t, lat: Lattice) -> Lattice:
    """Image lattice under an injective-on-the-span linear map."""
    new_basis = t @ lat.basis
    if rank_over_rationals(new_basis) != lat.rank:
        raise ValueError("map collapses the lattice")
    return Lattice(new_basis)


def coordinates_in_lattice(lat: Lattice, v: Sequence) -> Optional[Tuple[int, ...]]:
    """Integer coordinates of v in the basis, or None if v is not a member."""
    v = [Fraction(x) for x in v]
    if len(v) != lat.ambient_dim:
        raise ValueError("dimension mismatch")
    aug = QMatrix.from_rows(
        [list(lat.basis.entries[i]) + [v[i]] for i in range(lat.ambient_dim)])
    red, pivots = rref(aug)
    r = lat.rank
    if r in pivots:
        return None  # v outside the span
    sol = [Fraction(0)] * r
    for row_idx, p in enumerate(pivots):
        sol[p] = red.entries[row_idx][r]
    # rows of the reduced system past the pivots must be consistent (they are,
    # since the last column was not a pivot), so only integrality remains
    if any(c.denominator != 1 for c in sol):
        return None
    if lat.basis.mul_vec(sol) != tuple(v):
        return None
    return tuple(int(c) for c in sol)


def reference_projection(lat: Lattice, b) -> Lattice:
    """Orthogonal projection of the lattice onto the row span of b.

    The projection is computed through the injective map v -> R v (R an
    integer row basis of the span): the image of the lattice there is a
    subgroup of (1/d) Z^m, hence discrete, and pulling its Hermite basis back
    through the pseudoinverse gives a genuine lattice basis of the projection.
    """
    r = QMatrix(b.num)
    if rank_over_rationals(r) != r.nrows:
        raise ValueError("rows must be independent")
    image = r @ lat.basis
    # columns generate d * (R L) as a group, d the image's denominator
    w = hnf_basis_columns(QMatrix(image.num))
    if w.ncols == 0:
        return Lattice(QMatrix(tuple(() for _ in range(lat.ambient_dim))))
    pull = r.t() @ inverse(r @ r.t())  # v -> point of the span with Rv = v
    return Lattice(pull @ QMatrix(w.num, image.den))


# --- short vector enumeration ---------------------------------------------------

def _range_for(dcoef: Fraction, shift: Fraction, budget: Fraction
               ) -> Tuple[int, int]:
    """Integer x with dcoef*(x+shift)^2 <= budget; empty when lo > hi.

    With shift = a/b the test reads (b x + a)^2 <= (budget/dcoef) b^2, and
    an integer square is at most a real number iff it is at most its floor,
    so one integer sqrt settles the whole range.
    """
    s = budget / dcoef
    a, b = shift.numerator, shift.denominator
    r = math.isqrt(int(s * b * b))
    return -((r + a) // b), (r - a) // b


def reference_enumerate_short_vectors(g: QMatrix, bound,
                                      center: Optional[Sequence] = None
                                      ) -> Tuple[list, int]:
    """(results, nodes) of the depth-first Fincke-Pohst recursion over
    ``ldl_split(g)`` with ``Fraction`` centres and budgets at every node:
    the (coords, squared length) pairs with (x-c)^T G (x-c) <= bound,
    sorted by squared length then coordinates, and the number of
    coordinate values the recursion tried."""
    n = g.nrows
    bound = Fraction(bound)
    if bound < 0:
        return [], 0
    c = [Fraction(x) for x in center] if center is not None \
        else [Fraction(0)] * n
    d, u = ldl_split(g)
    x = [0] * n
    out = []
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
            x[i] = xi
            rec(i - 1, budget - d[i] * (xi + z) ** 2)
        x[i] = 0

    rec(n - 1, bound)
    out.sort(key=lambda t: (t[1], t[0]))
    return out, nodes


# --- the isoperimetric bound by recurrence ---------------------------------------

def reference_isoperimetric_ratio_lower(n: int) -> Interval:
    """Enclosure of n omega_n^(1/n) at 96 bits by the unit-ball volume
    recurrence omega_k = omega_(k-2) 2 pi / k from omega_0 = 1, omega_1 = 2:
    n/2 interval steps where the library evaluates one lnGamma."""
    def formula(iv):
        omega = iv.mpf(1 + n % 2)
        for k in range(2 + n % 2, n + 1, 2):
            omega = omega * 2 * iv.pi / k
        return n * iv.exp(iv.log(omega) / n)

    return enclose(96, formula)


def mp_isoperimetric_ratio(n: int) -> Fraction:
    """n omega_n^(1/n), omega_n = pi^(n/2) / Gamma(n/2 + 1), by
    ``mp_reference``."""
    def formula(mp):
        half = mp.mpf(n) / 2
        return n * (mp.pi ** half / mp.gamma(half + 1)) ** (1 / mp.mpf(n))

    return mp_reference(formula)


# --- walks and volumes ----------------------------------------------------------

def return_prob_spectral(m: int, t: int) -> Fraction:
    """Walk return probability through the eigenvalues of the flip operator."""
    total = sum(math.comb(m, k) * (m - 2 * k) ** t for k in range(m + 1))
    return Fraction(total, 2 ** m * m ** t)


def return_prob_brute(m: int, t: int) -> Fraction:
    """Path enumeration oracle; only sensible for tiny m and t."""
    hits = 0
    for path in itertools.product(range(m), repeat=t):
        state = 0
        for i in path:
            state ^= 1 << i
        if state == 0:
            hits += 1
    return Fraction(hits, m ** t)


def brute_force_volume(body: HPolytope, resolution: int = 16) -> Interval:
    """Certified volume enclosure by grid cell classification (chart volume).

    Cells entirely inside every halfspace count toward the lower bound; cells
    not entirely outside any halfspace count toward the upper bound.  Exact
    rational endpoints; cost grows as resolution^dim.
    """
    d = body.dim
    verts = body.vertices()
    lo = [min(v[i] for v in verts) for i in range(d)]
    hi = [max(v[i] for v in verts) for i in range(d)]
    step = [(h - l) / resolution for l, h in zip(lo, hi)]
    if any(s == 0 for s in step):
        return Interval.point(Fraction(0))
    hs = body.halfspaces
    cellvol = Fraction(1)
    for s in step:
        cellvol *= s

    def classify(cell_lo: Sequence[Fraction], cell_hi: Sequence[Fraction]
                 ) -> int:
        """1 inside, -1 outside, 0 straddling."""
        inside = True
        for a, b in hs:
            mx = sum((cell_hi[i] if a[i] > 0 else cell_lo[i]) * a[i]
                     for i in range(d))
            if mx > b:
                inside = False
                mn = sum((cell_lo[i] if a[i] > 0 else cell_hi[i]) * a[i]
                         for i in range(d))
                if mn > b:
                    return -1
        return 1 if inside else 0

    total_in = 0
    total_straddle = 0
    idx = [0] * d
    while True:
        cl = [lo[i] + idx[i] * step[i] for i in range(d)]
        ch = [lo[i] + (idx[i] + 1) * step[i] for i in range(d)]
        kind = classify(cl, ch)
        if kind == 1:
            total_in += 1
        elif kind == 0:
            total_straddle += 1
        j = 0
        while j < d:
            idx[j] += 1
            if idx[j] < resolution:
                break
            idx[j] = 0
            j += 1
        if j == d:
            break
    return Interval(total_in * cellvol, (total_in + total_straddle) * cellvol)


def parse_hrep(text: str) -> HPolytope:
    """Inverse of ``serialization.format_hrep``."""
    ambient = None
    basis_rows: List[List[Fraction]] = []
    hs: List[Tuple[Tuple[Fraction, ...], Fraction]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["dim"]:
                ambient = int(parts[3])
            elif parts[:1] == ["basis"]:
                basis_rows.append([parse_frac(x) for x in parts[1:]])
            continue
        if "<=" not in line:
            raise SerializationError(f"missing '<=' in line {line!r}")
        lhs, rhs = line.split("<=")
        a = tuple(parse_frac(x) for x in lhs.split())
        hs.append((a, parse_frac(rhs.strip())))
    if not hs:
        raise SerializationError("no inequalities found")
    if basis_rows:
        frame = QMatrix.from_rows(
            [[basis_rows[j][i] for j in range(len(basis_rows))]
             for i in range(len(basis_rows[0]))])
        return HPolytope.from_halfspaces(frame, hs)
    n = ambient if ambient is not None else len(hs[0][0])
    return HPolytope.from_halfspaces(n, hs)


# --- tiling audit ---------------------------------------------------------------

def dyadic_numerators_loop(seed: int, samples: int, rank: int, bits: int
                           ) -> List[List[int]]:
    """The tiling audit's sample numerators, one ``getrandbits`` per
    coordinate."""
    rng = random.Random(f"tiling:{seed}")
    return [[rng.getrandbits(bits) for _ in range(rank)]
            for _ in range(samples)]


def membership_count_by_translate(ks, rows, offsets, dtype
                                  ) -> Tuple[int, int, int,
                                             Tuple[Tuple[int, ...], ...]]:
    """``verify._count_membership`` with sample-major scores and two
    ``.all(axis=1)`` reductions per translate."""
    ks = [[int(x) for x in k] for k in ks]
    scores = np.array(ks, dtype=dtype) @ np.array(rows, dtype=dtype).T
    open_count = np.zeros(len(ks), dtype=np.int32)
    closed_count = np.zeros(len(ks), dtype=np.int32)
    boundary = 0
    for off in offsets:
        oarr = np.array(off, dtype=dtype)
        closed_here = (scores <= oarr).all(axis=1)
        open_here = (scores < oarr).all(axis=1)
        closed_count += closed_here
        open_count += open_here
        boundary += int(np.count_nonzero(closed_here & ~open_here))
    overlap_mask = open_count >= 2
    gap_mask = closed_count == 0
    bad = np.nonzero(overlap_mask | gap_mask)[0][:_MAX_WITNESSES]
    return (int(np.count_nonzero(overlap_mask)),
            int(np.count_nonzero(gap_mask)), boundary,
            tuple(tuple(ks[int(i)]) for i in bad))


def reference_scan_induction(kappa: int = 4, n_hi: int = 10 ** 6,
                             count: int = 1000) -> List[Dict]:
    """``construction.scan_induction`` with a ladder of its own for each of
    P(n), m and the induction inequality at every grid point."""
    lo = 4 * kappa ** 2 + 1
    if n_hi <= lo:
        raise ValueError("scan range is empty")
    points = [
        min(n_hi, max(lo, round(math.exp(
            math.log(lo) + (math.log(n_hi) - math.log(lo)) * i / (count - 1)))))
        for i in range(count)]
    cache: Dict[int, Dict] = {}
    out = []
    for n in points:
        if n not in cache:
            predicted = predicted_bound_interval(n, kappa)
            base_ok = Fraction(2 * n) <= predicted.lo
            induction_ok = False
            m = None
            try:
                m = choose_m(n, kappa)
                if m >= 4:
                    induction_ok = _induction_inequality_holds(n, m, kappa)
            except RegimeError:
                pass
            cache[n] = {
                "n": n,
                "m": m,
                "predicted_lo": predicted.lo,
                "base_covers": base_ok,
                "induction_covers": induction_ok,
                "covered": base_ok or induction_ok,
            }
        out.append(cache[n])
    return out
