"""Reference implementations that only the tests use.

They compute the same exact values as the library by a slower, independent
route, so a test can demand equal ``SqrtSum`` terms, not just equal values.
The rest are small helpers the library itself never needs: GF(2) ranks, a
rational solver and kernel, a Rayleigh lower bound on spectral norms,
lattice membership, a grid volume enclosure, the H-representation parser,
4096-bit reference values of transcendental formulas, and the per-call
sample loop and per-translate membership count of the tiling audit.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np

from paratile.intervals import Interval
from paratile.lattices import Lattice
from paratile.linalg import (IntMatrix, QMatrix, as_qmatrix, det_q,
                             integer_kernel_basis, inverse,
                             rank_over_rationals, rref)
from paratile.polytopes import BodyMeasures, DegenerateBody, HPolytope
from paratile.radicals import SqrtSum
from paratile.serialization import SerializationError, parse_frac
from paratile.verify import _MAX_WITNESSES


def mp_reference(formula: Callable) -> Fraction:
    """``formula(mpmath.mp)`` at 4096 bits, as the exact value of the binary
    float it rounds to (within 2^-4000 relative of the true value)."""
    with mpmath.mp.workprec(4096):
        man, exp = (+formula(mpmath.mp)).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _simplex_det(pts) -> Fraction:
    rows = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    return abs(det_q(QMatrix.from_rows(rows)))


def triangulated_measures(body: HPolytope) -> BodyMeasures:
    """Measures from a pulling triangulation of the whole body.

    The chart volume sums d! simplex determinants over the top-dimensional
    triangulation, and each facet measures its triangulated volume in the
    coordinates of a Z-basis C of its normal's kernel times sqrt(det C^T G C).
    This is the enumerated path that ``HPolytope.measures`` replaced.
    """
    verts = body.vertices()
    d = body.dim
    g = body.metric()
    top = frozenset(range(len(verts)))
    coordvol = Fraction(0)
    for simplex in body._triangulate(top, d):
        coordvol += _simplex_det([verts[i] for i in simplex])
    coordvol /= math.factorial(d)
    if coordvol == 0:
        raise DegenerateBody("zero volume in its own chart")
    volume = SqrtSum.from_rational(coordvol) * SqrtSum.sqrt(det_q(g))
    surface = SqrtSum.zero()
    for a, _, touch in body.facets():
        if d == 1:
            surface = surface + SqrtSum.from_rational(1)
            continue
        cq = integer_kernel_basis(IntMatrix.from_rows([list(a)])).to_q()
        pinv = inverse(cq.t() @ cq) @ cq.t()
        y0 = verts[min(touch)]
        tmap = {i: pinv.mul_vec([x - y for x, y in zip(verts[i], y0)])
                for i in touch}
        acc = Fraction(0)
        for simplex in body._triangulate(frozenset(touch), d - 1):
            acc += _simplex_det([tmap[i] for i in simplex])
        acc /= math.factorial(d - 1)
        gram = cq.t() @ (g @ cq)
        surface = surface + SqrtSum.from_rational(acc) \
            * SqrtSum.sqrt(det_q(gram))
    return BodyMeasures(volume, surface, surface / volume)


# --- linear algebra ------------------------------------------------------------

def rank_over_gf2(m: IntMatrix) -> int:
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


def columns_independent(m: Union[IntMatrix, QMatrix], cols: Sequence[int],
                        field: str = "Q") -> bool:
    """Whether the selected columns are linearly independent over Q or GF(2)."""
    if len(set(cols)) != len(cols):
        raise ValueError("repeated column index")
    sub_rows = [[row[j] for j in cols] for row in m.entries]
    if field == "Q":
        return rank_over_rationals(QMatrix.from_rows(sub_rows)) == len(cols)
    if field == "GF2":
        if isinstance(m, QMatrix):
            raise ValueError("GF(2) check needs integer entries")
        sub = IntMatrix.from_rows(sub_rows)
        return rank_over_gf2(sub) == len(cols)
    raise ValueError(f"unknown field {field!r}")


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


def rayleigh_lower_sq(m: Union[IntMatrix, QMatrix], iters: int = 8) -> Fraction:
    """Certified lower bound on the squared spectral norm via power iteration."""
    q = as_qmatrix(m)
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
        best = max(best, sum(v * v for v in mx) / nx)
        x = list(g.mul_vec(x))
        # rescale to keep numbers manageable
        mags = [abs(v) for v in x if v]
        if mags:
            s = max(mags)
            x = [v / s for v in x]
    return best


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
    hs = body.facets_or_halfspaces()
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
    """The tiling audit's sample numerators, one ``randrange`` per coordinate."""
    rng = random.Random(f"tiling:{seed}")
    scale = 1 << bits
    return [[rng.randrange(scale) for _ in range(rank)]
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
