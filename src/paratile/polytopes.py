"""Exact polytope geometry in rational subspaces of R^n.

A body is stored as halfspaces over a coordinate chart: points are frame @ y
with the frame columns spanning the body's subspace, and each halfspace reads
a . y <= b with a primitive integer normal.  Vertex enumeration is a double
description sweep from one parallelepiped |a_i . y| <= w_i, so no LP solver
is involved.  A body given by halfspaces starts from a box whose walls a
bounded body never touches (a vertex on a wall proves it unbounded).  The
sweep's predicates are integer and combinatorial: a vertex is a primitive
integer pair (den, ints) in a slot it keeps while it lives, a cut compares
integers, and each halfspace keeps a column, the bitmask of the live
vertices on it.  The vertices on a set of halfspaces are the AND of their
columns, so two vertices sharing at least d - 1 halfspaces are adjacent
when that AND over the shared ones is the pair alone, and the facets are
the maximal columns, with no rank computation.  The faces reach the facet
volumes as integer points over one common denominator and vertex bitmasks;
``Fraction`` vertices and frozenset incidences are built only when read.  A
Voronoi cell is its basis slab box cut by its facet vectors alone: by
Voronoi's theorem they are the lattice vectors v whose class v + 2L has +-v
as its only shortest vectors, so one short-vector enumeration finds them
and no other cut is tried.

Measures come in two parts.  The chart table is metric-free: the body's
volume in chart coordinates and, per normal pair +-a, the chart area of the
facets a . y = b and -a . y = b' (their volume in the coordinates of a
Z-basis of a's hyperplane).  ``measures`` alone meets it with the metric
G = frame^T frame: volume is the chart volume times sqrt(det G), and each
area is multiplied by sqrt(det G * a^T G^-1 a), the covolume of the integer
lattice in a's hyperplane.  Every volume and facet measure is therefore a
rational multiple of a single square root, so surface, volume and their
quotient are exact radical expressions.

The table comes by the first rule that applies.  A cube states it, and
builds its unit normals, like its frame and halfspaces, only when read.  A
linear image keeps its body's table, since only the metric changes.  An
orthogonal product multiplies its factors' tables: chart volume vp * vq,
and a facet of P keeps its normal padded with zeros and gains the factor vq
(likewise for Q).  A parallelepiped (d opposite pairs of halfspaces with
independent normals) needs no vertices: its chart volume is the product of
the widths over |det A|.  Any other body has its vertices swept, each facet
measured by Lasserre's recursion over its face lattice (faces as vertex
bitmasks, integer vertices, no determinant; each pyramid's volume is an
exact integer division, which checks the lattice; the leaves are edges,
read off their ends), and its chart volume summed over the facets as
(1/d) sum_F b_F vol(F) (the divergence theorem).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .intervals import sqrt_upper
from .lattices import Lattice, enumerate_short_vectors
from .linalg import (
    QMatrix,
    denominator_lcm,
    det_int,
    det_q,
    dot,
    identity_rows,
    inverse,
    lll_reduce,
    rank_over_rationals,
    scaled_to_int,
)
from .radicals import SqrtSum

Halfspace = Tuple[Tuple[int, ...], Fraction]
# (chart volume, ((a, chart area of the facets with normal +-a), ...))
_Chart = Tuple[Fraction, Tuple[Tuple[Tuple[int, ...], Fraction], ...]]


class Unbounded(Exception):
    """The halfspace intersection has a recession direction."""


class EmptyBody(Exception):
    """The halfspace intersection has no points."""


class DegenerateBody(Exception):
    """The body is not full-dimensional in its chart."""


def primitive_normal(vec: Sequence) -> Tuple[Tuple[int, ...], Fraction]:
    """(a, gamma) with vec = gamma * a, a primitive integer, gamma > 0."""
    if all(type(x) is int for x in vec):
        den, ints = 1, vec
    else:
        fr = [Fraction(x) for x in vec]
        den = denominator_lcm(fr)
        ints = scaled_to_int(fr, den)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero normal")
    a = tuple(ints) if g == 1 else tuple(x // g for x in ints)
    return a, Fraction(g, den)


def canonical_halfspaces(raw: Iterable[Tuple[Sequence, Fraction]]
                         ) -> Tuple[Halfspace, ...]:
    """Primitive integer normals, duplicates resolved to the tighter offset."""
    best: Dict[Tuple[int, ...], Fraction] = {}
    for vec, b in raw:
        a, gamma = primitive_normal(vec)
        bb = Fraction(b) / gamma
        if a not in best or bb < best[a]:
            best[a] = bb
    return tuple(sorted(best.items()))


# --- double description sweep --------------------------------------------------

def _neg(a: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(-x for x in a)


def _indices(mask: int) -> List[int]:
    """The positions of the set bits of mask, lowest first."""
    bits = bin(mask)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class _Faces(NamedTuple):
    """A swept body's faces on integers: the vertices as integer points over
    one common denominator, in sorted order, and the facets as (a, b, mask)
    sorted by (a, b), where bit i of mask marks the vertex points[i]."""
    points: Tuple[Tuple[int, ...], ...]
    scale: int
    facets: Tuple[Tuple[Tuple[int, ...], Fraction, int], ...]


class _Sweep:
    """Incremental halfspace intersection over the integers.

    A vertex is a primitive homogeneous pair (den, ints), the point ints/den,
    and sits in a slot that it keeps while it lives.  The incidence is held
    both ways: a vertex's active set is a bitmask over the halfspace list,
    and a halfspace's column is a bitmask over the slots of the live
    vertices on it.  Every halfspace on the list is valid for the current
    body, which makes the incidences exact without any dot product.

    The sweep starts from the parallelepiped |a_i . y| <= w_i (w_i > 0,
    independent a_i), with halfspaces a_0, -a_0, a_1, -a_1, ...  Its corner
    k solves A y = s with s_i = w_i where bit i of k is set and -w_i
    elsewhere, so it lies on halfspace 2i or 2i + 1 accordingly.

    ``peak_vertices`` and ``pairs_tested`` count the most vertices alive at
    once and the vertex pairs whose common face was taken, for profiling.
    """

    def __init__(self, normals: Sequence[Tuple[int, ...]],
                 widths: Sequence[Fraction]):
        self.d = d = len(normals)
        self.halfspaces: List[Halfspace] = [
            h for a, w in zip(normals, widths) for h in ((a, w), (_neg(a), w))]
        ainv = inverse(QMatrix(tuple(normals)))
        self.verts: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self.active: List[int] = []
        self.cols = [0] * (2 * d)
        for k in range(1 << d):
            s = [w if (k >> i) & 1 else -w for i, w in enumerate(widths)]
            y = ainv.mul_vec(s)
            den = denominator_lcm(y)
            self.verts[k] = (den, scaled_to_int(y, den))
            self.active.append(sum(1 << (2 * i + 1 - ((k >> i) & 1))
                                   for i in range(d)))
            for h in _indices(self.active[k]):
                self.cols[h] |= 1 << k
        self.live = (1 << (1 << d)) - 1
        self.free: List[int] = []
        self.peak_vertices = 1 << d
        self.pairs_tested = 0

    def insert(self, a: Tuple[int, ...], b: Fraction) -> bool:
        """Cut with a . y <= b.  Returns True when the vertex set changed.

        Vertices i (cut off) and j (kept) span an edge when they are the
        only vertices on every halfspace they share, and those are at least
        d - 1 (Fukuda and Prodon 1996): the shared halfspaces then cut out
        the smallest face holding both.  The vertices on a set of halfspaces
        are the AND of their columns, the live vertices for the empty set.
        The new vertex is interior to the edge, so its active set is the
        common one plus the cut, and it takes a slot that a cut-off vertex
        left free.
        """
        b = Fraction(b)
        bn, bd = b.numerator, b.denominator
        verts, active, cols = self.verts, self.active, self.cols
        svals = {i: bd * dot(a, x) - bn * den
                 for i, (den, x) in verts.items()}
        pos = [i for i, s in svals.items() if s > 0]
        if not pos:
            return False  # redundant here; never becomes a facet later
        if len(pos) == len(svals):
            raise EmptyBody("cut removes every vertex")
        zero = [i for i, s in svals.items() if s == 0]
        d, live = self.d, self.live
        dead = sum(1 << i for i in pos)
        below = live & ~dead & ~sum(1 << i for i in zero)
        cut = 1 << len(self.halfspaces)
        self.halfspaces.append((a, b))
        fresh: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for i in pos:
            si = svals[i]
            di, xi = verts[i]
            # a neighbour lies on at least d - 1 of the halfspaces of i:
            # count by columns, least[k] marking the vertices on k + 1 so far
            least = [live] + [0] * (d - 1)
            for h in _indices(active[i]):
                col = cols[h]
                for k in range(d - 1, 0, -1):
                    least[k] |= least[k - 1] & col
            for j in _indices(least[d - 1] & below):
                self.pairs_tested += 1
                pair = 1 << i | 1 << j
                face = live
                for h in _indices(active[i] & active[j]):
                    if face == pair:
                        break
                    face &= cols[h]
                if face == pair:
                    sj = svals[j]
                    dj, xj = verts[j]
                    den = si * dj - sj * di  # > 0: si > 0 > sj
                    x = [si * q - sj * p for p, q in zip(xi, xj)]
                    g = math.gcd(den, *x)
                    fresh[(den // g, tuple(v // g for v in x))] = \
                        (active[i] & active[j]) | cut

        touched = 0
        for i in pos:
            touched |= active[i]
            del verts[i]
        for h in _indices(touched):
            cols[h] &= ~dead
        on_cut = 0
        for i in zero:
            active[i] |= cut
            on_cut |= 1 << i
        self.free += pos
        for v, act in fresh.items():
            if self.free:
                i = self.free.pop()
                active[i] = act
            else:
                i = len(active)
                active.append(act)
            verts[i] = v
            bit = 1 << i
            on_cut |= bit
            for h in _indices(act ^ cut):
                cols[h] |= bit
        cols.append(on_cut)
        self.live = (live & ~dead) | on_cut
        self.peak_vertices = max(self.peak_vertices, len(verts))
        return True

    def faces(self) -> _Faces:
        """The vertices and the facet-defining halfspaces, read off the
        columns.

        A halfspace defines a facet when no other halfspace's column is a
        strict superset of its own: a smaller face lies in some facet, and
        every facet is cut out by a halfspace on the list.  A body that is
        not full-dimensional has an implicit equality, a halfspace on the
        list that holds every vertex, and raises DegenerateBody.
        """
        scale = math.lcm(*(den for den, _ in self.verts.values()))
        points = {i: tuple(x * (scale // den) for x in xs)
                  for i, (den, xs) in self.verts.items()}
        order = sorted(points, key=points.__getitem__)
        rank = dict(zip(order, range(len(order))))
        by_size = sorted((k for k, c in enumerate(self.cols) if c),
                         key=lambda k: self.cols[k].bit_count(), reverse=True)
        if self.cols[by_size[0]] == self.live:
            raise DegenerateBody("a halfspace holds every vertex")
        kept: List[int] = []
        facets = []
        for k in by_size:
            col = self.cols[k]
            if any(col & c == col and c != col for c in kept):
                continue  # inside a strict superset, which came first
            kept.append(col)
            a, b = self.halfspaces[k]
            facets.append((a, b, sum(1 << rank[i] for i in _indices(col))))
        return _Faces(tuple(points[i] for i in order), scale,
                      tuple(sorted(facets, key=lambda f: (f[0], f[1]))))


def _parallelepiped_chart(pairs, det_a: int) -> _Chart:
    """Chart volume prod(w) / |det A| and the areas, no vertices needed.

    The facet on a_i . y = b_i has C-coordinate volume
    prod_{j != i} w_j / |det A|, and its opposite facet is a translate.
    """
    widths = [b + b_neg for _, b, b_neg in pairs]
    if any(w < 0 for w in widths):
        raise EmptyBody("opposite halfspaces cross")
    if any(w == 0 for w in widths):
        raise DegenerateBody("zero width in its own chart")
    coordvol = Fraction(math.prod(widths), det_a)
    return coordvol, tuple((a, 2 * coordvol / w)
                           for (a, _, _), w in zip(pairs, widths))


def _opposite_pairs(dim: int, halfspaces: Sequence[Halfspace]
                    ) -> Optional[List[Tuple[Tuple[int, ...], Fraction,
                                             Fraction]]]:
    """(a, b, b') for a . y <= b and -a . y <= b' when the halfspaces are
    exactly dim such pairs; None otherwise.  Normals may still be dependent."""
    offsets = dict(halfspaces)
    if len(offsets) != 2 * dim:
        return None
    pairs = []
    for a, b in offsets.items():
        neg = _neg(a)
        if neg not in offsets:
            return None
        if a > neg:
            pairs.append((a, b, offsets[neg]))
    return pairs


def _sweep_from_halfspaces(dim: int, halfspaces: Sequence[Halfspace]) -> _Sweep:
    """Run the sweep inside a certified box; detect unboundedness at the walls.

    Every vertex of a bounded intersection solves a nonsingular integer
    d x d subsystem, so Cramer plus Hadamard bounds each coordinate by the
    product of the d largest augmented row norms.  A final vertex on the
    (strictly larger) wall therefore witnesses a recession direction, and
    the walls of a bounded body touch no vertex, so ``faces`` never counts
    them as facets.
    """
    if len(halfspaces) < dim:
        raise Unbounded("fewer halfspaces than dimensions")
    row_bounds = sorted(
        (sqrt_upper(Fraction(dot(a, a)) + b * b, 32) for a, b in halfspaces),
        reverse=True)
    m = Fraction(1)
    for x in row_bounds[:dim]:
        m *= max(x, Fraction(1))
    w = math.floor(m) + 1
    sweep = _Sweep(identity_rows(dim), [Fraction(w)] * dim)
    for a, b in halfspaces:
        sweep.insert(a, b)
    for den, x in sweep.verts.values():
        if any(abs(c) == w * den for c in x):
            raise Unbounded("vertex pinned to the bounding wall")
    return sweep


def _section(piv: List[int], rows: List[Tuple[int, ...]], den: int,
             alpha: List[int], top: int):
    """(pivots, rows, den) of a hyperplane section of the affine hull that
    projects one to one onto piv along rows / den (row t is den at piv[t]
    and 0 at the other pivots), where the hyperplane's normal a reads
    alpha_t = a . row_t.  The section loses pivot top, the last t with
    alpha_t != 0 (`_last_nonzero`), and runs along the rows
    alpha_top row_t - alpha_t row_top, whose pivots all read alpha_top den,
    over their gcd signed so that the new den is positive.  A section of a
    plane is an edge, which `_section_volume` measures without one."""
    at, rt = alpha[top], rows[top]
    sub = [tuple(at * x - al * y for x, y in zip(r, rt))
           for t, (r, al) in enumerate(zip(rows, alpha)) if t != top]
    div = math.gcd(at * den, *(x for r in sub for x in r))
    if at < 0:
        div = -div
    return (piv[:top] + piv[top + 1:],
            [tuple(x // div for x in r) for r in sub], at * den // div)


def _last_nonzero(alpha: Sequence[int]) -> int:
    """The last t with alpha_t != 0."""
    top = len(alpha) - 1
    while not alpha[top]:
        top -= 1
    return top


def _section_volume(face: int, piv: List[int], rows: List[Tuple[int, ...]],
                    den: int, alpha: List[int], top: int, gens, pts,
                    memo: Dict[int, int]) -> int:
    """(k-1)! times the (k-1)-volume of the projection of a face onto its
    pivots, where the face lies on a hyperplane section of an affine hull
    (piv, rows, den) of dimension k >= 2, as in `_section`, and top is
    `_last_nonzero(alpha)`.  When k = 2 the face is an edge, and its
    section keeps the pivot other than top: the edge's length along that
    pivot needs no section rows."""
    if len(piv) > 2:
        return _face_volume(face, *_section(piv, rows, den, alpha, top),
                            gens, pts, memo)
    kept = piv[1 - top]
    vol = abs(pts[(face & -face).bit_length() - 1][kept]
              - pts[face.bit_length() - 1][kept])
    memo[face] = vol
    return vol


def _face_volume(face: int, piv: List[int], rows: List[Tuple[int, ...]],
                 den: int, gens, pts, memo: Dict[int, int]) -> int:
    """k! times the k-volume of a face's projection onto its pivots.

    The face is a bitmask over the integer points pts, k = len(piv) >= 2,
    and (piv, rows, den) is its affine hull as in `_section`.  Its facets
    are the inclusion-maximal proper intersections face & m over the
    generators (m, a, c), each on the hyperplane a . x = c, and the lowest
    vertex v0 is the apex (Lasserre 1983): V(f) is the sum over the facets
    g missing v0 of (c - a . pts[v0]) den V(g) / |alpha_top|, with alpha
    and top as in `_section`.  Each term is k! times the volume of a
    lattice pyramid in Z^k, an integer, so an inexact division means a
    wrong face lattice and raises.  The facets of g come from the facets
    of f, and the memo is keyed by the face alone, since its affine hull
    fixes its pivots and rows."""
    if face in memo:
        return memo[face]
    inters: Dict[int, tuple] = {}
    for m, a, c in gens:
        g = face & m
        if g and g != face:
            inters.setdefault(g, (a, c))
    children = []  # by size, so a set's proper supersets come before it
    for g in sorted(inters, key=int.bit_count, reverse=True):
        if all(g & h != g for h, _, _ in children):
            children.append((g, *inters[g]))
    v0 = (face & -face).bit_length() - 1
    p0 = pts[v0]
    vol = 0
    for g, a, c in children:
        if g >> v0 & 1:
            continue  # the apex lies on g: a pyramid of height 0
        alpha = [dot(a, r) for r in rows]
        top = _last_nonzero(alpha)
        sub = memo[g] if g in memo else _section_volume(
            g, piv, rows, den, alpha, top, children, pts, memo)
        term, rem = divmod((c - dot(a, p0)) * den * sub, abs(alpha[top]))
        if rem:
            raise ArithmeticError("a pyramid's volume is not integral")
        vol += term
    memo[face] = vol
    return vol


# --- the body class -------------------------------------------------------------

@dataclass(frozen=True)
class BodyMeasures:
    volume: SqrtSum
    surface: SqrtSum
    ratio: SqrtSum


class _Cache(dict):
    """A body's cache.  Swept faces are kept as integers under "faces", and
    "vertices" and "facets", as ``Fraction`` tuples and frozensets of
    vertex indices, are built from them on first read, also by code that
    reads the cache directly (perfbench's tracer counts a Voronoi cell's
    "facets")."""

    def __missing__(self, key):
        if key == "vertices" and "faces" in self:
            points, scale, _ = self["faces"]
            self[key] = tuple(tuple(Fraction(x, scale) for x in p)
                              for p in points)
        elif key == "facets" and "faces" in self:
            self[key] = tuple((a, b, frozenset(_indices(mask)))
                              for a, b, mask in self["faces"].facets)
        else:
            raise KeyError(key)
        return self[key]


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Bounded full-dimensional polytope over a rational chart."""

    frame: QMatrix  # ambient_dim x dim, columns span the body's subspace
    halfspaces: Tuple[Halfspace, ...]
    _cache: dict = field(default_factory=_Cache, repr=False)

    # construction -------------------------------------------------------------

    @staticmethod
    def from_halfspaces(frame, halfspaces: Iterable[Tuple[Sequence, Fraction]]
                        ) -> "HPolytope":
        if isinstance(frame, int):
            frame = QMatrix.identity(frame)
        if rank_over_rationals(frame) != frame.ncols:
            raise ValueError("frame columns are dependent")
        hs = canonical_halfspaces(
            (vec, Fraction(b)) for vec, b in halfspaces)
        if any(len(a) != frame.ncols for a, _ in hs):
            raise ValueError("normal length must match chart dimension")
        return HPolytope(frame, hs)

    @staticmethod
    def cube(n: int, half_side: Fraction = Fraction(1, 2)) -> "HPolytope":
        """[-h, h]^n, stated by rule (see `_Cube`): its measures come with
        it, and no n x n object exists until its frame, halfspaces or chart
        table is read."""
        half = Fraction(half_side)
        if half <= 0:
            raise ValueError("half side must be positive")
        return _Cube(n, half)

    # basic data ----------------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.frame.nrows

    @property
    def dim(self) -> int:
        return self.frame.ncols

    def metric(self) -> QMatrix:
        if "metric" not in self._cache:
            self._cache["metric"] = self.frame.t() @ self.frame
        return self._cache["metric"]

    def metric_inv(self) -> QMatrix:
        if "metric_inv" not in self._cache:
            self._cache["metric_inv"] = inverse(self.metric())
        return self._cache["metric_inv"]

    def halfspace_count(self) -> int:
        return len(self.halfspaces)

    def _faces(self) -> _Faces:
        if "faces" not in self._cache:
            self._cache["faces"] = _sweep_from_halfspaces(
                self.dim, self.halfspaces).faces()
        return self._cache["faces"]

    def vertices(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The vertices, sorted."""
        self._faces()
        return self._cache["vertices"]

    def facets(self):
        """Tuple of (normal, offset, touching vertex index frozenset)."""
        self._faces()
        return self._cache["facets"]

    def ambient_halfspaces(self) -> Tuple[Halfspace, ...]:
        """Facet halfspaces in ambient coordinates (full-dim charts only)."""
        if self.dim != self.ambient_dim:
            raise ValueError("body does not span the ambient space")
        finv_t = inverse(self.frame).t()
        out = []
        for a, b, _ in self._faces().facets:
            vec = finv_t.mul_vec(a)
            prim, gamma = primitive_normal(vec)
            out.append((prim, b / gamma))
        return tuple(sorted(out))

    def circumradius_sq(self) -> Fraction:
        """Exact max squared ambient norm over the vertices, on the integer
        points as p^T num p / (den scale^2) for G = num / den."""
        g = self.metric()
        points, scale, _ = self._faces()
        best = max(dot(p, [dot(row, p) for row in g.num]) for p in points)
        return Fraction(best, g.den * scale * scale)

    def inradius_sq(self) -> Fraction:
        """Squared radius of the largest origin-centered ball inside, exactly.

        Distance from the origin to a facet plane a . y = b in the chart
        metric is b / sqrt(a^T G^{-1} a); its signed square b |b| / (a^T
        G^{-1} a) keeps it exact, and the minimum over the facets is <= 0
        when the origin is not interior.
        """
        return min(b * abs(b) / self._dual_sq(a)
                   for a, b, _ in self._faces().facets)

    def _dual_sq(self, a: Tuple[int, ...]) -> Fraction:
        """a^T G^-1 a, on integers as a^T num a / den for G^-1 = num / den,
        once per normal pair +-a."""
        memo = self._cache.setdefault("dual_sq", {})
        if a not in memo:
            ginv = self.metric_inv()
            memo[a] = memo[_neg(a)] = Fraction(
                dot(a, [dot(row, a) for row in ginv.num]), ginv.den)
        return memo[a]

    # measures --------------------------------------------------------------------

    def measures(self) -> BodyMeasures:
        """The chart table met with the metric: volume is the chart volume
        times sqrt(det G), and a facet pair +-a adds its chart area times
        sqrt(det G * a^T G^-1 a).  That radicand equals det(C^T G C) for any
        Z-basis C of a^perp when a is primitive: the squared covolume of Z^d
        in a's hyperplane, so the facet's measure is its volume in
        C-coordinates times its square root."""
        if "measures" not in self._cache:
            coordvol, areas = self._chart()
            det_g = det_q(self.metric())
            volume = SqrtSum.from_rational(coordvol) * SqrtSum.sqrt(det_g)
            surface = SqrtSum.zero()
            for a, area in areas:
                surface = surface + SqrtSum.from_rational(area) \
                    * SqrtSum.sqrt(det_g * self._dual_sq(a))
            self._cache["measures"] = BodyMeasures(volume, surface,
                                                   surface / volume)
        return self._cache["measures"]

    def _chart(self) -> _Chart:
        """The metric-free table, keyed by the larger normal a of +-a."""
        if "chart" not in self._cache:
            pairs = _opposite_pairs(self.dim, self.halfspaces)
            det_a = det_int([a for a, _, _ in pairs]) if pairs else 0
            chart = _parallelepiped_chart(pairs, abs(det_a)) if det_a \
                else self._facet_sum_chart()
            if chart[0] == 0:
                raise DegenerateBody("zero volume in its own chart")
            self._cache["chart"] = chart
        return self._cache["chart"]

    def _facet_sum_chart(self) -> _Chart:
        """Chart volume (1/d) sum_F b_F vol_C(F) and the facet areas.

        In chart coordinates the facet a . y = b lies at distance b / |a|
        from the origin and has area |a| vol_C(F), so the divergence theorem
        needs no top-dimensional volume.  When the facets are closed under
        a -> -a with equal offsets the body is centrally symmetric and each
        opposite pair is measured once.

        A facet's volume comes from Lasserre's recursion (`_face_volume`)
        on the vertices scaled to integers by their common denominator.
        Its affine hull projects one to one onto the coordinates other
        than the last j with a_j != 0, and that projection maps the lattice
        Z^d in a's hyperplane onto a sublattice of index |a_j| (a is
        primitive), so vol_C(F) is the projected volume over |a_j|.  The
        sweep's faces come as those integer points and vertex masks.
        """
        d = self.dim
        pts, scale, facets = self._faces()
        offsets = {a: b for a, b, _ in facets}
        symmetric = all(offsets.get(_neg(a)) == b for a, b, _ in facets)
        gens = [(mask, a, dot(a, pts[(mask & -mask).bit_length() - 1]))
                for a, _, mask in facets]
        memo: Dict[int, int] = {}
        unit = scale ** (d - 1) * math.factorial(d - 1)
        coordvol = Fraction(0)
        areas: Dict[Tuple[int, ...], Fraction] = {}
        for a, b, mask in facets:
            key = max(a, _neg(a))
            if symmetric and a != key:
                continue
            # the facet is a section of the chart R^d, projected along its
            # last j with a_j != 0, over |a_j|
            j = _last_nonzero(a)
            vol = _section_volume(mask, list(range(d)), identity_rows(d), 1,
                                  list(a), j, gens, pts, memo)
            area = Fraction((2 if symmetric else 1) * vol, abs(a[j]) * unit)
            coordvol += b * area
            areas[key] = areas.get(key, 0) + area
        return coordvol / d, tuple(areas.items())

    def volume(self) -> SqrtSum:
        return self.measures().volume

    def ratio(self) -> SqrtSum:
        return self.measures().ratio


class _Cube(HPolytope):
    """[-h, h]^n, stated by rule.

    Its metric is the identity, so it states its measures: volume (2h)^n
    and surface 2n (2h)^(n-1).  Its dimensions, its halfspace count 2n and
    everything else come by rule too, and its identity frame, its 2n
    halfspaces and its chart table (chart volume (2h)^n, and 2 (2h)^(n-1)
    per unit normal) are built on first read and kept.  The 2n unit normals
    are primitive and distinct, so their sorted order, -e_0 < ... <
    -e_(n-1) < e_(n-1) < ... < e_0, is all `canonical_halfspaces` would
    give.  The dataclass fields frame and halfspaces are these properties
    here, so the frozen dataclass's __init__ is never run.
    """

    def __init__(self, n: int, half: Fraction):
        object.__setattr__(self, "_cache", _Cache())
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_half", half)
        side = 2 * half
        volume = SqrtSum.from_rational(side ** n)
        surface = SqrtSum.from_rational(2 * n * side ** (n - 1))
        self._cache["measures"] = BodyMeasures(volume, surface,
                                               surface / volume)

    @property
    def ambient_dim(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._n

    @property
    def frame(self) -> QMatrix:
        if "frame" not in self._cache:
            self._cache["frame"] = QMatrix(identity_rows(self._n))
        return self._cache["frame"]

    @property
    def halfspaces(self) -> Tuple[Halfspace, ...]:
        if "halfspaces" not in self._cache:
            units = self.frame.num
            self._cache["halfspaces"] = tuple(
                (a, self._half)
                for a in identity_rows(self._n, -1) + units[::-1])
        return self._cache["halfspaces"]

    def halfspace_count(self) -> int:
        return 2 * self._n

    def _chart(self) -> _Chart:
        if "chart" not in self._cache:
            side = 2 * self._half
            area = 2 * side ** (self._n - 1)  # the opposite facets of an axis
            self._cache["chart"] = (side ** self._n,
                                    tuple((e, area) for e in self.frame.num))
        return self._cache["chart"]


# --- constructions ----------------------------------------------------------------

def voronoi_cell(lat: Lattice, node_cap: int = 10 ** 7) -> HPolytope:
    """Voronoi cell of the lattice around the origin, inside its own span.

    By Voronoi's theorem a nonzero lattice vector v is Voronoi-relevant,
    its bisector a facet, exactly when +-v are the only shortest vectors of
    v + 2L (Conway and Sloane 1992).  So the facets come from the minima of
    the nonzero classes of L/2L.  Each class has a member with coordinates
    in {-1, 0, 1}, so one enumeration to the largest of those classes'
    least {-1, 0, 1} norms holds every class minimum, with all its ties.
    The basis slab box seeds the sweep, and only the sole pairs +-v of
    minima are cut.
    """
    d = lat.rank
    if d == 0:
        raise ValueError("zero-rank lattice has no cell")
    # the cell only depends on the lattice; a reduced basis keeps the seed
    # slab fat and the candidate enumeration small
    basis = lll_reduce(lat.basis)
    g = basis.t() @ basis
    g_int, g_den = QMatrix(g.num), g.den
    diag = [Fraction(g.num[i][i], g.den) for i in range(d)]
    seeds = [primitive_normal(g.col(i)) for i in range(d)]
    sweep = _Sweep([a for a, _ in seeds],
                   [x / (2 * gamma) for x, (_, gamma) in zip(diag, seeds)])

    # the {-1, 0, 1} members of the class with support S are the sign
    # vectors on S, and x and -x have one norm: visit those whose first
    # nonzero coordinate is 1, keyed by that place and the rest's support
    least: Dict[Tuple[int, ...], int] = {}
    for lead in range(d):
        head = (0,) * lead + (1,)
        for tail in itertools.product((-1, 0, 1), repeat=d - 1 - lead):
            x = head + tail
            nsq = dot(x, [dot(row, x) for row in g.num])
            cls = (lead, *map(abs, tail))
            least[cls] = min(nsq, least.get(cls, nsq))
    minima: Dict[Tuple[int, ...], list] = {}
    for coords, nsq in enumerate_short_vectors(
            g, Fraction(max(least.values()), g_den), node_cap=node_cap):
        ties = minima.setdefault(tuple(c & 1 for c in coords), [])
        if not ties or ties[0][1] == nsq:
            ties.append((coords, nsq))
    # the zero vector is the sole minimum of its class: no facet there
    for ties in minima.values():
        if len(ties) == 2:
            for coords, nsq in ties:
                a, gamma = primitive_normal(g_int.mul_vec(coords))
                sweep.insert(a, nsq * g_den / (2 * gamma))
    faces = sweep.faces()
    body = HPolytope(basis, tuple((a, b) for a, b, _ in faces.facets))
    body._cache["faces"] = faces
    body._cache["metric"] = g
    return body


def orthogonal_product(p: HPolytope, q: HPolytope) -> HPolytope:
    """Minkowski sum of bodies spanning orthogonal subspaces.

    Measures factor, so nothing is recomputed: volume multiplies and surface
    obeys the product rule, which makes the surface-to-volume ratio exactly
    additive.  The chart table multiplies too: the chart is the product of
    the factors' charts, so a facet F x Q of P's normal a has the padded
    normal (a, 0) and chart area area(F) * vol(Q), and likewise for Q.
    Vertices and facets are swept from the halfspaces only when asked for.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    fp, fq = p.frame, q.frame
    if any(map(any, (fp.t() @ fq).num)):
        raise ValueError("subspaces are not orthogonal")
    dp, dq = p.dim, q.dim
    d = math.lcm(fp.den, fq.den)
    sp, sq = d // fp.den, d // fq.den
    frame = QMatrix(tuple(tuple(sp * x for x in a) + tuple(sq * x for x in b)
                          for a, b in zip(fp.num, fq.num)), d)
    hs: List[Halfspace] = []
    for a, b in p.halfspaces:
        hs.append((a + (0,) * dq, b))
    for a, b in q.halfspaces:
        hs.append(((0,) * dp + a, b))
    body = HPolytope(frame, tuple(sorted(hs)))
    vp, areas_p = p._chart()
    vq, areas_q = q._chart()
    body._cache["chart"] = (
        vp * vq,
        tuple((a + (0,) * dq, area * vq) for a, area in areas_p)
        + tuple(((0,) * dp + a, area * vp) for a, area in areas_q))
    mp, mq = p.measures(), q.measures()
    volume = mp.volume * mq.volume
    surface = mp.surface * mq.volume + mp.volume * mq.surface
    body._cache["measures"] = BodyMeasures(volume, surface, surface / volume)
    return body


def linear_image(t: QMatrix, p: HPolytope) -> HPolytope:
    """Apply an injective linear map.  The chart and its halfspaces carry
    over, and only the metric changes, so the chart table is handed over
    (a cube states its own) and the faces are kept once swept."""
    frame = t @ p.frame
    if rank_over_rationals(frame) != p.dim:
        raise ValueError("map collapses the body")
    body = HPolytope(frame, p.halfspaces)
    body._cache["chart"] = p._chart()
    if "faces" in p._cache:
        body._cache["faces"] = p._cache["faces"]
    return body

