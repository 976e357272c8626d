"""Exact polytope geometry in rational subspaces of R^n.

A body is stored as halfspaces over a coordinate chart: points are frame @ y
with the frame columns spanning the body's subspace, and each halfspace reads
a . y <= b with a primitive integer normal.  Vertex enumeration is a double
description sweep started from a certified bounding parallelepiped, so no LP
solver is involved; all predicates (cuts, adjacency, facet ranks) are exact.

Measures live in the ambient metric G = frame^T frame and come by formula.
A facet a . y = b measures its chart volume times sqrt(det G * a^T G^-1 a),
the covolume of the integer lattice in a's hyperplane.  A parallelepiped
(d opposite pairs of halfspaces with independent normals, which covers every
linear image of a cube) needs no vertices at all: its chart volume is the
product of the widths over |det A|.  Any other body has its vertices swept,
each facet pulling-triangulated, and its chart volume summed over the facets
as (1/d) sum_F b_F vol(F) (the divergence theorem).  Every volume and facet
measure is a rational multiple of a single square root, so surface, volume
and their quotient are exact radical expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .intervals import sqrt_upper
from .lattices import Lattice, enumerate_short_vectors
from .linalg import (
    IntMatrix,
    QMatrix,
    as_qmatrix,
    denominator_lcm,
    det_int,
    det_q,
    integer_kernel_basis,
    inverse,
    lll_reduce,
    rank_int_rows,
    rank_over_rationals,
    scaled_to_int,
)
from .radicals import SqrtSum

Halfspace = Tuple[Tuple[int, ...], Fraction]


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


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _cleared(v: Tuple[Fraction, ...]) -> Tuple[int, Tuple[int, ...]]:
    den = denominator_lcm(v)
    return den, scaled_to_int(v, den)


# --- double description sweep --------------------------------------------------

class _Sweep:
    """Incremental halfspace intersection with exact vertex bookkeeping."""

    def __init__(self, dim: int):
        self.d = dim
        self.halfspaces: List[Halfspace] = []
        self.aux: List[bool] = []
        self.verts: List[Tuple[Fraction, ...]] = []
        self.active: List[Set[int]] = []
        self._ivecs: List[Tuple[int, Tuple[int, ...]]] = []

    def add_seed_halfspace(self, a: Tuple[int, ...], b: Fraction,
                           aux: bool = False) -> None:
        self.halfspaces.append((a, Fraction(b)))
        self.aux.append(aux)

    def seed_vertex(self, coords: Sequence[Fraction]) -> None:
        v = tuple(Fraction(x) for x in coords)
        self.verts.append(v)
        self.active.append(self._exact_active(v))
        self._ivecs.append(_cleared(v))

    def _exact_active(self, v: Tuple[Fraction, ...]) -> Set[int]:
        out = set()
        for k, (a, b) in enumerate(self.halfspaces):
            if sum(x * y for x, y in zip(a, v)) == b:
                out.add(k)
        return out

    def insert(self, a: Tuple[int, ...], b: Fraction) -> bool:
        """Cut with a . y <= b.  Returns True when the vertex set changed."""
        b = Fraction(b)
        svals: List[Fraction] = []
        any_pos = False
        for (den, iv) in self._ivecs:
            s = Fraction(_idot(a, iv)) - b * den  # sign of a.v - b, scaled by den
            svals.append(s)
            if s > 0:
                any_pos = True
        if not any_pos:
            return False  # redundant here; never becomes a facet later
        hidx = len(self.halfspaces)
        self.halfspaces.append((a, b))
        self.aux.append(False)
        pos = [i for i, s in enumerate(svals) if s > 0]
        neg = [i for i, s in enumerate(svals) if s < 0]
        if not neg and not any(s == 0 for s in svals):
            raise EmptyBody("cut removes every vertex")
        new_coords: Dict[Tuple[Fraction, ...], bool] = {}
        for i in pos:
            ai = self.active[i]
            for j in neg:
                common = ai & self.active[j]
                if len(common) < self.d - 1:
                    continue
                normals = [self.halfspaces[k][0] for k in common]
                if rank_int_rows(normals) != self.d - 1:
                    continue
                si = svals[i] / self._ivecs[i][0]  # true a.v - b
                sj = svals[j] / self._ivecs[j][0]
                t = si / (si - sj)
                vi, vj = self.verts[i], self.verts[j]
                v = tuple(x + t * (y - x) for x, y in zip(vi, vj))
                new_coords[v] = True
        keep = [i for i, s in enumerate(svals) if s <= 0]
        self.verts = [self.verts[i] for i in keep]
        self.active = [self.active[i] | ({hidx} if svals[i] == 0 else set())
                       for i in keep]
        self._ivecs = [self._ivecs[i] for i in keep]
        for v in new_coords:
            self.verts.append(v)
            self.active.append(self._exact_active(v))
            self._ivecs.append(_cleared(v))
        if not self.verts:
            raise EmptyBody("cut removes every vertex")
        return True

    def faces(self):
        """Sorted vertices, and the facet-defining non-auxiliary halfspaces
        as (a, b, indices of the vertices on a . y = b), sorted.

        The active sets are the incidence, so no dot product is redone; a
        halfspace is a facet when the vertices on it span a hyperplane.
        """
        order = sorted(range(len(self.verts)), key=lambda i: self.verts[i])
        verts = tuple(self.verts[i] for i in order)
        touching: Dict[int, Set[int]] = {}
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


def _neg(a: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(-x for x in a)


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


def _affine_rank(points: Sequence[Tuple[Fraction, ...]]) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    rows = []
    for p in points[1:]:
        diff = [x - y for x, y in zip(p, p0)]
        rows.append(scaled_to_int(diff, denominator_lcm(diff)))
    return rank_int_rows(rows)


def _sweep_from_halfspaces(dim: int, halfspaces: Sequence[Halfspace]) -> _Sweep:
    """Run the sweep inside a certified box; detect unboundedness at the walls.

    Every vertex of a bounded intersection solves a nonsingular integer
    d x d subsystem, so Cramer plus Hadamard bounds each coordinate by the
    product of the d largest augmented row norms.  A final vertex on the
    (strictly larger) wall therefore witnesses a recession direction.
    """
    if len(halfspaces) < dim:
        raise Unbounded("fewer halfspaces than dimensions")
    row_bounds = sorted(
        (sqrt_upper(Fraction(_idot(a, a)) + b * b, 32) for a, b in halfspaces),
        reverse=True)
    m = Fraction(1)
    for x in row_bounds[:dim]:
        m *= max(x, Fraction(1))
    w = math.floor(m) + 1
    sweep = _Sweep(dim)
    for i in range(dim):
        for sign in (1, -1):
            a = tuple(sign if j == i else 0 for j in range(dim))
            sweep.add_seed_halfspace(a, Fraction(w), aux=True)
    for signs in range(1 << dim):
        coords = [Fraction(w if (signs >> i) & 1 else -w) for i in range(dim)]
        sweep.seed_vertex(coords)
    for a, b in halfspaces:
        sweep.insert(a, b)
    if not sweep.verts:
        raise EmptyBody("no vertices remain")
    for v in sweep.verts:
        if any(abs(x) == w for x in v):
            raise Unbounded("vertex pinned to the bounding wall")
    return sweep


# --- the body class -------------------------------------------------------------

@dataclass(frozen=True)
class BodyMeasures:
    volume: SqrtSum
    surface: SqrtSum
    ratio: SqrtSum


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Bounded full-dimensional polytope over a rational chart."""

    ambient_dim: int
    frame: QMatrix
    halfspaces: Tuple[Halfspace, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    # construction -------------------------------------------------------------

    @staticmethod
    def from_halfspaces(frame, halfspaces: Iterable[Tuple[Sequence, Fraction]]
                        ) -> "HPolytope":
        if isinstance(frame, int):
            frame = QMatrix.identity(frame)
        frame = as_qmatrix(frame)
        if rank_over_rationals(frame) != frame.ncols:
            raise ValueError("frame columns are dependent")
        hs = canonical_halfspaces(
            (vec, Fraction(b)) for vec, b in halfspaces)
        if any(len(a) != frame.ncols for a, _ in hs):
            raise ValueError("normal length must match chart dimension")
        return HPolytope(frame.nrows, frame, hs)

    @staticmethod
    def cube(n: int, half_side: Fraction = Fraction(1, 2)) -> "HPolytope":
        half = Fraction(half_side)
        hs = []
        for e in IntMatrix.identity(n).entries:
            hs.append((e, half))
            hs.append((tuple(-x for x in e), half))
        return HPolytope.from_halfspaces(n, hs)

    # basic data ----------------------------------------------------------------

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

    def vertices(self) -> Tuple[Tuple[Fraction, ...], ...]:
        if "vertices" not in self._cache:
            sweep = _sweep_from_halfspaces(self.dim, self.halfspaces)
            self._cache["vertices"], self._cache["facets"] = sweep.faces()
        return self._cache["vertices"]

    def facets(self):
        """Tuple of (normal, offset, touching vertex index frozenset)."""
        self.vertices()  # the sweep caches both
        return self._cache["facets"]

    def facet_halfspaces(self) -> Tuple[Halfspace, ...]:
        return tuple((a, b) for a, b, _ in self.facets())

    def ambient_halfspaces(self) -> Tuple[Halfspace, ...]:
        """Halfspace description in ambient coordinates (full-dim charts only)."""
        if self.dim != self.ambient_dim:
            raise ValueError("body does not span the ambient space")
        finv_t = inverse(self.frame).t()
        out = []
        for a, b in self.facets_or_halfspaces():
            vec = finv_t.mul_vec(a)
            prim, gamma = primitive_normal(vec)
            out.append((prim, b / gamma))
        return tuple(sorted(out))

    def facets_or_halfspaces(self) -> Tuple[Halfspace, ...]:
        if "facets" in self._cache or "vertices" in self._cache:
            return self.facet_halfspaces()
        return self.halfspaces

    def circumradius_sq(self) -> Fraction:
        """Exact max squared ambient norm over the vertices."""
        if "circumradius_sq" not in self._cache:
            g = self.metric()
            best = Fraction(0)
            for v in self.vertices():
                gv = g.mul_vec(v)
                best = max(best, sum(x * y for x, y in zip(v, gv)))
            self._cache["circumradius_sq"] = best
        return self._cache["circumradius_sq"]

    def inradius_certify(self, r_sq: Fraction) -> bool:
        """Certify that the origin-centered ball of squared radius r_sq fits.

        Distance from the origin to a facet plane a . y = b in the chart
        metric is b / sqrt(a^T G^{-1} a); comparing squares keeps it exact.
        """
        r_sq = Fraction(r_sq)
        ginv = self.metric_inv()
        for a, b, _ in self.facets():
            if b <= 0:
                return False
            q = sum(x * y for x, y in zip(a, ginv.mul_vec(a)))
            if b * b < r_sq * q:
                return False
        return True

    # face lattice and triangulation ---------------------------------------------

    def _face_children(self, face: FrozenSet[int], dim: int
                       ) -> List[FrozenSet[int]]:
        verts = self.vertices()
        seen: Set[FrozenSet[int]] = set()
        out: List[FrozenSet[int]] = []
        for _, _, touch in self.facets():
            if face <= touch:
                continue
            inter = face & touch
            if not inter or inter in seen:
                continue
            seen.add(inter)
            if _affine_rank([verts[i] for i in inter]) == dim - 1:
                out.append(inter)
        return out

    def _triangulate(self, face: FrozenSet[int], dim: int
                     ) -> List[Tuple[int, ...]]:
        memo = self._cache.setdefault("triangulations", {})
        key = face
        if key in memo:
            return memo[key]
        if dim == 0:
            result = [(min(face),)]
        else:
            v0 = min(face)
            result = []
            for child in self._face_children(face, dim):
                if v0 in child:
                    continue
                for s in self._triangulate(child, dim - 1):
                    result.append((v0,) + s)
        memo[key] = result
        return result

    # measures --------------------------------------------------------------------

    def measures(self) -> BodyMeasures:
        if "measures" in self._cache:
            return self._cache["measures"]
        det_g = det_q(self.metric())
        pairs = _opposite_pairs(self.dim, self.halfspaces)
        det_a = det_int([a for a, _, _ in pairs]) if pairs else 0
        if det_a:
            coordvol, surface = self._parallelepiped_measures(
                pairs, abs(det_a), det_g)
        else:
            coordvol, surface = self._facet_sum_measures(det_g)
        if coordvol == 0:
            raise DegenerateBody("zero volume in its own chart")
        volume = SqrtSum.from_rational(coordvol) * SqrtSum.sqrt(det_g)
        measures = BodyMeasures(volume, surface, surface / volume)
        self._cache["measures"] = measures
        return measures

    def _facet_radicand(self, a: Tuple[int, ...], det_g: Fraction) -> Fraction:
        """det G * a^T G^-1 a: the squared covolume of Z^d in a's hyperplane.

        It equals det(C^T G C) for any Z-basis C of a^perp when a is
        primitive, so a facet's measure is its volume in C-coordinates times
        the square root of this rational.
        """
        ginv_a = self.metric_inv().mul_vec(a)
        return det_g * sum(x * y for x, y in zip(a, ginv_a))

    def _parallelepiped_measures(self, pairs, det_a: int, det_g: Fraction
                                 ) -> Tuple[Fraction, SqrtSum]:
        """Chart volume prod(w) / |det A| and the surface, no vertices needed.

        The facet on a_i . y = b_i has C-coordinate volume
        prod_{j != i} w_j / |det A|, and its opposite facet is a translate.
        """
        widths = [b + b_neg for _, b, b_neg in pairs]
        if any(w < 0 for w in widths):
            raise EmptyBody("opposite halfspaces cross")
        if any(w == 0 for w in widths):
            raise DegenerateBody("zero width in its own chart")
        coordvol = Fraction(math.prod(widths), det_a)
        surface = SqrtSum.zero()
        for (a, _, _), w in zip(pairs, widths):
            surface = surface + SqrtSum.from_rational(2 * coordvol / w) \
                * SqrtSum.sqrt(self._facet_radicand(a, det_g))
        return coordvol, surface

    def _facet_sum_measures(self, det_g: Fraction) -> Tuple[Fraction, SqrtSum]:
        """Chart volume (1/d) sum_F b_F vol_C(F) and the surface.

        In chart coordinates the facet a . y = b lies at distance b / |a|
        from the origin and has area |a| vol_C(F), so the divergence theorem
        needs no top-dimensional triangulation.  When the facets are closed
        under a -> -a with equal offsets the body is centrally symmetric and
        each opposite pair is measured once.
        """
        verts = self.vertices()
        facets = self.facets()
        offsets = {a: b for a, b, _ in facets}
        symmetric = all(offsets.get(_neg(a)) == b for a, b, _ in facets)
        coordvol = Fraction(0)
        surface = SqrtSum.zero()
        for a, b, touch in facets:
            copies = 1
            if symmetric:
                if a < _neg(a):
                    continue
                copies = 2
            acc = copies * self._facet_chart_volume(a, touch, verts)
            coordvol += b * acc
            surface = surface + SqrtSum.from_rational(acc) \
                * SqrtSum.sqrt(self._facet_radicand(a, det_g))
        return coordvol / self.dim, surface

    def _facet_chart_volume(self, a: Tuple[int, ...], touch: FrozenSet[int],
                            verts) -> Fraction:
        """Volume of a facet in the coordinates of a Z-basis C of a^perp."""
        d = self.dim
        if d == 1:
            return Fraction(1)  # counting measure on endpoints
        cq = integer_kernel_basis(IntMatrix.from_rows([list(a)])).to_q()
        pinv = inverse(cq.t() @ cq) @ cq.t()
        order = sorted(touch)
        y0 = verts[order[0]]
        tmap: Dict[int, Tuple[Fraction, ...]] = {}
        for i in order:
            diff = [x - y for x, y in zip(verts[i], y0)]
            tmap[i] = pinv.mul_vec(diff)
        acc = Fraction(0)
        for simplex in self._triangulate(frozenset(touch), d - 1):
            pts = [tmap[i] for i in simplex]
            rows = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
            acc += abs(det_q(QMatrix.from_rows(rows)))
        return acc / math.factorial(d - 1)

    def volume(self) -> SqrtSum:
        return self.measures().volume

    def ratio(self) -> SqrtSum:
        return self.measures().ratio


# --- constructions ----------------------------------------------------------------

def voronoi_cell(lat: Lattice, node_cap: int = 10 ** 7) -> HPolytope:
    """Voronoi cell of the lattice around the origin, inside its own span.

    Candidate vectors come from one exact enumeration pass: once the running
    cell's vertices all have squared norm at most r^2, any lattice vector w
    with |w|^2 >= 4 r^2 cuts nothing (a cut point p would satisfy
    |w|^2 / 2 < p . w <= |p| |w|).  The initial cell is the basis slab box,
    whose vertices are available in closed form.
    """
    d = lat.rank
    if d == 0:
        raise ValueError("zero-rank lattice has no cell")
    # the cell only depends on the lattice; a reduced basis keeps the seed
    # slab fat and the candidate enumeration small
    lat = Lattice(lat.ambient_dim, lll_reduce(lat.basis))
    g = lat.gram()
    ginv = inverse(g)
    sweep = _Sweep(d)
    for i in range(d):
        col = g.col(i)
        a, gamma = primitive_normal(col)
        b = g.entries[i][i] / (2 * gamma)
        sweep.add_seed_halfspace(a, b)
        sweep.add_seed_halfspace(tuple(-x for x in a), b)
    corners = []
    for signs in range(1 << d):
        s = [g.entries[i][i] / (2 if (signs >> i) & 1 else -2)
             for i in range(d)]
        corners.append(s)
    norm_sq: Dict[Tuple[Fraction, ...], Fraction] = {}
    for s in corners:
        v = ginv.mul_vec(s)
        sweep.seed_vertex(v)
        norm_sq[sweep.verts[-1]] = sum(x * y for x, y in zip(s, v))
    max_sq = max(norm_sq.values())

    def current_max_sq() -> Fraction:
        # a cut keeps most vertices; only the new ones need g @ v
        nonlocal norm_sq
        fresh = {}
        for v in sweep.verts:
            nsq = norm_sq.get(v)
            if nsq is None:
                nsq = sum(x * y for x, y in zip(v, g.mul_vec(v)))
            fresh[v] = nsq
        norm_sq = fresh
        return max(fresh.values())

    bound = 4 * max_sq
    cands = enumerate_short_vectors(g, bound, skip_zero=True,
                                    node_cap=node_cap)
    for coords, nsq in cands:
        if nsq >= 4 * max_sq:
            break
        vec = g.mul_vec(coords)
        a, gamma = primitive_normal(vec)
        b = nsq / (2 * gamma)
        if sweep.insert(a, b):
            max_sq = current_max_sq()
    verts, facets = sweep.faces()
    body = HPolytope(lat.ambient_dim, lat.basis,
                     tuple((a, b) for a, b, _ in facets))
    body._cache["vertices"] = verts
    body._cache["facets"] = facets
    body._cache["metric"] = g
    body._cache["metric_inv"] = ginv
    return body


def orthogonal_product(p: HPolytope, q: HPolytope) -> HPolytope:
    """Minkowski sum of bodies spanning orthogonal subspaces.

    Measures factor, so nothing is recomputed: volume multiplies and surface
    obeys the product rule, which makes the surface-to-volume ratio exactly
    additive.  Vertices and facets are swept from the halfspaces only when
    asked for.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    cross = p.frame.t() @ q.frame
    if any(x != 0 for row in cross.entries for x in row):
        raise ValueError("subspaces are not orthogonal")
    dp, dq = p.dim, q.dim
    frame = QMatrix.from_rows(
        [list(p.frame.entries[i]) + list(q.frame.entries[i])
         for i in range(p.ambient_dim)])
    hs: List[Halfspace] = []
    for a, b in p.halfspaces:
        hs.append((a + (0,) * dq, b))
    for a, b in q.halfspaces:
        hs.append(((0,) * dp + a, b))
    body = HPolytope(p.ambient_dim, frame, tuple(sorted(hs)))
    mp, mq = p.measures(), q.measures()
    volume = mp.volume * mq.volume
    surface = mp.surface * mq.volume + mp.volume * mq.surface
    body._cache["measures"] = BodyMeasures(volume, surface, surface / volume)
    return body


def linear_image(t, p: HPolytope) -> HPolytope:
    """Apply an injective linear map; the chart and combinatorics carry over."""
    tq = as_qmatrix(t)
    frame = tq @ p.frame
    if rank_over_rationals(frame) != p.dim:
        raise ValueError("map collapses the body")
    body = HPolytope(tq.nrows, frame, p.halfspaces)
    for key in ("vertices", "facets", "triangulations"):
        if key in p._cache:
            body._cache[key] = p._cache[key]
    return body


def scaled(p: HPolytope, s: Fraction) -> HPolytope:
    """Dilate by s > 0 about the origin of the chart."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("scale must be positive")
    hs = tuple((a, b * s) for a, b in p.halfspaces)
    body = HPolytope(p.ambient_dim, p.frame, hs)
    if "vertices" in p._cache:
        body._cache["vertices"] = tuple(
            tuple(s * x for x in v) for v in p._cache["vertices"])
    if "facets" in p._cache:
        body._cache["facets"] = tuple(
            (a, b * s, touch) for a, b, touch in p._cache["facets"])
    if "metric" in p._cache:
        body._cache["metric"] = p._cache["metric"]
    if "measures" in p._cache:
        m = p._cache["measures"]
        d = p.dim
        sd = SqrtSum.from_rational(s ** d)
        sd1 = SqrtSum.from_rational(s ** (d - 1))
        vol = m.volume * sd
        surf = m.surface * sd1
        body._cache["measures"] = BodyMeasures(vol, surf, surf / vol)
    return body
