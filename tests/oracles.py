"""Reference implementations that only the tests use.

They compute the same exact values as the library by a slower, independent
route, so a test can demand equal ``SqrtSum`` terms, not just equal values.
"""

import math
from fractions import Fraction

from paratile.linalg import IntMatrix, QMatrix, det_q, integer_kernel_basis, inverse
from paratile.polytopes import BodyMeasures, DegenerateBody, HPolytope
from paratile.radicals import SqrtSum


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
