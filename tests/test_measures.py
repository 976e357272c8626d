"""Measures by formula against the triangulated oracle, term for term, and
the integer sweep's faces against the reference sweep's."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (reference_faces, reference_voronoi_faces,
                     triangulated_measures)
from paratile import linalg, polytopes
from paratile.lattices import Lattice, kernel_and_image
from paratile.linalg import QMatrix, det_int, rank_over_rationals
from paratile.polytopes import (DegenerateBody, EmptyBody, HPolytope,
                                Unbounded, _face_volume, _opposite_pairs,
                                linear_image, orthogonal_product,
                                voronoi_cell)
from paratile.radicals import SqrtSum

small_int = st.integers(min_value=-3, max_value=3)
entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=5)
widths = st.fractions(min_value=Fraction(1, 5), max_value=4,
                      max_denominator=5)


def square_rows(draw, d, elems):
    return [draw(st.lists(elems, min_size=d, max_size=d)) for _ in range(d)]


@st.composite
def frames(draw, d):
    """A rational chart of rank d in R^d or R^(d+1), usually not orthogonal."""
    ambient = d + draw(st.integers(min_value=0, max_value=1))
    rows = [draw(st.lists(entries, min_size=d, max_size=d))
            for _ in range(ambient)]
    frame = QMatrix.from_rows(rows)
    assume(rank_over_rationals(frame) == d)
    return frame


def assert_same_terms(got, want):
    assert got.volume.terms == want.volume.terms
    assert got.surface.terms == want.surface.terms
    assert got.ratio.terms == want.ratio.terms


def kernel4():
    """The rank-5 kernel of [I_4 | five columns], the step that perfbench's
    geometric-step calls kernel4: its cell has 204 vertices and 44 facets,
    and only 84 of the vertices lie on exactly 5 facets."""
    return kernel_and_image(Lattice.standard(9), QMatrix.from_rows(
        [[1, 0, 0, 0, 1, 1, 0, 0, 1], [0, 1, 0, 0, 1, 1, 0, 1, 1],
         [0, 0, 1, 0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 0, 1, 1, 0, 0]]))[0]


def image_lattice(cols):
    """The lattice of T = B^T (B B^T)^-1 for the matrix B with these
    columns."""
    b = QMatrix.from_rows(cols).t()
    return Lattice(b.t() @ linalg.inverse(b @ b.t()))


def fresh(body):
    """The same halfspaces and chart with nothing cached."""
    return HPolytope(body.frame, body.halfspaces)


# --- parallelepipeds: widths over |det A| ------------------------------------------

@st.composite
def parallelepipeds(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    normals = square_rows(draw, d, small_int)
    assume(det_int(normals) != 0)
    hs = []
    for a in normals:
        b = draw(offsets)
        hs.append((a, b))
        hs.append(([-x for x in a], draw(widths) - b))
    return HPolytope.from_halfspaces(draw(frames(d)), hs)


@given(parallelepipeds())
def test_parallelepiped_formula_matches_triangulation(body):
    got = body.measures()
    assert "faces" not in body._cache  # answered without the sweep
    assert_same_terms(got, triangulated_measures(fresh(body)))


def test_crossed_offsets_are_empty():
    body = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1, 1], [0, 2]]),
        [((2, 1), Fraction(1)), ((-2, -1), Fraction(-3, 2)),
         ((0, 1), Fraction(1)), ((0, -1), Fraction(1))])
    with pytest.raises(EmptyBody):
        body.measures()


def test_zero_width_is_degenerate():
    body = HPolytope.from_halfspaces(
        3, [((1, 2, 0), Fraction(1, 3)), ((-1, -2, 0), Fraction(-1, 3)),
            ((0, 1, 1), Fraction(1)), ((0, -1, -1), Fraction(1)),
            ((0, 0, 3), Fraction(2)), ((0, 0, -3), Fraction(2))])
    with pytest.raises(DegenerateBody):
        body.measures()


def test_dependent_normals_are_not_a_parallelepiped():
    # three opposite pairs with dependent normals leave the third axis free;
    # the generic path reports that instead of dividing by det A = 0
    body = HPolytope.from_halfspaces(
        3, [((1, 0, 0), Fraction(1)), ((-1, 0, 0), Fraction(1)),
            ((0, 1, 0), Fraction(1)), ((0, -1, 0), Fraction(1)),
            ((1, 1, 0), Fraction(1)), ((-1, -1, 0), Fraction(1))])
    with pytest.raises(Unbounded):
        body.measures()


# --- Voronoi cells: symmetric facet sum ---------------------------------------------

@st.composite
def lattices(draw, max_rank=4, entry=2):
    r = draw(st.integers(min_value=2, max_value=max_rank))
    ambient = r + draw(st.integers(min_value=0, max_value=1))
    cols = [draw(st.lists(st.integers(min_value=-entry, max_value=entry),
                          min_size=ambient, max_size=ambient))
            for _ in range(r)]
    basis = QMatrix.from_rows(cols).t()
    assume(rank_over_rationals(basis) == r)
    return Lattice(basis)


@settings(max_examples=25)
@given(lattices())
def test_voronoi_facet_sum_matches_triangulation(lat):
    cell = voronoi_cell(lat)
    got = cell.measures()
    assert_same_terms(got, triangulated_measures(fresh(cell)))
    assert got.volume == lat.covolume()


# --- bodies that are not centrally symmetric ------------------------------------------

@st.composite
def simplices(draw, max_dim=4):
    """d + 1 halfspaces whose normals sum to zero with positive weights,
    translated so that the origin may lie outside."""
    d = draw(st.integers(min_value=2, max_value=max_dim))
    normals = square_rows(draw, d, small_int)
    assume(det_int(normals) != 0)
    lam = draw(st.lists(st.integers(min_value=1, max_value=3),
                        min_size=d, max_size=d))
    last = [-sum(l * a[j] for l, a in zip(lam, normals)) for j in range(d)]
    shift = draw(st.lists(entries, min_size=d, max_size=d))
    hs = []
    for a in normals + [last]:
        b = draw(widths) + sum(x * t for x, t in zip(a, shift))
        hs.append((a, b))
    return HPolytope.from_halfspaces(draw(frames(d)), hs)


@settings(max_examples=40)
@given(simplices())
def test_simplex_facet_sum_matches_triangulation(body):
    assert len(body.halfspaces) == body.dim + 1
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))


def test_translated_box_is_not_symmetric_but_agrees():
    # a box off the origin with one corner cut: neither a parallelepiped
    # nor centrally symmetric, and some offsets are negative
    body = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
        [((1, 0, 0), Fraction(3)), ((-1, 0, 0), Fraction(-1)),
         ((0, 1, 0), Fraction(1)), ((0, -1, 0), Fraction(1)),
         ((0, 0, 1), Fraction(1, 2)), ((0, 0, -1), Fraction(1, 2)),
         ((1, 1, 1), Fraction(3))])
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))


def test_trapezoid_with_one_opposite_pair_takes_the_facet_sum():
    # 0 <= x <= 2, y >= 0, x + 2y <= 4: four halfspaces in the plane, as
    # many as a parallelogram has, but only x <= 2 has its opposite
    body = HPolytope.from_halfspaces(
        2, [((1, 0), Fraction(2)), ((-1, 0), Fraction(0)),
            ((0, -1), Fraction(0)), ((1, 2), Fraction(4))])
    assert _opposite_pairs(2, body.halfspaces) is None
    got = body.measures()
    assert_same_terms(got, triangulated_measures(fresh(body)))
    assert got.volume == SqrtSum.from_rational(3)
    assert got.surface == SqrtSum.from_rational(5) + SqrtSum.sqrt(5)


# --- facet volumes by Lasserre's recursion ---------------------------------------------

def test_a_voronoi_chart_takes_no_determinant(monkeypatch):
    calls = []

    def counted(rows, _det=linalg.det_int):
        calls.append(len(rows))
        return _det(rows)

    monkeypatch.setattr(polytopes, "det_int", counted)
    monkeypatch.setattr(linalg, "det_int", counted)
    cell = voronoi_cell(Lattice.from_columns([[2, 0, 1], [1, 2, 0],
                                              [0, 1, 2]]))
    assert _opposite_pairs(cell.dim, cell.halfspaces) is None
    volume, _ = cell._chart()
    assert calls == []
    assert volume == 1  # the cell of a lattice in its own basis coordinates


def test_a_pyramid_that_does_not_divide_exactly_raises():
    # the triangle (0,0), (1,0), (0,1): its slanted edge on x + y = 1 gives
    # 2! * 1/2 = 1, and the wrong plane x + 2y = 3 leaves a remainder
    pts = [(0, 0), (1, 0), (0, 1)]
    edges = [(0b011, (0, -1), 0), (0b101, (-1, 0), 0)]
    rows = [(1, 0), (0, 1)]
    good = edges + [(0b110, (1, 1), 1)]
    assert _face_volume(0b111, [0, 1], rows, 1, good, pts, {}) == 1
    bad = edges + [(0b110, (1, 2), 3)]
    with pytest.raises(ArithmeticError, match="not integral"):
        _face_volume(0b111, [0, 1], rows, 1, bad, pts, {})


# --- the integer sweep against the reference sweep -----------------------------------

@st.composite
def cut_boxes(draw):
    """A box around a rational centre, cut by one to three halfspaces that
    keep the centre inside.  A cut may run through a corner of the box,
    which leaves vertices with more than d active halfspaces, or cut
    nothing."""
    d = draw(st.integers(min_value=2, max_value=5))
    centre = draw(st.lists(entries, min_size=d, max_size=d))
    half = draw(st.lists(widths, min_size=d, max_size=d))
    hs = []
    for i, (c, h) in enumerate(zip(centre, half)):
        e = [1 if j == i else 0 for j in range(d)]
        hs.append((e, c + h))
        hs.append(([-x for x in e], h - c))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.lists(small_int, min_size=d, max_size=d))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=d,
                              max_size=d))
        rise = sum(x * s * h for x, s, h in zip(a, signs, half))
        assume(rise != 0)  # a . (corner - centre) for one corner
        rise = abs(rise) if draw(st.booleans()) else draw(widths)
        hs.append((a, sum(x * c for x, c in zip(a, centre)) + rise))
    return HPolytope.from_halfspaces(draw(frames(d)), hs)


def box_with_cuts(lo, hi, cuts):
    hs = []
    for i, (l, h) in enumerate(zip(lo, hi)):
        e = [1 if j == i else 0 for j in range(len(lo))]
        hs += [(e, h), ([-x for x in e], -l)]
    return HPolytope.from_halfspaces(len(lo), hs + cuts)


def assert_same_faces(body, verts, facets):
    assert body.vertices() == verts
    assert body.facets() == facets  # incidence sets included


@settings(max_examples=30)
@given(st.one_of(simplices(max_dim=5), cut_boxes()))
# cuts through corners: a vertex pair shares d - 1 halfspaces without
# spanning an edge, and a halfspace meets a 2-face in 4 vertices
@example(box_with_cuts([-1, -3, -3, 0], [3, 2, 2, 3],
                       [((0, 0, -2, -2), -4), ((2, 1, 0, -2), -3)]))
@example(box_with_cuts([-3, -2, -3, -2], [1, 3, 2, 3],
                       [((2, -1, 0, 0), -4)]))
# not centrally symmetric, off the origin, and vertices with denominators
# above 3, which the facet volumes scale to integers first
@example(box_with_cuts(
    [Fraction(-1, 2), Fraction(-2, 3), -1, Fraction(1, 5)],
    [Fraction(3, 2), 1, Fraction(4, 3), 2],
    [((1, 2, 3, 1), Fraction(7, 2)), ((-2, 1, 0, 3), Fraction(13, 3))]))
def test_sweep_matches_the_reference_sweep(body):
    verts, facets = reference_faces(body.dim, body.halfspaces)
    assert_same_faces(body, verts, facets)
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))


@settings(max_examples=10)
@given(lattices(max_rank=5, entry=1))
# a facet vector of this cell has squared norm 23, more than twice the
# squared norm 11 of the longest vector of its reduced basis
@example(Lattice.from_columns([[1, 2, 2, 3], [2, 1, -2, 0], [1, 3, 1, 0]]))
# the kernel4 cell is far from simple
@example(kernel4())
def test_voronoi_cell_matches_the_one_pass_reference(lat):
    cell = voronoi_cell(lat)
    verts, facets = reference_voronoi_faces(cell.metric())
    assert_same_faces(cell, verts, facets)
    assert_same_terms(cell.measures(), triangulated_measures(fresh(cell)))


# --- the columns: simple vertices walk their edges, the rest test pairs -----------

@pytest.fixture
def sweeps(monkeypatch):
    """Every sweep made while the test runs, to read its counters."""
    made = []

    class Recorded(polytopes._Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(polytopes, "_Sweep", Recorded)
    return made


def assert_matches_reference(body):
    verts, facets = reference_faces(body.dim, body.halfspaces)
    assert_same_faces(body, verts, facets)


def test_a_segment_walks_to_its_other_live_end(sweeps):
    # d = 1: no halfspace cuts out an edge, so the AND over the empty set
    # must be the live vertices, the segment's two ends, not every bit
    body = HPolytope.from_halfspaces(1, [((1,), Fraction(3)),
                                         ((-1,), Fraction(1))])
    assert_matches_reference(body)
    assert body.vertices() == ((-1,), (3,))
    (sweep,) = sweeps
    assert (sweep.edges_walked, sweep.pairs_tested) == (2, 0)


def test_a_polygon_walks_every_edge(sweeps):
    # [1, 3] x [0, 2] with the corner (3, 2) cut: every vertex of a polygon
    # lies on two edges, so no cut tests a pair
    body = HPolytope.from_halfspaces(
        2, [((1, 0), Fraction(3)), ((-1, 0), Fraction(-1)),
            ((0, -1), Fraction(0)), ((0, 1), Fraction(2)),
            ((1, 1), Fraction(4))])
    assert_matches_reference(body)
    assert len(body.vertices()) == 5
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))
    (sweep,) = sweeps
    assert sweep.edges_walked > 0 and sweep.pairs_tested == 0


def test_the_octahedron_tests_pairs(sweeps):
    # |x| + |y| + |z| <= 1: each vertex lies on 4 facets in R^3, so the cuts
    # that make them leave non-simple vertices for the pair test
    body = HPolytope.from_halfspaces(
        3, [((sx, sy, sz), Fraction(1)) for sx in (-1, 1) for sy in (-1, 1)
            for sz in (-1, 1)])
    assert_matches_reference(body)
    assert len(body.vertices()) == 6 and len(body.facets()) == 8
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))
    (sweep,) = sweeps
    assert sweep.pairs_tested > 0


def test_an_edge_ending_on_the_cut_makes_no_vertex(sweeps):
    # x + y + z <= 2 cuts the corner (1, 1, 1) off the unit cube, and its
    # three edges end at vertices on the cut: they are kept, none is made
    body = box_with_cuts([0, 0, 0], [1, 1, 1], [((1, 1, 1), Fraction(2))])
    assert_matches_reference(body)
    assert len(body.vertices()) == 7
    assert (1, 1, 0) in body.vertices()
    assert_same_terms(body.measures(), triangulated_measures(fresh(body)))


def test_the_sweep_counts_its_work_on_the_kernel4_cell(sweeps):
    # 84 of the cell's 204 vertices are simple; the counters appear in no
    # report
    voronoi_cell(kernel4())
    (sweep,) = sweeps
    assert sweep.peak_vertices == 204
    assert sweep.edges_walked == 130
    assert sweep.pairs_tested == 336


def test_a_rank6_image_cell_is_exact():
    # T = B^T (B B^T)^-1 for B = [I_6 | the first six weight-3 columns of
    # GF(2)^6 in lexicographic order]: 4,464 vertices, nearly all simple
    weight3 = [tuple(int(i in c) for i in range(6))
               for c in itertools.combinations(range(6), 3)][:6]
    lat = image_lattice(list(linalg.identity_rows(6)) + weight3)
    cell = voronoi_cell(lat)
    assert len(cell._faces().points) == 4464
    assert len(cell.halfspaces) == 118
    assert cell.measures().volume == lat.covolume()


# --- products: measures from the factors, faces swept on request ----------------------

def eager_product_faces(p, q):
    """The product's vertices and facets as orthogonal_product once built
    them up front."""
    dp, dq = p.dim, q.dim
    vp, vq = p.vertices(), q.vertices()
    pairs = sorted((v1 + v2, (i, j))
                   for i, v1 in enumerate(vp) for j, v2 in enumerate(vq))
    index = {ij: k for k, (_, ij) in enumerate(pairs)}
    facets = []
    for a, b, touch in p.facets():
        full = frozenset(index[(i, j)] for i in touch for j in range(len(vq)))
        facets.append((a + (0,) * dq, b, full))
    for a, b, touch in q.facets():
        full = frozenset(index[(i, j)] for i in range(len(vp)) for j in touch)
        facets.append(((0,) * dp + a, b, full))
    return tuple(v for v, _ in pairs), tuple(sorted(facets))


def test_image_of_a_product_measures_from_the_factors():
    # cell x (image of a cube), then a shear mixing the two subspaces: the
    # chart table multiplies in the product and survives both images.  The
    # cell's chart volume is 1 and the cube's 9, so a swapped factor shows.
    hexagon = voronoi_cell(Lattice.from_columns([[2, 0, 0, 0], [1, 2, 0, 0]]))
    square = linear_image(QMatrix.from_rows([[0, 0], [0, 0], [1, 1], [0, 1]]),
                          HPolytope.cube(2, Fraction(3, 2)))
    body = linear_image(QMatrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0],
                                           [0, 1, 1, 0], [0, 0, 1, 1]]),
                        orthogonal_product(hexagon, square))
    got = body.measures()
    assert "faces" not in body._cache
    assert_same_terms(got, triangulated_measures(fresh(body)))
    volume, areas = body._chart()
    swept_volume, swept_areas = fresh(body)._chart()
    assert volume == swept_volume and dict(areas) == dict(swept_areas)


def test_lazy_product_faces_match_the_eager_build():
    hexagon = voronoi_cell(Lattice.from_columns([[2, 0, 0, 0], [1, 2, 0, 0]]))
    square = linear_image(QMatrix.from_rows([[0, 0], [0, 0], [1, 1], [0, 1]]),
                          HPolytope.cube(2))
    prod = orthogonal_product(hexagon, square)
    assert "faces" not in prod._cache
    verts, facets = eager_product_faces(hexagon, square)
    assert prod.vertices() == verts
    assert prod.facets() == facets
    assert_same_terms(prod.measures(), triangulated_measures(fresh(prod)))
    # a linear image keeps the chart, so its sweep finds the same faces
    image = linear_image(QMatrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0],
                                            [0, 0, 1, 0], [0, 0, 1, 1]]),
                         orthogonal_product(hexagon, square))
    assert image.vertices() == verts
    assert image.facets() == facets
    assert_same_terms(image.measures(), triangulated_measures(fresh(image)))
