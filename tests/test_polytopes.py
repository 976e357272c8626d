import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratile import polytopes
from paratile.lattices import (Lattice, enumerate_short_vectors,
                               kernel_and_image)
from paratile.linalg import QMatrix, dot
from paratile.polytopes import (DegenerateBody, EmptyBody, HPolytope,
                                Unbounded, canonical_halfspaces, linear_image,
                                orthogonal_product, primitive_normal,
                                voronoi_cell)
from paratile.radicals import SqrtSum

FCC = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def fcc():
    return Lattice.from_columns([[Fraction(x) for x in c] for c in FCC])


# --- cubes ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_measures_exact(n):
    c = HPolytope.cube(n)
    m = c.measures()
    assert m.volume == SqrtSum.from_rational(1)
    assert m.surface == SqrtSum.from_rational(2 * n)
    assert m.ratio == SqrtSum.from_rational(2 * n)
    assert len(c.vertices()) == 2 ** n
    assert len(c.facets()) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("half_side", [Fraction(1, 2), Fraction(3)])
def test_cube_matches_a_generic_build(n, half_side):
    hs = [(tuple(Fraction(sign if j == i else 0) for j in range(n)),
           half_side)
          for i in range(n) for sign in (1, -1)]
    frame = QMatrix.from_rows([[1 if i == j else 0 for j in range(n)]
                               for i in range(n)])
    generic = HPolytope.from_halfspaces(frame, hs)
    c = HPolytope.cube(n, half_side)
    assert c.halfspaces == generic.halfspaces
    assert c.frame.entries == generic.frame.entries
    assert c.ambient_dim == generic.ambient_dim == n


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
def test_cube_states_its_halfspaces_in_sorted_order(n):
    # the closed form -e_0 < ... < -e_(n-1) < e_(n-1) < ... < e_0
    hs = HPolytope.cube(n).halfspaces
    assert hs == tuple(sorted(hs))
    assert len(set(hs)) == 2 * n


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1,
                max_size=5),
       st.integers(min_value=1, max_value=12))
def test_primitive_normal_int_and_fraction_inputs_agree(vec, den):
    if not any(vec):
        with pytest.raises(ValueError):
            primitive_normal(vec)
        return
    a, gamma = primitive_normal(vec)
    assert math.gcd(*a) == 1
    assert tuple(gamma * x for x in a) == tuple(vec)
    scaled_vec = [Fraction(x, den) for x in vec]
    assert primitive_normal(scaled_vec) == (a, gamma / den)


@pytest.mark.parametrize("n, half", [(1, Fraction(1, 2)), (2, Fraction(3)),
                                     (3, Fraction(2, 5)), (4, Fraction(1))])
def test_cube_states_what_the_generic_path_computes(n, half):
    cube = HPolytope.cube(n, half)
    generic = HPolytope(cube.frame, cube.halfspaces)
    (volume, areas), (want_volume, want_areas) = cube._chart(), \
        generic._chart()
    assert volume == want_volume and dict(areas) == dict(want_areas)
    for got, want in zip(vars(cube.measures()).values(),
                         vars(generic.measures()).values()):
        assert got.terms == want.terms


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("half", [Fraction(1, 2), Fraction(3, 7)])
def test_cube_builds_on_first_read_what_a_generic_build_holds(
        n, half, monkeypatch):
    built = []
    rows = polytopes.identity_rows
    monkeypatch.setattr(polytopes, "identity_rows",
                        lambda k, *one: built.append(k) or rows(k, *one))
    cube = HPolytope.cube(n, half)
    # stated by rule: the ratio 2n (2h)^(n-1) / (2h)^n, the sizes
    assert cube.ratio() == SqrtSum.from_rational(n / half)
    assert (cube.dim, cube.ambient_dim, cube.halfspace_count()) == \
        (n, n, 2 * n)
    assert built == []
    frame, halfspaces, chart = cube.frame, cube.halfspaces, cube._chart()
    # each is built once and kept: the unit rows, then the negated ones
    assert (cube.frame, cube.halfspaces, cube._chart()) == \
        (frame, halfspaces, chart)
    assert built == [n, n]
    monkeypatch.undo()
    generic = HPolytope(QMatrix.identity(n), canonical_halfspaces(
        (tuple(sign * int(i == j) for j in range(n)), half)
        for i in range(n) for sign in (1, -1)))
    assert frame == generic.frame
    assert halfspaces == generic.halfspaces
    assert cube.halfspace_count() == len(generic.halfspaces)
    (volume, areas), (want_volume, want_areas) = chart, generic._chart()
    assert volume == want_volume and dict(areas) == dict(want_areas)
    assert cube.vertices() == generic.vertices()
    assert cube.facets() == generic.facets()


def test_cube_needs_a_positive_half_side():
    for half in (0, -1):
        with pytest.raises(ValueError):
            HPolytope.cube(2, half)


def test_cube_scaling_laws():
    c = HPolytope.cube(3, half_side=Fraction(1))
    m = c.measures()
    assert m.volume == SqrtSum.from_rational(8)
    assert m.surface == SqrtSum.from_rational(24)
    # the same halfspaces with no stated table take the generic path
    generic = HPolytope(c.frame, c.halfspaces)
    assert generic.measures().volume == SqrtSum.from_rational(8)


def test_cube_radii():
    c = HPolytope.cube(3)
    assert c.circumradius_sq() == Fraction(3, 4)
    assert c.inradius_sq() == Fraction(1, 4)
    # an origin on or outside a facet plane reads as a radius^2 <= 0
    off = HPolytope.from_halfspaces(1, [((1,), Fraction(1)), ((-1,), 0)])
    assert off.inradius_sq() == 0
    out = HPolytope.from_halfspaces(1, [((1,), Fraction(2)), ((-1,), -1)])
    assert out.inradius_sq() == -1


# --- voronoi cells ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_voronoi_of_standard_is_cube(n):
    cell = voronoi_cell(Lattice.standard(n))
    cube = HPolytope.cube(n)
    assert set(cell.ambient_halfspaces()) == set(cube.ambient_halfspaces())
    assert cell.measures().volume == SqrtSum.from_rational(1)


def test_fcc_voronoi_is_rhombic_dodecahedron():
    cell = voronoi_cell(fcc())
    assert len(cell.facets()) == 12
    assert len(cell.vertices()) == 14
    m = cell.measures()
    assert m.volume == SqrtSum.from_rational(2)  # covolume of the lattice
    assert m.ratio == SqrtSum.from_rational(3) * SqrtSum.sqrt(2)


def test_hexagonal_voronoi():
    # generic (non-rectangular) planar lattice: the cell is a hexagon
    lat = Lattice.from_columns([[2, 0], [1, 2]])
    cell = voronoi_cell(lat)
    assert len(cell.facets()) == 6
    assert len(cell.vertices()) == 6
    assert cell.measures().volume == SqrtSum.from_rational(4)


def _facet_vectors(cell):
    """The lattice vector v of each facet (G v) . y <= |v|^2 / 2, in ambient
    coordinates: v = t G^-1 a with t = 2 b / (a^T G^-1 a)."""
    ginv = cell.metric_inv()
    vecs = []
    for a, b, _ in cell.facets():
        w = ginv.mul_vec(a)
        t = 2 * b / dot(a, w)
        vecs.append(cell.frame.mul_vec([t * x for x in w]))
    return vecs


def test_voronoi_facets_are_the_sole_minima_of_their_classes():
    # A_(n-1), the kernel of the all-ones row: each root e_i - e_j is the
    # sole pair of minima of its class of L/2L, so its n(n-1) facets sit at
    # the roots, all of squared norm 2
    for n in range(4, 8):
        kernel, _ = kernel_and_image(Lattice.standard(n),
                                     QMatrix(((1,) * n,)))
        vecs = _facet_vectors(voronoi_cell(kernel))
        roots = {tuple(int(k == i) - int(k == j) for k in range(n))
                 for i in range(n) for j in range(n) if i != j}
        assert len(vecs) == n * (n - 1)
        assert set(vecs) == roots
        assert all(dot(v, v) == 2 for v in vecs)
    # Z^2: the class (1, 1) has four minima +-e1 +- e2, so it gives no
    # facet, and the square keeps the four facets at +-e1 and +-e2
    found = enumerate_short_vectors(QMatrix.identity(2), 2)
    assert found[0] == ((0, 0), 0)
    assert [x for x, nsq in found if x[0] % 2 and x[1] % 2] == \
        [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    vecs = _facet_vectors(voronoi_cell(Lattice.standard(2)))
    assert sorted(vecs) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_skew_basis_same_cell():
    # same lattice through a badly skewed basis: cell must be identical
    nice = Lattice.from_columns([[1, 0], [0, 1]])
    skew = Lattice.from_columns([[1, 7], [0, 1]])
    a = voronoi_cell(nice)
    b = voronoi_cell(skew)
    assert set(a.ambient_halfspaces()) == set(b.ambient_halfspaces())


# --- products and images --------------------------------------------------------

def test_orthogonal_product_is_cube():
    left = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1], [0], [0]]),
        [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    right = HPolytope.from_halfspaces(
        QMatrix.from_rows([[0, 0], [1, 0], [0, 1]]),
        HPolytope.cube(2).halfspaces)
    prod = orthogonal_product(left, right)
    m = prod.measures()
    assert m.volume == SqrtSum.from_rational(1)
    assert m.surface == SqrtSum.from_rational(6)


def test_ratio_additivity_on_products():
    left = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1], [0], [0], [0]]),
        [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    frame = QMatrix.from_rows([[0] * 3, [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    right = HPolytope.from_halfspaces(frame, HPolytope.cube(3).halfspaces)
    prod = orthogonal_product(left, right)
    assert prod.measures().ratio == left.ratio() + right.ratio()


def test_product_rejects_non_orthogonal():
    a = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1], [0]]),
        [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    b = HPolytope.from_halfspaces(
        QMatrix.from_rows([[1], [1]]),
        [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    with pytest.raises(ValueError):
        orthogonal_product(a, b)


def test_linear_image_volume_scaling():
    c = HPolytope.cube(2)
    shear = QMatrix.from_rows([[1, 1], [0, 1]])  # determinant 1
    img = linear_image(shear, c)
    assert img.measures().volume == SqrtSum.from_rational(1)
    stretch = QMatrix.from_rows([[2, 0], [0, 1]])
    assert linear_image(stretch, c).measures().volume \
        == SqrtSum.from_rational(2)


def test_linear_image_rejects_collapse():
    c = HPolytope.cube(2)
    with pytest.raises(ValueError):
        linear_image(QMatrix.from_rows([[1, 0], [1, 0]]), c)


def test_scaled_measures():
    tiny = HPolytope.cube(3, Fraction(1, 4))
    m = HPolytope(tiny.frame, tiny.halfspaces).measures()
    assert m.volume == SqrtSum.from_rational(Fraction(1, 8))
    assert m.surface == SqrtSum.from_rational(Fraction(6, 4))
    # ratio scales inversely
    assert m.ratio == SqrtSum.from_rational(12)


@given(st.fractions(min_value=Fraction(1, 4), max_value=4,
                    max_denominator=8))
def test_scaling_ratio_law(s):
    c = HPolytope.cube(2, s / 2)
    assert HPolytope(c.frame, c.halfspaces).measures().ratio \
        == SqrtSum.from_rational(Fraction(4, 1) / s)


# --- degenerate inputs ------------------------------------------------------------

def test_unbounded_detected():
    with pytest.raises(Unbounded):
        HPolytope.from_halfspaces(2, [((1, 0), Fraction(1))]).vertices()


def test_empty_detected():
    with pytest.raises(EmptyBody):
        HPolytope.from_halfspaces(
            1, [((1,), Fraction(-1)), ((-1,), Fraction(-1))]).vertices()


def test_flat_body_has_no_vertices_or_facets():
    # a cut through the box's lowest corner leaves that corner alone; every
    # halfspace through it holds the whole (one-point) body
    hs = []
    for i, (lo, hi) in enumerate([(0, 2), (-3, 1), (-2, 1), (-3, 3)]):
        e = tuple(int(j == i) for j in range(4))
        hs += [(e, Fraction(hi)), (tuple(-x for x in e), Fraction(-lo))]
    hs.append(((1, 2, 1, 2), Fraction(-14)))
    for query in ("vertices", "facets", "ambient_halfspaces"):
        body = HPolytope.from_halfspaces(4, hs)
        with pytest.raises(DegenerateBody):
            getattr(body, query)()


def test_flat_detected():
    flat = HPolytope.from_halfspaces(
        2, [((1, 0), Fraction(0)), ((-1, 0), Fraction(0)),
            ((0, 1), Fraction(1)), ((0, -1), Fraction(1))])
    with pytest.raises(DegenerateBody):
        flat.measures()
