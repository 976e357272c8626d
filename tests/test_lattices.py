import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from paratile.lattices import (EnumerationCap, Lattice, apply_matrix,
                               enumerate_short_vectors, kernel_and_image,
                               lattices_equal, shortest_vector_sq)
from paratile.linalg import (IntMatrix, QMatrix, clear_denominators, det_int,
                             det_q, hnf_basis_columns, inverse,
                             rank_over_rationals)
from paratile.radicals import SqrtSum

from oracles import coordinates_in_lattice, reference_projection

FCC = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def fcc():
    return Lattice.from_columns([[Fraction(x) for x in c] for c in FCC])


def test_standard_lattice():
    lat = Lattice.standard(3)
    assert lat.rank == 3 and lat.is_integer()
    assert lat.covolume() == SqrtSum.from_rational(1)
    assert coordinates_in_lattice(lat, [1, -2, 5]) is not None
    assert coordinates_in_lattice(lat, [Fraction(1, 2), 0, 0]) is None


def test_fcc_basics():
    lat = fcc()
    assert lat.covolume() == SqrtSum.from_rational(2)
    assert shortest_vector_sq(lat) == 2
    # (1,1,0)+(1,0,1)-(0,1,1); (1,0,0) has an odd coordinate sum
    assert coordinates_in_lattice(lat, [2, 0, 0]) is not None
    assert coordinates_in_lattice(lat, [1, 0, 0]) is None


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3,
                max_size=3))
def test_coordinates_roundtrip(coords):
    lat = fcc()
    v = lat.basis.mul_vec(coords)
    assert coordinates_in_lattice(lat, v) == tuple(coords)


def test_lattices_equal_under_unimodular_change():
    a = Lattice.from_columns([[1, 0], [0, 1]])
    b = Lattice.from_columns([[1, 1], [0, 1]])  # shear of the same Z^2
    assert lattices_equal(a, b)
    c = Lattice.from_columns([[2, 0], [0, 1]])
    assert not lattices_equal(a, c)


square_bases = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(square_bases)
def test_covolume_square_path_matches_gram_path(cols):
    if det_q(QMatrix.from_rows(cols)) == 0:
        return
    lat = Lattice.from_columns(cols)
    assert lat.covolume() == SqrtSum.sqrt(det_q(lat.gram()))


def test_covolume_of_a_plane_lattice_in_space():
    lat = Lattice.from_columns([[1, 1, 0], [0, 1, 1]])
    assert lat.covolume() == SqrtSum.sqrt(3)


@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=2, max_value=3))
def test_lattices_equal_separates_same_rank_lattices(cols, j, k):
    if det_int(cols) == 0:
        return
    lat = Lattice.from_columns(cols)
    assert lattices_equal(lat, Lattice.from_columns(cols))
    # k times one basis column: an index-k sublattice, same rank
    sub = [[k * x for x in c] if i == j else c for i, c in enumerate(cols)]
    assert not lattices_equal(lat, Lattice.from_columns(sub))
    assert not lattices_equal(Lattice.from_columns(sub), lat)
    # a unimodular change of basis: different bases, the same lattice
    sheared = [[x + y for x, y in zip(c, cols[(j + 1) % 3])] if i == j else c
               for i, c in enumerate(cols)]
    assert lattices_equal(lat, Lattice.from_columns(sheared))


def right_inverse(b: IntMatrix) -> QMatrix:
    bq = b.to_q()
    return bq.t() @ inverse(bq @ bq.t())


def test_kernel_intersection_of_worked_matrix():
    b = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    sub, image = kernel_and_image(Lattice.standard(4), b)
    assert sub.rank == 2
    assert sub.is_integer()
    for j in range(sub.rank):
        col = [sub.basis.entries[i][j] for i in range(4)]
        assert all(v == 0 for v in b.mul_vec(col))
    # (1,-1,0,0) is primitive in the kernel, so it must be reachable
    assert coordinates_in_lattice(sub, [1, -1, 0, 0]) is not None
    assert lattices_equal(image, Lattice.standard(2))


def test_projection_lattice_contains_projections():
    b = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    _, image = kernel_and_image(Lattice.standard(4), b)
    proj = apply_matrix(right_inverse(b), image)
    assert proj.rank == 2
    # image of e_1 under projection onto the rowspan of b
    half = Fraction(1, 2)
    assert coordinates_in_lattice(proj, [half, half, 0, 0]) is not None


def test_kernel_and_image_of_a_rational_lattice():
    lat = Lattice.from_columns([[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0],
                                [0, 0, 1]])
    b = IntMatrix.from_rows([[1, 1, 1]])
    kernel, image = kernel_and_image(lat, b)
    assert kernel.rank == 2
    # B L = (1/2) Z + (1/3) Z + Z = (1/6) Z
    assert image.basis.entries == ((Fraction(1, 6),),)


split_shapes = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(st.integers(min_value=1, max_value=n - 1),
                        st.just(n)))


@st.composite
def split_cases(draw):
    m, n = draw(split_shapes)
    b_rows = draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                    min_size=n, max_size=n),
                           min_size=m, max_size=m))
    entry = draw(st.sampled_from([
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4)]))
    cols = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return IntMatrix.from_rows(b_rows), cols


@given(split_cases())
def test_kernel_and_image_split_the_lattice(case):
    b, cols = case
    m, n = b.shape
    assume(rank_over_rationals(b) == m)
    assume(det_q(QMatrix.from_rows(cols)) != 0)
    lat = Lattice.from_columns(cols)
    kernel, image = kernel_and_image(lat, b)
    assert kernel.ambient_dim == n and kernel.rank == n - m
    assert all(x == 0 for row in (b @ kernel.basis).entries for x in row)
    gens, d = clear_denominators(b @ lat.basis)
    assert image.basis.entries == \
        hnf_basis_columns(gens).to_q().scale(Fraction(1, d)).entries
    proj = reference_projection(lat, b)
    assert lattices_equal(apply_matrix(right_inverse(b), image), proj)
    # a primitive kernel slice: covol L = covol(L meet ker B) covol(proj L)
    assert kernel.covolume() * proj.covolume() == lat.covolume()


# --- enumeration ---------------------------------------------------------------

def brute_short(g_rows, bound, center):
    """All (point, norm) with (x-center)^T G (x-center) <= bound, box scan."""
    k = len(g_rows)
    out = set()
    for x in product(range(-6, 7), repeat=k):
        diff = [Fraction(xi) - ci for xi, ci in zip(x, center)]
        q = sum(diff[i] * g_rows[i][j] * diff[j]
                for i in range(k) for j in range(k))
        if q <= bound:
            out.add((x, q))
    return out


def test_enumerate_z2_counts():
    g = QMatrix.identity(2)
    pairs = enumerate_short_vectors(g, Fraction(2))
    assert {v for v, _ in pairs} == {(0, 0), (1, 0), (-1, 0), (0, 1),
                                     (0, -1), (1, 1), (1, -1), (-1, 1),
                                     (-1, -1)}
    assert dict(pairs)[(1, 1)] == 2
    # sorted by norm, origin first
    assert pairs[0] == ((0, 0), Fraction(0))


def test_enumerate_with_center():
    g = QMatrix.identity(2)
    center = (Fraction(1, 2), Fraction(1, 2))
    pairs = enumerate_short_vectors(g, Fraction(1, 2), center=center)
    assert {v for v, _ in pairs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(q == Fraction(1, 2) for _, q in pairs)


@given(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                         min_size=2, max_size=2), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=8),
       st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=4),
                min_size=2, max_size=2))
def test_enumerate_matches_brute_force(rows, bound, center):
    if det_int(rows) == 0:
        return
    a = QMatrix.from_rows(rows)
    g = a.t() @ a  # positive definite Gram
    got = set(enumerate_short_vectors(g, Fraction(bound),
                                      center=tuple(center)))
    want = brute_short(g.entries, Fraction(bound), tuple(center))
    assert got == want


def test_shortest_vector_values():
    assert shortest_vector_sq(Lattice.standard(5)) == 1
    assert shortest_vector_sq(fcc()) == 2
    doubled = Lattice.from_columns([[2 * x for x in c] for c in FCC])
    assert shortest_vector_sq(doubled) == 8


def test_enumeration_cap_fires():
    with pytest.raises(EnumerationCap):
        enumerate_short_vectors(QMatrix.identity(3), Fraction(100),
                                node_cap=10)


def test_skew_slab_terminates_quickly():
    # reduced Gram whose level slabs contain no integers for some shifts;
    # this used to spin forever before ranges were computed by integer sqrt
    g = QMatrix.from_rows([[6, 1, 1], [1, 13, -4], [1, -4, 14]])
    t0 = time.perf_counter()
    pairs = enumerate_short_vectors(g, Fraction(6))
    assert time.perf_counter() - t0 < 1.0
    coords = {v for v, _ in pairs}
    assert coords == {(0, 0, 0), (1, 0, 0), (-1, 0, 0)}


def test_voronoi_relevant_scale_enumeration():
    lat = fcc()
    g = lat.gram()
    pairs = [(v, q) for v, q in enumerate_short_vectors(g, Fraction(8))
             if v != (0, 0, 0)]
    # fcc kissing number is 12, all at squared length 2
    norms = [q for _, q in pairs]
    assert norms.count(2) == 12
    assert norms.count(4) == 6
    for v, q in pairs:  # reported norm matches the Gram form
        manual = sum(ci * g.entries[i][j] * cj
                     for i, ci in enumerate(v) for j, cj in enumerate(v))
        assert manual == q
