import json
import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from paratile.lattices import Lattice
from paratile.linalg import QMatrix, det_q
from paratile.polytopes import HPolytope, linear_image, voronoi_cell
from paratile.serialization import fixture_from_json
from paratile import verify
from paratile.verify import (_count_membership, _membership_system,
                             _popcount, _sample_blocks, verify_tiling)

from oracles import (brute_force_volume, dyadic_numerators_loop,
                     membership_count_by_translate)

FCC = Lattice(QMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    fx = fixture_from_json(json.loads(
        (FIXTURE_DIR / f"{name}.json").read_text()))
    return fx["body"], fx["lattice"]


def _inputs(body, lat, samples, bits, seed):
    """All of an audit's sample numerators in one array, its rows and its
    per-translate offsets."""
    blocks = _sample_blocks(random.Random(f"tiling:{seed}"), samples,
                            lat.rank, bits)
    return (np.concatenate(list(blocks)),
            *_membership_system(body, lat, bits))


# --- tiling audits ----------------------------------------------------------


def test_cube_tiles_standard_lattice():
    rep = verify_tiling(HPolytope.cube(2), Lattice.standard(2), samples=2000)
    assert rep.passed
    assert rep.volume_equal
    assert rep.overlap_violations == 0 and rep.gap_violations == 0
    assert rep.engine == "int64"
    assert rep.samples == 2000
    assert rep.translates >= 4
    assert rep.witnesses == ()


def test_fcc_cell_tiles_its_lattice():
    cell = voronoi_cell(FCC)
    rep = verify_tiling(cell, FCC, samples=1500)
    assert rep.passed
    assert rep.volume_equal


def test_inflated_cube_overlaps():
    body = HPolytope.cube(3, Fraction(101, 200))
    rep = verify_tiling(body, Lattice.standard(3), samples=3000)
    assert not rep.passed
    assert not rep.volume_equal
    assert rep.overlap_violations > 0
    assert rep.gap_violations == 0
    assert len(rep.witnesses) > 0


def test_shrunk_cube_leaves_gaps():
    body = HPolytope.cube(3, Fraction(99, 200))
    rep = verify_tiling(body, Lattice.standard(3), samples=3000)
    assert not rep.passed
    assert rep.gap_violations > 0
    assert rep.overlap_violations == 0
    assert len(rep.witnesses) > 0


def test_tiling_audit_is_deterministic():
    a = verify_tiling(HPolytope.cube(2), Lattice.standard(2), samples=800)
    b = verify_tiling(HPolytope.cube(2), Lattice.standard(2), samples=800)
    assert a == b


def test_bigint_engine_reaches_same_verdicts():
    # bits = 62 pushes the integer scores past the int64 audit
    ok = verify_tiling(HPolytope.cube(2), Lattice.standard(2),
                       samples=400, bits=62)
    assert ok.engine == "bigint"
    assert ok.passed
    bad = verify_tiling(HPolytope.cube(2, Fraction(101, 200)),
                        Lattice.standard(2), samples=400, bits=62)
    assert bad.engine == "bigint"
    assert not bad.passed and bad.overlap_violations > 0


def _random_parallelepiped(seed: int):
    rng = random.Random(seed)
    while True:
        t = QMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)]
                               for _ in range(3)])
        if det_q(t) != 0:
            return linear_image(t, HPolytope.cube(3)), Lattice(t)


@pytest.mark.parametrize("bits", [4, 24])
@pytest.mark.parametrize("case", ["worked_n4", "cube3", "scaled_cube3",
                                  "parallelepiped"])
def test_membership_count_agrees_on_int64_and_exact_integers(case, bits):
    if case == "parallelepiped":
        body, lat = _random_parallelepiped(11)
    else:
        body, lat = _fixture(case)
    # the audit keeps these inputs on int64, so both dtypes are exact
    assert verify_tiling(body, lat, samples=1, bits=bits).engine == "int64"
    ks, rows, offsets = _inputs(body, lat, 2000, bits, 3)
    fast = _count_membership(ks, rows, offsets, np.int64)
    assert fast == _count_membership(ks, rows, offsets, object)
    for dtype in (np.int64, object):
        assert fast == membership_count_by_translate(ks, rows, offsets, dtype)
    assert all(type(x) is int for w in fast[3] for x in w)
    if case == "cube3" and bits == 4:
        assert fast[2] > 0  # boundary hits are counted on both
    if case == "scaled_cube3":
        assert fast[3]  # and so are witnesses


_STREAM_BITS = [1, 24, 31, 32, 33, 60, 62, 63, 64, 70]


@pytest.mark.parametrize("bits", _STREAM_BITS)
def test_bulk_samples_replay_the_getrandbits_stream(bits, monkeypatch):
    # a few hundred points per block forces many blocks; this pins
    # CPython's getrandbits(bits): if an interpreter changes it, the bulk
    # stream (and so every audit's report bytes) no longer matches
    monkeypatch.setattr(verify, "_DRAW_CHUNK", 300)
    for seed, samples, rank in ((0, 1, 1), (1, 97, 3), (7, 500, 4),
                                (31, 1200, 2)):
        got = _inputs(HPolytope.cube(rank), Lattice.standard(rank),
                      samples, bits, seed)[0]
        assert got.shape == (samples, rank)
        assert got.dtype == (np.int64 if bits <= 63 else object)
        assert got.tolist() == dyadic_numerators_loop(seed, samples, rank,
                                                      bits)


def test_bulk_samples_replay_the_stream_across_default_block_edges():
    # three default blocks: each block is one draw, and the stream runs on
    # across its edges
    count = 3 * verify._DRAW_CHUNK
    for bits in (24, 33, 63, 70):
        got = np.concatenate(list(_sample_blocks(random.Random("tiling:5"),
                                                 count, 1, bits)))
        assert got.tolist() == dyadic_numerators_loop(5, count, 1, bits)


def _agree_on_both_dtypes(ks, rows, offsets):
    got = _count_membership(ks, rows, offsets, np.int64)
    for dtype in (np.int64, object):
        assert _count_membership(ks, rows, offsets, dtype) == got
        assert membership_count_by_translate(ks, rows, offsets, dtype) == got
    return got


@pytest.mark.parametrize("samples", [1, 7, 63, 64, 65, 129, 2000])
@pytest.mark.parametrize("case", ["cube3", "scaled_cube3"])
def test_packed_count_leaves_pad_bits_out(case, samples):
    # a sample count off a multiple of 64 leaves pad bits in the last word;
    # on the tiling cube3 any pad bit read as a sample would be a gap
    ks, rows, offsets = _inputs(*_fixture(case), samples, 24, 5)
    overlap, gap, _, _ = _agree_on_both_dtypes(ks, rows, offsets)
    if case == "cube3":
        assert (overlap, gap) == (0, 0)


def test_packed_count_witnesses_an_all_gap_body_from_sample_0():
    # 0 <= k_0 <= 10 holds for no sample drawn in [20, 100)
    ks = np.array([[20 + i, i] for i in range(80)], dtype=np.int64)
    rows, offsets = [[1, 0], [-1, 0]], [[10, 0], [10, 0]]
    assert _agree_on_both_dtypes(ks, rows, offsets) == (
        0, 80, 0, tuple((20 + i, i) for i in range(8)))


def test_packed_count_finds_a_first_witness_past_the_first_word():
    # translates 0 <= k <= 100 and 50 <= k <= 300: sample 70 lies in no
    # translate, sample 100 strictly inside both, sample 130 on a boundary
    ks = np.full((200, 1), 5, dtype=np.int64)
    ks[70], ks[100], ks[130] = 400, 75, 300
    rows, offsets = [[1], [-1]], [[100, 0], [300, -50]]
    assert _agree_on_both_dtypes(ks, rows, offsets) == (
        1, 1, 1, ((400,), (75,)))


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_packed_count_finds_boundary_hits_at_few_bits(bits):
    # at bits <= 4 samples fall on the cube's faces; each such sample is
    # on the boundary of two translates
    ks, rows, offsets = _inputs(*_fixture("cube3"), 2000, bits, 1)
    assert _agree_on_both_dtypes(ks, rows, offsets)[2] > 0


def test_popcount_counts_the_set_bits_of_every_word():
    rng = random.Random(3)
    words = [0, 1, 2 ** 63, 2 ** 64 - 1] + [rng.getrandbits(64)
                                            for _ in range(200)]
    arr = np.array(words, dtype=np.uint64)
    assert _popcount(arr) == sum(bin(x).count("1") for x in words)
    assert [_popcount(arr[i:i + 1]) for i in range(len(words))] == \
        [bin(x).count("1") for x in words]


@pytest.mark.parametrize("block", [257, 300])
def test_blocks_of_any_size_give_the_same_reports(block, monkeypatch):
    audits = [(name, bits) for name in ("worked_n4", "cube3", "scaled_cube3")
              for bits in (4, 24, 60)]
    default = [verify_tiling(*_fixture(name), samples=2000, bits=bits,
                             seed=9) for name, bits in audits]
    monkeypatch.setattr(verify, "_DRAW_CHUNK", block)
    assert [verify_tiling(*_fixture(name), samples=2000, bits=bits, seed=9)
            for name, bits in audits] == default


def test_audit_memory_is_bounded_by_a_block():
    # 10**6 samples held at once took about 80 MiB (3 int64 numerators and
    # 6 int64 scores per sample); counted in blocks of 2**16 samples the
    # audit peaks near 5 MiB
    body, lat = _fixture("cube3")
    tracemalloc.start()
    try:
        rep = verify_tiling(body, lat, samples=10 ** 6, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.samples == 10 ** 6
    assert peak < 16 * 2 ** 20


def test_tiling_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        verify_tiling(HPolytope.cube(2), Lattice.standard(3))


def test_a_dependent_basis_given_to_the_constructor_is_refused_downstream():
    # Lattice(basis) trusts its basis; a dependent one still cannot pass
    # for a lattice, since the Gram matrix it gives is singular
    lat = Lattice(QMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="not positive definite"):
        voronoi_cell(lat)
    with pytest.raises(ValueError, match="not positive definite"):
        verify_tiling(HPolytope.cube(2), lat, samples=100)


# --- volume oracles ---------------------------------------------------------


def test_brute_force_volume_cube_is_exact():
    iv = brute_force_volume(HPolytope.cube(2), 8)
    assert iv.lo == iv.hi == 1


def test_brute_force_volume_brackets_chart_volume():
    # framed bodies are measured in chart coordinates: ambient volume
    # divided by |det frame|
    cell = voronoi_cell(FCC)
    chart = Fraction(2) / abs(det_q(cell.frame))
    assert chart == 1
    coarse = brute_force_volume(cell, 4)
    fine = brute_force_volume(cell, 8)
    for iv in (coarse, fine):
        assert iv.lo <= chart <= iv.hi
    assert fine.width < coarse.width
