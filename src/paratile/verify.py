"""Tiling verification by exact membership counting.

The tiling check draws dyadic rational points in the basis parallelepiped and
counts, over every lattice translate that could reach them, how many translated
bodies contain each point (strictly, and with boundary).  All scores are
integers: the dyadic denominator and the halfspace denominators are cleared up
front, and one vectorised count runs on numpy int64 where an overflow audit
allows it and on exact Python integers (object dtype) where it does not.

The sample numerators are the stream of ``getrandbits(bits)`` calls on
``random.Random(f"tiling:{seed}")``, uniform on [0, 2**bits), drawn in bulk:
one ``getrandbits`` call per block yields the same Mersenne Twister words
that the per-coordinate calls would consume, cut with numpy into the same
values, so the samples and hence the report bytes are those of the per-call
loop.  Samples are drawn and counted in blocks of ``_DRAW_CHUNK`` points, so
the audit's memory is bounded by a block, not by the sample count.

The candidate translates are the lattice vectors within the body's
circumradius plus the basis parallelepiped's of its centre, and the report's
``translates`` counts them all, as does the audit that picks the engine.
Most of them cannot meet a block: the count skips each translate with an
offset below the least score that the block's coordinate range allows,
since no sample of the block lies in it.  A halfspace row's offset repeats
across the translates left, so the count compares each row's scores once
per distinct offset and packs the closed and open masks into uint64 words,
one bit per sample.  A translate's masks are the and of its rows' packed
masks, and bit-sliced counters over all translates give the overlaps
(strictly inside at least twice), the gaps (inside no closed translate) and
the boundary hits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .intervals import sqrt_upper
from .lattices import Lattice, enumerate_short_vectors
from .linalg import denominator_lcm, dot, scaled_to_int
from .polytopes import HPolytope

_MAX_WITNESSES = 8


@dataclass(frozen=True)
class TilingReport:
    samples: int
    translates: int
    volume_equal: bool
    overlap_violations: int      # samples strictly inside >= 2 translates
    gap_violations: int          # samples inside no closed translate
    boundary_hits: int           # samples on some translate's boundary
    engine: str                  # "int64" | "bigint"
    seed: int                    # seed of the dyadic sample stream
    witnesses: Tuple[Tuple[int, ...], ...] = ()

    @property
    def passed(self) -> bool:
        """The verdict: the volume identity holds, no sample is strictly
        inside two translates and none is outside every closed one."""
        return self.volume_equal and self.overlap_violations == 0 \
            and self.gap_violations == 0


def _candidate_translates(body: HPolytope, lat: Lattice
                          ) -> List[Tuple[int, ...]]:
    """Lattice coordinates whose translate can meet the basis parallelepiped."""
    n = lat.rank
    g = lat.gram()
    r_body = sqrt_upper(body.circumradius_sq(), 64)
    # the parallelepiped's squared radius about its centre is the largest
    # (s/2) . G (s/2) over sign vectors s: an integer over 4 den(G)
    corner = max(sum(x * dot(row, s) for x, row in zip(s, g.num))
                 for s in itertools.product((-1, 1), repeat=n))
    reach = (r_body + sqrt_upper(Fraction(corner, 4 * g.den), 64)) ** 2
    found = enumerate_short_vectors(g, reach, center=[Fraction(1, 2)] * n)
    return [coords for coords, _ in found]


def _membership_system(body: HPolytope, lat: Lattice, bits: int
                       ) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer rows u and, per candidate translate c, the offsets
    (r + u . c) * 2^bits of its rows: the point B k / 2^bits lies in the
    translate c + body iff u . k <= (r + u . c) * 2^bits for every row."""
    rows: List[List[int]] = []
    rhs: List[int] = []
    basis_t = lat.basis.t()
    for a, b in body.ambient_halfspaces():
        # w . (B y) <= b  with y = k/2^bits - c
        wb = basis_t.mul_vec(a)
        den = denominator_lcm((b, *wb))
        rows.append(list(scaled_to_int(wb, den)))
        rhs.append(int(b * den))
    scale = 1 << bits
    offsets = [[(r + dot(u, c)) * scale for u, r in zip(rows, rhs)]
               for c in _candidate_translates(body, lat)]
    return rows, offsets


# samples drawn and counted per block, which bounds the size of the integer
# that one getrandbits call builds and the audit's memory, whatever the
# sample count
_DRAW_CHUNK = 1 << 16


def _sample_blocks(rng: random.Random, samples: int, rank: int, bits: int
                   ) -> Iterator[np.ndarray]:
    """The numerators of the next samples points, in blocks of _DRAW_CHUNK
    rows of rank coordinates (the last block may be shorter).

    Coordinate j of the stream is the j-th call of rng.getrandbits(bits), bit
    for bit.  getrandbits(k) takes ceil(k/32) 32-bit Mersenne Twister words,
    least significant first, and shifts the last one right by
    32*ceil(k/32) - k; getrandbits of a multiple of 32 bits returns the raw
    words in the same order, so one bulk draw per block, cut into
    ceil(bits/32)-word values, replays the per-call stream.  The blocks are
    int64 while every value fits (bits <= 63) and exact Python integers
    (object dtype) above that.
    """
    words = -(-bits // 32)
    shift = 32 * words - bits
    dtype = np.int64 if bits <= 63 else object
    for first in range(0, samples, _DRAW_CHUNK):
        count = min(_DRAW_CHUNK, samples - first) * rank
        raw = np.frombuffer(
            rng.getrandbits(32 * words * count).to_bytes(4 * words * count,
                                                          "little"),
            dtype="<u4").reshape(count, words)
        values = (raw[:, -1] >> shift).astype(dtype)
        for i in range(words - 2, -1, -1):
            values = (values << 32) | raw[:, i].astype(dtype)
        del raw  # freed before the block is counted
        yield values.reshape(-1, rank)


_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)


def _popcount(words: np.ndarray) -> int:
    """Number of set bits in an array of uint64 words, read byte by byte
    from a table (numpy's bitwise_count needs numpy 2).  Only the nonzero
    words are looked up: boundary hits are rare at more than a few bits."""
    return int(_BYTE_POPCOUNT[words[words != 0].view(np.uint8)].sum())


def _pack(masks: np.ndarray) -> np.ndarray:
    """Boolean masks (..., S) as little-endian uint64 words (..., ceil(S/64)):
    sample i is bit i % 64 of word i // 64, and the pad bits are zero."""
    packed = np.packbits(masks, axis=-1, bitorder="little")
    size = packed.shape[-1]
    if size % 8:
        padded = np.zeros(packed.shape[:-1] + (size + -size % 8,),
                          dtype=np.uint8)
        padded[..., :size] = packed
        packed = padded
    return packed.view("<u8")


def _reachable(ks: np.ndarray, rows: Sequence[Sequence[int]],
               offsets: Sequence[Sequence[int]]) -> List[Sequence[int]]:
    """The offsets of the translates that some sample of ks can lie in.

    Every coordinate of ks lies in [lo, hi], its least and greatest, so
    the score u . k is at least the sum of u_j * (lo if u_j > 0 else hi).
    A translate with some offset below that bound holds no sample of ks.
    A range per coordinate would bound tighter, but numpy's min and max
    along axis 0 of a (2^16, rank) block take as long as ten rows' scores,
    and on uniform samples the ranges nearly agree.
    """
    lo, hi = int(ks.min()), int(ks.max())
    least = [sum(u * (lo if u > 0 else hi) for u in row) for row in rows]
    return [off for off in offsets
            if all(o >= m for o, m in zip(off, least))]


def _count_membership(ks: np.ndarray, rows: Sequence[Sequence[int]],
                      offsets: Sequence[Sequence[int]], dtype
                      ) -> Tuple[int, int, int, Tuple[Tuple[int, ...], ...]]:
    """(overlaps, gaps, boundary hits, witnesses) of the samples ks.

    Sample k lies in the closed translate with offsets off iff every score
    u . k is <= off[row], and in its interior iff every score is < off[row].
    dtype is np.int64 when no score or offset can overflow it, and object
    (exact Python integers) otherwise.  Only the translates that some sample
    can reach are counted (``_reachable``): any other holds no sample, so
    its closed and open masks are zero and move no count or witness.  That
    may leave no translate, and then every sample is a gap.  A row's offset
    repeats across translates, so each row is compared once per distinct
    offset, giving one closed and one open mask packed into uint64 words,
    one bit per sample.  A translate's masks are the and of its rows'
    packed masks.  Bit-sliced counters then take every translate at once:
    the or of the closed masks (a sample outside it is a gap), and of the
    open masks the or ("at least once") and the or of each one and-ed with
    the or of those before it ("at least twice", an overlap).  Boundary
    hits are the set bits of each translate's closed and not open mask.
    Witnesses are the first _MAX_WITNESSES overlaps or gaps, in sample
    order.
    """
    ks = np.asarray(ks, dtype=dtype)
    offsets = _reachable(ks, rows, offsets)
    distinct = [sorted({off[r] for off in offsets}) for r in range(len(rows))]
    width = -(-len(ks) // 64)
    closed = np.empty((sum(map(len, distinct)), width), dtype="<u8")
    opened = np.empty_like(closed)
    position: Dict[Tuple[int, int], int] = {}
    for r, (row, values) in enumerate(zip(rows, distinct)):
        at = len(position)
        position.update(((r, o), at + i) for i, o in enumerate(values))
        score = np.array(row, dtype=dtype) @ ks.T
        bounds = np.array(values, dtype=dtype)[:, None]
        closed[at:len(position)] = _pack(score <= bounds)
        opened[at:len(position)] = _pack(score < bounds)
    index = np.array([[position[key] for key in enumerate(off)]
                      for off in offsets], dtype=np.intp
                     ).reshape(len(offsets), len(rows))
    closed_t = closed[index[:, 0]]
    open_t = opened[index[:, 0]]
    for r in range(1, len(rows)):
        closed_t &= closed[index[:, r]]
        open_t &= opened[index[:, r]]
    boundary = _popcount(closed_t & ~open_t)
    seen = np.bitwise_or.reduce(closed_t, axis=0)
    once = np.bitwise_or.accumulate(open_t, axis=0)
    twice = np.bitwise_or.reduce(open_t[1:] & once[:-1], axis=0)
    gaps = ~seen & _pack(np.ones(len(ks), dtype=bool))
    bad = np.flatnonzero(np.unpackbits((twice | gaps).view(np.uint8),
                                       count=len(ks), bitorder="little"))
    return (_popcount(twice), _popcount(gaps), boundary,
            tuple(tuple(int(x) for x in ks[i])
                  for i in bad[:_MAX_WITNESSES]))


def verify_tiling(body: HPolytope, lat: Lattice, samples: int = 100000,
                  bits: int = 24, seed: int = 0) -> TilingReport:
    """Sample-based tiling audit with an exact volume identity check.

    A pass requires every sampled point to lie strictly inside at most one
    translate and inside at least one closed translate, and the body volume
    to equal the lattice covolume exactly.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if bits < 1:
        raise ValueError("bits must be at least 1")
    n = lat.rank
    if body.dim != body.ambient_dim or body.ambient_dim != n or \
            lat.ambient_dim != n:
        raise ValueError("tiling check needs a full-dimensional body")
    volume_equal = body.volume() == lat.covolume()
    rows, offsets = _membership_system(body, lat, bits)
    scale = 1 << bits
    max_abs_score = max(
        (sum(abs(x) for x in row) * (scale - 1) for row in rows), default=0)
    max_abs_off = max((abs(o) for row in offsets for o in row), default=0)
    engine = "int64" if max(max_abs_score, max_abs_off) < 2 ** 62 else "bigint"
    dtype = np.int64 if engine == "int64" else object
    overlap = gap = boundary = 0
    witnesses: List[Tuple[int, ...]] = []
    for ks in _sample_blocks(random.Random(f"tiling:{seed}"), samples, n,
                             bits):
        o, g, b, w = _count_membership(ks, rows, offsets, dtype)
        overlap += o
        gap += g
        boundary += b
        witnesses += w
    return TilingReport(
        samples=samples, translates=len(offsets),
        volume_equal=volume_equal, overlap_violations=overlap,
        gap_violations=gap, boundary_hits=boundary, engine=engine,
        seed=seed, witnesses=tuple(witnesses[:_MAX_WITNESSES]))
