"""Tiling verification by exact membership counting.

The tiling check draws dyadic rational points in the basis parallelepiped and
counts, over every lattice translate that could reach them, how many translated
bodies contain each point (strictly, and with boundary).  All scores are
integers: the dyadic denominator and the halfspace denominators are cleared up
front, and one vectorised count runs on numpy int64 where an overflow audit
allows it and on exact Python integers (object dtype) where it does not.

The sample numerators are the stream of ``randrange(2**bits)`` calls on
``random.Random(f"tiling:{seed}")``, drawn in bulk: one ``getrandbits`` call
yields the same Mersenne Twister words that the per-coordinate calls would
consume, and CPython's rejection rule is replayed on them with numpy, so the
samples and hence the report bytes are those of the per-call loop.  The count
keeps the scores row-major, one contiguous row of all samples per halfspace,
and builds each translate's closed and open masks one row at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

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


def _integerized_system(body: HPolytope, lat: Lattice, bits: int
                        ) -> Tuple[List[List[int]], List[int]]:
    """Rows u and offsets r with: point B k / 2^bits in (translate c + body)
    iff u . (k - 2^bits c) <= r for every row."""
    rows: List[List[int]] = []
    rhs: List[int] = []
    basis_t = lat.basis.t()
    for a, b in body.ambient_halfspaces():
        # w . (B y) <= b  with y = k/2^bits - c
        wb = basis_t.mul_vec(a)
        den = denominator_lcm((b, *wb))
        rows.append(list(scaled_to_int(wb, den)))
        rhs.append(int(b * den))
    return rows, rhs


def _candidate_translates(body: HPolytope, lat: Lattice
                          ) -> List[Tuple[int, ...]]:
    """Lattice coordinates whose translate can meet the basis parallelepiped."""
    n = lat.rank
    g = lat.gram()
    r_body = sqrt_upper(body.circumradius_sq(), 64)
    half = [Fraction(1, 2)] * n
    r_par_sq = Fraction(0)
    for signs in range(1 << n):
        s = [Fraction(1, 2) if (signs >> i) & 1 else Fraction(-1, 2)
             for i in range(n)]
        gs = g.mul_vec(s)
        r_par_sq = max(r_par_sq, dot(s, gs))
    reach = (r_body + sqrt_upper(r_par_sq, 64)) ** 2
    found = enumerate_short_vectors(g, reach, center=half)
    return [coords for coords, _ in found]


def _membership_inputs(body: HPolytope, lat: Lattice, samples: int, bits: int,
                       seed: int) -> Tuple[np.ndarray, List[List[int]],
                                           List[List[int]]]:
    """Sample numerators ks (samples x rank), integer rows u, and
    per-translate offsets."""
    rows, rhs = _integerized_system(body, lat, bits)
    scale = 1 << bits
    # offset per (row, translate): r * 2^bits + 2^bits * u . c
    offsets = [[(rhs[r] + dot(rows[r], c)) * scale
                for r in range(len(rows))]
               for c in _candidate_translates(body, lat)]
    rank = lat.rank
    rng = random.Random(f"tiling:{seed}")
    ks = _dyadic_numerators(rng, samples * rank, bits).reshape(samples, rank)
    return ks, rows, offsets


# candidates decoded per refill of the dyadic stream; bounds the size of the
# integer that one getrandbits call builds
_DRAW_CHUNK = 1 << 16


def _dyadic_numerators(rng: random.Random, count: int, bits: int
                       ) -> np.ndarray:
    """The next count values of rng.randrange(2**bits), bit for bit.

    CPython's randrange(2**bits) calls getrandbits(bits + 1) and rejects any
    value >= 2**bits.  getrandbits(k) takes ceil(k/32) 32-bit Mersenne
    Twister words, least significant first, and shifts the last one right by
    32*ceil(k/32) - k.  getrandbits of a multiple of 32 bits returns the raw
    words in the same order, so one bulk draw, cut into ceil(k/32)-word
    candidates, replays the per-call stream.  Words drawn past the last
    accepted value are simply not used.  The result is int64 while every
    candidate fits (bits + 1 <= 63) and exact Python integers (object dtype)
    above that.
    """
    k = bits + 1
    words = -(-k // 32)
    shift = 32 * words - k
    dtype = np.int64 if k <= 63 else object
    bound = 1 << bits
    kept: List[np.ndarray] = []
    have = 0
    while have < count:
        # about half of the candidates are rejected
        draws = min(2 * (count - have) + 64, _DRAW_CHUNK)
        raw = np.frombuffer(
            rng.getrandbits(32 * words * draws).to_bytes(4 * words * draws,
                                                          "little"),
            dtype="<u4").reshape(draws, words)
        limbs = raw.astype(dtype)
        cand = limbs[:, -1] >> shift
        for i in range(words - 2, -1, -1):
            cand = (cand << 32) | limbs[:, i]
        cand = cand[cand < bound]
        kept.append(cand)
        have += len(cand)
    return np.concatenate(kept)[:count]


def _count_membership(ks: np.ndarray, rows: Sequence[Sequence[int]],
                      offsets: Sequence[Sequence[int]], dtype
                      ) -> Tuple[int, int, int, Tuple[Tuple[int, ...], ...]]:
    """(overlaps, gaps, boundary hits, witnesses) of the samples ks.

    Sample k lies in the closed translate with offsets off iff every score
    u . k is <= off[row], and in its interior iff every score is < off[row].
    dtype is np.int64 when no score or offset can overflow it, and object
    (exact Python integers) otherwise.  Scores are kept row-major (one
    contiguous row of all samples per halfspace), and each translate's masks
    are and-ed together one halfspace row at a time.
    """
    ks = np.asarray(ks, dtype=dtype)
    scores_t = np.array(rows, dtype=dtype) @ ks.T
    open_count = np.zeros(len(ks), dtype=np.int32)
    closed_count = np.zeros(len(ks), dtype=np.int32)
    boundary = 0
    for off in offsets:
        closed_here = scores_t[0] <= off[0]
        open_here = scores_t[0] < off[0]
        for row, o in zip(scores_t[1:], off[1:]):
            closed_here &= row <= o
            open_here &= row < o
        closed_count += closed_here
        open_count += open_here
        boundary += int(np.count_nonzero(closed_here & ~open_here))
    overlap_mask = open_count >= 2
    gap_mask = closed_count == 0
    bad = np.nonzero(overlap_mask | gap_mask)[0][:_MAX_WITNESSES]
    return (int(np.count_nonzero(overlap_mask)),
            int(np.count_nonzero(gap_mask)), boundary,
            tuple(tuple(int(x) for x in ks[i]) for i in bad))


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
    ks, rows, offsets = _membership_inputs(body, lat, samples, bits, seed)
    scale = 1 << bits
    max_abs_score = max(
        (sum(abs(x) for x in row) * (scale - 1) for row in rows), default=0)
    max_abs_off = max((abs(o) for row in offsets for o in row), default=0)
    engine = "int64" if max(max_abs_score, max_abs_off) < 2 ** 62 else "bigint"
    overlap, gap, boundary, witnesses = _count_membership(
        ks, rows, offsets, np.int64 if engine == "int64" else object)
    return TilingReport(
        samples=samples, translates=len(offsets),
        volume_equal=volume_equal, overlap_violations=overlap,
        gap_violations=gap, boundary_hits=boundary, engine=engine,
        seed=seed, witnesses=witnesses)
