"""Tiling verification by exact membership counting.

The tiling check draws dyadic rational points in the basis parallelepiped and
counts, over every lattice translate that could reach them, how many translated
bodies contain each point (strictly, and with boundary).  All scores are
integers: the dyadic denominator and the halfspace denominators are cleared up
front, so the int64 fast path is exact wherever an overflow audit allows it,
and the pure-integer fallback is exact everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .intervals import sqrt_upper
from .lattices import Lattice, enumerate_short_vectors
from .linalg import denominator_lcm, scaled_to_int
from .polytopes import HPolytope


@dataclass(frozen=True)
class TilingReport:
    passed: bool
    samples: int
    translates: int
    volume_equal: bool
    overlap_violations: int      # samples strictly inside >= 2 translates
    gap_violations: int          # samples inside no closed translate
    boundary_hits: int           # samples on some translate's boundary
    engine: str                  # "int64" | "bigint"
    witnesses: Tuple[Tuple[int, ...], ...] = ()


def _integerized_system(body: HPolytope, lat: Lattice, bits: int
                        ) -> Tuple[List[List[int]], List[int]]:
    """Rows u and offsets r with: point B k / 2^bits in (translate c + body)
    iff u . (k - 2^bits c) <= r for every row."""
    rows: List[List[int]] = []
    rhs: List[int] = []
    basis = lat.basis
    for a, b in body.ambient_halfspaces():
        # w . (B y) <= b  with y = k/2^bits - c
        wb = [sum(Fraction(a[i]) * basis.entries[i][j]
                  for i in range(len(a))) for j in range(basis.ncols)]
        den = denominator_lcm((b, *wb))
        rows.append(list(scaled_to_int(wb, den)))
        rhs.append(int(b * den))
    return rows, rhs


def _candidate_translates(body: HPolytope, lat: Lattice,
                          node_cap: int) -> List[Tuple[int, ...]]:
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
        r_par_sq = max(r_par_sq, sum(x * y for x, y in zip(s, gs)))
    reach = (r_body + sqrt_upper(r_par_sq, 64)) ** 2
    found = enumerate_short_vectors(g, reach, center=half, node_cap=node_cap)
    return [coords for coords, _ in found]


def verify_tiling(body: HPolytope, lat: Lattice, samples: int = 100000,
                  bits: int = 24, seed: int = 0,
                  node_cap: int = 10 ** 7,
                  max_witnesses: int = 8) -> TilingReport:
    """Sample-based tiling audit with an exact volume identity check.

    A pass requires every sampled point to lie strictly inside at most one
    translate and inside at least one closed translate, and the body volume
    to equal the lattice covolume exactly.
    """
    n = lat.rank
    if body.dim != body.ambient_dim or body.ambient_dim != n or \
            lat.ambient_dim != n:
        raise ValueError("tiling check needs a full-dimensional body")
    volume_equal = body.volume() == lat.covolume()
    rows, rhs = _integerized_system(body, lat, bits)
    cands = _candidate_translates(body, lat, node_cap)
    scale = 1 << bits
    # offset per (row, translate): r * 2^bits + 2^bits * u . c
    offsets = [[(rhs[r] + _int_dot(rows[r], c)) * scale
                for r in range(len(rows))] for c in cands]

    rng = random.Random(f"tiling:{seed}")
    ks = [[rng.randrange(scale) for _ in range(n)] for _ in range(samples)]

    max_abs_score = max(
        (sum(abs(x) for x in row) * (scale - 1) for row in rows), default=0)
    max_abs_off = max((abs(o) for row in offsets for o in row), default=0)
    use_int64 = max(max_abs_score, max_abs_off) < 2 ** 62

    overlap = 0
    gap = 0
    boundary = 0
    witnesses: List[Tuple[int, ...]] = []

    if use_int64:
        engine = "int64"
        karr = np.array(ks, dtype=np.int64)
        uarr = np.array(rows, dtype=np.int64).T
        scores = karr @ uarr  # samples x rows, exact by the audit above
        open_count = np.zeros(samples, dtype=np.int32)
        closed_count = np.zeros(samples, dtype=np.int32)
        for off in offsets:
            oarr = np.array(off, dtype=np.int64)
            le = scores <= oarr
            lt = scores < oarr
            closed_here = le.all(axis=1)
            open_here = lt.all(axis=1)
            closed_count += closed_here
            open_count += open_here
            boundary += int(np.count_nonzero(closed_here & ~open_here))
        overlap_mask = open_count >= 2
        gap_mask = closed_count == 0
        overlap = int(np.count_nonzero(overlap_mask))
        gap = int(np.count_nonzero(gap_mask))
        for idx in np.nonzero(overlap_mask | gap_mask)[0][:max_witnesses]:
            witnesses.append(tuple(ks[int(idx)]))
    else:
        engine = "bigint"
        for k in ks:
            open_count = 0
            closed_count = 0
            for ci, off in enumerate(offsets):
                closed_here = True
                open_here = True
                for r, row in enumerate(rows):
                    sc = _int_dot(row, k)
                    if sc > off[r]:
                        closed_here = False
                        open_here = False
                        break
                    if sc == off[r]:
                        open_here = False
                if closed_here:
                    closed_count += 1
                    if not open_here:
                        boundary += 1
                if open_here:
                    open_count += 1
            if open_count >= 2:
                overlap += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append(tuple(k))
            if closed_count == 0:
                gap += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append(tuple(k))

    passed = volume_equal and overlap == 0 and gap == 0
    return TilingReport(
        passed=passed, samples=samples, translates=len(cands),
        volume_equal=volume_equal, overlap_violations=overlap,
        gap_violations=gap, boundary_hits=boundary, engine=engine,
        witnesses=tuple(witnesses))


def _int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))
