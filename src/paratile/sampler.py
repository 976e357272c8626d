"""Sparse 0/1 matrices from coordinate-flip walks on the hypercube.

Columns are endpoints of d-step walks that flip one uniformly random
coordinate per step.  Return probabilities of that walk are computed exactly
through the weight birth-death chain, which keeps the expected-collision
accounting rational even for very wide matrices.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .intervals import enclose, iroot_floor, root_interval, sqrt_upper
from .linalg import IntMatrix


class SamplerFailure(Exception):
    """No sampled matrix satisfied the row-sparsity bound."""


# --- walk return probabilities -------------------------------------------------

def walk_endpoint(m: int, steps: int, rng: random.Random) -> int:
    """Endpoint of a flip walk on {0,1}^m started at 0, as a bitmask."""
    state = 0
    for _ in range(steps):
        state ^= 1 << rng.randrange(m)
    return state


def return_prob_exact(m: int, t: int) -> Fraction:
    """Probability the walk is back at 0 after t steps, exactly."""
    if m < 1 or t < 0:
        raise ValueError("need m >= 1, t >= 0")
    return weight_distribution_exact(m, t)[0]


def return_prob_bound(m: int, t: int) -> Fraction:
    """Rational upper bound for 2 * (t/m)^(t/2) (exact when t is even)."""
    if t < 0:
        raise ValueError("negative step count")
    if t == 0:
        return Fraction(2)
    if t % 2 == 0:
        return 2 * Fraction(t, m) ** (t // 2)
    return 2 * Fraction(t, m) ** ((t - 1) // 2) * sqrt_upper(Fraction(t, m), 64)


def weight_distribution_exact(m: int, t: int) -> List[Fraction]:
    """Distribution of the walk's Hamming weight after t steps.

    Paths are counted on the Hamming-weight chain: from weight w a step goes
    up with m - w choices and down with w choices.  Weights above t are
    unreachable, so wide m costs nothing.
    """
    wmax = min(m, t)
    ways = [0] * (wmax + 2)
    ways[0] = 1
    for _ in range(t):
        new = [0] * (wmax + 2)
        for w in range(wmax + 1):
            cnt = ways[w]
            if not cnt:
                continue
            new[w + 1] += cnt * (m - w)
            if w >= 1:
                new[w - 1] += cnt * w
        ways = new
    denom = m ** t
    return [Fraction(ways[w], denom) for w in range(wmax + 1)]


# --- parameter schedule pieces ---------------------------------------------------

def choose_d(epsilon: Union[int, Fraction]) -> int:
    """Column weight for a target exponent slack epsilon."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 2:
        raise ValueError("epsilon must be in (0, 2]")
    return 2 + math.floor(2 / eps)

def default_c(d_max: int = 16) -> Fraction:
    """A certified admissible collision constant.

    The sparsity bound needs c below (1/(7 e d))^(2/(d-2)) for the column
    weight in use; the value returned is a rational lower bound for the
    minimum of that expression over 3 <= d <= d_max, shaved by 2^-12.
    """
    if d_max < 3:
        raise ValueError("d_max must be at least 3")
    e_hi = enclose(128, lambda iv: iv.exp(1)).hi
    best: Optional[Fraction] = None
    for d in range(3, d_max + 1):
        x_lo = Fraction(1) / (7 * d * e_hi)  # lower bound of 1/(7 e d)
        lo = root_interval(x_lo * x_lo, d - 2, bits=128).lo
        if best is None or lo < best:
            best = lo
    return best * (Fraction(1) - Fraction(1, 4096))


def admissible_s(m: int, n: int, d: int, c: Fraction) -> int:
    """Largest s with s <= (c/d) * (m^d / n^2)^(1/(d-2)), exactly.

    Clearing the root: s qualifies iff (s d q)^(d-2) n^2 <= p^(d-2) m^d for
    c = p/q, so the answer is an integer root of a ratio of integers.
    """
    if d < 3:
        raise ValueError("column weight must be at least 3")
    if not (3 <= m <= n):
        raise ValueError("need 3 <= m <= n")
    c = Fraction(c)
    if c <= 0:
        return 0
    p, q = c.numerator, c.denominator
    num = p ** (d - 2) * m ** d
    den = (d * q) ** (d - 2) * n ** 2
    if num < den:
        return 0
    s = iroot_floor(num // den, d - 2)
    while (s + 1) ** (d - 2) * den <= num:
        s += 1
    while s > 0 and s ** (d - 2) * den > num:
        s -= 1
    return s


def row_weight_bound(m: int, n: int, d: int) -> int:
    return -((-4 * d * n) // m)  # ceil(4 d n / m)


# --- matrix sampling --------------------------------------------------------------

@dataclass(frozen=True)
class LdpcParams:
    m: int
    n: int
    d: int
    seed: int = 0
    max_tries: int = 64
    row_bound: Optional[int] = None

    def __post_init__(self):
        # a budget that no run can meet is refused before any work
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")

    def effective_row_bound(self) -> int:
        if self.row_bound is not None:
            return self.row_bound
        return row_weight_bound(self.m, self.n, self.d)


def sample_columns(m: int, n: int, d: int, seed: int, attempt: int) -> List[int]:
    """Column bitmasks for one attempt; each column has its own derived seed."""
    return [walk_endpoint(m, d, random.Random(f"{seed}:{attempt}:{j}"))
            for j in range(n)]


_BINARY = frozenset((0, 1))
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def masks_to_matrix(m: int, masks: Sequence[int]) -> IntMatrix:
    """The m x len(masks) 0/1 matrix whose column j has bitmask masks[j].

    Each mask becomes its m binary digits as 0/1 bytes, most significant
    first, so zipping the columns yields rows m-1 down to 0.
    """
    limit = 1 << m
    if not all(0 <= mask < limit for mask in masks):
        raise ValueError(f"masks must be non-negative and below 2^{m}")
    cols = [format(mask, f"0{m}b").encode().translate(_TO_BITS)
            for mask in masks]
    rows = list(zip(*cols)) or [()] * m
    rows.reverse()
    return IntMatrix(tuple(rows))


def matrix_to_masks(mat: IntMatrix) -> List[int]:
    """Column bitmasks of a 0/1 matrix: row i is bit i."""
    for row in mat.entries:
        if not _BINARY.issuperset(row):
            raise ValueError("entries must be 0/1")
    # a column read from its last row up is its binary numeral
    return [int(bytes(col[::-1]).translate(_TO_DIGITS), 2)
            for col in zip(*mat.entries)]


def _row_weights(m: int, masks: Sequence[int]) -> List[int]:
    rows = [0] * m
    for mask in masks:
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] += 1
            mask ^= low
    return rows


def sample_ldpc(params: LdpcParams) -> Tuple[IntMatrix, Dict]:
    """Sample until every row weight is within the 4dn/m bound."""
    if not (3 <= params.d <= params.m <= params.n):
        raise ValueError("need 3 <= d <= m <= n")
    bound = params.effective_row_bound()
    first_try_pass = None
    for attempt in range(params.max_tries):
        masks = sample_columns(params.m, params.n, params.d,
                               params.seed, attempt)
        heaviest = max(_row_weights(params.m, masks))
        if first_try_pass is None:
            first_try_pass = heaviest <= bound
        if heaviest <= bound:
            stats = {
                "tries": attempt + 1,
                "row_bound": bound,
                "heaviest_row": heaviest,
                "first_try_pass": first_try_pass,
            }
            return masks_to_matrix(params.m, masks), stats
    raise SamplerFailure(
        f"row bound {bound} missed in {params.max_tries} attempts")


# --- short dependency search -------------------------------------------------------

def shortest_dependency(masks: Sequence[int], s: int
                        ) -> Optional[Tuple[int, ...]]:
    """A column subset of size <= s with zero XOR, or None.

    The witness is the first one met in a fixed search order, which need
    not be a smallest one: at s >= 2 a repeated pair before the first zero
    column wins over it.  For s <= 3 one dict pass finds the first zero
    column and the first repeated pair, (first index, repeat), and returns
    whichever ends earlier.  With neither, s = 3 returns the smallest sorted
    triple a < b < c with zero XOR.  It is found by bit buckets: the lowest
    set bit of column a lies in exactly one of columns b and c, so each a
    probes only the columns holding that bit, and looks the XOR of the two
    up among the columns.  From s = 4 on, a meet in the middle decides.
    Masks must be non-negative.
    """
    if min(masks, default=0) < 0:
        raise ValueError("column masks must be non-negative")
    if s < 1:
        return None
    if s > 3:
        return _meet_in_the_middle(masks, s)
    zero, repeat, index = _scan(masks)
    if s == 1 or zero and not (repeat and repeat[1] < zero[0]):
        return zero
    if repeat or s == 2:
        return repeat
    return _first_triple(masks, index)


def _scan(masks: Sequence[int]) -> Tuple[Optional[Tuple[int]],
                                         Optional[Tuple[int, int]],
                                         Dict[int, int]]:
    """The first zero column, the first repeated pair, and the first index
    of every nonzero mask."""
    zero = repeat = None
    index: Dict[int, int] = {}
    for j, x in enumerate(masks):
        if not x:
            zero = zero or (j,)
        elif x in index:
            repeat = repeat or (index[x], j)
        else:
            index[x] = j
    return zero, repeat, index


def _first_triple(masks: Sequence[int], index: Dict[int, int]
                  ) -> Optional[Tuple[int, int, int]]:
    """The smallest sorted triple of distinct nonzero masks with zero XOR."""
    holders: Dict[int, List[int]] = {}  # bit -> columns holding it, in order
    for j, x in enumerate(masks):
        while x:
            low = x & -x
            holders.setdefault(low, []).append(j)
            x ^= low
    for a, x in enumerate(masks):
        col = holders[x & -x]
        best = None
        for b in col[bisect.bisect_right(col, a):]:
            c = index.get(x ^ masks[b], -1)
            if c > a:
                pair = (b, c) if b < c else (c, b)
                if best is None or pair < best:
                    best = pair
        if best:
            return (a,) + best
    return None


def _meet_in_the_middle(masks: Sequence[int], s: int
                        ) -> Optional[Tuple[int, ...]]:
    """XORs of all subsets of size <= floor(s/2) are hashed (the empty set
    included), then subsets of the complementary size range probe the
    table.  A collision of distinct subsets yields a dependency via their
    symmetric difference."""
    n = len(masks)
    half = s // 2
    table: Dict[int, Tuple[int, ...]] = {0: ()}

    def consider(a: Tuple[int, ...], b: Tuple[int, ...]
                 ) -> Optional[Tuple[int, ...]]:
        sym = tuple(sorted(set(a) ^ set(b)))
        return sym if sym else None

    for size in range(1, half + 1):
        for combo in itertools.combinations(range(n), size):
            x = 0
            for j in combo:
                x ^= masks[j]
            if x in table:
                witness = consider(table[x], combo)
                if witness:
                    return witness
            else:
                table[x] = combo
    for size in range(1, s - half + 1):
        for combo in itertools.combinations(range(n), size):
            x = 0
            for j in combo:
                x ^= masks[j]
            if x in table:
                witness = consider(table[x], combo)
                if witness:
                    return witness
    return None


def verify_s_independence(mat_or_masks, s: int
                          ) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Certify every subset of at most s columns is GF(2) independent.

    GF(2) independence of 0/1 columns implies rational independence (reduce a
    primitive integer dependency mod 2), so this also certifies that integer
    kernel vectors have support larger than s.
    """
    masks = (matrix_to_masks(mat_or_masks)
             if isinstance(mat_or_masks, IntMatrix) else list(mat_or_masks))
    dep = shortest_dependency(masks, s)
    return (dep is None), dep


def largest_verified_s(masks: Sequence[int], s_cap: int) -> int:
    """Largest s <= s_cap that verify_s_independence certifies."""
    best = 0
    for s in range(1, s_cap + 1):
        ok, _ = verify_s_independence(masks, s)
        if not ok:
            break
        best = s
    return best


def expected_collisions(m: int, n: int, d: int, s: int) -> Fraction:
    """Exact expected number of dependent column subsets of size <= s."""
    total = Fraction(0)
    for r in range(1, s + 1):
        total += math.comb(n, r) * return_prob_exact(m, d * r)
    return total
