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

from .intervals import enclose, iroot_floor, sqrt_upper
from .linalg import QMatrix


class SamplerFailure(Exception):
    """No sampled matrix satisfied the row-sparsity bound."""


class SearchCap(Exception):
    """A dependency search would visit more subsets than its budget."""


_SEARCH_CAP = 10 ** 7  # subsets a meet in the middle may visit


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

def default_c() -> Fraction:
    """A certified admissible collision constant.

    The sparsity bound needs c below (1/(7 e d))^(2/(d-2)) for the column
    weight in use, that is exp(-2 f(d)) with f(d) = ln(7 e d) / (d - 2).
    f falls for d >= 3, since the numerator of its derivative,
    (d - 2) / d - ln(7 e d), is negative (ln 57 > 1).  So the bound is least
    at d = 3, where it is (1/(21 e))^2; the value returned is that square
    with e rounded up, shaved by 2^-12.
    """
    e_hi = enclose(128, lambda iv: iv.exp(1)).hi
    return (1 / (21 * e_hi)) ** 2 * (1 - Fraction(1, 4096))


def admissible_s(m: int, n: int, d: int, c: Fraction) -> int:
    """Largest s with s <= (c/d) * (m^d / n^2)^(1/(d-2)), exactly.

    Clearing the root: s qualifies iff (s d q)^(d-2) n^2 <= p^(d-2) m^d for
    c = p/q, that is s^(d-2) den <= num.  As s^(d-2) is an integer, that
    holds iff s^(d-2) <= num // den: the answer is an integer root.
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
    return iroot_floor(num // den, d - 2)


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
        # shapes and budgets that no run can meet are refused before any work
        if self.d < 3:
            raise ValueError("column weight d must be at least 3 (the "
                             "independence argument needs it)")
        if not (self.d <= self.m <= self.n):
            raise ValueError("need 3 <= d <= m <= n")
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")
        # a column's weight has the parity of d, so with d odd the n columns
        # carry at least n ones and some row at least ceil(n/m); with d even
        # every column may be 0.  No sample meets a bound below that.
        least = -(-self.n * (self.d % 2) // self.m)
        if self.row_bound is not None and self.row_bound < least:
            raise ValueError(f"row_bound {self.row_bound} is below "
                             f"{least}, the least heaviest row of any sample")

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


def masks_to_matrix(m: int, masks: Sequence[int]) -> QMatrix:
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
    return QMatrix(tuple(rows))


def matrix_to_masks(mat: QMatrix) -> List[int]:
    """Column bitmasks of a 0/1 matrix: row i is bit i."""
    if not (mat.is_integer() and all(map(_BINARY.issuperset, mat.num))):
        raise ValueError("entries must be 0/1")
    # a column read from its last row up is its binary numeral
    return [int(bytes(col[::-1]).translate(_TO_DIGITS), 2)
            for col in zip(*mat.num)]


def _row_weights(m: int, masks: Sequence[int]) -> List[int]:
    rows = [0] * m
    for mask in masks:
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] += 1
            mask ^= low
    return rows


def sample_ldpc(params: LdpcParams) -> Tuple[QMatrix, Dict]:
    """Sample until every row weight is within the 4dn/m bound.

    The stats hold the accepted attempt's tries, row bound, heaviest row and
    column bitmasks (``masks``), which a GF(2) check can take as they are.
    """
    bound = params.effective_row_bound()
    for attempt in range(params.max_tries):
        masks = sample_columns(params.m, params.n, params.d,
                               params.seed, attempt)
        heaviest = max(_row_weights(params.m, masks))
        if heaviest <= bound:
            stats = {
                "tries": attempt + 1,
                "row_bound": bound,
                "heaviest_row": heaviest,
                "masks": masks,
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
    up among the columns.  From s = 4 on, a meet in the middle decides; it
    raises SearchCap before it starts if it would visit more than
    `_SEARCH_CAP` subsets.  Masks must be non-negative.
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
    """Subsets of size 1 to s - floor(s/2), in order, probe a table of the
    XORs of the subsets of size <= floor(s/2) met before them (the empty set
    included), and then enter it if they are that small.  A hit pairs two
    distinct subsets, and their symmetric difference is a dependency.  The
    probes, at most sum_{k <= s - floor(s/2)} C(n, k), outnumber the table,
    so their count bounds both the time and the memory."""
    n = len(masks)
    half = s // 2
    subsets = sum(math.comb(n, k) for k in range(s - half + 1))
    if subsets > _SEARCH_CAP:
        raise SearchCap(f"a search for dependencies of size <= {s} among "
                        f"{n} columns would visit {subsets} subsets, "
                        f"more than {_SEARCH_CAP}")
    table: Dict[int, Tuple[int, ...]] = {0: ()}
    for size in range(1, s - half + 1):
        for combo in itertools.combinations(range(n), size):
            x = 0
            for j in combo:
                x ^= masks[j]
            if x in table:
                return tuple(sorted(set(table[x]) ^ set(combo)))
            if size <= half:
                table[x] = combo
    return None


def verify_s_independence(mat_or_masks, s: int
                          ) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Certify every subset of at most s columns is GF(2) independent.

    GF(2) independence of 0/1 columns implies rational independence (reduce a
    primitive integer dependency mod 2), so this also certifies that integer
    kernel vectors have support larger than s.
    """
    masks = (matrix_to_masks(mat_or_masks)
             if isinstance(mat_or_masks, QMatrix) else list(mat_or_masks))
    dep = shortest_dependency(masks, s)
    return (dep is None), dep


def largest_verified_s(masks: Sequence[int], s_cap: int) -> int:
    """Largest s <= s_cap that verify_s_independence certifies.

    One `_scan` decides s <= 2: a zero column leaves 0 and a repeated pair
    1.  With neither, a dependent triple leaves 2, and from s = 4 on each
    level runs its own meet in the middle."""
    if min(masks, default=0) < 0:
        raise ValueError("column masks must be non-negative")
    if s_cap < 1:
        return 0
    zero, repeat, index = _scan(masks)
    if zero:
        return 0
    if repeat or s_cap == 1:
        return 1
    if s_cap == 2 or _first_triple(masks, index):
        return 2
    best = 3
    while best < s_cap and _meet_in_the_middle(masks, best + 1) is None:
        best += 1
    return best


def expected_collisions(m: int, n: int, d: int, s: int) -> Fraction:
    """Exact expected number of dependent column subsets of size <= s."""
    total = Fraction(0)
    for r in range(1, s + 1):
        total += math.comb(n, r) * return_prob_exact(m, d * r)
    return total
