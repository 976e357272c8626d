"""Exact arithmetic on finite sums of square roots of rationals.

Measures of rational polytopes live in the ring Q[sqrt(n1), sqrt(n2), ...]:
volumes contribute a single sqrt(det Gram) factor and each facet contributes
one more.  A ``SqrtSum`` stores such a value as a canonical sum
``sum_i c_i * sqrt(n_i)`` with rational c_i and distinct positive integer
radicands n_i from which all square factors found by trial division have been
extracted.  Two radicands whose product is a perfect square (a square factor
trial division missed) are merged onto the smaller, so distinct radicands have
distinct squarefree parts.  Addition, multiplication and equality are then
exact; division is exact for single-term divisors.  Signs of nonzero
multi-term sums are decided by interval refinement, which terminates because
distinct squarefree radicals are linearly independent over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .intervals import Interval, refine, sqrt_interval

Rat = Union[int, Fraction]

_TRIAL_LIMIT = 10_000
_SQUAREFREE_BELOW = _TRIAL_LIMIT ** 2  # split_square leaves no square below


def _primes_below(n: int):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(n) if sieve[i]]


_PRIMES = _primes_below(_TRIAL_LIMIT)


def split_square(n: int) -> Tuple[int, int]:
    """Write n = f*f * r with r free of square factors found by trial division.

    Returns (f, r), with r = 1 exactly when n is a perfect square.  r is
    genuinely squarefree whenever it is below _TRIAL_LIMIT**2; larger square
    factors with all prime divisors above the trial limit are left in place,
    which only makes the canonical form coarser, never wrong.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    f = 1
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    for p in _PRIMES:
        pp = p * p
        if pp > n:
            break
        while n % pp == 0:
            n //= pp
            f *= p
    return f, n


def _merge_square_classes(items):
    """Fold c2*sqrt(r2) into c1*sqrt(r1), r1 < r2, whenever r1*r2 = k^2.

    Then sqrt(r2) = (k / r1) sqrt(r1).  Radicands below _SQUAREFREE_BELOW are
    squarefree, and two distinct squarefree radicands never pair, so only a
    radicand that kept a square factor above the trial limit can merge.
    Afterwards no two radicands share a squarefree part, which makes them
    linearly independent over Q: equality is exact and ``sign`` of a nonzero
    sum terminates.  Input and output are (radicand, coeff) sorted by radicand.
    """
    kept = []
    for r, c in items:
        for idx, (r1, c1) in enumerate(kept):
            k = math.isqrt(r1 * r)
            if k * k == r1 * r:
                kept[idx] = (r1, c1 + c * Fraction(k, r1))
                break
        else:
            kept.append((r, c))
    return [(r, c) for r, c in kept if c != 0]


def canonical_sqrt(x: Rat) -> Tuple[Fraction, int]:
    """(c, r) with sqrt(x) = c*sqrt(r), r a canonical positive integer radicand."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f < 0:
        raise ValueError("negative radicand")
    if f == 0:
        return Fraction(0), 1
    p, q = f.numerator, f.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    g, r = split_square(p * q)
    return Fraction(g, q), r


@dataclass(frozen=True)
class SqrtSum:
    """Canonical exact value sum_i coeff_i * sqrt(radicand_i)."""

    terms: Tuple[Tuple[Fraction, int], ...]  # sorted by radicand, no zero coeffs

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _make(mapping: dict) -> "SqrtSum":
        items = sorted((r, c) for r, c in mapping.items() if c != 0)
        if len(items) > 1 and items[-1][0] >= _SQUAREFREE_BELOW:
            items = _merge_square_classes(items)
        return SqrtSum(tuple((c, r) for r, c in items))

    @staticmethod
    def from_rational(x: Rat) -> "SqrtSum":
        f = x if isinstance(x, Fraction) else Fraction(x)
        return SqrtSum._make({1: f})

    @staticmethod
    def sqrt(x: Rat) -> "SqrtSum":
        c, r = canonical_sqrt(x)
        return SqrtSum._make({r: c})

    @staticmethod
    def zero() -> "SqrtSum":
        return SqrtSum(())

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def single_term(self) -> Tuple[Fraction, int]:
        if not self.terms:
            return Fraction(0), 1
        if len(self.terms) == 1:
            return self.terms[0]
        raise ValueError(f"not a single radical term: {self}")

    # -- ring operations ------------------------------------------------------

    def _as_dict(self):
        return {r: c for c, r in self.terms}

    def __add__(self, other):
        other = _coerce(other)
        acc = self._as_dict()
        for c, r in other.terms:
            acc[r] = acc.get(r, Fraction(0)) + c
        return SqrtSum._make(acc)

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum(tuple((-c, r) for c, r in self.terms))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        acc: dict = {}
        for c1, r1 in self.terms:
            for c2, r2 in other.terms:
                cc, rr = canonical_sqrt(Fraction(r1 * r2))
                coeff = c1 * c2 * cc
                acc[rr] = acc.get(rr, Fraction(0)) + coeff
        return SqrtSum._make(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        c, r = other.single_term()
        if c == 0:
            raise ZeroDivisionError
        # 1/(c*sqrt(r)) = sqrt(r)/(c*r)
        inv = SqrtSum._make({r: Fraction(1, 1) / (c * r)})
        return self * inv

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign. Interval refinement is only needed for mixed-sign sums."""
        if not self.terms:
            return 0
        signs = {1 if c > 0 else -1 for c, _ in self.terms}
        if signs == {1}:
            return 1
        if signs == {-1}:
            return -1
        iv = refine(self.interval, lambda iv: iv.lo > 0 or iv.hi < 0,
                    what=f"sign of a {len(self.terms)}-term SqrtSum")
        return 1 if iv.lo > 0 else -1

    def __eq__(self, other):
        if not isinstance(other, (SqrtSum, int, Fraction)):
            return NotImplemented
        return (self - _coerce(other)).is_zero()

    def __hash__(self):
        # Equal values share their rational part (the coefficient of radicand
        # 1: no radicand above 1 is a perfect square, so none merges onto 1)
        # but not always their irrational terms, so hash the rational part
        # only; it also hashes like the equal int or Fraction.
        if self.terms and self.terms[0][1] == 1:
            return hash(self.terms[0][0])
        return hash(0)

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    # -- numerics -------------------------------------------------------------

    def interval(self, bits: int) -> Interval:
        acc = Interval.point(0)
        for c, r in self.terms:
            acc = acc + sqrt_interval(r, bits) * c
        return acc

    def interval_with_width(self, max_width: Fraction) -> Interval:
        return refine(self.interval, lambda iv: iv.width <= max_width,
                      what=f"SqrtSum enclosure of width <= {max_width}")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for c, r in self.terms:
            parts.append(str(c) if r == 1 else f"{c}*sqrt({r})")
        return " + ".join(parts)


def _coerce(x) -> SqrtSum:
    if isinstance(x, SqrtSum):
        return x
    if isinstance(x, (int, Fraction)):
        return SqrtSum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x)} to SqrtSum")

