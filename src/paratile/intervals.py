"""Exact rational intervals and certified enclosures of irrational values.

Endpoints are ``fractions.Fraction``, so sums and products of intervals are
exact and no rounding-direction bookkeeping is needed.  Irrational values
enter only through enclosures that take an explicit precision in bits.  Roots
of rationals are built from integer roots, found by Newton's iteration from
a power of two above the root, and their endpoints print into the ratio
enclosures.  Every formula with a log, exp, pi or e is evaluated whole
by ``enclose`` in mpmath's outward-rounding interval context and converted
once; its binary endpoints convert to Fraction losslessly.

``refine`` is the only precision ladder: every irrational decision in the
package (the schedule's m, the density and induction inequalities, signs and
widths of radical sums) computes its enclosure at the rungs of
``PREC_LADDER`` until it is decided, and raises ``PrecisionExhausted`` after
the last rung.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

import mpmath

Rat = Union[int, Fraction]

PREC_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)


class PrecisionExhausted(Exception):
    """An enclosure could not be refined enough to decide a question."""


def iroot_floor(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton on integers from above the root: by AM-GM and floor((a +
    # floor(x)) / k) = floor((a + x) / k) no step lands below the floor root,
    # and each step from above it decreases, so the first that does not
    # starts at the floor root.
    r = 1 << (n.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _as_fraction(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Rat) -> "Interval":
        f = _as_fraction(x)
        return Interval(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        other = _coerce(other)
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(prods), max(prods))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def sqrt_interval(x: Rat, bits: int = 64) -> Interval:
    """Enclosure of sqrt(x) for x >= 0; exact (a point) when x is a perfect square."""
    return root_interval(x, 2, bits)


def root_interval(x: Rat, k: int, bits: int = 64) -> Interval:
    """Enclosure of x**(1/k) for x >= 0, integer k >= 1."""
    f = _as_fraction(x)
    p, q = f.numerator, f.denominator
    rp, rq = iroot_floor(p, k), iroot_floor(q, k)
    if rp ** k == p and rq ** k == q:
        return Interval.point(Fraction(rp, rq))
    n = p * q ** (k - 1)  # x = n / q**k
    t = iroot_floor(n << (k * bits), k)
    scale = q << bits
    return Interval(Fraction(t, scale), Fraction(t + 1, scale))


def sqrt_upper(x: Rat, bits: int = 64) -> Fraction:
    return sqrt_interval(x, bits).hi


# --- mpmath bridge -----------------------------------------------------------

def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    man = int(man)
    if man == 0:
        if exp != 0:
            raise OverflowError("non-finite mpmath value")
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** int(exp)
    return -v if sign else v


def enclose(prec: int, formula: Callable) -> Interval:
    """Exact enclosure of ``formula(iv)``, evaluated once in mpmath's interval
    context ``iv`` at ``prec`` bits.

    Every operation of the formula rounds outward, so the interval it returns
    holds the true value; its binary endpoints convert to Fraction exactly.
    The formula takes its constants from the context (``iv.pi``,
    ``iv.exp(1)``) and its rational inputs as Python ints, which ``iv``
    converts with outward rounding.  This is the package's only use of
    mpmath.
    """
    iv = mpmath.iv
    old = iv.prec
    iv.prec = prec
    try:
        lo_t, hi_t = formula(iv)._mpi_
    finally:
        iv.prec = old
    return Interval(_mpf_tuple_to_fraction(lo_t), _mpf_tuple_to_fraction(hi_t))


def refine(compute: Callable[[int], Interval],
           decided: Callable[[Interval], bool],
           ladder: Iterable[int] = PREC_LADDER,
           what: str = "enclosure") -> Interval:
    """Evaluate ``compute(prec)`` along a precision ladder until ``decided``.

    Returns the first deciding enclosure; ``what`` names the question in the
    ``PrecisionExhausted`` message, which also shows the last enclosure,
    rounded outward to 20 significant digits.
    """
    last = None
    for prec in ladder:
        last = compute(prec)
        if decided(last):
            return last
    lo = _decimal(last.lo, decimal.ROUND_FLOOR)
    hi = _decimal(last.hi, decimal.ROUND_CEILING)
    raise PrecisionExhausted(f"{what}: undecided at [{lo}, {hi}]")


def _decimal(x: Fraction, rounding: str) -> decimal.Decimal:
    """x to 20 significant digits, rounded in the given direction."""
    ctx = decimal.Context(prec=20, rounding=rounding, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    return ctx.divide(decimal.Decimal(x.numerator), x.denominator)
