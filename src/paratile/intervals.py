"""Exact rational intervals and certified enclosures of irrational values.

Endpoints are ``fractions.Fraction``, so sums and products of intervals are
exact and no rounding-direction bookkeeping is needed.  Irrational values
enter only through enclosures that take an explicit precision in bits.  Roots
of rationals are built from integer roots, found by Newton's iteration from
a power of two above the root, and their endpoints print into the ratio
enclosures.  Every formula with a log, exp, pi or e is evaluated whole
by ``enclose`` and converted once; its binary endpoints convert to Fraction
losslessly.  The formula runs on a small context of the precision asked
for, whose every operation is one call to the outward-rounding interval
kernel in ``mpmath.libmp`` (``mpi_add`` ... ``mpi_loggamma``) that
mpmath's ``iv`` context ends in, so the endpoints are ``iv``'s bit for bit
without ``iv``'s conversions, dispatch and global precision.  Int inputs
and unary results on ints are kept in a bounded memo per precision.

``refine`` is the only precision ladder: every irrational decision in the
package (the schedule's m, the density and induction inequalities, signs and
widths of radical sums) computes its enclosure at the rungs of
``PREC_LADDER`` until it is decided, and raises ``PrecisionExhausted`` after
the last rung.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from mpmath import libmp

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

_FLOOR, _CEILING = libmp.round_floor, libmp.round_ceiling
_MEMO_SIZE = 256  # int conversions and unary results kept per precision


class _Value:
    """A real interval inside an `enclose` formula: an mpi tuple (two raw
    mpmath floats) and the `_Context` whose precision its operators round
    to."""

    __slots__ = ("ctx", "mpi")

    def __init__(self, ctx: "_Context", mpi):
        self.ctx = ctx
        self.mpi = mpi

    def __neg__(self):
        return _Value(self.ctx, libmp.mpi_neg(self.mpi, self.ctx.prec))


def _operators(mpi_op):
    """``x op y`` and ``y op x`` for a `_Value` x, rounding outward."""
    def op(self, other):
        ctx = self.ctx
        return _Value(ctx, mpi_op(self.mpi, ctx.operand(other), ctx.prec))

    def rop(self, other):
        ctx = self.ctx
        return _Value(ctx, mpi_op(ctx.operand(other), self.mpi, ctx.prec))
    return op, rop


_Value.__add__, _Value.__radd__ = _operators(libmp.mpi_add)
_Value.__sub__, _Value.__rsub__ = _operators(libmp.mpi_sub)
_Value.__mul__, _Value.__rmul__ = _operators(libmp.mpi_mul)
_Value.__truediv__, _Value.__rtruediv__ = _operators(libmp.mpi_div)


class _Context:
    """What an `enclose` formula receives at one precision: ``pi``, ``mpf``,
    ``sqrt``, ``exp``, ``log`` and ``loggamma``, on values and ints.

    An int rounds to its floor and ceiling at ``prec`` bits; a float or a
    Fraction raises TypeError, never rounds.  Int conversions (2 and 4 kappa
    in every P(n)) and unary results on ints (ln 2 kappa, e) are kept in
    one bounded LRU memo, which the type check guards.
    """

    def __init__(self, prec: int):
        self.prec = prec
        self.pi = _Value(self, (libmp.mpf_pi(prec, _FLOOR),
                                libmp.mpf_pi(prec, _CEILING)))
        self.memo = functools.lru_cache(_MEMO_SIZE)(self._of_int)

    def _of_int(self, fn, x: int):
        mpi = (libmp.from_int(x, self.prec, _FLOOR),
               libmp.from_int(x, self.prec, _CEILING))
        return fn(mpi, self.prec) if fn else mpi

    def _int(self, fn, x):
        """The mpi of the int x rounded outward, or ``fn`` of it when fn is
        not None."""
        if not isinstance(x, int):
            raise TypeError(f"enclose formulas take ints, not "
                            f"{type(x).__name__}")
        return self.memo(fn, x)

    def operand(self, x):
        """The mpi tuple of a `_Value` or an int."""
        return x.mpi if type(x) is _Value else self._int(None, x)

    def _apply(self, fn, x) -> _Value:
        if type(x) is _Value:
            return _Value(self, fn(x.mpi, self.prec))
        return _Value(self, self._int(fn, x))

    def mpf(self, x) -> _Value:
        return x if type(x) is _Value else _Value(self, self._int(None, x))

    def sqrt(self, x) -> _Value:
        return self._apply(libmp.mpi_sqrt, x)

    def exp(self, x) -> _Value:
        return self._apply(libmp.mpi_exp, x)

    def log(self, x) -> _Value:
        return self._apply(libmp.mpi_log, x)

    def loggamma(self, x) -> _Value:
        return self._apply(libmp.mpi_loggamma, x)


@functools.lru_cache(maxsize=16)
def _context(prec: int) -> _Context:
    return _Context(prec)


def _dyadic(t) -> Fraction:
    """A finite raw mpmath float as the Fraction it equals."""
    sign, man, exp, _bc = t
    if not man:
        if exp:
            raise OverflowError("non-finite mpmath value")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def enclose(prec: int, formula: Callable) -> Interval:
    """Exact enclosure of ``formula(ctx)``, evaluated once at ``prec`` bits.

    ``ctx`` is a small interval context: each ``+ - * /``, unary minus,
    ``ctx.sqrt``, ``ctx.exp``, ``ctx.log``, ``ctx.loggamma``, ``ctx.mpf``
    and ``ctx.pi`` is one call to the ``mpmath.libmp`` interval kernel that
    mpmath's ``iv`` context calls, so every operation rounds outward and the
    interval returned holds the true value; its binary endpoints convert to
    Fraction exactly.  Rational inputs are Python ints, rounded outward;
    anything else raises TypeError.  This is the package's only use of
    mpmath, and it leaves mpmath's global contexts alone.
    """
    lo, hi = formula(_context(prec)).mpi
    return Interval(_dyadic(lo), _dyadic(hi))


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
