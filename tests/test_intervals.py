import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratile import construction, intervals, sampler
from paratile.intervals import (PREC_LADDER, Interval, PrecisionExhausted,
                                enclose, iroot_floor, refine, root_interval,
                                sqrt_interval, sqrt_upper)

from oracles import mp_reference, reference_enclose

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
positive = st.fractions(min_value=Fraction(1, 50), max_value=100,
                        max_denominator=50)


def _contains(iv: Interval, x: Fraction) -> bool:
    return iv.lo <= x <= iv.hi


def _overlaps(a: Interval, b: Interval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


@given(st.integers(min_value=0, max_value=10 ** 18),
       st.integers(min_value=1, max_value=6))
def test_iroot_floor_is_floor(n, k):
    r = iroot_floor(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=0, max_value=1 << 40000),
       st.integers(min_value=3, max_value=300))
def test_iroot_floor_large_radicands(n, k):
    r = iroot_floor(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=1, max_value=1 << 13000),
       st.integers(min_value=3, max_value=300),
       st.sampled_from([-1, 0, 1]))
def test_iroot_floor_near_perfect_powers(base, k, delta):
    base >>= max(0, base.bit_length() - 40000 // k)  # keep base**k <= 40k bits
    n = base ** k + delta
    r = iroot_floor(n, k)
    assert r ** k <= n < (r + 1) ** k
    assert r == (base - 1 if delta < 0 else base)


def test_iroot_floor_exact_powers():
    assert iroot_floor(27, 3) == 3
    assert iroot_floor(26, 3) == 2
    assert iroot_floor(1 << 60, 2) == 1 << 30
    # a root far below its power-of-two start: Newton still lands on it
    assert iroot_floor(3 ** 1000, 1000) == 3
    assert iroot_floor(3 ** 1000 - 1, 1000) == 2


@given(rationals, rationals, rationals)
def test_interval_add_mul_contain(a, b, c):
    # degenerate operands: containment must survive arithmetic
    x = Interval.point(a)
    y = Interval(min(b, c), max(b, c))
    assert _contains(x + y, a + b)
    assert _contains(x * y, a * c)
    assert _contains(y * b, c * b)


@given(positive)
def test_sqrt_interval_brackets(x):
    iv = sqrt_interval(x, bits=32)
    assert iv.lo >= 0
    assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
    tighter = sqrt_interval(x, bits=64)
    assert iv.lo <= tighter.lo and tighter.hi <= iv.hi


@given(positive)
def test_sqrt_bounds_order(x):
    lo = sqrt_interval(x).lo
    assert lo <= sqrt_upper(x)
    assert lo ** 2 <= x <= sqrt_upper(x) ** 2


@given(positive, st.integers(min_value=2, max_value=5))
def test_root_interval_brackets(x, k):
    iv = root_interval(x, k, bits=48)
    assert iv.lo ** k <= x <= iv.hi ** k
    if k == 2:  # sqrt_interval is the k = 2 case, endpoint for endpoint
        assert sqrt_interval(x, bits=48) == iv


def test_comparison_predicates():
    a = Interval(Fraction(0), Fraction(1))
    b = Interval(Fraction(2), Fraction(3))
    assert a.hi < b.lo
    assert not _overlaps(a, b)
    assert _overlaps(a, Interval(Fraction(1), Fraction(2)))


def test_exp_known_values():
    assert enclose(64, lambda iv: iv.exp(0)) == Interval.point(1)
    e = enclose(96, lambda iv: iv.exp(1))
    # e = 2.718281828459045235360287...
    assert e.lo > Fraction(27182818284590452353, 10 ** 19)
    assert e.hi < Fraction(27182818284590452354, 10 ** 19)


def test_exp_negative_argument():
    iv = enclose(64, lambda iv: iv.exp(-1))
    prod = iv * enclose(64, lambda iv: iv.exp(1))
    assert _contains(prod, Fraction(1))


def test_log_known_values():
    assert enclose(64, lambda iv: iv.log(1)) == Interval.point(0)
    iv = enclose(96, lambda iv: iv.log(2))
    # ln 2 = 0.6931471805599453094172...
    assert iv.lo > Fraction(6931471805599453094, 10 ** 19)
    assert iv.hi < Fraction(6931471805599453095, 10 ** 19)
    with pytest.raises(OverflowError):  # log 0 = -inf has no enclosure
        enclose(64, lambda iv: iv.log(0))


@given(positive)
def test_exp_log_roundtrip_contains(x):
    roundtrip = enclose(80, lambda iv: iv.exp(iv.log(
        iv.mpf(x.numerator) / x.denominator)))
    assert _contains(roundtrip, x)


def test_pi_digits():
    iv = enclose(80, lambda iv: iv.pi)
    # pi = 3.14159265358979323846 2643...
    assert iv.lo > Fraction(314159265358979323846, 10 ** 20)
    assert iv.hi < Fraction(314159265358979323847, 10 ** 20)
    assert iv.width < Fraction(1, 10 ** 18)


@pytest.mark.parametrize("name, formula, reference", [
    ("log", lambda iv: iv.log(10 ** 6), lambda mp: mp.log(10 ** 6)),
    ("exp", lambda iv: iv.exp(-7) * 3, lambda mp: mp.exp(-7) * 3),
    ("pi", lambda iv: iv.pi, lambda mp: mp.pi),
    ("e", lambda iv: iv.exp(1), lambda mp: mp.e),
], ids=["log", "exp", "pi", "e"])
def test_enclose_brackets_a_4096_bit_reference(name, formula, reference):
    ref = mp_reference(reference)
    context_prec = mpmath.iv.prec
    width = None
    for prec in (64, 256, 1024):
        iv = enclose(prec, formula)
        assert iv.lo <= ref <= iv.hi, (name, prec)
        assert iv.lo.denominator & (iv.lo.denominator - 1) == 0  # binary
        if width is not None:
            assert iv.width < width
        width = iv.width
    assert mpmath.iv.prec == context_prec  # enclose leaves iv alone


def test_refine_converges():
    target = Fraction(1, 10 ** 30)
    iv = refine(lambda p: sqrt_interval(Fraction(2), p),
                decided=lambda r: r.width <= target)
    assert iv.width <= target
    assert iv.lo ** 2 <= 2 <= iv.hi ** 2


def test_refine_gives_up():
    with pytest.raises(PrecisionExhausted):
        refine(lambda p: Interval(Fraction(0), Fraction(1)),
               decided=lambda r: r.width <= Fraction(1, 10))


def test_refine_gives_up_with_a_short_outward_message():
    # the last enclosure has 4096-bit endpoints; the message rounds them
    # outward to 20 significant digits instead of printing the fractions
    with pytest.raises(PrecisionExhausted) as info:
        refine(lambda p: sqrt_interval(Fraction(2), p),
               decided=lambda r: False, what="sqrt(2) at width 0")
    msg = str(info.value)
    assert msg == ("sqrt(2) at width 0: undecided at "
                   "[1.4142135623730950488, 1.4142135623730950489]")


# --- the evaluator against mpmath's iv context ------------------------------------

def _outcome(evaluate, prec, formula):
    try:
        return evaluate(prec, formula)
    except Exception as exc:  # the same failure counts as the same outcome
        return type(exc)


def _assert_same_at_every_rung(formula):
    for prec in PREC_LADDER:
        ours = _outcome(enclose, prec, formula)
        assert ours == _outcome(reference_enclose, prec, formula), prec


# ints up to 4200 bits, wider than every rung
ints = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.integers(-(1 << 4200), 1 << 4200))
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


@settings(max_examples=40)
@given(st.sampled_from(sorted(BINARY)), ints, ints,
       st.integers(1, 10 ** 6),
       st.sampled_from(["value op value", "value op int", "int op value"]))
def test_each_operator_matches_iv_bit_for_bit(op, a, b, c, operands):
    fn = BINARY[op]

    def formula(iv):
        x = iv.mpf(a) / c  # not a point when a / c is not binary
        if operands == "value op value":
            return fn(x, iv.mpf(b) / 3)
        return fn(x, b) if operands == "value op int" else fn(b, x)

    _assert_same_at_every_rung(formula)


UNARY = {
    "neg": lambda iv, x: -iv.mpf(x),
    "mpf": lambda iv, x: iv.mpf(x),
    "sqrt": lambda iv, x: iv.sqrt(x),
    "log": lambda iv, x: iv.log(x),
    "exp": lambda iv, x: iv.exp(x),
    "loggamma": lambda iv, x: iv.loggamma(x),
}


@given(st.sampled_from(sorted(UNARY)), ints, st.integers(1, 10 ** 6),
       st.booleans())
def test_each_function_matches_iv_bit_for_bit(name, a, c, on_value):
    if name == "exp":
        a %= 10 ** 4  # keep e^a to a few thousand bits
    if name == "loggamma":
        # from 10^4 on, lnGamma of a non-point interval at 4096 bits takes
        # milliseconds; near 1 its first evaluation takes seconds
        a = a % 10 ** 4 + 10 ** 4
    fn = UNARY[name]
    _assert_same_at_every_rung(
        lambda iv: fn(iv, a + 1 / iv.mpf(c)) if on_value else fn(iv, a))


@pytest.mark.parametrize("formula", [
    lambda iv: iv.pi, lambda iv: 2 * iv.pi / 7, lambda iv: iv.log(iv.pi),
    lambda iv: iv.log(0), lambda iv: iv.sqrt(-1), lambda iv: 1 / iv.mpf(0),
    lambda iv: iv.exp(1) - iv.exp(1), lambda iv: -iv.pi + 3,
], ids=["pi", "2pi/7", "log pi", "log 0", "sqrt -1", "1/0", "e - e",
        "3 - pi"])
def test_constants_and_edges_match_iv_bit_for_bit(formula):
    _assert_same_at_every_rung(formula)


def test_log_0_has_no_enclosure():
    with pytest.raises(OverflowError):
        enclose(64, lambda iv: iv.log(0))


@settings(max_examples=15)
@given(st.integers(1, 8), st.integers(1, 10 ** 12), st.integers(1, 400))
def test_the_package_formulas_match_iv_bit_for_bit(kappa, size, dim):
    formulas = []
    with pytest.MonkeyPatch.context() as mp:
        def both(prec, formula):
            _assert_same_at_every_rung(formula)
            formulas.append(formula)
            return enclose(prec, formula)

        mp.setattr(construction, "enclose", both)
        mp.setattr(sampler, "enclose", both)
        n = 4 * kappa ** 2 + size
        construction.predicted_bound_interval(n, kappa)  # P(n)
        m = construction.choose_m(n, kappa)
        if m >= 2:
            construction._induction_inequality_holds(n, m, kappa)  # slack
        construction.isoperimetric_ratio_lower(dim)
        sampler.default_c()  # e
    assert len(formulas) >= 4


def test_the_memo_stays_bounded():
    bound = intervals._MEMO_SIZE
    construction.scan_induction(4, 10 ** 7, 1000)
    info = intervals._context(96).memo.cache_info()
    assert info.misses > bound and info.currsize <= bound

    # choose_m's formula at every rung of the ladder, to 4096 bits
    def every_rung(compute, decided, what):
        for prec in PREC_LADDER:
            compute(prec)
        return refine(compute, decided, what=what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "refine", every_rung)
        for n in range(10 ** 6, 10 ** 6 + bound // 2 + 20):
            construction.choose_m(n, 4)
    for prec in PREC_LADDER:
        info = intervals._context(prec).memo.cache_info()
        assert info.misses > bound and info.currsize <= bound, prec
    contexts = intervals._context.cache_info()
    assert contexts.currsize <= contexts.maxsize


@pytest.mark.parametrize("formula", [
    lambda iv: iv.exp(1.0), lambda iv: iv.log(Fraction(2)),
    lambda iv: iv.mpf(0.5), lambda iv: iv.mpf(Fraction(1, 3)),
    lambda iv: iv.sqrt(2) + 1.0, lambda iv: 2.0 / iv.pi,
    lambda iv: Fraction(1, 2) * iv.pi, lambda iv: iv.pi - Fraction(3),
], ids=["exp float", "log Fraction", "mpf float", "mpf Fraction",
        "value + float", "float / value", "Fraction * value",
        "value - Fraction"])
def test_a_float_or_fraction_is_refused_not_rounded(formula):
    # the int twins are memoised first: the memo must not answer for them
    enclose(64, lambda iv: iv.exp(1) + iv.log(2) + iv.mpf(0) + 3)
    with pytest.raises(TypeError):
        enclose(64, formula)
