from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratile.intervals import PrecisionExhausted
from paratile.radicals import SqrtSum, canonical_sqrt, split_square

small_pos = st.integers(min_value=1, max_value=5000)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
pos_rationals = st.fractions(min_value=Fraction(1, 30), max_value=50,
                             max_denominator=30)


@given(small_pos)
def test_split_square_factorization(n):
    s, f = split_square(n)
    assert s * s * f == n
    # f squarefree: no prime square divides it
    for p in range(2, 71):
        assert f % (p * p) != 0


@given(pos_rationals)
def test_canonical_sqrt_squares_back(x):
    c, r = canonical_sqrt(x)
    assert c * c * r == x
    s, f = split_square(r)
    assert s == 1 and f == r


def test_sqrtsum_normal_form():
    assert SqrtSum.sqrt(8) == SqrtSum.from_rational(2) * SqrtSum.sqrt(2)
    assert SqrtSum.sqrt(4) == SqrtSum.from_rational(2)
    assert SqrtSum.sqrt(Fraction(1, 2)) * SqrtSum.sqrt(2) \
        == SqrtSum.from_rational(1)


def test_known_square():
    x = SqrtSum.sqrt(2) + SqrtSum.sqrt(3)
    sq = x * x
    assert sq == SqrtSum.from_rational(5) + SqrtSum.from_rational(2) * SqrtSum.sqrt(6)


def test_sign_decides_order():
    assert (SqrtSum.sqrt(2) - SqrtSum.from_rational(1)).sign() == 1
    assert (SqrtSum.from_rational(1) - SqrtSum.sqrt(2)).sign() == -1
    assert SqrtSum.zero().sign() == 0
    # 1 + sqrt(2) vs sqrt(3) + sqrt(5): 2.414... vs 3.968...
    a = SqrtSum.from_rational(1) + SqrtSum.sqrt(2)
    b = SqrtSum.sqrt(3) + SqrtSum.sqrt(5)
    assert (a - b).sign() == -1
    assert a <= b


def test_rational_detection():
    # a rational value normalizes to one term of radicand 1
    x = SqrtSum.sqrt(2) * SqrtSum.sqrt(2)
    assert x.single_term() == (2, 1)
    assert SqrtSum.sqrt(2).single_term() == (1, 2)


@given(rationals, rationals)
def test_rational_embedding_is_faithful(a, b):
    sa, sb = SqrtSum.from_rational(a), SqrtSum.from_rational(b)
    assert (sa + sb).single_term() == (a + b, 1)
    assert (sa * sb).single_term() == (a * b, 1)


@given(st.lists(st.tuples(rationals, st.integers(min_value=1, max_value=30)),
                min_size=1, max_size=4))
def test_add_then_subtract_is_identity(terms):
    x = SqrtSum.zero()
    for c, r in terms:
        x = x + SqrtSum.from_rational(c) * SqrtSum.sqrt(r)
    y = SqrtSum.sqrt(7) + SqrtSum.from_rational(Fraction(3, 2))
    assert (x + y) - y == x


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20))
def test_mul_associative(a, b, c):
    xs = [SqrtSum.sqrt(a), SqrtSum.sqrt(b) + SqrtSum.from_rational(1),
          SqrtSum.sqrt(c) - SqrtSum.from_rational(2)]
    assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def test_interval_brackets_value():
    x = SqrtSum.from_rational(6) * SqrtSum.sqrt(2)
    iv = x.interval(64)
    # 6*sqrt(2) = 8.485281374238570...
    assert iv.lo < Fraction(8485281374238571, 10 ** 15) < iv.hi or \
        iv.lo > Fraction(848528137423857, 10 ** 14)
    assert iv.lo ** 2 <= 72 <= iv.hi ** 2


def test_interval_with_width_obeys_request():
    x = SqrtSum.sqrt(2) + SqrtSum.sqrt(3) + SqrtSum.sqrt(5)
    for exp in (6, 12, 20):
        w = Fraction(1, 10 ** exp)
        iv = x.interval_with_width(w)
        assert iv.width <= w


def test_sign_reaches_the_last_rung_of_the_ladder():
    # sqrt(10^1600 + 1) - 10^800 is about 2^-2660: 2048 bits cannot see it
    x = SqrtSum.sqrt(10 ** 1600 + 1) - 10 ** 800
    assert x.sign() == 1
    assert (-x).sign() == -1


def test_interval_with_width_beyond_the_ladder_is_refused():
    with pytest.raises(PrecisionExhausted, match="width"):
        SqrtSum.sqrt(2).interval_with_width(Fraction(1, 2 ** 5000))


def test_str_is_readable():
    assert str(SqrtSum.from_rational(6) * SqrtSum.sqrt(2)) == "6*sqrt(2)"
    assert str(SqrtSum.zero()) == "0"


def test_square_factor_beyond_trial_division_still_compares_equal():
    # 10007 is prime and above the trial-division limit, so the radicand
    # 2 * 10007**2 keeps its square factor; merging radicands whose product
    # is a perfect square identifies the two values anyway
    big = SqrtSum.sqrt(2 * 10007 ** 2)
    small = 10007 * SqrtSum.sqrt(2)
    assert big == small
    assert big <= small and big >= small
    assert not big < small
    assert (big - small).sign() == 0
    assert (big + small).terms == ((Fraction(2 * 10007), 2),)


def test_equal_values_hash_equal():
    # the pair keeps different terms, ((1, 200280098),) and ((10007, 2),)
    big = SqrtSum.sqrt(2 * 10007 ** 2)
    small = 10007 * SqrtSum.sqrt(2)
    assert hash(big) == hash(small)
    assert len({big, small}) == 1
    # a rational SqrtSum equals, and hashes like, its int or Fraction
    assert hash(SqrtSum.from_rational(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(SqrtSum.from_rational(3)) == hash(3)
    assert hash(SqrtSum.zero()) == hash(0)
    assert len({SqrtSum.from_rational(3) + SqrtSum.sqrt(2),
                3 + SqrtSum.sqrt(2 * 10007 ** 2) / 10007}) == 1


@given(st.sampled_from([10007, 10009, 65537, 1000003]),
       st.integers(min_value=2, max_value=200),
       st.lists(st.tuples(rationals, st.integers(min_value=1, max_value=30)),
                max_size=3))
def test_unsplit_radicands_merge_with_their_squarefree_part(p, r, rest):
    x = SqrtSum.zero()
    for c, s in rest:
        x = x + SqrtSum.from_rational(c) * SqrtSum.sqrt(s)
    hidden = SqrtSum.sqrt(r * p * p)  # r may itself carry small squares
    assert x + hidden == x + p * SqrtSum.sqrt(r)
    assert x + hidden - p * SqrtSum.sqrt(r) == x
    assert (hidden - (p - 1) * SqrtSum.sqrt(r)).sign() == 1
