import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratile import sampler
from paratile.intervals import enclose, root_interval
from paratile.linalg import QMatrix
from paratile.sampler import (LdpcParams, SamplerFailure, admissible_s,
                              choose_d, default_c, expected_collisions,
                              largest_verified_s, masks_to_matrix,
                              matrix_to_masks, return_prob_bound,
                              return_prob_exact, row_weight_bound,
                              sample_ldpc, shortest_dependency,
                              verify_s_independence, walk_endpoint,
                              weight_distribution_exact)

from oracles import (reference_dependency, return_prob_brute,
                     return_prob_spectral)


# --- return probabilities ---------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4, 5])
def test_exact_equals_brute(m, t):
    assert return_prob_exact(m, t) == return_prob_brute(m, t)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=8))
def test_exact_equals_spectral(m, t):
    assert return_prob_exact(m, t) == return_prob_spectral(m, t)


def test_bound_examples():
    assert return_prob_bound(2, 2) == 2
    assert return_prob_bound(16, 4) == Fraction(1, 8)
    assert return_prob_bound(4, 2) == 1
    assert return_prob_exact(4, 2) == Fraction(1, 4)


@given(st.integers(min_value=1, max_value=32),
       st.integers(min_value=0, max_value=10))
def test_exact_below_bound(m, t):
    if t % 2 == 0:
        assert return_prob_exact(m, t) <= return_prob_bound(m, t)
    else:
        assert return_prob_exact(m, t) == 0


def test_wide_m_is_cheap():
    # weight support is capped by t, so huge m must not blow up
    p = return_prob_exact(16384, 4)
    assert 0 < p < Fraction(1, 10 ** 6)


def test_weight_distribution_sums_to_one():
    for m, t in ((3, 4), (8, 5), (5, 0)):
        dist = weight_distribution_exact(m, t)
        assert sum(dist) == 1


def test_weight_distribution_matches_empirical():
    # total variation against 10^5 sampled walks; spot check, fixed seed
    m, t, samples = 8, 5, 100000
    dist = weight_distribution_exact(m, t)
    rng = random.Random("weights:0")
    counts = [0] * (m + 1)
    for _ in range(samples):
        w = bin(walk_endpoint(m, t, rng)).count("1")
        counts[w] += 1
    tv = sum(abs(Fraction(c, samples) - p)
             for c, p in zip(counts, dist)) / 2
    assert tv < Fraction(2, 100)


# --- parameter helpers ---------------------------------------------------------

def test_choose_d_values():
    assert choose_d(2) == 3
    assert choose_d(1) == 4
    assert choose_d(Fraction(1, 2)) == 6
    with pytest.raises(ValueError):
        choose_d(0)
    with pytest.raises(ValueError):
        choose_d(3)


def test_default_c_strictly_below_infimum():
    c = default_c()
    assert 0 < c < 1
    # the d = 3 term of the infimum is (1/(21 e))^2; e > 2.718281828
    # makes 21 e > 57.08, so the term is below (1/57.08)^2
    assert c < Fraction(1, 57) ** 2
    # squeezing harder: c stays below the exact d=3 value via e < 2.7182819
    assert c * (21 * Fraction(27182819, 10 ** 7)) ** 2 < 1
    # e enters as the upper end of a 128-bit enclosure; c is pinned exactly
    assert c == Fraction(
        5742252960529749071145716877414485176439322664845761613895220154201014272,
        18716124069713729249256993489173902865546187599495399274393745496095754329515)


def test_default_c_is_the_least_term_over_the_column_weights():
    # the bound (1/(7 e d))^(2/(d-2)) is least at d = 3: the minimum over
    # 3 <= d <= 32 of its 128-bit lower ends, shaved by 2^-12, is default_c
    e_hi = enclose(128, lambda iv: iv.exp(1)).hi
    least = min(root_interval((1 / (7 * d * e_hi)) ** 2, d - 2, bits=128).lo
                for d in range(3, 33))
    assert default_c() == least * (1 - Fraction(1, 4096))


def test_admissible_s_formula():
    c = default_c()
    # (m^d / n^2)^(1/(d-2)) = 4 at (32, 256, 4): s = floor(c) = 0
    assert admissible_s(32, 256, 4, c) == 0
    # m = n = 16384, d = 4: scale factor m/d is large enough for s = 1
    assert admissible_s(16384, 16384, 4, c) == 1
    assert admissible_s(32, 256, 4, Fraction(0)) == 0
    with pytest.raises(ValueError):
        admissible_s(32, 256, 2, c)


def test_admissible_s_is_the_largest_s_of_its_inequality():
    # s qualifies iff (s d q)^(d-2) n^2 <= p^(d-2) m^d for c = p/q
    rng = random.Random(28)
    cases = [(m, m, 4, Fraction(4 * s, m))    # equality at s exactly
             for m, s in ((16, 3), (1000, 7), (10 ** 6, 12345))]
    for _ in range(3000):
        m = rng.randrange(3, 10 ** rng.randrange(1, 7) + 4)
        n = rng.randrange(m, 20 * m)
        cases.append((m, n, rng.randrange(3, 9),
                      Fraction(rng.randrange(1, 10 ** 4),
                               rng.randrange(1, 10 ** 3))))
    for m, n, d, c in cases:
        p, q = c.numerator, c.denominator

        def qualifies(s):
            return (s * d * q) ** (d - 2) * n ** 2 <= p ** (d - 2) * m ** d

        s = admissible_s(m, n, d, c)
        assert qualifies(s) and not qualifies(s + 1), (m, n, d, c)


def test_admissible_s_monotone_in_c():
    for c_small, c_big in ((Fraction(1, 100), Fraction(1, 2)),):
        assert admissible_s(64, 64, 4, c_small) \
            <= admissible_s(64, 64, 4, c_big)


def test_row_weight_bound_value():
    assert row_weight_bound(32, 256, 4) == 128  # ceil(4*4*256/32)
    assert row_weight_bound(3, 7, 3) == 28      # ceil(4*3*7/3)


# --- collision expectation ------------------------------------------------------

def test_expected_collisions_empty_sum():
    assert expected_collisions(32, 256, 4, 0) == 0


def test_expected_collisions_single_term():
    # s = 1: E[D] = n * P[walk of length d returns], d even
    m, n, d = 32, 256, 4
    assert expected_collisions(m, n, d, 1) == n * return_prob_exact(m, d)


def test_expected_collisions_odd_d_vanishes_at_r1():
    # d*r odd for d = 3, r = 1: zero columns are impossible
    assert expected_collisions(32, 256, 3, 1) == 0


def test_expected_collisions_in_hypothesis_regime():
    # at a scale where the formula actually grants s >= 1 the bound is easy
    c = default_c()
    m = n = 16384
    s = admissible_s(m, n, 4, c)
    assert s == 1
    assert expected_collisions(m, n, 4, s) < Fraction(1, 3)


# --- matrix sampling -------------------------------------------------------------

def test_masks_matrix_roundtrip():
    masks = [0b1011, 0b0010, 0b1110]
    mat = masks_to_matrix(4, masks)
    assert mat.shape == (4, 3)
    assert matrix_to_masks(mat) == masks
    # regression: every column must be its own mask, not a shared one
    assert mat.col(0) == (1, 1, 0, 1)
    assert mat.col(1) == (0, 1, 0, 0)


@pytest.mark.parametrize("m", [1, 4, 70])
def test_masks_matrix_roundtrip_on_sampled_widths(m):
    rng = random.Random(m)
    masks = [rng.getrandbits(m) for _ in range(9)] + [0, (1 << m) - 1]
    mat = masks_to_matrix(m, masks)
    assert mat.entries == tuple(tuple((x >> i) & 1 for x in masks)
                                for i in range(m))
    assert matrix_to_masks(mat) == masks


@pytest.mark.parametrize("mask", [16, -1])
def test_masks_must_fit_the_rows(mask):
    with pytest.raises(ValueError, match="below 2\\^4"):
        masks_to_matrix(4, [1, mask])


def test_sampler_is_deterministic():
    p = LdpcParams(m=16, n=64, d=4, seed=7)
    a, stats_a = sample_ldpc(p)
    b, stats_b = sample_ldpc(p)
    assert a.entries == b.entries
    assert stats_a == stats_b
    c, _ = sample_ldpc(LdpcParams(m=16, n=64, d=4, seed=8))
    assert c.entries != a.entries


def test_sampler_respects_weights():
    mat, stats = sample_ldpc(LdpcParams(m=16, n=64, d=4, seed=0))
    assert stats["tries"] >= 1
    bound = stats["row_bound"]
    assert stats["heaviest_row"] <= bound
    for i in range(16):
        assert sum(mat.num[i]) <= bound
    for j in range(64):
        w = sum(mat.col(j))
        assert w <= 4 and w % 2 == 0  # walk endpoint parity


def test_sampler_row_bound_failure():
    # impossible row bound forces resampling then failure
    with pytest.raises(SamplerFailure):
        sample_ldpc(LdpcParams(m=4, n=64, d=4, seed=0, max_tries=3,
                               row_bound=1))


@pytest.mark.parametrize("max_tries", [0, -2])
def test_sampler_refuses_a_try_budget_below_one(max_tries):
    with pytest.raises(ValueError, match="max_tries must be at least 1"):
        LdpcParams(m=16, n=32, d=4, max_tries=max_tries)


# --- independence verification -----------------------------------------------------

def test_duplicate_column_fails_s2():
    mat = QMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
    ok, witness = verify_s_independence(mat, 2)
    assert not ok
    assert witness == (0, 2)
    assert verify_s_independence(mat, 1)[0]


def test_zero_column_fails_s1():
    mat = QMatrix.from_rows([[1, 0], [1, 0]])
    ok, witness = verify_s_independence(mat, 1)
    assert not ok and witness == (1,)


def test_verifier_requires_binary_entries():
    # general integer matrices go through linalg.columns_independent; the
    # mask-based verifier is for sampler output only
    mat = QMatrix.from_rows([[2], [4]])
    with pytest.raises(ValueError):
        verify_s_independence(mat, 1)


@pytest.mark.parametrize("entry", [3, -1])
def test_every_entry_outside_0_1_is_refused(entry):
    # an odd entry is not a 1: the mask verifier takes 0/1 matrices only
    mat = QMatrix.from_rows([[1, 0, entry], [0, 1, 1]])
    with pytest.raises(ValueError, match="entries must be 0/1"):
        matrix_to_masks(mat)
    with pytest.raises(ValueError, match="entries must be 0/1"):
        verify_s_independence(mat, 3)


def test_integer_valued_rational_matrices_are_step_matrices():
    # any QMatrix with den == 1 is an integer matrix, however it was built
    q = QMatrix.from_rows([[Fraction(1), Fraction(1), 0, 0], [0, 0, 1, 1]])
    assert matrix_to_masks(q) == [1, 1, 2, 2]
    assert verify_s_independence(q, 2) == (False, (0, 1))
    assert verify_s_independence(q, 1) == (True, None)


def test_halves_are_not_0_1_entries():
    # 0/1 numerators over 2 are the entries 1/2, and a mask would lose them
    half = QMatrix(((1, 1, 0, 0), (0, 0, 1, 1)), 2)
    with pytest.raises(ValueError, match="entries must be 0/1"):
        matrix_to_masks(half)
    with pytest.raises(ValueError, match="entries must be 0/1"):
        verify_s_independence(half, 2)


def test_identity_passes_all_s():
    mat = QMatrix.identity(5)
    for s in range(1, 6):
        assert verify_s_independence(mat, s)[0]
    assert largest_verified_s(matrix_to_masks(mat), 5) == 5


def test_largest_verified_s_stops_at_first_dependency():
    # columns e1, e2, e1+e2: pairs fine, one triple dependent
    mat = QMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert largest_verified_s(matrix_to_masks(mat), 4) == 2


def test_verify_s_zero_is_vacuous():
    mat = QMatrix.from_rows([[0, 0], [0, 0]])
    ok, witness = verify_s_independence(mat, 0)
    assert ok and witness is None


@st.composite
def mask_lists(draw):
    """Column masks with planted zero columns, repeats and dependent triples,
    some of them wider than 64 bits."""
    width = draw(st.sampled_from([1, 3, 5, 8, 70]))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    n = len(masks)
    index = st.integers(0, max(n - 1, 0))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j, k = draw(index), draw(index), draw(index)
        kind = draw(st.sampled_from(["zero", "repeat", "triple"]))
        masks[k] = (0 if kind == "zero" else masks[i] if kind == "repeat"
                    else masks[i] ^ masks[j])
    return masks


@settings(max_examples=400)
@given(mask_lists(), st.integers(0, 5))
def test_dependency_search_matches_the_meet_in_the_middle(masks, s):
    assert shortest_dependency(masks, s) == reference_dependency(masks, s)
    # and the level is the last s the reference search certifies
    level = 0
    while level < s and reference_dependency(masks, level + 1) is None:
        level += 1
    assert largest_verified_s(masks, s) == level


@pytest.mark.parametrize("masks, level, triples", [
    ([1, 0, 2], 0, 0),     # a zero column
    ([1, 2, 1], 1, 0),     # a repeated pair
    ([1, 2, 3], 2, 1),     # a dependent triple
    ([1, 2, 4, 8], 3, 1),  # none of them
])
def test_levels_up_to_3_take_one_scan(monkeypatch, masks, level, triples):
    calls = {"_scan": 0, "_first_triple": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sampler, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sampler, name, counted)
    assert largest_verified_s(masks, 3) == level
    assert calls == {"_scan": 1, "_first_triple": triples}


@pytest.mark.parametrize("s", range(6))
def test_negative_masks_are_refused_at_every_s(s):
    with pytest.raises(ValueError, match="non-negative"):
        shortest_dependency([1, -1, 2], s)
    with pytest.raises(ValueError, match="non-negative"):
        verify_s_independence([1, -1, 2], s)
    if s:
        with pytest.raises(ValueError, match="non-negative"):
            largest_verified_s([1, -1, 2], s)


@pytest.mark.parametrize("masks, s, witness", [
    ([], 3, None),
    ([5], 3, None),
    ([0], 1, (0,)),
    ([3, 3, 0], 3, (0, 1)),       # a repeat met before the zero column wins
    ([3, 0, 3], 3, (1,)),
    ([1, 2, 4, 6, 3], 3, (0, 1, 4)),  # the smallest sorted triple
    ([1, 2, 5, 3, 8, 4], 3, (0, 1, 3)),  # not (0, 2, 5), met first from 0
    ([6, 1, 2, 4, 3, 1 << 80, (1 << 80) ^ 6], 3, (0, 2, 3)),
])
def test_dependency_witness_examples(masks, s, witness):
    assert shortest_dependency(masks, s) == witness
    assert reference_dependency(masks, s) == witness


def test_triple_search_at_sampler_scale_is_fast():
    # a passing 128x1024 d = 4 certificate: about 524k pair probes in the
    # meet in the middle took 0.15-0.2 s, the bucketed search about 0.01 s
    mat, _ = sample_ldpc(LdpcParams(m=128, n=1024, d=4, seed=1))
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        ok, witness = verify_s_independence(mat, 3)
        timings.append(time.perf_counter() - t0)
        assert ok and witness is None
    assert min(timings) < 0.05, timings
