"""Recursive construction of lattice-tiling bodies with small surface/volume.

The step: a sparse full-rank integer matrix B, supplied as an override,
whose short column dependencies are excluded up to support s.  The kernel
slice of the target lattice gets its Voronoi cell (fat, because every nonzero
kernel vector is longer than sqrt(s)); the image lattice B L in the lower
dimension is handled recursively and pulled back through the right inverse
of B.  The two pieces live in orthogonal subspaces, so surface-to-volume
ratios add:

    ratio(K)  <=  2 (n - m) / sqrt(s)  +  ratio(inner) * |B|.

Every inequality sign in that chain is re-verified on the concrete bodies in
exact arithmetic; nothing is trusted from the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .intervals import Interval, enclose, iroot_floor, refine, sqrt_upper
from .lattices import Lattice, kernel_and_image
from .linalg import (
    QMatrix,
    complete_to_full_rank,
    inverse,
    operator_norm_upper,
)
from .polytopes import (
    HPolytope,
    linear_image,
    orthogonal_product,
    voronoi_cell,
)
from .radicals import SqrtSum
from .sampler import (
    admissible_s,
    choose_d,
    default_c,
    largest_verified_s,
    matrix_to_masks,
    row_weight_bound,
    verify_s_independence,
)


class RegimeError(Exception):
    """The parameter schedule has nothing valid to offer at this size."""


class DimCapExceeded(Exception):
    """A geometric step would need vertex enumeration beyond the cap."""


class ConstructionError(Exception):
    """A certified inequality failed on the concrete bodies."""


@dataclass(frozen=True)
class RecursionConfig:
    kappa: int = 4
    epsilon: Fraction = Fraction(1)
    seed: int = 0
    max_depth: int = 8
    dim_cap: int = 6               # kernel cells are enumerated up to this rank
    svp_node_cap: int = 10 ** 7
    matrix_override: Optional[Sequence[Tuple[QMatrix, Optional[int]]]] = None

    def __post_init__(self):
        # values that no run can use are refused before any work
        choose_d(self.epsilon)
        if self.max_depth < 0:
            raise ValueError("max_depth must be at least 0")
        if self.dim_cap < 0:
            raise ValueError("dim_cap must be at least 0")
        if self.svp_node_cap < 1:
            raise ValueError("svp_node_cap must be at least 1")
        for mat, s in self.matrix_override or ():
            if not mat.is_integer():
                raise ValueError("override matrix must have integer entries")
            if s is not None and s < 1:
                raise ValueError("override s must be at least 1")


_PROBE_S_CAP = 3  # direct independence certification cap


@dataclass(frozen=True)
class LevelTrace:
    n: int
    mode: str                       # "cube" | "voronoi" | "step"
    m: Optional[int] = None
    d: Optional[int] = None
    s: Optional[int] = None
    matrix: Optional[QMatrix] = None
    norm_usq: Optional[Fraction] = None
    kernel_shortest_sq: Optional[Fraction] = None
    ratio_kernel: Optional[SqrtSum] = None
    ratio_image: Optional[SqrtSum] = None
    ratio: SqrtSum = field(default_factory=SqrtSum.zero)
    checks: Tuple[Tuple[str, bool], ...] = ()


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    kappa: int
    epsilon: Fraction
    seed: int
    bound_only: bool
    levels: Tuple[LevelTrace, ...]
    ratio_upper: Fraction                  # certified rational upper bound
    ratio_exact: Optional[SqrtSum]         # exact value in geometric mode
    predicted: Tuple[Fraction, Fraction]   # schedule bound enclosure
    within_predicted: Optional[bool]
    body: Optional[HPolytope] = None       # tiles Z^n; None in bound-only mode
    downgrade_reason: Optional[str] = None  # set when geometry hit the cap
    # geometric mode: the lower end of the width-10^-12 enclosure of
    # ratio_exact whose upper end is ratio_upper
    ratio_lower: Optional[Fraction] = None

    @property
    def trivial_bound(self) -> int:
        """2n, the ratio of the unit cube."""
        return 2 * self.n


# --- the parameter schedule -----------------------------------------------------


def _growth_exponent(iv, n: int, kappa: int):
    """sqrt(2 ln n ln 2 kappa), inside an `enclose` formula."""
    return iv.sqrt(2 * iv.log(n) * iv.log(2 * kappa))


def predicted_bound_interval(n: int, kappa: int) -> Interval:
    """Enclosure of 4 kappa sqrt(n) exp(sqrt(2 ln n ln 2 kappa)) at 96 bits."""
    if n < 1 or kappa < 1:
        raise ValueError("need n >= 1, kappa >= 1")
    return enclose(96, lambda iv: 4 * kappa * iv.sqrt(n)
                   * iv.exp(_growth_exponent(iv, n, kappa)))


def _power_base(x: int) -> Tuple[int, int]:
    """(b, e) with x = b**e and b not a perfect power, for x >= 2."""
    for e in range(x.bit_length(), 1, -1):
        b = iroot_floor(x, e)
        if b ** e == x:
            return b, e
    return x, 1


def _exact_m(n: int, kappa: int) -> Optional[int]:
    """floor(n exp(-g(n))) when n and 2 kappa are powers of one base b and
    the value is a power of b, else None.

    With n = b^a, 2 kappa = b^c and b not a perfect power, g(n) =
    sqrt(2ac) ln b.  When 2ac = r^2 the value is b^(a-r) exactly, and no
    enclosure can decide its floor.  When 2ac is not a square, a - sqrt(2ac)
    is irrational algebraic, so b^(a - sqrt(2ac)) is transcendental
    (Gelfond-Schneider): the value is no integer and a fine enough
    enclosure decides.  When n is no power of b, an integer value would
    contradict the four exponentials conjecture; the ladder raises
    PrecisionExhausted rather than guess if one ever occurs.
    """
    b, c = _power_base(2 * kappa)
    a = 0
    while n % b == 0:
        n //= b
        a += 1
    if n != 1:
        return None
    r = math.isqrt(2 * a * c)
    if r * r != 2 * a * c:
        return None
    return b ** (a - r) if a >= r else 0


def choose_m(n: int, kappa: int) -> int:
    """floor(n * exp(-sqrt(2 ln n ln 2 kappa))), certified by refinement."""
    if n <= 4 * kappa ** 2:
        raise RegimeError(f"n = {n} is inside the base regime for kappa = {kappa}")
    exact = _exact_m(n, kappa)
    if exact is not None:
        return exact
    value = refine(
        lambda prec: enclose(
            prec, lambda iv: n * iv.exp(-_growth_exponent(iv, n, kappa))),
        lambda iv: math.floor(iv.lo) == math.floor(iv.hi),
        what=f"choose_m({n}, {kappa})")
    return math.floor(value.lo)


def schedule_parameters(n: int, config: RecursionConfig) -> Tuple[int, int]:
    """(m, d) from the schedule, or RegimeError when hypotheses fail.

    Once m >= 4 only d <= m of 3 <= d <= m <= n and m ln m <= n d can fail:
    d >= 3 by `choose_d`, m = floor(n e^-g(n)) <= n, and kappa >= 1 (which
    `predicted_bound_interval` enforces first) gives g(n) >= sqrt(2 ln 2
    ln n), so m ln m <= n ln(n) e^-g(n) <= n max_x x e^-sqrt(2 ln 2 x), and
    that maximum, at sqrt(x) = 2 / sqrt(2 ln 2), is 2 / (e^2 ln 2) < 0.4.
    """
    d = choose_d(config.epsilon)
    m = choose_m(n, config.kappa)
    if m < 4:
        raise RegimeError(f"schedule yields m = {m} < 4 at n = {n}")
    if d > m:
        raise RegimeError(f"d = {d} exceeds m = {m} at n = {n}")
    return m, d


def _schedule_step(n: int, config: RecursionConfig, depth: int
                   ) -> Optional[Tuple[int, int, int]]:
    """(m, d, s) where the recursion takes a step at size n, else None.

    A step needs depth below max_depth, schedule parameters at n, and an
    admissible independence level s >= 1.  The bound chain (`bound_value`)
    steps here; geometric `construct` never does, because it takes steps
    only from `RecursionConfig.matrix_override`.
    """
    if depth >= config.max_depth:
        return None
    try:
        m, d = schedule_parameters(n, config)
    except RegimeError:
        return None
    s = admissible_s(m, n, d, default_c())
    return (m, d, s) if s >= 1 else None


# --- isoperimetric context --------------------------------------------------------

def isoperimetric_ratio_lower(n: int) -> Interval:
    """Enclosure of n omega_n^(1/n) at 96 bits, a lower bound on the ratio
    of any tile of Z^n.

    Surface >= n omega_n^(1/n) vol^((n-1)/n) for every convex body, and a
    body tiling Z^n has volume 1.  The unit-ball volume is omega_n =
    pi^(n/2) / Gamma(n/2 + 1), so the bound is

        n exp(((n/2) ln pi - lnGamma(n/2 + 1)) / n),

    one formula at every n.  lnGamma increases on [3/2, oo) (its minimum is
    at 1.4616), where n/2 + 1 lies, so ``iv.loggamma`` rounds its endpoints
    outward by monotonicity, as ``iv.log`` and ``iv.exp`` do.
    """
    if n < 1:
        raise ValueError("dimension must be positive")

    def formula(iv):
        half = iv.mpf(n) / 2
        return n * iv.exp((half * iv.log(iv.pi) - iv.loggamma(half + 1)) / n)

    return enclose(96, formula)


# --- level builders ---------------------------------------------------------------

def base_level(lat: Lattice, config: RecursionConfig
               ) -> Tuple[HPolytope, LevelTrace]:
    """The cube when lat is Z^r with the identity basis, else the
    certified Voronoi cell.  This is the one place the cube is chosen.

    Both lattices that reach here carry a canonical basis: `construct`
    passes `Lattice.standard(n)`, which says by rule that it is Z^n, so no
    n x n row is compared, and `kernel_and_image` returns the Hermite basis
    of B L, which is the m x m identity exactly when B L = Z^m, read off
    its rows.  Another basis of Z^r, which only a direct library call can
    pass, takes the Voronoi path, which is still correct: its cell is the
    cube, certified like any other, and refused above the dim cap.
    """
    r = lat.rank
    if lat.is_standard() or lat.basis.is_identity():
        body = HPolytope.cube(r)  # the tile of Z^r
        trace = LevelTrace(n=r, mode="cube", ratio=body.ratio(),
                           checks=(("ratio_le_2n", True),))
        return body, trace
    if not lat.is_integer():
        raise ConstructionError("base case needs an integer lattice")
    if r > config.dim_cap:
        raise DimCapExceeded(
            f"rank {r} Voronoi cell exceeds dim cap {config.dim_cap}")
    body = voronoi_cell(lat, node_cap=config.svp_node_cap)
    checks = []
    # nonzero integer vectors have squared length >= 1, so the cell holds
    # a radius-1/2 ball; that is the whole content of the 2n base bound
    ok_inradius = body.inradius_sq() >= Fraction(1, 4)
    checks.append(("inradius_ge_half", ok_inradius))
    ratio = body.ratio()
    ok_ratio = ratio <= SqrtSum.from_rational(2 * r)
    checks.append(("ratio_le_2n", ok_ratio))
    ok_vol = body.volume() == lat.covolume()
    checks.append(("volume_equals_covolume", ok_vol))
    if not (ok_inradius and ok_ratio and ok_vol):
        raise ConstructionError(f"base case certification failed: {checks}")
    trace = LevelTrace(n=r, mode="voronoi", ratio=ratio,
                       checks=tuple(checks))
    return body, trace


def inductive_level(lat: Lattice, a_matrix: QMatrix, s: Optional[int],
                    config: RecursionConfig, depth: int
                    ) -> Tuple[HPolytope, List[LevelTrace]]:
    """One recursion step on a_matrix over lat: Z^n, or the image lattice
    that the step above certified full-rank and integer.  It first certifies
    the columns s-wise independent over GF(2), at the largest s up to
    `_PROBE_S_CAP` when s is None."""
    n = lat.rank
    if a_matrix.ncols != n:
        raise ValueError(f"shape mismatch {a_matrix.ncols} vs {n}")
    masks = matrix_to_masks(a_matrix)
    if s is None:
        s = largest_verified_s(masks, _PROBE_S_CAP)
    else:
        ok, witness = verify_s_independence(masks, s)
        if not ok:
            raise ConstructionError(
                f"columns admit a dependency of size <= {s}: {witness}")
    if s < 1:
        raise ConstructionError("override matrix has no usable level")
    checks: List[Tuple[str, bool]] = []

    # the completion keeps A's row count, so the cap is decided before any
    # n x n work
    m = a_matrix.nrows
    if n - m > config.dim_cap:  # dim_cap >= 0: true only when m < n
        raise DimCapExceeded(
            f"kernel rank {n - m} exceeds dim cap {config.dim_cap}")
    # full-rank repair; keeps kernels (hence independence levels) intact
    completion = complete_to_full_rank(
        a_matrix, operator_norm_upper(a_matrix, refine_steps=3))
    b = completion.matrix
    # one Hermite form gives both lattices, and B's rank as the image's
    kernel, inner_lat = kernel_and_image(lat, b)
    checks.append(("full_rank", inner_lat.rank == m))
    checks.append(("s_independence", True))  # certified above

    t = b.t() @ inverse(b @ b.t())  # right inverse; the section into row span
    if m < n:
        # 2 (n-m) / sqrt(s), the kernel cell's share of the recursion bound
        kernel_bound = (SqrtSum.from_rational(Fraction(2 * (n - m), s))
                        * SqrtSum.sqrt(s))
        k1 = voronoi_cell(kernel, node_cap=config.svp_node_cap)
        # every shortest vector is Voronoi-relevant, so a facet at distance
        # lambda_1 / 2 gives lambda_1^2 = 4 inradius^2; the swept cell holds
        # the true one and volume_equals_covolume below makes them equal
        sv = 4 * k1.inradius_sq()
        checks.append(("kernel_shortest_exceeds_s", sv > s))
        ratio1 = k1.ratio()
        checks.append(("kernel_ratio_bound", ratio1 <= kernel_bound))
    else:
        k1 = sv = ratio1 = None
        kernel_bound = SqrtSum.zero()

    # T must be a section of B: B T = I_m, checked exactly, not assumed.
    # Then T is injective and B undoes it on all of Q^m, so T carries B L
    # one to one onto a lattice that B maps back onto B L; with T = B^T
    # (B B^T)^-1 that lattice is the projection of L onto the row span
    checks.append(("projection_image_agree", (b @ t).is_identity()))
    checks.append(("inner_integer", inner_lat.is_integer()))

    inner_body, inner_traces = _construct_lattice(inner_lat, config, depth + 1)
    ratio_inner = inner_body.ratio()

    k2 = linear_image(t, inner_body)
    ratio2 = k2.ratio()
    norm_term = SqrtSum.sqrt(completion.norm_usq)
    checks.append(("image_ratio_bound", ratio2 <= ratio_inner * norm_term))

    body = orthogonal_product(k1, k2) if k1 else k2
    ratio_total = body.ratio()
    checks.append(("ratio_additivity",
                   ratio_total == (ratio1 or SqrtSum.zero()) + ratio2))
    checks.append(("volume_equals_covolume",
                   body.volume() == lat.covolume()))
    chain = kernel_bound + ratio_inner * norm_term
    checks.append(("recursion_inequality", ratio_total <= chain))

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise ConstructionError(f"step certification failed: {failed}")

    trace = LevelTrace(
        n=n, mode="step", m=m, d=None, s=s, matrix=b,
        norm_usq=completion.norm_usq,
        kernel_shortest_sq=sv,
        ratio_kernel=ratio1,
        ratio_image=ratio2,
        ratio=ratio_total,
        checks=tuple(checks))
    return body, [trace] + inner_traces


def _construct_lattice(lat: Lattice, config: RecursionConfig, depth: int
                       ) -> Tuple[HPolytope, List[LevelTrace]]:
    overrides = config.matrix_override or ()
    if depth < len(overrides):
        return inductive_level(lat, *overrides[depth], config, depth)
    body, trace = base_level(lat, config)
    return body, [trace]


def _within(lo: Fraction, hi: Fraction, predicted: Interval) -> Optional[bool]:
    """Whether a value enclosed in [lo, hi] lies below the enclosure of
    P(n): True when hi is at most its lower end, False when lo passes its
    upper end, and None when the two overlap."""
    if hi <= predicted.lo:
        return True
    return False if lo > predicted.hi else None


def construct(n: int, config: Optional[RecursionConfig] = None
              ) -> ConstructionReport:
    """Build a tiling body for the standard lattice Z^n with certificates."""
    config = config or RecursionConfig()
    predicted = predicted_bound_interval(n, config.kappa)  # checks n, kappa
    try:
        body, traces = _construct_lattice(Lattice.standard(n), config, 0)
    except DimCapExceeded as exc:
        # too big to materialize; keep the arithmetic chain, say so loudly
        return _bound_only_report(n, config, predicted, str(exc))
    ratio = body.ratio()
    enclosure = ratio.interval_with_width(Fraction(1, 10 ** 12))
    return ConstructionReport(
        n=n, kappa=config.kappa, epsilon=config.epsilon, seed=config.seed,
        bound_only=False, levels=tuple(traces),
        ratio_upper=enclosure.hi, ratio_exact=ratio,
        predicted=(predicted.lo, predicted.hi),
        within_predicted=_within(enclosure.lo, enclosure.hi, predicted),
        body=body, ratio_lower=enclosure.lo)


# --- bound-only mode --------------------------------------------------------------

def bound_value(n: int, config: RecursionConfig, depth: int = 0
                ) -> Tuple[Fraction, List[LevelTrace]]:
    """Certified upper bound on the achievable ratio, no geometry built.

    Mirrors the recursion arithmetic: a step contributes
    2 (n-m)/sqrt(s) + value(m) * sqrt(1 + d * rowbound), and the base case
    contributes 2n.  A step is considered exactly where `_schedule_step`
    admits one and kept only when it beats 2n.  At kappa = 4 the admissible
    s is 0 at n = 10^14 and 2 at n = 10^15, so below that the chain gives 2n.
    """
    trivial = Fraction(2 * n)
    cube = trivial, [LevelTrace(n=n, mode="cube",
                                ratio=SqrtSum.from_rational(trivial))]
    step = _schedule_step(n, config, depth)
    if step is None:
        return cube
    m, d, s = step
    inner_value, inner_traces = bound_value(m, config, depth + 1)
    ell = row_weight_bound(m, n, d)
    norm_hi = sqrt_upper(Fraction(1 + d * ell), 96)
    kernel_term = 2 * (n - m) * sqrt_upper(Fraction(1, s), 96)
    cand = kernel_term + inner_value * norm_hi
    if cand < trivial:
        trace = LevelTrace(n=n, mode="step", m=m, d=d, s=s,
                           ratio=SqrtSum.from_rational(cand))
        return cand, [trace] + inner_traces
    return cube


def _bound_only_report(n: int, config: RecursionConfig, predicted: Interval,
                       reason: Optional[str] = None) -> ConstructionReport:
    value, traces = bound_value(n, config)
    return ConstructionReport(
        n=n, kappa=config.kappa, epsilon=config.epsilon, seed=config.seed,
        bound_only=True, levels=tuple(traces),
        ratio_upper=value, ratio_exact=None,
        predicted=(predicted.lo, predicted.hi),
        within_predicted=_within(value, value, predicted),
        downgrade_reason=reason)


def construct_bound_only(n: int, config: Optional[RecursionConfig] = None
                         ) -> ConstructionReport:
    config = config or RecursionConfig()
    predicted = predicted_bound_interval(n, config.kappa)  # checks n, kappa
    return _bound_only_report(n, config, predicted)


# --- schedule consistency scan ------------------------------------------------------

def _induction_inequality_holds(n: int, m: int, kappa: int) -> bool:
    """Certify 4 kappa exp(sqrt(2 ln m ln 2k)) <= 2 exp(sqrt(2 ln n ln 2k))."""
    def slack(iv):
        return 2 * iv.exp(_growth_exponent(iv, n, kappa)) \
            - 4 * kappa * iv.exp(_growth_exponent(iv, m, kappa))

    diff = refine(lambda prec: enclose(prec, slack),
                  lambda iv: iv.lo >= 0 or iv.hi < 0,
                  what=f"induction inequality at n={n}, m={m}")
    return diff.lo >= 0


def _squares_at_least(x: Fraction, s: int, y: Fraction, t: int) -> bool:
    """x^2 s >= y^2 t for rationals x = a / c and y = b / e, on integers:
    a^2 s e^2 >= b^2 t c^2."""
    return (x.numerator ** 2 * s * y.denominator ** 2
            >= y.numerator ** 2 * t * x.denominator ** 2)


def _m_from_bound(n: int, kappa: int, p: Interval) -> int:
    """choose_m(n, kappa) from the enclosure p of P(n).

    n exp(-g(n)) = 4 kappa n sqrt(n) / P(n); its square 16 kappa^2 n^3 / P^2
    lies in [num / p.hi^2, num / p.lo^2], so m is the floor of the lower
    end's root when the upper end stays below (m + 1)^2.  An end a / c of p
    gives the end num c^2 / a^2 of the square, in integers.
    """
    num = 16 * kappa ** 2 * n ** 3
    m = math.isqrt(num * p.hi.denominator ** 2 // p.hi.numerator ** 2)
    if num * p.lo.denominator ** 2 < (m + 1) ** 2 * p.lo.numerator ** 2:
        return m
    return choose_m(n, kappa)


def _induction_from_bounds(n: int, m: int, kappa: int,
                           pn: Interval, pm: Interval) -> bool:
    """`_induction_inequality_holds(n, m, kappa)` from enclosures of P(n)
    and P(m): the inequality is P(n)^2 m >= 4 kappa^2 n P(m)^2."""
    rhs = 4 * kappa ** 2 * n
    if _squares_at_least(pn.lo, m, pm.hi, rhs):
        return True
    if not _squares_at_least(pn.hi, m, pm.lo, rhs):
        return False
    return _induction_inequality_holds(n, m, kappa)


def scan_induction(kappa: int = 4, n_hi: int = 10 ** 6, count: int = 1000
                   ) -> List[Dict]:
    """Per-size audit of the bound schedule over a log-spaced grid.

    Each grid point must be covered: either the trivial 2n already sits under
    the predicted bound (so the base case suffices there), or the schedule
    produces a usable m >= 4 and the growth-function induction inequality is
    certified.  Returns one record per point.

    Every decision comes from the 96-bit enclosure of the predicted bound
    P(n) = 4 kappa sqrt(n) e^g(n), g(n) = sqrt(2 ln n ln 2 kappa), by exact
    rational arithmetic:

    - base_covers is 2n <= P(n).lo, as recorded in predicted_lo;
    - m = floor(n e^-g(n)) and n e^-g(n) = 4 kappa n sqrt(n) / P(n), so m
      is read off the squares 16 kappa^2 n^3 / P(n)^2 at P's two ends;
    - the induction inequality 4 kappa e^g(m) <= 2 e^g(n) is, with
      e^g(x) = P(x) / (4 kappa sqrt(x)), P(n) sqrt(m) >= 2 kappa sqrt(n)
      P(m), compared squared at the ends of P(n) and P(m).

    Where the ends do not agree, `choose_m` or `_induction_inequality_holds`
    decides with its own ladder.  The enclosures of P live for one call,
    and P(m) shares them with the grid points.
    """
    lo = 4 * kappa ** 2 + 1
    if n_hi <= lo or count < 2:
        raise ValueError(f"scan needs n_hi > {lo} and count >= 2")
    points = [
        min(n_hi, max(lo, round(math.exp(
            math.log(lo) + (math.log(n_hi) - math.log(lo)) * i / (count - 1)))))
        for i in range(count)]
    bounds: Dict[int, Interval] = {}

    def bound(n: int) -> Interval:
        if n not in bounds:
            bounds[n] = predicted_bound_interval(n, kappa)
        return bounds[n]

    records: Dict[int, Dict] = {}
    out = []
    for n in points:
        if n not in records:
            predicted = bound(n)
            base_ok = 2 * n <= predicted.lo
            m = _m_from_bound(n, kappa, predicted)
            induction_ok = m >= 4 and _induction_from_bounds(
                n, m, kappa, predicted, bound(m))
            records[n] = {
                "n": n,
                "m": m,
                "predicted_lo": predicted.lo,
                "base_covers": base_ok,
                "induction_covers": induction_ok,
                "covered": base_ok or induction_ok,
            }
        out.append(records[n])
    return out
