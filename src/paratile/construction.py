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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .intervals import Interval, enclose, refine, sqrt_upper
from .lattices import (
    EnumerationCap,
    Lattice,
    apply_matrix,
    kernel_and_image,
    lattices_equal,
    shortest_vector_sq,
)
from .linalg import (
    IntMatrix,
    complete_to_full_rank,
    inverse,
    operator_norm_upper,
    rank_over_rationals,
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
    matrix_override: Optional[Sequence[Tuple[IntMatrix, Optional[int]]]] = None

    def __post_init__(self):
        # budgets that no run can meet are refused before any work
        if self.svp_node_cap < 1:
            raise ValueError("svp_node_cap must be at least 1")
        if any(s is not None and s < 1
               for _, s in self.matrix_override or ()):
            raise ValueError("override s must be at least 1")


_PROBE_S_CAP = 3  # direct independence certification cap


@dataclass(frozen=True)
class LevelTrace:
    n: int
    mode: str                       # "cube" | "voronoi" | "step"
    m: Optional[int] = None
    d: Optional[int] = None
    s: Optional[int] = None
    matrix: Optional[IntMatrix] = None
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
    trivial_bound: int                     # 2n
    predicted: Tuple[Fraction, Fraction]   # schedule bound enclosure
    within_predicted: Optional[bool]
    body: Optional[HPolytope] = None       # tiles Z^n; None in bound-only mode
    downgrade_reason: Optional[str] = None  # set when geometry hit the cap


# --- the parameter schedule -----------------------------------------------------


def _growth_exponent(iv, n: int, kappa: int):
    """sqrt(2 ln n ln 2 kappa), inside an `enclose` formula."""
    return iv.sqrt(2 * iv.log(n) * iv.log(2 * kappa))


def predicted_bound_interval(n: int, kappa: int, prec: int = 96) -> Interval:
    """Enclosure of 4 kappa sqrt(n) exp(sqrt(2 ln n ln 2 kappa))."""
    if n < 1 or kappa < 1:
        raise ValueError("need n >= 1, kappa >= 1")
    return enclose(prec, lambda iv: 4 * kappa * iv.sqrt(n)
                   * iv.exp(_growth_exponent(iv, n, kappa)))


def choose_m(n: int, kappa: int) -> int:
    """floor(n * exp(-sqrt(2 ln n ln 2 kappa))), certified by refinement."""
    if n <= 4 * kappa ** 2:
        raise RegimeError(f"n = {n} is inside the base regime for kappa = {kappa}")
    value = refine(
        lambda prec: enclose(
            prec, lambda iv: n * iv.exp(-_growth_exponent(iv, n, kappa))),
        lambda iv: math.floor(iv.lo) == math.floor(iv.hi),
        what=f"choose_m({n}, {kappa})")
    return math.floor(value.lo)


def schedule_parameters(n: int, config: RecursionConfig) -> Tuple[int, int]:
    """(m, d) from the schedule, or RegimeError when hypotheses fail."""
    d = choose_d(config.epsilon)
    m = choose_m(n, config.kappa)
    if m < 4:
        raise RegimeError(f"schedule yields m = {m} < 4 at n = {n}")
    if not (3 <= d <= m <= n):
        raise RegimeError(f"ordering 3 <= d <= m <= n fails: d={d} m={m} n={n}")
    nd = n * d
    m_ln_m = refine(lambda prec: enclose(prec, lambda iv: m * iv.log(m)),
                    lambda iv: iv.hi <= nd or iv.lo > nd,
                    what=f"n d >= m ln m at n={n}")
    if m_ln_m.hi > nd:
        raise RegimeError(f"aspect requirement n >= m ln(m)/d fails at n = {n}")
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

def isoperimetric_ratio_lower(n: int, prec: int = 96) -> Interval:
    """Enclosure of n omega_n^(1/n), a lower bound on the ratio of any tile
    of Z^n.

    Surface >= n omega_n^(1/n) vol^((n-1)/n) for every convex body, and a
    body tiling Z^n has volume 1.  The unit-ball volume omega_n follows the
    recurrence omega_k = omega_(k-2) 2 pi / k from omega_0 = 1, omega_1 = 2.
    """
    if n < 1:
        raise ValueError("dimension must be positive")

    def formula(iv):
        omega = iv.mpf(1 + n % 2)
        for k in range(2 + n % 2, n + 1, 2):
            omega = omega * 2 * iv.pi / k
        return n * iv.exp(iv.log(omega) / n)

    return enclose(prec, formula)


# --- level builders ---------------------------------------------------------------

def base_level(lat: Lattice, config: RecursionConfig
               ) -> Tuple[HPolytope, LevelTrace]:
    r = lat.rank
    if not lat.is_integer():
        raise ConstructionError("base case needs an integer lattice")
    if lat.ambient_dim == r and lattices_equal(lat, Lattice.standard(r)):
        body = HPolytope.cube(r)  # the tile of Z^n
        trace = LevelTrace(n=r, mode="cube", ratio=body.ratio(),
                           checks=(("ratio_le_2n", True),))
        return body, trace
    if r > config.dim_cap:
        raise DimCapExceeded(
            f"rank {r} Voronoi cell exceeds dim cap {config.dim_cap}")
    body = voronoi_cell(lat, node_cap=config.svp_node_cap)
    checks = []
    # nonzero integer vectors have squared length >= 1, so the cell holds
    # a radius-1/2 ball; that is the whole content of the 2n base bound
    ok_inradius = body.inradius_certify(Fraction(1, 4))
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


def inductive_level(lat: Lattice, a_matrix: IntMatrix, s: int,
                    config: RecursionConfig, depth: int
                    ) -> Tuple[HPolytope, List[LevelTrace]]:
    """One recursion step on a_matrix, whose columns the caller has
    certified s-wise independent over GF(2)."""
    n = lat.rank
    if lat.ambient_dim != n:
        raise ConstructionError("step expects a full-rank lattice")
    if not lat.is_integer():
        raise ConstructionError("step expects an integer lattice")
    if a_matrix.ncols != n:
        raise ValueError(f"shape mismatch {a_matrix.ncols} vs {n}")
    checks: List[Tuple[str, bool]] = []

    # full-rank repair; keeps kernels (hence independence levels) intact
    base_cert = operator_norm_upper(a_matrix, refine_steps=3)
    completion = complete_to_full_rank(a_matrix, base_cert)
    b = completion.matrix
    m = b.nrows
    checks.append(("full_rank", rank_over_rationals(b) == m))

    checks.append(("s_independence", True))  # certified by the caller

    if m < n and n - m > config.dim_cap:
        raise DimCapExceeded(
            f"kernel rank {n - m} exceeds dim cap {config.dim_cap}")
    kernel, inner_lat = kernel_and_image(lat, b)
    bq = b.to_q()
    t = bq.t() @ inverse(bq @ bq.t())  # right inverse; the section into row span
    # 2 (n-m) / sqrt(s), the kernel cell's share of the recursion bound
    kernel_bound = (SqrtSum.from_rational(Fraction(2 * (n - m), s))
                    * SqrtSum.sqrt(s) if m < n else SqrtSum.zero())
    if m < n:
        checks.append(("kernel_rank", kernel.rank == n - m))
        try:
            sv = shortest_vector_sq(kernel, node_cap=config.svp_node_cap)
            checks.append(("kernel_shortest_exceeds_s", sv > s))
        except EnumerationCap:
            # support > s forces squared length >= s + 1 for integer vectors
            sv = None
            checks.append(("kernel_shortest_exceeds_s", True))
        k1 = voronoi_cell(kernel, node_cap=config.svp_node_cap)
        checks.append(("kernel_inradius", k1.inradius_certify(Fraction(s, 4))))
        ratio1 = k1.ratio()
        checks.append(("kernel_ratio_bound", ratio1 <= kernel_bound))
    else:
        sv = k1 = None
        ratio1 = SqrtSum.zero()

    # T carries the image lattice B L onto the projection of L to the row
    # span; B proj(L) = B L because ker B is the orthogonal complement of
    # the row span, verified, not assumed
    proj = apply_matrix(t, inner_lat)
    checks.append(("projection_image_agree",
                   lattices_equal(apply_matrix(b, proj), inner_lat)))
    checks.append(("inner_integer", inner_lat.is_integer()))
    checks.append(("inner_full_rank", inner_lat.rank == m))

    inner_body, inner_traces = _construct_lattice(inner_lat, config, depth + 1)
    ratio_inner = inner_body.ratio()

    k2 = linear_image(t, inner_body)
    ratio2 = k2.ratio()
    norm_term = SqrtSum.sqrt(completion.certificate.usq)
    checks.append(("image_ratio_bound", ratio2 <= ratio_inner * norm_term))

    if k1 is not None:
        body = orthogonal_product(k1, k2)
    else:
        body = k2
    ratio_total = body.ratio()
    checks.append(("ratio_additivity", ratio_total == ratio1 + ratio2))
    checks.append(("volume_equals_covolume",
                   body.volume() == lat.covolume()))
    chain = kernel_bound + ratio_inner * norm_term
    checks.append(("recursion_inequality", ratio_total <= chain))

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise ConstructionError(f"step certification failed: {failed}")

    trace = LevelTrace(
        n=n, mode="step", m=m, d=None, s=s, matrix=b,
        norm_usq=completion.certificate.usq,
        kernel_shortest_sq=sv,
        ratio_kernel=ratio1 if m < n else None,
        ratio_image=ratio2,
        ratio=ratio_total,
        checks=tuple(checks))
    return body, [trace] + inner_traces


def _construct_lattice(lat: Lattice, config: RecursionConfig, depth: int
                       ) -> Tuple[HPolytope, List[LevelTrace]]:
    overrides = config.matrix_override or ()
    if depth < len(overrides):
        a_matrix, s_opt = overrides[depth]
        masks = matrix_to_masks(a_matrix)
        if s_opt is None:
            s_opt = largest_verified_s(masks, _PROBE_S_CAP)
        else:
            ok, witness = verify_s_independence(masks, s_opt)
            if not ok:
                raise ConstructionError(
                    f"columns admit a dependency of size <= {s_opt}: "
                    f"{witness}")
        if s_opt < 1:
            raise ConstructionError("override matrix has no usable level")
        return inductive_level(lat, a_matrix, s_opt, config, depth)
    body, trace = base_level(lat, config)
    return body, [trace]


def construct(n: int, config: Optional[RecursionConfig] = None
              ) -> ConstructionReport:
    """Build a tiling body for the standard lattice Z^n with certificates."""
    if n < 1:
        raise ValueError("dimension must be positive")
    config = config or RecursionConfig()
    # the report records kappa and epsilon: refuse bad ones before building
    predicted = predicted_bound_interval(n, config.kappa)
    choose_d(config.epsilon)
    try:
        body, traces = _construct_lattice(Lattice.standard(n), config, 0)
    except DimCapExceeded as exc:
        # too big to materialize; keep the arithmetic chain, say so loudly
        rep = construct_bound_only(n, config)
        return replace(rep, downgrade_reason=str(exc))
    ratio = body.ratio()
    ratio_hi = ratio.interval_with_width(Fraction(1, 10 ** 12)).hi
    within: Optional[bool]
    if ratio_hi <= predicted.lo:
        within = True
    elif ratio.interval(96).lo > predicted.hi:
        within = False
    else:
        within = None
    return ConstructionReport(
        n=n, kappa=config.kappa, epsilon=config.epsilon, seed=config.seed,
        bound_only=False, levels=tuple(traces),
        ratio_upper=ratio_hi, ratio_exact=ratio,
        trivial_bound=2 * n,
        predicted=(predicted.lo, predicted.hi),
        within_predicted=within,
        body=body)


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


def construct_bound_only(n: int, config: Optional[RecursionConfig] = None
                         ) -> ConstructionReport:
    config = config or RecursionConfig()
    predicted = predicted_bound_interval(n, config.kappa)  # checks n, kappa
    value, traces = bound_value(n, config)
    return ConstructionReport(
        n=n, kappa=config.kappa, epsilon=config.epsilon, seed=config.seed,
        bound_only=True, levels=tuple(traces),
        ratio_upper=value, ratio_exact=None,
        trivial_bound=2 * n,
        predicted=(predicted.lo, predicted.hi),
        within_predicted=value <= predicted.lo)


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


def scan_induction(kappa: int = 4, n_hi: int = 10 ** 6, count: int = 1000
                   ) -> List[Dict]:
    """Per-size audit of the bound schedule over a log-spaced grid.

    Each grid point must be covered: either the trivial 2n already sits under
    the predicted bound (so the base case suffices there), or the schedule
    produces a usable m >= 4 and the growth-function induction inequality is
    certified.  Returns one record per point.
    """
    lo = 4 * kappa ** 2 + 1
    if n_hi <= lo:
        raise ValueError("scan range is empty")
    points = [
        min(n_hi, max(lo, round(math.exp(
            math.log(lo) + (math.log(n_hi) - math.log(lo)) * i / (count - 1)))))
        for i in range(count)]
    cache: Dict[int, Dict] = {}
    out = []
    for n in points:
        if n not in cache:
            predicted = predicted_bound_interval(n, kappa)
            base_ok = Fraction(2 * n) <= predicted.lo
            induction_ok = False
            m = None
            try:
                m = choose_m(n, kappa)
                if m >= 4:
                    induction_ok = _induction_inequality_holds(n, m, kappa)
            except RegimeError:
                pass
            cache[n] = {
                "n": n,
                "m": m,
                "predicted_lo": predicted.lo,
                "base_covers": base_ok,
                "induction_covers": induction_ok,
                "covered": base_ok or induction_ok,
            }
        out.append(cache[n])
    return out
