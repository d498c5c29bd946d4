"""Numeric oracle: eigenfunction overlaps by regularized oscillatory integrals.

The generalized eigenstate of the quadrature labelled by direction (q, p)
with eigenvalue alpha has the position wavefunction

    (2*pi*hbar*|q|)^(-1/2) * exp(i p (x - alpha/p)^2 / (2 hbar q)),

a pure chirp with flat magnitude (q here is the direction component, x the
position variable). Overlaps of two such delta-normalized states are not
absolutely convergent integrals; the oracle damps the integrand with a
Gaussian window exp(-eps (x - x_c)^2) centered at the stationary point x_c
of the phase difference, integrates by high-order panel quadrature, and
extrapolates eps^2 -> 0 polynomially. The limit is the squared overlap
density 1/(2*pi*hbar*|a^t j b|), which this module computes without ever
consulting the symplectic product (that identity is what the tests check).

docs/regularization.md derives the limit and the window choice.
"""

from __future__ import annotations

import cmath
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ContextMismatch,
    InvalidDirection,
    InvalidProblem,
    LimitExceeded,
    ParallelDirections,
)
from .symplectic import DirectionVector

CHIRP = "chirp"
PLANE = "plane"
DELTA = "delta"


@dataclass(frozen=True)
class ChirpState:
    """Generalized eigenstate: direction, eigenvalue, and hbar."""

    direction: DirectionVector
    alpha: float = 0.0
    hbar: float = 1.0
    # the direction's floats, derived once, outside ==/hash/repr
    _q: float = field(init=False, compare=False, repr=False)
    _p: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        q, p = self.direction.as_floats()
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_p", p)
        if q == 0.0 and p == 0.0:
            raise InvalidDirection("direction (0, 0) labels no state")
        if self.hbar <= 0:
            raise InvalidDirection(f"hbar must be positive, got {self.hbar}")

    @property
    def branch(self) -> str:
        q, p = self._q, self._p
        if q == 0.0:
            return DELTA
        if p == 0.0:
            return PLANE
        return CHIRP

    @property
    def amplitude(self) -> float:
        """Flat magnitude (2 pi hbar |q|)^(-1/2) of the chirp/plane branches."""
        q = self._q
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no flat magnitude")
        return (2.0 * math.pi * self.hbar * abs(q)) ** -0.5

    @property
    def quad_rate(self) -> float:
        """Coefficient u of x^2 in the phase."""
        q, p = self._q, self._p
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no chirp rate")
        return p / (2.0 * self.hbar * q)

    @property
    def linear_rate(self) -> float:
        """Coefficient w of x in the phase."""
        q = self._q
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no chirp rate")
        return -self.alpha / (self.hbar * q)

    @property
    def phase_offset(self) -> float:
        """Constant phase term; zero on the plane-wave branch by convention."""
        q, p = self._q, self._p
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no phase offset")
        if p == 0.0:
            return 0.0
        return self.alpha**2 / (2.0 * self.hbar * q * p)

    @property
    def delta_position(self) -> float:
        """Support point of the position-eigenstate branch."""
        q, p = self._q, self._p
        if q != 0.0:
            raise InvalidDirection("not a position-eigenstate branch")
        return self.alpha / p


def chirp_eval(state: ChirpState, x: float) -> complex:
    """Wavefunction value at position x (chirp and plane-wave branches)."""
    if state.branch == DELTA:
        raise InvalidDirection(
            "position-eigenstate branch has no pointwise values; "
            "only overlaps against it are defined"
        )
    phase = state.quad_rate * x * x + state.linear_rate * x + state.phase_offset
    return state.amplitude * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class QuadratureResult:
    """Extrapolated squared overlap with its convergence diagnostics.

    ``stats`` reports the work done: ``levels`` (eps levels evaluated),
    ``stop`` (``converged``; ``capped``, a level hit ``_MAX_PANELS``; or
    ``ladder-end``, the levels ran out first), ``panels`` (panels of the
    rules behind the value, both rules of every uncapped level, whether integrated
    by this call or read from the shared default ladder: 4,779 for every
    default pair), ``reused_levels`` (levels read from the default ladder
    an earlier call built: 5 for every default pair but the first),
    ``complex_exponentials`` (complex exp evaluations this call made: per
    rule integrated, 16 for panel 0, 16 for the node factors and one per
    further panel, count + 31; 0 when every level was reused),
    ``capped_levels`` (levels whose panel count hit
    ``_MAX_PANELS``: not integrated, raw nan and local error inf, and the
    value nan and the error estimate inf) and ``wall_s``.
    """

    value: float
    error_estimate: float
    epsilon_sequence: tuple[tuple[float, float], ...]
    converged: bool
    extrapolants: tuple[float, ...] = ()
    branch: str = "quadrature"
    local_errors: tuple[float, ...] = ()
    stats: dict = field(default_factory=dict, compare=False)


def _require_shared_hbar(a: ChirpState, b: ChirpState) -> float:
    if a.hbar != b.hbar:
        raise ContextMismatch(f"hbar mismatch: {a.hbar} vs {b.hbar}")
    return a.hbar


def _symplectic_value(a: ChirpState, b: ChirpState) -> float:
    return a._p * b._q - a._q * b._p


# One 16-node Gauss-Legendre rule on every panel.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# Phase of the chirp-rate gap across one equal-phase panel.
_PANEL_PHASE = 2.0 * math.pi
# A level's fine and coarse rules must agree to this, relative to |I(eps)|^2.
_LOCAL_REL_TOL = 1e-11
# Panels of one rule at most; a level whose fine rule wants more is capped.
_MAX_PANELS = 400000
# Window decay at the truncation, relative to _LOCAL_REL_TOL.
_TAIL_MARGIN = 1e-3
# Window cut-off T: the integral stops at |t| = T/sqrt(eps), where the window
# exp(-eps t^2) has decayed to _TAIL_MARGIN * _LOCAL_REL_TOL. The tail then
# moves |I|^2 by less than that, relatively (docs/regularization.md derives
# the bound).
_TRUNCATION = math.sqrt(-math.log(_TAIL_MARGIN * _LOCAL_REL_TOL))
# Panels per block of _damped_integral, so a rule's arrays stay bounded up
# to _MAX_PANELS.
_BLOCK = 4096
# 2^27 + 1: x * _SPLITTER - (x * _SPLITTER - x) keeps the high 26 bits of x
# (Veltkamp's split).
_SPLITTER = 134217729.0
# Degree of the sliding polynomial windows that extrapolate eps^2 -> 0.
_ORDER = 3
# Relative error floor of a value from a few float roundings.
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps
# Smallest normal float.
_NORMAL_MIN = np.finfo(float).tiny
_GAP_UNDERFLOWS = "the chirp-rate gap underflows the normal float range"


def _panel_count(du: float, eps: float, panels_scale: int) -> tuple[int, bool]:
    """Panels for one rule (panels_scale 1 coarse, 2 fine) and whether
    _MAX_PANELS clamped it. The phase du T^2 / eps is formed from the ratio
    du / eps, so it stays finite wherever the ratio does."""
    cycles = _TRUNCATION**2 * (abs(du) / eps) / _PANEL_PHASE
    wanted = max(4, math.ceil(min(cycles, _MAX_PANELS + 1))) * panels_scale
    return min(wanted, _MAX_PANELS), wanted > _MAX_PANELS


def _damped_integral(du: float, eps: float, count: int, work: Counter) -> complex:
    """integral of exp((i du - eps) t^2) dt over |t| <= _TRUNCATION/sqrt(eps)
    on count equal-phase panels.

    Even integrand, so it is 2 * integral_0^L, and with s = t^2 that is
    integral_0^(L^2) exp(a s) s^(-1/2) ds, a = i du - eps. The equal-phase
    breakpoints t_k = L sqrt(k / count) are uniform in s, s_k = k h. Panel 0
    holds the s^(-1/2) endpoint singularity and is integrated in t. On
    panel k >= 1 the nodes are s_k + delta_j, delta_j = (h/2)(1 + x_j), so
    exp(a s) = exp(a k h) exp(a delta_j) and 1/sqrt(s) = (h/2)^(-1/2)
    (2k + 1 + x_j)^(-1/2): one complex exponential per panel times node
    factors (h/2)^(1/2) w_j exp(a delta_j) shared by every panel.

    The phase du h k is reduced mod 2 pi from an exact product: du h = hi +
    lo with hi of 26 bits, so hi k is exact for k < 2^27 and fmod is exact.
    Rounding du h k itself would err by up to an ulp of a phase of
    2 pi count, in a pattern that repeats with k and so adds up over the
    panels instead of averaging out (docs/regularization.md).
    """
    a = complex(-eps, du)
    length = _TRUNCATION / math.sqrt(eps)
    half_t = 0.5 * length / math.sqrt(count)
    half_s = 0.5 * length * length / count
    t = half_t * (1.0 + _NODES)
    panel_0 = 2.0 * half_t * np.dot(np.exp(a * t * t), _WEIGHTS)
    node_factors = math.sqrt(half_s) * _WEIGHTS * np.exp(a * half_s * (1.0 + _NODES))
    h = 2.0 * half_s
    rate = du * h
    hi = rate * _SPLITTER - (rate * _SPLITTER - rate)
    total = 0j
    for start in range(1, count, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, count), dtype=float)
        phase = np.fmod(hi * k, 2.0 * math.pi) + (rate - hi) * k
        exps = np.exp(-eps * h * k + 1j * phase)
        roots = 1.0 / np.sqrt(np.add.outer(2.0 * k + 1.0, _NODES))
        total += (exps * (roots @ node_factors)).sum()
    work["complex_exponentials"] += count - 1 + 2 * len(_NODES)
    work["panels"] += count
    return complex(panel_0 + total)


def _neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    table = list(ys)
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            table[i] = (x1 * table[i] - x0 * table[i + 1]) / (x1 - x0)
    return table[0]


def default_epsilons(du: float, levels: int = _ORDER + 2) -> tuple[float, ...]:
    """Geometric eps ladder proportional to the chirp-rate gap,
    0.1*|du|*2^-m for m < levels.

    The damped integral at (du, eps) equals the one at (1, eps/|du|) under
    t -> t/sqrt(|du|), so every pair sees the same ladder in eps/|du| and
    the same panel counts (docs/regularization.md).
    """
    if du == 0.0 or not math.isfinite(du):
        raise InvalidProblem(f"chirp-rate gap must be finite and nonzero, got {du!r}")
    scale = 0.1 * abs(du)
    return tuple(scale * 2.0**-m for m in range(levels))


def _extrapolate(
    eps_list: Sequence[float], raws: Sequence[float], local_errors: Sequence[float]
) -> tuple[float, float, bool, tuple[float, ...]]:
    """Value, error estimate, convergence verdict and extrapolants of a ladder.

    The centered |I(eps)|^2 depends on eps only through eps^2 + du^2, so
    the windows run in x = eps^2 (Romberg's h^2). Each eps is first scaled
    by the power of two 2^-e that puts eps_list[0] in [1/2, 1): exact, and
    it keeps the squares inside the float range at any du.
    """
    shift = -math.frexp(eps_list[0])[1]
    xs = [math.ldexp(eps, shift) ** 2 for eps in eps_list]
    extrapolants: list[float] = []
    for end in range(_ORDER, len(eps_list)):
        window = slice(end - _ORDER, end + 1)
        extrapolants.append(_neville_at_zero(xs[window], raws[window]))
    steps = [abs(x - y) for x, y in zip(extrapolants[1:], extrapolants[:-1])]
    value = extrapolants[-1]
    floor = _ROUNDING_FLOOR * abs(value) + max(local_errors)
    error_estimate = max(steps[-1] if steps else math.inf, floor)
    converged = bool(
        steps
        and steps[-1] <= max(1e-6 * abs(value), 64.0 * floor)
        and all(e <= _LOCAL_REL_TOL * max(abs(r), abs(value)) for e, r in zip(local_errors, raws))
    )
    return value, error_estimate, converged, tuple(extrapolants)


def _work_stats(work: Counter, levels: int, stop: str, started: float) -> dict:
    return {
        "levels": levels,
        "stop": stop,
        "panels": work["panels"],
        "reused_levels": work["reused_levels"],
        "complex_exponentials": work["complex_exponentials"],
        "capped_levels": work["capped_levels"],
        "wall_s": time.perf_counter() - started,
    }


def _unit_ladder(units: Sequence[float]) -> QuadratureResult:
    """The ladder eps / |du| = units at du = 1, two rules per level: the
    fine rule, and the coarse one with half its panels. A level
    whose fine rule _MAX_PANELS would clamp is no refinement of a coarse
    one, and a ladder holding one cannot converge, so such a level is not
    integrated: its raw is nan and its local error inf, and the ladder's
    value is nan and its error estimate inf."""
    started = time.perf_counter()
    work: Counter = Counter()
    raws: list[float] = []
    local_errors: list[float] = []
    for unit in units:
        count, capped = _panel_count(1.0, unit, 2)
        if capped:
            work["capped_levels"] += 1
            raws.append(math.nan)
            local_errors.append(math.inf)
        else:
            fine = _damped_integral(1.0, unit, count, work)
            coarse = _damped_integral(1.0, unit, count // 2, work)
            raws.append(abs(fine) ** 2)
            local_errors.append(abs(fine - coarse) * 2.0 * abs(fine))
    if work["capped_levels"]:
        value, error_estimate, converged, extrapolants = math.nan, math.inf, False, ()
    else:
        value, error_estimate, converged, extrapolants = _extrapolate(units, raws, local_errors)
    stop = "converged" if converged else "capped" if work["capped_levels"] else "ladder-end"
    return QuadratureResult(
        value=value,
        error_estimate=error_estimate,
        epsilon_sequence=tuple(zip(units, raws)),
        converged=converged,
        extrapolants=extrapolants,
        local_errors=tuple(local_errors),
        stats=_work_stats(work, len(units), stop, started),
    )


# The default ladder in the unit frame, eps / |du| = 0.1 * 2^-m for m < 5:
# built by the first default call, then rescaled by every pair.
_DEFAULT_LADDER: QuadratureResult | None = None


def overlap_quadrature(
    a: ChirpState,
    b: ChirpState,
    epsilons: Sequence[float] | None = None,
) -> QuadratureResult:
    """Squared overlap magnitude of two states by damped quadrature.

    Runs the damped integral at every eps, extrapolates |I(eps)|^2 to
    eps -> 0 with sliding degree-3 polynomial windows in eps^2, and reports
    the last extrapolant with the spread of the final window step as the
    error estimate. Without explicit `epsilons` the ladder is
    default_epsilons' 5 levels, eps proportional to |du|; explicit
    `epsilons` are used as given, in one pass. Position-eigenstate
    branches reduce to a pointwise evaluation of the partner wavefunction
    (no eps sequence).

    The ladder runs in the unit frame: under t -> t / sqrt(|du|),
    |I(du, eps)| = |du|^(-1/2) |I(1, eps / |du|)|, so the pair's numbers
    are the unit ladder's times prefactor^2 / |du| and its verdict is the
    unit one (Neville at zero does not change when the eps are rescaled,
    and every convergence test is a ratio). The first default call
    integrates the default ladder and every later one only rescales it; an
    explicit ladder is integrated per call and not kept.
    `epsilon_sequence` reports the caller's eps.

    Raises LimitExceeded where du, eps / |du|, the unit window's s-range
    T^2 |du| / eps or a |I(eps)|^2 leaves the normal float range.
    """
    global _DEFAULT_LADDER
    started = time.perf_counter()
    _require_shared_hbar(a, b)
    sp = _symplectic_value(a, b)
    if sp == 0.0:
        raise ParallelDirections("parallel directions label the same basis")
    if a.branch == DELTA or b.branch == DELTA:
        delta, partner = (a, b) if a.branch == DELTA else (b, a)
        amplitude = abs(chirp_eval(partner, delta.delta_position))
        value = amplitude * amplitude / abs(delta._p)
        return QuadratureResult(
            value=value,
            error_estimate=_ROUNDING_FLOOR * value,
            epsilon_sequence=(),
            converged=True,
            extrapolants=(value,),
            branch="delta-reduction",
            stats=_work_stats(Counter(), 0, "converged", started),
        )
    du = a.quad_rate - b.quad_rate
    # the symplectic product is nonzero, so a du of 0 has underflowed; a
    # subnormal du carries too few bits to scale the ladder by
    if abs(du) < _NORMAL_MIN:
        raise LimitExceeded(_GAP_UNDERFLOWS)
    if not math.isfinite(du):
        raise LimitExceeded("the chirp-rate gap is past the float range")
    reused: dict = {}
    if epsilons is None:
        eps_list = default_epsilons(du)
        if _DEFAULT_LADDER is None:
            ladder = _DEFAULT_LADDER = _unit_ladder(default_epsilons(1.0))
        else:
            ladder = _DEFAULT_LADDER
            reused = {"reused_levels": len(eps_list), "complex_exponentials": 0}
    else:
        eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
        if not all(0 < e < math.inf for e in eps_list):
            raise InvalidProblem("eps levels must be positive and finite")
        if len(set(eps_list)) < len(eps_list):
            raise InvalidProblem("eps levels must be distinct")
        if len(eps_list) < _ORDER + 2:
            raise InvalidProblem(f"need at least {_ORDER + 2} eps levels")
        units = tuple(eps / abs(du) for eps in eps_list)
        for eps, unit in zip(eps_list, units):
            if not 0.0 < unit < math.inf or _TRUNCATION**2 / unit == math.inf:
                raise LimitExceeded(f"eps / |du| = {eps!r} / {abs(du)!r} is past the float range")
        ladder = _unit_ladder(units)
    # prefactor^2 / |du|, squared last so that it stays finite wherever the
    # overlap does
    scale = (a.amplitude * b.amplitude * abs(du) ** -0.5) ** 2
    sequence = tuple((eps, scale * raw) for eps, (_, raw) in zip(eps_list, ladder.epsilon_sequence))
    value = scale * ladder.value
    # a subnormal carries fewer bits than _ROUNDING_FLOOR assumes, and an
    # overflow none: such a value would be reported as more exact than it
    # is. A capped level's raw, and so the value, is nan by design.
    capped = ladder.stats["capped_levels"]
    normal = all(_NORMAL_MIN <= raw < math.inf or capped and math.isnan(raw) for _, raw in sequence)
    if not (normal and (capped or math.isfinite(value))):
        raise LimitExceeded("|I(eps)|^2 is past the normal float range")
    return QuadratureResult(
        value=value,
        error_estimate=scale * ladder.error_estimate,
        epsilon_sequence=sequence,
        converged=ladder.converged,
        extrapolants=tuple(scale * x for x in ladder.extrapolants),
        local_errors=tuple(scale * e for e in ladder.local_errors),
        stats={**ladder.stats, **reused, "wall_s": time.perf_counter() - started},
    )


def fresnel_reference(a: ChirpState, b: ChirpState) -> float:
    """Closed-form squared overlap from the complex Gaussian integral.

    Second, independent route: evaluates prefactor^2 * |sqrt(pi / (eps - i du))
    * exp((i dw)^2 / (4 (eps - i du)))|^2 at eps = 0+ from the states' chirp
    parameters; never touches the panel quadrature or the symplectic product.
    """
    _require_shared_hbar(a, b)
    sp = _symplectic_value(a, b)
    if sp == 0.0:
        raise ParallelDirections("parallel directions label the same basis")
    if a.branch == DELTA or b.branch == DELTA:
        delta, partner = (a, b) if a.branch == DELTA else (b, a)
        amplitude = abs(chirp_eval(partner, delta.delta_position))
        return amplitude * amplitude / abs(delta._p)
    du = a.quad_rate - b.quad_rate
    dw = a.linear_rate - b.linear_rate
    # the symplectic product is nonzero, so a du of 0 has underflowed, and
    # pi / |du| overflows from just below the normal range
    if abs(du) < _NORMAL_MIN:
        raise LimitExceeded(_GAP_UNDERFLOWS)
    gauss = cmath.sqrt(math.pi / complex(0.0, -du))
    shift = cmath.exp(complex(0.0, dw) ** 2 / complex(0.0, -4.0 * du))
    value = a.amplitude * b.amplitude * abs(gauss * shift)
    return value * value


@dataclass(frozen=True)
class ScanRow:
    theta_a: float
    theta_b: float
    separation: float
    parallel: bool
    formula: float | None
    oracle: float | None
    oracle_error: float | None
    oracle_branch: str | None
    agree: bool | None

    def to_json(self) -> dict:
        return {
            "theta_a": self.theta_a,
            "theta_b": self.theta_b,
            "separation": self.separation,
            "parallel": self.parallel,
            "formula": self.formula,
            "oracle": self.oracle,
            "oracle_error": self.oracle_error,
            "oracle_branch": self.oracle_branch,
            "agree": self.agree,
        }


@dataclass(frozen=True)
class ScanResult:
    hbar: float
    tolerance: float
    rows: tuple[ScanRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows if row.agree is not None)

    def to_json(self) -> dict:
        return {
            "hbar": self.hbar,
            "tolerance": self.tolerance,
            "all_agree": self.all_agree,
            "rows": [row.to_json() for row in self.rows],
        }


def direction_for_angle(theta: float) -> DirectionVector:
    """Direction (-sin t, cos t) of the theta-rotated quadrature, snapped
    to the exact axis directions within 1e-12 of multiples of pi/2."""
    s, c = math.sin(theta), math.cos(theta)
    if abs(s) < 1e-12:
        return DirectionVector(0.0, math.copysign(1.0, c))
    if abs(c) < 1e-12:
        return DirectionVector(-math.copysign(1.0, s), 0.0)
    return DirectionVector(-s, c)


def pairwise_unbiased_scan(
    thetas: Sequence[float],
    hbar: float = 1.0,
    tolerance: float = 1e-5,
) -> ScanResult:
    """All-pairs table: formula value vs oracle value with agreement flags.

    Coincident directions (separation a multiple of pi) are reported as
    parallel rows, not failures.
    """
    states = [ChirpState(direction_for_angle(t), 0.0, hbar) for t in thetas]
    rows: list[ScanRow] = []
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            sp = _symplectic_value(states[i], states[j])
            separation = thetas[j] - thetas[i]
            # unit directions: |sp| = |sin separation|, so float-pi multiples land near 0
            if abs(sp) < 1e-12:
                rows.append(
                    ScanRow(thetas[i], thetas[j], separation, True, None, None, None, None, None)
                )
                continue
            formula = 1.0 / (2.0 * math.pi * hbar * abs(sp))
            result = overlap_quadrature(states[i], states[j])
            gap = abs(result.value - formula)
            agree = bool(
                result.converged
                and gap <= max(tolerance * formula, 4.0 * result.error_estimate)
            )
            rows.append(
                ScanRow(
                    thetas[i],
                    thetas[j],
                    separation,
                    False,
                    formula,
                    result.value,
                    result.error_estimate,
                    result.branch,
                    agree,
                )
            )
    return ScanResult(hbar, tolerance, tuple(rows))
