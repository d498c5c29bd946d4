"""Numeric oracle: eigenfunction overlaps by regularized oscillatory integrals.

The generalized eigenstate of the quadrature labelled by direction (q, p)
with eigenvalue alpha has the position wavefunction

    (2*pi*hbar*|q|)^(-1/2) * exp(i p (x - alpha/p)^2 / (2 hbar q)),

a pure chirp with flat magnitude (q here is the direction component, x the
position variable). Overlaps of two such delta-normalized states are not
absolutely convergent integrals; the oracle damps the integrand with a
Gaussian window exp(-eps (x - x_c)^2) centered at the stationary point x_c
of the phase difference, integrates by high-order panel quadrature, and
extrapolates eps -> 0 polynomially. The limit is the squared overlap
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

from .errors import ContextMismatch, InvalidDirection, InvalidProblem, ParallelDirections
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

    def __post_init__(self) -> None:
        q, p = self.direction.as_floats()
        if q == 0.0 and p == 0.0:
            raise InvalidDirection("direction (0, 0) labels no state")
        if self.hbar <= 0:
            raise InvalidDirection(f"hbar must be positive, got {self.hbar}")

    @property
    def branch(self) -> str:
        q, p = self.direction.as_floats()
        if q == 0.0:
            return DELTA
        if p == 0.0:
            return PLANE
        return CHIRP

    @property
    def amplitude(self) -> float:
        """Flat magnitude (2 pi hbar |q|)^(-1/2) of the chirp/plane branches."""
        q, _ = self.direction.as_floats()
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no flat magnitude")
        return (2.0 * math.pi * self.hbar * abs(q)) ** -0.5

    @property
    def quad_rate(self) -> float:
        """Coefficient u of x^2 in the phase."""
        q, p = self.direction.as_floats()
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no chirp rate")
        return p / (2.0 * self.hbar * q)

    @property
    def linear_rate(self) -> float:
        """Coefficient w of x in the phase."""
        q, _ = self.direction.as_floats()
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no chirp rate")
        return -self.alpha / (self.hbar * q)

    @property
    def phase_offset(self) -> float:
        """Constant phase term; zero on the plane-wave branch by convention."""
        q, p = self.direction.as_floats()
        if q == 0.0:
            raise InvalidDirection("position-eigenstate branch has no phase offset")
        if p == 0.0:
            return 0.0
        return self.alpha**2 / (2.0 * self.hbar * q * p)

    @property
    def delta_position(self) -> float:
        """Support point of the position-eigenstate branch."""
        q, p = self.direction.as_floats()
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
class GridSpec:
    """Panel quadrature controls for one damped oscillatory integral."""

    nodes_per_panel: int = 16
    panel_phase: float = 2.0 * math.pi
    truncation: float = 8.0
    local_rel_tol: float = 1e-11
    max_panels: int = 400000


@dataclass(frozen=True)
class QuadratureResult:
    """Extrapolated squared overlap with its convergence diagnostics.

    ``stats`` reports the work done: ``levels`` (eps levels evaluated),
    ``panels`` (panels over both rules of every level),
    ``complex_exponentials`` (complex exp evaluations), ``capped_levels``
    (levels whose panel count hit ``GridSpec.max_panels``) and ``wall_s``.
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
    qa, pa = a.direction.as_floats()
    qb, pb = b.direction.as_floats()
    return pa * qb - qa * pb


_GL_NODES_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_NODES_CACHE:
        _GL_NODES_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_NODES_CACHE[order]


# Panels per block in _panel_integral: bounds the (block x nodes) node matrix.
_PANEL_BLOCK = 65536
# The default ladder starts at default_epsilons' 9 levels and deepens to this.
_MAX_LEVELS = 13
# Degree of the sliding polynomial windows that extrapolate eps -> 0.
_ORDER = 3


def _panel_count(du: float, eps: float, grid: GridSpec, panels_scale: int) -> tuple[int, bool]:
    """Panels for one rule (panels_scale 1 coarse, 2 fine) and whether the
    grid's max_panels clamped it."""
    total_phase = abs(du) * grid.truncation**2 / eps
    wanted = max(4, math.ceil(total_phase / grid.panel_phase)) * panels_scale
    return min(wanted, grid.max_panels), wanted > grid.max_panels


def _panel_integral(du: float, eps: float, grid: GridSpec, count: int, work: Counter) -> complex:
    """integral of exp((i du - eps) t^2) dt over |t| <= truncation/sqrt(eps).

    Even integrand, so it is 2 * integral_0^L, and with s = t^2 that is
    integral_0^(L^2) exp(a s) s^(-1/2) ds, a = i du - eps. The equal-phase
    breakpoints t_k = L sqrt(k / count) are uniform in s, s_k = k h. On
    panel k >= 1 exp(a s) = exp(a s_k) exp(a delta_j) with the same node
    offsets delta_j on every panel, so each panel costs one complex
    exponential; the rest is a real 1/sqrt per node and two real mat-vecs.
    Panel 0 holds the s^(-1/2) endpoint singularity and is integrated in t.
    """
    a = complex(-eps, du)
    length = grid.truncation / math.sqrt(eps)
    nodes, weights = _gl_rule(grid.nodes_per_panel)
    half_t = 0.5 * length / math.sqrt(count)
    t = half_t * (1.0 + nodes)
    total = 2.0 * half_t * complex(np.dot(weights, np.exp(a * t * t)))
    half_s = 0.5 * length * length / count
    offsets = half_s * (1.0 + nodes)
    node_factor = half_s * weights * np.exp(a * offsets)
    for start in range(1, count, _PANEL_BLOCK):
        starts = 2.0 * half_s * np.arange(start, min(start + _PANEL_BLOCK, count), dtype=float)
        inv_root = np.add.outer(starts, offsets)
        np.sqrt(inv_root, out=inv_root)
        np.reciprocal(inv_root, out=inv_root)
        per_panel = inv_root @ node_factor.real + 1j * (inv_root @ node_factor.imag)
        total += complex(np.dot(np.exp(a * starts), per_panel))
    work["panels"] += count
    work["complex_exponentials"] += 2 * grid.nodes_per_panel + count - 1
    return total


def _damped_square(
    du: float, prefactor: float, eps: float, grid: GridSpec, work: Counter
) -> tuple[float, float]:
    """|I(eps)|^2 for I = prefactor * integral, with a refinement error estimate.

    A level whose fine rule is clamped by max_panels is no refinement of the
    coarse one, so its error is unknown: inf, and the coarse rule is skipped.
    """
    fine_count, capped = _panel_count(du, eps, grid, 2)
    fine = _panel_integral(du, eps, grid, fine_count, work)
    value = abs(fine) ** 2 * prefactor * prefactor
    if capped:
        work["capped_levels"] += 1
        return value, math.inf
    coarse = _panel_integral(du, eps, grid, _panel_count(du, eps, grid, 1)[0], work)
    err = abs(fine - coarse) * 2.0 * abs(fine) * prefactor * prefactor
    return value, err


def _neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    table = list(ys)
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            table[i] = (x1 * table[i] - x0 * table[i + 1]) / (x1 - x0)
    return table[0]


def default_epsilons(du: float, levels: int = 9) -> tuple[float, ...]:
    """Geometric eps sequence scaled to the chirp-rate gap: 0.1*max(1,|du|)*2^-m."""
    scale = 0.1 * max(1.0, abs(du))
    return tuple(scale * 2.0**-m for m in range(levels))


def _extrapolate(
    eps_list: Sequence[float],
    raws: Sequence[float],
    local_errors: Sequence[float],
    grid: GridSpec,
) -> tuple[float, float, bool, tuple[float, ...]]:
    """Value, error estimate, convergence verdict and extrapolants of a ladder."""
    extrapolants: list[float] = []
    for end in range(_ORDER, len(eps_list)):
        window = slice(end - _ORDER, end + 1)
        extrapolants.append(_neville_at_zero(eps_list[window], raws[window]))
    steps = [abs(x - y) for x, y in zip(extrapolants[1:], extrapolants[:-1])]
    value = extrapolants[-1]
    floor = 8.0 * np.finfo(float).eps * abs(value) + max(local_errors)
    error_estimate = max(steps[-1] if steps else math.inf, floor)
    converged = bool(
        steps
        and steps[-1] <= max(1e-6 * abs(value), 64.0 * floor)
        and all(e <= grid.local_rel_tol * max(abs(r), abs(value)) for e, r in zip(local_errors, raws))
    )
    return value, error_estimate, converged, tuple(extrapolants)


def _work_stats(work: Counter, levels: int, started: float) -> dict:
    return {
        "levels": levels,
        "panels": work["panels"],
        "complex_exponentials": work["complex_exponentials"],
        "capped_levels": work["capped_levels"],
        "wall_s": time.perf_counter() - started,
    }


def overlap_quadrature(
    a: ChirpState,
    b: ChirpState,
    epsilons: Sequence[float] | None = None,
    grid: GridSpec | None = None,
) -> QuadratureResult:
    """Squared overlap magnitude of two states by damped quadrature.

    Runs the damped integral at every eps, extrapolates |I(eps)|^2 to
    eps -> 0 with sliding degree-3 polynomial windows, and reports the
    last extrapolant with the spread of the final window step as the error
    estimate. Without explicit `epsilons` the ladder starts at
    default_epsilons' 9 levels and, while unconverged, adds one level at a
    time up to 13; explicit `epsilons` are used as given. Position-eigenstate
    branches reduce to a pointwise evaluation of the partner wavefunction
    (no eps sequence).
    """
    started = time.perf_counter()
    work: Counter = Counter()
    hbar = _require_shared_hbar(a, b)
    grid = grid or GridSpec()
    sp = _symplectic_value(a, b)
    if sp == 0.0:
        raise ParallelDirections("parallel directions label the same basis")
    if a.branch == DELTA or b.branch == DELTA:
        delta, partner = (a, b) if a.branch == DELTA else (b, a)
        _, dp = delta.direction.as_floats()
        amplitude = abs(chirp_eval(partner, delta.delta_position))
        value = amplitude * amplitude / abs(dp)
        return QuadratureResult(
            value=value,
            error_estimate=8.0 * np.finfo(float).eps * value,
            epsilon_sequence=(),
            converged=True,
            extrapolants=(value,),
            branch="delta-reduction",
            stats=_work_stats(work, 0, started),
        )
    du = a.quad_rate - b.quad_rate
    # du = 0 with a nonzero symplectic product cannot happen for these
    # branches; guard against float underflow anyway.
    if du == 0.0:
        raise ParallelDirections("chirp rates coincide; directions are parallel")
    if epsilons is not None:
        eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
        if any(e <= 0 for e in eps_list):
            raise InvalidProblem("eps levels must be positive")
        max_levels = len(eps_list)
    else:
        eps_list = default_epsilons(du)
        max_levels = _MAX_LEVELS
    if len(eps_list) < _ORDER + 2:
        raise InvalidProblem(f"need at least {_ORDER + 2} eps levels")
    prefactor = a.amplitude * b.amplitude
    raws: list[float] = []
    local_errors: list[float] = []
    while True:
        for eps in eps_list[len(raws):]:
            raw, err = _damped_square(du, prefactor, eps, grid, work)
            raws.append(raw)
            local_errors.append(err)
        value, error_estimate, converged, extrapolants = _extrapolate(
            eps_list, raws, local_errors, grid
        )
        # a capped level's error is inf, so deeper levels cannot converge
        if converged or work["capped_levels"] or len(eps_list) >= max_levels:
            break
        eps_list = default_epsilons(du, len(eps_list) + 1)
    return QuadratureResult(
        value=value,
        error_estimate=error_estimate,
        epsilon_sequence=tuple(zip(eps_list, raws)),
        converged=converged,
        extrapolants=extrapolants,
        local_errors=tuple(local_errors),
        stats=_work_stats(work, len(eps_list), started),
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
        _, dp = delta.direction.as_floats()
        amplitude = abs(chirp_eval(partner, delta.delta_position))
        return amplitude * amplitude / abs(dp)
    du = a.quad_rate - b.quad_rate
    dw = a.linear_rate - b.linear_rate
    if du == 0.0:
        raise ParallelDirections("chirp rates coincide; directions are parallel")
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
