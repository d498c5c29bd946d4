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
import mmap
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
class QuadratureResult:
    """Extrapolated squared overlap with its convergence diagnostics.

    ``stats`` reports the work done: ``levels`` (eps levels evaluated),
    ``stop`` (why the ladder stopped: ``converged``; ``capped``, a level
    hit ``_MAX_PANELS``; or ``ladder-end``, the levels ran out
    first: the default ladder's 13 or the given epsilons),
    ``panels`` (panels over both rules of every level),
    ``complex_exponentials`` (complex exp evaluations: per rule, 16 for
    panel 0 and 16 for the node factors, the min(256, count - 1) entries
    of the stride table and one head per stride of panels),
    ``inverse_roots`` (reciprocal square roots this call computed: rows
    it added to the shared table plus rows past the table's
    ``_PANEL_BLOCK`` panels, times the 16 nodes; 0 when the table
    already covered every rule), ``capped_levels`` (levels whose panel
    count hit ``_MAX_PANELS``) and ``wall_s``.
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
# Panels per block in _damped_integrals, and rows of an _InverseRoots table:
# bounds the (block x nodes) node matrix and the table's memory.
# A multiple of _EXP_STRIDE, so no block but the last has a short stride row.
_PANEL_BLOCK = 65536
# Panels per complex exponential in _damped_integrals.
_EXP_STRIDE = 256
# The default ladder starts at default_epsilons' 9 levels and deepens to this.
_MAX_LEVELS = 13
# Degree of the sliding polynomial windows that extrapolate eps -> 0.
_ORDER = 3


def _panel_count(du: float, eps: float, panels_scale: int) -> tuple[int, bool]:
    """Panels for one rule (panels_scale 1 coarse, 2 fine) and whether
    _MAX_PANELS clamped it."""
    total_phase = abs(du) * _TRUNCATION**2 / eps
    wanted = max(4, math.ceil(total_phase / _PANEL_PHASE)) * panels_scale
    return min(wanted, _MAX_PANELS), wanted > _MAX_PANELS


def _inverse_roots(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """(2k + 1 + x_j)^(-1/2) for panels start <= k < stop and Gauss-Legendre
    nodes x_j: 1/sqrt(s_k + delta_j) without its factor (h/2)^(-1/2)."""
    out = np.add.outer(2.0 * np.arange(start, stop, dtype=float) + 1.0, _NODES, out=out)
    np.sqrt(out, out=out)
    return np.reciprocal(out, out=out)


class _InverseRoots:
    """_inverse_roots of panels 1.._PANEL_BLOCK, shared by every rule, level
    and pair. The rows are anonymous zero pages, so none is resident until a
    rule first needs it; filled in place, never grown."""

    def __init__(self) -> None:
        pages = mmap.mmap(-1, _PANEL_BLOCK * len(_NODES) * 8)
        # numpy advises huge pages for arrays this large, and one touched row
        # of a huge page makes 2 MiB resident; small pages keep it to the rows
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
        self.rows = np.frombuffer(pages, dtype=float).reshape(_PANEL_BLOCK, len(_NODES))
        self.filled = 0

    def panels(self, start: int, stop: int, work: Counter) -> np.ndarray:
        """Rows of panels start <= k < stop: kept when stop - 1 <= _PANEL_BLOCK,
        computed and not kept past it."""
        if stop - 1 > _PANEL_BLOCK:
            work["inverse_roots"] += (stop - start) * len(_NODES)
            return _inverse_roots(start, stop)
        if stop - 1 > self.filled:
            _inverse_roots(self.filled + 1, stop, out=self.rows[self.filled : stop - 1])
            work["inverse_roots"] += (stop - 1 - self.filled) * len(_NODES)
            self.filled = stop - 1
        return self.rows[start - 1 : stop - 1]


_INVERSE_ROOTS = _InverseRoots()


def _damped_integrals(
    du: float, rules: Sequence[tuple[float, int]], work: Counter
) -> list[complex]:
    """integral of exp((i du - eps) t^2) dt over |t| <= _TRUNCATION/sqrt(eps),
    for each rule (eps, count) of the batch.

    Even integrand, so it is 2 * integral_0^L, and with s = t^2 that is
    integral_0^(L^2) exp(a s) s^(-1/2) ds, a = i du - eps. The equal-phase
    breakpoints t_k = L sqrt(k / count) are uniform in s, s_k = k h. On
    panel k >= 1 exp(a s) = exp(a s_k) exp(a delta_j) with the same node
    offsets delta_j on every panel, and with k = 1 + q S + r (S =
    min(_EXP_STRIDE, count - 1)) exp(a s_k) = exp(a s_(1+qS)) exp(a r h).
    So a rule costs an S-entry table exp(a r h) plus one complex exponential
    per S panels. s_k + delta_j = (h/2)(2k + 1 + x_j), so 1/sqrt(s_k +
    delta_j) is (h/2)^(-1/2), folded into the node factors, times a row of
    the shared _InverseRoots table; the rest is one real matmul for the node
    sums and per S panels (zero-padded at the end) one dot with the table.
    Panel 0 holds the s^(-1/2) endpoint singularity and is integrated in t.

    Most rules have few panels, so their cost is set-up: the per-rule
    scalars, panel 0, the node factors and the stride tables of the whole
    batch come from arrays over the rules. The table matmul, the stride
    contraction and the heads stay per rule.
    """
    n = len(_NODES)
    eps = np.array([e for e, _ in rules])
    counts = np.array([c for _, c in rules])
    strides = np.minimum(_EXP_STRIDE, counts - 1)
    a = -eps + 1j * du
    length = _TRUNCATION / np.sqrt(eps)
    half_t = 0.5 * length / np.sqrt(counts)
    half_s = 0.5 * length * length / counts
    h = 2.0 * half_s
    t = np.multiply.outer(half_t, 1.0 + _NODES)
    # per rule, row 0 holds panel 0's exponentials, row 1 the node offsets'
    exps = np.empty((len(rules), 2, n), dtype=complex)
    np.multiply(a[:, None] * t, t, out=exps[:, 0])
    np.multiply.outer(a * half_s, 1.0 + _NODES, out=exps[:, 1])
    np.exp(exps, out=exps)
    # row r's first strides[r] entries are rule r's stride table
    steps = np.arange(_EXP_STRIDE)
    stride_factors = np.multiply.outer(a * h, steps)
    np.exp(stride_factors, out=stride_factors, where=steps < strides[:, None])
    # C-contiguous rows, so each reads as one real (nodes, 2) matrix and a
    # block's node sums are one real matmul whose (panels, 2) rows read as
    # complex per-panel sums
    node_factors = np.sqrt(half_s)[:, None] * _WEIGHTS * exps[:, 1]
    node_factors = node_factors.view(float).reshape(len(rules), n, 2)
    panel_0 = (2.0 * half_t * (exps[:, 0] @ _WEIGHTS)).tolist()
    integrals = []
    for r, (count, stride, a_r, h_r) in enumerate(
        zip(counts.tolist(), strides.tolist(), a.tolist(), h.tolist())
    ):
        total = panel_0[r]
        for start in range(1, count, _PANEL_BLOCK):
            stop = min(start + _PANEL_BLOCK, count)
            inv_root = _INVERSE_ROOTS.panels(start, stop, work)
            rows = -(-(stop - start) // stride)
            per_panel = np.zeros((rows * stride, 2))
            np.matmul(inv_root, node_factors[r], out=per_panel[: stop - start])
            per_row = per_panel.view(complex).reshape(rows, stride) @ stride_factors[r, :stride]
            head_s = h_r * np.arange(start, stop, stride, dtype=float)
            total += complex(np.dot(np.exp(a_r * head_s), per_row))
            work["complex_exponentials"] += rows
        integrals.append(total)
    work["complex_exponentials"] += len(rules) * 2 * n + int(strides.sum())
    work["panels"] += int(counts.sum())
    return integrals


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
    eps_list: Sequence[float], raws: Sequence[float], local_errors: Sequence[float]
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
        and all(e <= _LOCAL_REL_TOL * max(abs(r), abs(value)) for e, r in zip(local_errors, raws))
    )
    return value, error_estimate, converged, tuple(extrapolants)


def _work_stats(work: Counter, levels: int, stop: str, started: float) -> dict:
    return {
        "levels": levels,
        "stop": stop,
        "panels": work["panels"],
        "complex_exponentials": work["complex_exponentials"],
        "inverse_roots": work["inverse_roots"],
        "capped_levels": work["capped_levels"],
        "wall_s": time.perf_counter() - started,
    }


def overlap_quadrature(
    a: ChirpState,
    b: ChirpState,
    epsilons: Sequence[float] | None = None,
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
            stats=_work_stats(work, 0, "converged", started),
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
        # |I(eps)|^2 per new level, with the gap to the level's coarse rule
        # as its error; a level whose fine rule _MAX_PANELS clamped is no
        # refinement of a coarse one, so it runs only the fine rule and its
        # error is unknown: inf
        levels = [(eps, *_panel_count(du, eps, 2)) for eps in eps_list[len(raws) :]]
        rules = []
        for eps, fine, capped in levels:
            # the coarse rule has half the fine rule's panels
            rules += [(eps, fine)] if capped else [(eps, fine), (eps, fine // 2)]
        integrals = iter(_damped_integrals(du, rules, work))
        for _, _, capped in levels:
            fine = next(integrals)
            raws.append(abs(fine) ** 2 * prefactor * prefactor)
            if capped:
                work["capped_levels"] += 1
                local_errors.append(math.inf)
            else:
                coarse = next(integrals)
                local_errors.append(abs(fine - coarse) * 2.0 * abs(fine) * prefactor * prefactor)
        value, error_estimate, converged, extrapolants = _extrapolate(eps_list, raws, local_errors)
        # a capped level's error is inf, so deeper levels cannot converge
        if converged or work["capped_levels"] or len(eps_list) >= max_levels:
            break
        eps_list = default_epsilons(du, len(eps_list) + 1)
    stop = "converged" if converged else "capped" if work["capped_levels"] else "ladder-end"
    return QuadratureResult(
        value=value,
        error_estimate=error_estimate,
        epsilon_sequence=tuple(zip(eps_list, raws)),
        converged=converged,
        extrapolants=extrapolants,
        local_errors=tuple(local_errors),
        stats=_work_stats(work, len(eps_list), stop, started),
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
