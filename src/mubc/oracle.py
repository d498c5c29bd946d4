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
import mmap
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
    rule integrated, 16 for panel 0 and 16 for the node factors,
    min(16, S) + ceil(S / 16) for the two factors of the S = min(256,
    count - 1) entry stride table and one head per started row of 256
    panels; 0 when every level was reused), ``inverse_roots`` (entries of
    the shared _InverseRoots table this call computed: rows it filled plus
    rows past the table; 0 when the table already covered every rule
    integrated), ``capped_levels`` (levels whose panel count hit
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
# Panels per row of _damped_integrals: one complex exponential (the row's
# head) per row of a rule. The square of _EXP_SPLIT, so a rule's stride
# table exp(a h r), r < _EXP_STRIDE, is the outer product of two
# _EXP_SPLIT-entry tables.
_EXP_STRIDE = 256
_EXP_SPLIT = 16
# Rows of the shared _InverseRoots table, and rows per block past it.
_TABLE_ROWS = 256
# Terms of the expansion of (2k + 1 + x_j)^(-1/2) in x_j / (2k + 1) kept
# for the panels after row 0 (k > _EXP_STRIDE, where |x_j| / (2k + 1) <
# 1/520): the first term left out is below 2^-56 relative
# (docs/regularization.md).
_TERMS = 6
# Row j, column m: binomial(-1/2, m) x_j^m = (-1/4)^m binomial(2m, m) x_j^m,
# which fold a rule's node factors into its _TERMS moments.
_MOMENT_WEIGHTS = np.array([math.comb(2 * m, m) * (-0.25) ** m for m in range(_TERMS)]) * (
    _NODES[:, None] ** np.arange(_TERMS)
)
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


def _inverse_roots(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """(2k + 1 + x_j)^(-1/2) for panels start <= k < stop and Gauss-Legendre
    nodes x_j: 1/sqrt(s_k + delta_j) without its factor (h/2)^(-1/2)."""
    out = np.add.outer(2.0 * np.arange(start, stop, dtype=float) + 1.0, _NODES, out=out)
    np.sqrt(out, out=out)
    return np.reciprocal(out, out=out)


def _inverse_root_powers(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """(2k + 1)^(-1/2 - m) at [q, m, r] for rows start <= q < stop, panels
    k = 1 + q _EXP_STRIDE + r and m < _TERMS. Summed against row j of
    _MOMENT_WEIGHTS they give (2k + 1 + x_j)^(-1/2) for q >= 1."""
    if out is None:
        out = np.empty((stop - start, _TERMS, _EXP_STRIDE))
    panels = np.arange(start * _EXP_STRIDE + 1, stop * _EXP_STRIDE + 1, dtype=float)
    odd = (2.0 * panels + 1.0).reshape(stop - start, _EXP_STRIDE)
    np.sqrt(odd, out=out[:, 0])
    np.reciprocal(out[:, 0], out=out[:, 0])
    np.reciprocal(odd, out=odd)
    for m in range(1, _TERMS):
        np.multiply(out[:, m - 1], odd, out=out[:, m])
    return out


class _InverseRoots:
    """Inverse-root factors of the first _TABLE_ROWS rows of panels, shared
    by every rule, level and pair: row 0's _inverse_roots (``roots``, panel
    by node) and the _inverse_root_powers of rows 1.._TABLE_ROWS - 1
    (``powers``, index q - 1 for row q). The arrays are anonymous zero pages,
    so none is resident until a rule first reads it; whole rows are filled
    in place up to the last row a rule has read, never grown."""

    def __init__(self) -> None:
        roots = _EXP_STRIDE * len(_NODES)
        row = _TERMS * _EXP_STRIDE
        pages = mmap.mmap(-1, (roots + (_TABLE_ROWS - 1) * row) * 8)
        # numpy advises huge pages for arrays this large, and one touched row
        # of a huge page makes 2 MiB resident; small pages keep it to the rows
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
        table = np.frombuffer(pages, dtype=float)
        self.roots = table[:roots].reshape(_EXP_STRIDE, len(_NODES))
        self.powers = table[roots:].reshape(_TABLE_ROWS - 1, _TERMS, _EXP_STRIDE)
        self.filled = 0

    def fill(self, stop: int, work: Counter) -> None:
        """Fill rows up to stop - 1 (at most _TABLE_ROWS - 1), counting the
        entries computed."""
        stop = min(stop, _TABLE_ROWS)
        if stop <= self.filled:
            return
        if self.filled == 0:
            _inverse_roots(1, _EXP_STRIDE + 1, out=self.roots)
            work["inverse_roots"] += self.roots.size
            self.filled = 1
        if stop > self.filled:
            _inverse_root_powers(self.filled, stop, out=self.powers[self.filled - 1 : stop - 1])
            work["inverse_roots"] += (stop - self.filled) * _TERMS * _EXP_STRIDE
        self.filled = stop

    def rows(self, start: int, stop: int, work: Counter) -> np.ndarray:
        """_inverse_root_powers of rows 1 <= start <= q < stop: kept when
        stop <= _TABLE_ROWS, computed and not kept when start >= _TABLE_ROWS."""
        if start >= _TABLE_ROWS:
            work["inverse_roots"] += (stop - start) * _TERMS * _EXP_STRIDE
            return _inverse_root_powers(start, stop)
        self.fill(stop, work)
        return self.powers[start - 1 : stop - 1]


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
    _EXP_STRIDE) exp(a s_k) = exp(a s_(1+qS)) exp(a r h): one complex
    exponential (the head) per row q of S panels times a stride table
    exp(a r h), the outer product of exp(a r0 h) and exp(16 a r1 h) for
    r = r0 + 16 r1. s_k + delta_j = (h/2)(2k + 1 + x_j), so 1/sqrt(s_k +
    delta_j) is (h/2)^(-1/2), folded into the node factors, times an
    entry of the shared _InverseRoots table. Row 0 reads its 16 node
    values per panel. Past row 0 (2k + 1 + x_j)^(-1/2) = sum_(m < _TERMS)
    binomial(-1/2, m) x_j^m (2k + 1)^(-1/2 - m), so the node factors fold
    into _TERMS moments, and a row's sum is its _TERMS x S powers dotted
    with the moments times the stride table: one real matmul over the
    rows of a block. Panel 0 holds the s^(-1/2) endpoint singularity and
    is integrated in t.

    Most rules have few panels, so their cost is set-up: the per-rule
    scalars, panel 0, the node factors and moments, the stride tables,
    row 0 and the heads of the whole batch come from arrays over the
    rules, each rule's values computed by the same operations whatever
    the batch. The matmuls over rows 1 onwards stay per rule.
    """
    n = len(_NODES)
    eps = np.array([e for e, _ in rules])
    counts = np.array([c for _, c in rules])
    strides = np.minimum(_EXP_STRIDE, counts - 1)
    rows = -(-(counts - 1) // _EXP_STRIDE)
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
    # columns 0..15 exp(a h r0), columns 16..31 exp(16 a h r1), evaluated
    # where r0 < S and 16 r1 < S; entries r >= S of the stride table are
    # zeroed for row 0
    split = np.arange(_EXP_SPLIT)
    steps = np.concatenate([split, _EXP_SPLIT * split])
    factors = np.multiply.outer(a * h, steps)
    np.exp(factors, out=factors, where=steps < strides[:, None])
    stride_table = np.multiply(factors[:, _EXP_SPLIT:, None], factors[:, None, :_EXP_SPLIT])
    stride_table = stride_table.reshape(len(rules), _EXP_STRIDE)
    # C-contiguous rows, so each reads as one real (nodes, 2) matrix
    node_factors = np.sqrt(half_s)[:, None] * _WEIGHTS * exps[:, 1]
    node_factors = node_factors.view(float).reshape(len(rules), n, 2)
    # one matmul per rule whatever the batch: row 0's per-panel node sums
    # and the moments
    _INVERSE_ROOTS.fill(int(rows.max()), work)
    per_panel = np.matmul(_INVERSE_ROOTS.roots, node_factors).view(complex)[..., 0]
    moments = np.matmul(_MOMENT_WEIGHTS.T, node_factors).view(complex)[..., 0]
    first_row = np.where(np.arange(_EXP_STRIDE) < strides[:, None], stride_table, 0.0)
    # each rule's row sums at its offset of one flat array, row 0 first
    starts = np.concatenate([[0], np.cumsum(rows[:-1])])
    sums = np.empty(int(rows.sum()), dtype=complex)
    sums[starts] = (per_panel * first_row).sum(axis=1)
    real_sums = sums.view(float).reshape(-1, 2)
    width = _TERMS * _EXP_STRIDE
    for r in np.flatnonzero(rows > 1).tolist():
        row_factors = np.multiply.outer(moments[r], stride_table[r]).view(float)
        row_factors = row_factors.reshape(_TERMS, _EXP_STRIDE, 2)
        last, rest = int(rows[r]) - 1, int(counts[r] - 1) % _EXP_STRIDE
        # rows 1 onwards, split at each multiple of _TABLE_ROWS: the first
        # block ends where the table does
        edges = [1, *range(_TABLE_ROWS, last + 1, _TABLE_ROWS), last + 1]
        for start, stop in zip(edges, edges[1:]):
            powers = _INVERSE_ROOTS.rows(start, stop, work)
            whole = stop - start - (stop == last + 1 and rest > 0)
            offset = starts[r] + start
            if whole:
                np.matmul(
                    powers[:whole].reshape(whole, width),
                    row_factors.reshape(width, 2),
                    out=real_sums[offset : offset + whole],
                )
        if rest:
            # the last row's first rest panels
            partial = np.matmul(powers[-1, :, None, :rest], row_factors[:, :rest])
            real_sums[starts[r] + last] = partial.sum(axis=0)
    # row q's head exp(a s_(1+qS)), at the offset of its row sum
    row_index = np.arange(len(sums)) - np.repeat(starts, rows)
    head_s = np.repeat(h, rows) * (1.0 + _EXP_STRIDE * row_index)
    terms = np.exp(np.repeat(a, rows) * head_s) * sums
    panel_0 = 2.0 * half_t * (exps[:, 0] * _WEIGHTS).sum(axis=1)
    integrals = panel_0 + np.add.reduceat(terms, starts)
    split_exps = np.minimum(_EXP_SPLIT, strides) + -(-strides // _EXP_SPLIT)
    work["complex_exponentials"] += len(rules) * 2 * n + int(split_exps.sum() + rows.sum())
    work["panels"] += int(counts.sum())
    return integrals.tolist()


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
        "inverse_roots": work["inverse_roots"],
        "capped_levels": work["capped_levels"],
        "wall_s": time.perf_counter() - started,
    }


def _unit_ladder(units: Sequence[float]) -> QuadratureResult:
    """The ladder eps / |du| = units at du = 1, every level's rules in one
    batch: the fine rule, and the coarse one with half its panels. A level
    whose fine rule _MAX_PANELS would clamp is no refinement of a coarse
    one, and a ladder holding one cannot converge, so such a level is not
    integrated: its raw is nan and its local error inf, and the ladder's
    value is nan and its error estimate inf."""
    started = time.perf_counter()
    work: Counter = Counter()
    levels = [(unit, *_panel_count(1.0, unit, 2)) for unit in units]
    rules = [
        rule
        for unit, fine, capped in levels
        if not capped
        for rule in ((unit, fine), (unit, fine // 2))
    ]
    integrals = iter(_damped_integrals(1.0, rules, work) if rules else ())
    raws: list[float] = []
    local_errors: list[float] = []
    for _, _, capped in levels:
        if capped:
            work["capped_levels"] += 1
            raws.append(math.nan)
            local_errors.append(math.inf)
        else:
            fine, coarse = next(integrals), next(integrals)
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
            reused = {"reused_levels": len(eps_list), "complex_exponentials": 0, "inverse_roots": 0}
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
