"""Certificates, equivalences, and extension searches for unbiased sets.

Three kinds of question about a set of directions with pairwise unsigned
symplectic products equal to a common K:

* certify_no_fourth: for an N = 1 triple, witness that no fourth direction
  exists by solving all eight sign-pattern linear systems and recording
  each contradiction. The golden-lattice search solves the same systems
  for the last factor of each free vector, on integer arrays.
* find_equivalence: hunt for a rescaled unsigned symplectic map carrying
  one triple onto another up to ordering and per-vector signs.
* search_extension / enumerate_triples_n1: look for additional product
  vectors by seeded descent or exhaustively over the golden lattice; find
  the one class of N = 1 lattice triples at K (every c is +/-a +/- b).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProblem,
    LimitExceeded,
    PreconditionFailed,
)
from .exact import GOLDEN, QuadNum, _product_parts, _reciprocal_parts, _reduced
from .symplectic import (
    EXACT,
    NUMERIC,
    DirectionVector,
    MUConfiguration,
    ProductVector,
    Scalar,
    UnsignedSymplecticMatrix,
    _join_modes,
    _quotient,
    _strict_mode,
    config_from_json,
    config_to_json,
    symp2,
    verify_mu,
)

# -- fourth-vector infeasibility certificates ---------------------------


@dataclass(frozen=True)
class SignPatternRecord:
    """Outcome of one of the eight sign-pattern linear systems."""

    signs: tuple[int, int, int]
    solution: DirectionVector
    residual: float
    consistent: bool
    rank_coeff: int
    rank_aug: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "signs": list(self.signs),
            "solution": [str(self.solution.q), str(self.solution.p)],
            "residual": self.residual,
            "consistent": self.consistent,
            "rank_coeff": self.rank_coeff,
            "rank_aug": self.rank_aug,
            "note": self.note,
        }


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """All eight sign patterns contradicted: no fourth direction exists."""

    directions: tuple[DirectionVector, DirectionVector, DirectionVector]
    target_k: Scalar
    records: tuple[SignPatternRecord, ...]

    @property
    def valid(self) -> bool:
        return len(self.records) == 8 and not any(r.consistent for r in self.records)

    def to_json(self) -> dict:
        return {
            "target_k": str(self.target_k),
            "directions": [[str(d.q), str(d.p)] for d in self.directions],
            "valid": self.valid,
            "records": [r.to_json() for r in self.records],
        }


@dataclass(frozen=True)
class CounterexampleFound:
    """A fourth direction satisfying one sign pattern within the tolerance.
    A genuine triple's pattern residuals are at least k in magnitude, since
    |symp2(c, d)| is 0 or 2k, so only a relative tolerance near 1 gets here."""

    direction: DirectionVector
    signs: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "direction": [str(self.direction.q), str(self.direction.p)],
            "signs": list(self.signs),
        }


def _is_zero(x: Scalar, scale: Scalar, tolerance: float) -> bool:
    """Exact scalars compare exactly; floats relative to the magnitude of scale."""
    if _strict_mode(x) == NUMERIC:
        return abs(x) <= tolerance * abs(float(scale))
    return x == 0


@dataclass(frozen=True)
class _PatternSolution:
    """d with symp2(d, x_i) = signs_i r_i on the first two rows, and the
    residuals symp2(d, x_i) - signs_i r_i on the rest."""

    signs: tuple[int, ...]
    solution: DirectionVector
    residuals: tuple[Scalar, ...]
    consistent: bool


def _solve_sign_patterns(
    rows: Sequence[DirectionVector],
    rhs: Sequence[Scalar],
    tolerance: float = 0.0,
) -> list[_PatternSolution]:
    """Solve symp2(d, rows[i]) = s_i rhs[i] for every sign pattern s.

    Cramer's rule on the first two rows fixes d; the caller guarantees that
    system is nonsingular (symp2(rows[0], rows[1]) != 0) with a nonzero
    right-hand side, so d != 0. Every further row is a check. A pattern is
    consistent when each check vanishes: exactly for exact scalars, relative
    to its right-hand side for floats. Patterns come in lexicographic order,
    +1 before -1.
    """
    a, b = rows[0], rows[1]
    # Row for constraint against x: (-x.p) dq + (x.q) dp = s r
    det = a.q * b.p - a.p * b.q  # = -symp2(a, b)
    records = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        e = s1 * rhs[0]
        f = s2 * rhs[1]
        # Cramer on [[-a.p, a.q], [-b.p, b.q]] (dq, dp) = (e, f)
        d = DirectionVector(
            _quotient(e * b.q - a.q * f, det), _quotient((-a.p) * f - e * (-b.p), det)
        )
        values = [symp2(d, x) for x in rows[2:]]
        for rest in itertools.product((1, -1), repeat=len(values)):
            residuals = tuple(v - s * r for v, s, r in zip(values, rest, rhs[2:]))
            records.append(
                _PatternSolution(
                    (s1, s2) + rest,
                    d,
                    residuals,
                    all(
                        _is_zero(res, r, tolerance)
                        for res, r in zip(residuals, rhs[2:])
                    ),
                )
            )
    return records


def certify_no_fourth(
    a: DirectionVector,
    b: DirectionVector,
    c: DirectionVector,
    k: Scalar,
    tolerance: float = 1e-12,
) -> InfeasibilityCertificate | CounterexampleFound:
    """Case-split witness that no fourth direction joins an N = 1 triple.

    Any fourth direction d must satisfy symp2(d, x) = +/- k for each x in
    the triple; all 2^3 sign patterns are solved explicitly and each must
    contradict the remaining constraint. Numeric comparisons are relative
    to k, so rescaling the triple changes no record.
    """
    mode = _join_modes(_strict_mode(k), a.mode, b.mode, c.mode) or EXACT
    if not k > 0:
        raise PreconditionFailed(f"k must be positive, got {k}")
    for x, y in ((a, b), (b, c), (a, c)):
        mag = abs(symp2(x, y))
        if not _is_zero(mag - k, k, tolerance):
            raise PreconditionFailed(
                f"pair ({x}, {y}) has |product| {mag}, not the target {k}"
            )
    records = []
    for solved in _solve_sign_patterns((a, b, c), (k, k, k), tolerance):
        d = solved.solution
        note = ""
        # consistent only at a tolerance near 1 (see CounterexampleFound)
        if solved.consistent:
            confirm = verify_mu(
                MUConfiguration(
                    tuple(ProductVector((v,)) for v in (a, b, c, d)),
                    k,
                    mode=mode,
                ),
                tolerance=max(tolerance, 1e-9),
            )
            if confirm.verdict:
                return CounterexampleFound(d, solved.signs)
            note = "pattern solvable but full verification fails"
        # a consistent pattern that survives to here failed full verification
        records.append(
            SignPatternRecord(
                signs=solved.signs,
                solution=d,
                residual=float(solved.residuals[0]),
                consistent=False,
                rank_coeff=2,
                rank_aug=2 if solved.consistent else 3,
                note=note,
            )
        )
    return InfeasibilityCertificate((a, b, c), k, tuple(records))


# -- equivalence of triples ---------------------------------------------


@dataclass(frozen=True)
class Equivalence:
    """lambda * m carries triple A onto triple B up to order and signs."""

    matrix: UnsignedSymplecticMatrix
    scale: float
    permutation: tuple[int, int, int]
    signs: tuple[int, int, int]
    residual: float

    def to_json(self) -> dict:
        return {
            "matrix": [[float(x) for x in row] for row in self.matrix.entries],
            "matrix_sign": self.matrix.sign,
            "scale": self.scale,
            "permutation": list(self.permutation),
            "signs": list(self.signs),
            "residual": self.residual,
        }


def _triple_floats(config: MUConfiguration) -> tuple[list[np.ndarray], int]:
    """The triple's vectors times 2^-e, and e: its largest component lands
    in [0.5, 1), unless its smallest nonzero one would leave the normal
    range, which bounds the shift. Powers of two scale exactly, so the
    solve sees the same floats as at unit scale."""
    if config.n != 1 or len(config.vectors) != 3:
        raise DimensionMismatch("equivalence search expects N = 1 triples")
    vectors = [v.factors[0].as_floats() for v in config.vectors]
    sizes = [abs(x) for v in vectors for x in v if x]
    e = min(math.frexp(max(sizes))[1], math.frexp(min(sizes))[1] + 1021) if sizes else 0
    return [np.array([math.ldexp(x, -e) for x in v]) for v in vectors], e


def _det2(m: np.ndarray) -> float:
    """ad - bc: one rounding per product and one for the difference, so
    scaling a row or column by a power of two scales it exactly (numpy's
    det goes through an LU factorization and log |det|)."""
    (a, b), (c, d) = m.tolist()
    return a * d - b * c


def _nearly_parallel(cols: np.ndarray) -> bool:
    # relative to the column norms, so rescaling a column changes no answer
    return abs(_det2(cols)) <= 1e-14 * np.prod(np.linalg.norm(cols, axis=0))


def find_equivalence(
    config_a: MUConfiguration,
    config_b: MUConfiguration,
    tolerance: float = 1e-10,
) -> Equivalence | None:
    """Search the 6 orderings x 4 sign choices for a linear equivalence.

    For each candidate, the matrix is solved linearly from two vector
    correspondences and checked on the third; the determinant fixes the
    positive scale lambda with |det m| = 1. Each triple is solved in a
    power-of-two frame (see _triple_floats), and scale and residual are
    reported in the caller's. Returns None when no candidate survives.
    """
    avs, exp_a = _triple_floats(config_a)
    bvs, exp_b = _triple_floats(config_b)
    a_cols = np.column_stack([avs[0], avs[1]])
    if _nearly_parallel(a_cols):
        raise PreconditionFailed("first two vectors of A are parallel")
    a_inv = np.linalg.inv(a_cols)
    for perm in itertools.permutations(range(3)):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            target = np.column_stack([s1 * bvs[perm[0]], s2 * bvs[perm[1]]])
            if _nearly_parallel(target):
                continue
            m_scaled = target @ a_inv
            mapped = m_scaled @ avs[2]
            reference = np.linalg.norm(bvs[perm[2]])
            best_s3 = None
            best_gap = math.inf
            for s3 in (1, -1):
                gap = float(np.linalg.norm(mapped - s3 * bvs[perm[2]]))
                if gap < best_gap:
                    best_gap = gap
                    best_s3 = s3
            if best_gap > tolerance * reference:
                continue
            lam = math.sqrt(abs(_det2(m_scaled)))
            m = m_scaled / lam
            matrix = UnsignedSymplecticMatrix.from_rows(
                ((float(m[0, 0]), float(m[0, 1])), (float(m[1, 0]), float(m[1, 1]))),
                tolerance=1e-8,
            )
            try:
                scale = math.ldexp(lam, exp_b - exp_a)
            except OverflowError:
                scale = math.inf
            if not 0.0 < scale < math.inf:
                raise LimitExceeded("the scale between the triples is past the float range")
            return Equivalence(
                matrix=matrix,
                scale=scale,
                permutation=perm,
                signs=(s1, s2, best_s3),
                residual=math.ldexp(best_gap, exp_b),
            )
    return None


# -- extension search ----------------------------------------------------

REAL = "real"
GOLDEN_LATTICE = "golden-lattice"


@dataclass(frozen=True)
class SearchProblem:
    """Seeds plus free slots to fill, over a choice of coefficient domain."""

    target_k: Scalar
    seeds: tuple[ProductVector, ...]
    free_slots: int
    domain: str = REAL
    height: int = 3
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.domain not in (REAL, GOLDEN_LATTICE):
            raise InvalidProblem(f"unknown domain {self.domain!r}")
        if self.free_slots < 0:
            raise InvalidProblem("free_slots must be nonnegative")
        if not self.seeds:
            raise InvalidProblem("at least one seed vector is required")
        if self.domain == GOLDEN_LATTICE and self.height < 1:
            raise InvalidProblem("lattice height must be at least 1")

    @property
    def n(self) -> int:
        return self.seeds[0].n

    @property
    def mode(self) -> str:
        """Exact on the golden lattice, numeric over the reals."""
        return EXACT if self.domain == GOLDEN_LATTICE else NUMERIC

    def to_json(self) -> dict:
        config = MUConfiguration(self.seeds, self.target_k, self.hbar, self.mode)
        data = config_to_json(config)
        return {
            "N": self.n,
            "mode": self.mode,
            "K": data["K"],
            "seeds": data["vectors"],
            "free_slots": self.free_slots,
            "domain": self.domain,
            "height": self.height,
            "hbar": self.hbar,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SearchProblem":
        if not isinstance(data, dict):
            raise InvalidProblem("search problem must be a JSON object")
        for key in ("K", "seeds", "free_slots", "domain"):
            if key not in data:
                raise InvalidProblem(f"search problem is missing {key!r}")
        domain = data["domain"]
        mode = EXACT if domain == GOLDEN_LATTICE else NUMERIC
        config = config_from_json(
            {
                "N": data.get("N"),
                "mode": data.get("mode", mode),
                "hbar": data.get("hbar", 1.0),
                "K": data["K"],
                "vectors": data["seeds"],
                **({"ambient": data["ambient"]} if "ambient" in data else {}),
            }
        )
        free_slots, height = data["free_slots"], data.get("height", 3)
        for key, value in (("free_slots", free_slots), ("height", height)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidProblem(f"{key} must be an integer, got {value!r}")
        return cls(
            target_k=config.target_k,
            seeds=config.vectors,
            free_slots=free_slots,
            domain=domain,
            height=height,
            hbar=config.hbar,
        )


@dataclass(frozen=True)
class SearchReport:
    """What a search found and what it did.

    stats is empty for zero free slots. A real search reports budget_hit,
    charts (chart objectives built, one per chart its restarts used),
    dead_charts (restarts on a chart whose objective is inf everywhere) and
    gradient_evaluations (evaluations that also computed the gradient: one
    per restart and one per accepted step). A lattice search reports the
    kernel's work: heads (heads run through the divisibility filter),
    heads_passed (heads past it), sign_pattern_solves
    (last-factor solves, four sign patterns per head, or two per box value
    when one fixed vector leaves a line), box_rejects (integral solutions
    outside the box), completions (last factors passing every check),
    budget_hit, the wall time of filter_s, solve_s and verify_s (the
    re-verification of the first completion), and dtype (int64, or object
    when an intermediate could reach 2^62). The counters count the kernel's
    work, so when a budget cut falls inside a block after a deeper level
    ran, heads can exceed evaluations.
    """

    outcome: str  # "extended" | "no-improvement" | "exhausted"
    vectors: tuple[ProductVector, ...]
    residual: float
    best_objective: float
    evaluations: int
    iterations: int
    restarts_used: int
    wall_time: float
    seed: int | None
    # every exact completion found (lattice mode enumerates all of them;
    # each entry is one filling of the free slots)
    solutions: tuple[tuple[ProductVector, ...], ...] = ()
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "vectors": [
                [[str(f.q), str(f.p)] for f in v.factors] for v in self.vectors
            ],
            "residual": self.residual,
            "best_objective": self.best_objective,
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "wall_time": self.wall_time,
            "seed": self.seed,
            "solutions": [
                [[[str(f.q), str(f.p)] for f in v.factors] for v in sol]
                for sol in self.solutions
            ],
            "stats": dict(self.stats),
        }


GRAD_TOL = 1e-10
STEP_TOL = 1e-14


def _seed_check(problem: SearchProblem) -> None:
    if len(problem.seeds) >= 2:
        config = MUConfiguration(problem.seeds, problem.target_k, problem.hbar, problem.mode)
        report = verify_mu(config, tolerance=1e-9)
        if not report.verdict:
            raise PreconditionFailed("seed vectors do not verify at the target K")


class _ChartObjective:
    """The gauge-fixed objective and its gradient in one chart, compiled once.

    A chart holds one entry per factor of each free vector: 0 pins the
    factor's first component to 1 and leaves its second as a coordinate of
    x, 1 pins the factor to (0, 1). The objective is the sum, over the pairs
    that involve a free vector (seed-seed pairs contribute a constant,
    exactly zero for verified seeds), of (log |product| - log K)^2; it is
    inf, with no gradient, where some product vanishes.

    The build compiles each factor product a.p * b.q - a.q * b.p of those
    pairs into the float operations left once the gauge's exact 1.0 and 0.0
    are multiplied out, so at finite x every value is the float the full
    formula gives:

    * a constant, for a seed or free factor against a pinned (0, 1) one;
    * ap - aq * x[l], a seed or pinned factor against a free one;
    * x[k] - x[l], two free factors.

    Each is a term (u, c, v), the float ext[u] - c * ext[v] over
    ext = x + consts; a constant is c = 0.0 against itself. A chart with a
    constant-zero product is dead: its objective is inf everywhere.
    """

    def __init__(self, problem: SearchProblem, chart: tuple[int, ...]) -> None:
        n = problem.n
        position = itertools.count()
        flat = [None if pinned else next(position) for pinned in chart]
        self.slots = [flat[s * n : (s + 1) * n] for s in range(problem.free_slots)]
        self.dims = chart.count(0)
        self.log_k = math.log(float(problem.target_k))
        self.consts: list[float] = []
        self.terms: list[tuple[int, float, int]] = []
        self.dead = False
        # each factor as (q, p, k): a seed's floats, (0, 1) for a pinned
        # factor, (1, x[k]) for a free one
        at = [[(*f.as_floats(), None) for f in v.factors] for v in problem.seeds]
        at += [[(0.0, 1.0, None) if k is None else (1.0, None, k) for k in slot] for slot in self.slots]
        self.pairs = [
            self._compile(at[i], at[j])
            for i, j in itertools.combinations(range(len(at)), 2)
            if j >= len(problem.seeds)
        ]

    def _const(self, value: float) -> int:
        self.consts.append(value)
        return self.dims + len(self.consts) - 1

    def _compile(self, va, vb) -> tuple[range, list]:
        """One pair: the indices of its factor products among the terms, and
        its gradient entries (k, coefficient, the indices of the other
        factors' products), in the order the formula visits them."""
        first = len(self.terms)
        for (aq, ap, k), (bq, bp, l) in zip(va, vb):
            if l is None:
                # b = (0, 1): a.p * 0.0 - a.q * 1.0, which is -1.0 for a free a
                value = -1.0 if k is not None else ap * bq - aq * bp
                self.dead = self.dead or value == 0.0
                u = self._const(value)
                self.terms.append((u, 0.0, u))
            elif k is not None:
                self.terms.append((k, 1.0, l))  # x[k] * 1.0 - 1.0 * x[l]
            else:
                self.terms.append((self._const(ap), aq, l))  # ap * 1.0 - aq * x[l]
        own = range(first, len(self.terms))
        grads = []
        for t, (aq, _, k), (bq, _, l) in zip(own, va, vb):
            others = tuple(g for g in own if g != t)
            if k is not None:
                # d symp2 / d (va[f].p) = vb[f].q
                grads.append((k, bq, others))
            if l is not None:
                grads.append((l, -aq, others))
        return own, grads

    def pack(self, xs: list[float]) -> list[list[tuple[float, float]]]:
        """Free vectors as (q, p) float pairs from the chart's coordinates."""
        return [[(0.0, 1.0) if p is None else (1.0, xs[p]) for p in slot] for slot in self.slots]

    def evaluate(self, x: list[float], want_grad: bool) -> tuple[float, list[float] | None]:
        if self.dead:
            return math.inf, None
        ext = x + self.consts
        products = [ext[u] - c * ext[v] for u, c, v in self.terms]
        log_k = self.log_k
        total = 0.0
        grad = [0.0] * self.dims if want_grad else None
        for own, grads in self.pairs:
            sp = 1.0
            for t in own:
                sp *= products[t]
            if sp == 0.0:
                return math.inf, None
            diff = math.log(abs(sp)) - log_k
            total += diff * diff
            if want_grad:
                for k, coefficient, others in grads:
                    rest = 1.0
                    for g in others:
                        rest *= products[g]
                    grad[k] += 2.0 * diff * (coefficient * rest) / sp
        return total, grad

    def __call__(self, x, want_grad: bool = True) -> tuple[float, np.ndarray | None]:
        value, grad = self.evaluate(np.asarray(x, dtype=float).tolist(), want_grad)
        return value, None if grad is None else np.array(grad)


def real_objective_fn(problem: SearchProblem) -> _ChartObjective:
    """The gauge-fixed objective and gradient in the chart that pins every
    factor's first component to 1 (used by tests)."""
    _seed_check(problem)
    return _ChartObjective(problem, (0,) * (problem.free_slots * problem.n))


def _charts(dims: int):
    """Every chart of dims factors, lazily, by number of pinned factors and
    then lexicographically: sorted(itertools.product((0, 1), repeat=dims),
    key=sum) without building it."""
    for pinned in range(dims + 1):
        for free in itertools.combinations(range(dims), dims - pinned):
            chart = [1] * dims
            for i in free:
                chart[i] = 0
            yield tuple(chart)


def _restart_charts(dims: int, restarts: int):
    """The chart of each restart: the all-free chart on even restarts, the
    other 2^dims - 1 charts in turn on odd ones, wrapping around. Only the
    charts the restarts reach are made (cycle keeps those it has yielded)."""
    charts = _charts(dims)
    free = next(charts)
    others = itertools.cycle(charts)
    return (free if r % 2 == 0 else next(others) for r in range(restarts))


def _search_real(problem: SearchProblem, budget: int, restarts: int, seed: int) -> SearchReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    objectives: dict[tuple[int, ...], _ChartObjective] = {}
    evaluations = 0
    gradient_evaluations = 0
    iterations = 0
    best_val = math.inf
    best_vectors: list[list[tuple[float, float]]] = []
    restarts_used = 0
    dead_restarts = 0
    for chart in _restart_charts(problem.free_slots * problem.n, restarts):
        if evaluations >= budget:
            break
        restarts_used += 1
        objective = objectives.get(chart)
        if objective is None:
            objective = objectives[chart] = _ChartObjective(problem, chart)
        x = rng.uniform(-3.0, 3.0, size=objective.dims).tolist()
        fx, gx = objective.evaluate(x, True)
        evaluations += 1
        gradient_evaluations += 1
        dead_restarts += objective.dead
        for _ in range(400):
            if evaluations >= budget or not math.isfinite(fx):
                break
            try:
                gnorm = math.sqrt(math.fsum([g * g for g in gx]))
            except OverflowError:  # finite squares whose sum passes the float range
                gnorm = math.inf
            if gnorm < GRAD_TOL:
                break
            step = 1.0
            accepted = False
            while step * gnorm >= STEP_TOL:
                x_new = [xi - step * gi for xi, gi in zip(x, gx)]
                f_new, _ = objective.evaluate(x_new, False)
                evaluations += 1
                if f_new <= fx - 1e-4 * step * gnorm * gnorm:
                    accepted = True
                    break
                step *= 0.5
                if evaluations >= budget:
                    break
            if not accepted:
                break
            x = x_new
            fx, gx = objective.evaluate(x, True)
            evaluations += 1
            gradient_evaluations += 1
            iterations += 1
        if math.isfinite(fx) and fx < best_val:
            best_val = fx
            best_vectors = objective.pack(x)
    found = [
        ProductVector(tuple(DirectionVector(q, p) for q, p in factors))
        for factors in best_vectors
    ]
    residual = math.inf
    outcome = "no-improvement"
    if found:
        config = MUConfiguration(
            problem.seeds + tuple(found), problem.target_k, problem.hbar, NUMERIC
        )
        report = verify_mu(config, tolerance=1e-9)
        residual = report.max_deviation
        if report.verdict:
            outcome = "extended"
    return SearchReport(
        outcome=outcome,
        vectors=tuple(found),
        residual=residual,
        best_objective=best_val,
        evaluations=evaluations,
        iterations=iterations,
        restarts_used=restarts_used,
        wall_time=time.perf_counter() - start,
        seed=seed,
        solutions=(tuple(found),) if outcome == "extended" else (),
        stats={
            "budget_hit": evaluations >= budget,
            "charts": len(objectives),
            "dead_charts": dead_restarts,
            "gradient_evaluations": gradient_evaluations,
        },
    )


def _golden_integer(x: Scalar) -> QuadNum:
    """x as an element of Z[R] over the golden ambient, the only scalars
    lattice problems admit."""
    if isinstance(x, (int, Fraction)):
        x = QuadNum(x, 0, GOLDEN)
    if not isinstance(x, QuadNum):
        raise InvalidProblem(f"lattice scalars must be exact, got {type(x).__name__}")
    if x.ambient != GOLDEN:
        raise InvalidProblem("lattice search is defined over the golden ambient")
    if not x.is_integral:
        raise InvalidProblem(f"lattice scalars must be integral, got {x}")
    return x


def _height_box(height: int) -> list[QuadNum]:
    """The golden integers p + q R with |p| <= max(height, 1), |q| <= height."""
    p_bound = max(height, 1)
    return [
        QuadNum(p, q, GOLDEN)
        for p in range(-p_bound, p_bound + 1)
        for q in range(-height, height + 1)
    ]


# The lattice kernel holds a golden integer a + b R as a coordinate pair
# (a, b) of ints or of equally shaped integer arrays, and a direction as a
# pair of those, (q, p). Its field arithmetic is exact's unreduced helpers,
# which use arithmetic operators only; the golden ambient has L = 1, so a
# product of integers keeps denominator 1.

_HEAD_BLOCK = 4096  # heads per kernel call, so memory stays bounded for any N and height
_INT64_LIMIT = 1 << 62


def _mul(x, y):
    a, b, _ = _product_parts((x[0], x[1], 1), (y[0], y[1], 1), GOLDEN)
    return a, b


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _symp(d, x):
    """symp2(d, x) = d.p x.q - d.q x.p."""
    return _sub(_mul(d[1], x[0]), _mul(d[0], x[1]))


def _conjugate(x):
    """The conjugate and the norm n of x, so 1 / x = conjugate / n; n is 0
    only for x = 0."""
    a, b, n = _reciprocal_parts((x[0], x[1], 1), GOLDEN)
    return (a, b), n


def _kernel_dtype(m: int, n: int):
    """int64 when no intermediate of the kernel can reach 2^62, else object
    (Python ints), so no wraparound ever decides a result. m bounds every
    coordinate of K, the fixed vectors and the box; a product of
    coordinates up to x and y, each of its partial terms, a conjugate
    and a norm stay within g x y."""
    g = 2 + abs(GOLDEN._lu) + abs(GOLDEN._lv)
    s = 2 * g * m * m  # symp2 of two directions
    c = (g * s) ** (n - 1)  # a head's product with a fixed vector
    r = g * g * m * c  # K times the conjugate of c, and so the quotient K / c
    e = max(r, m)  # right-hand sides of the solve, box values when pinned
    # norms of c and of the solve's determinant, and the solve's numerators
    # e x_i conj(det) - f y_i conj(det)
    largest = max(g * c * c, r, g * s * s, 2 * g**3 * m * e * s)
    return np.int64 if largest < _INT64_LIMIT else object


def _lattice_vector(v):
    """A vector's factors as coordinate pairs, checked golden-integral."""
    coords = []
    for f in v.factors:
        q, p = _golden_integer(f.q), _golden_integer(f.p)
        coords.append(((q.p.numerator, q.q.numerator), (p.p.numerator, p.q.numerator)))
    return tuple(coords)


def _product_vector(coords) -> ProductVector:
    """A vector from kernel coordinates, which are golden integers (d = 1)."""
    return ProductVector(
        tuple(DirectionVector(_reduced(*q, 1, GOLDEN), _reduced(*p, 1, GOLDEN)) for q, p in coords)
    )


class _LatticeKernel:
    """One lattice search's tables and counters.

    Head factors run over the box's directions: q over the box, then p over
    the box, the zero direction left out. A head is N - 1 of them, numbered
    with the first factor most significant, so head order is the order of
    itertools.product over the factor choices.
    """

    def __init__(self, k, n: int, height: int, m: int, stats: dict) -> None:
        self.k, self.n, self.stats = k, n, stats
        self.p_bound, self.q_bound = max(height, 1), height
        self.dtype = _kernel_dtype(m, n)
        stats["dtype"] = np.dtype(self.dtype).name
        self.choice_count = ((2 * self.p_bound + 1) * (2 * height + 1)) ** 2 - 1
        self.heads = self.choice_count ** (n - 1)

    @functools.cached_property
    def box(self):
        """The box's values in box order."""
        p_values = np.arange(-self.p_bound, self.p_bound + 1)
        q_values = np.arange(-self.q_bound, self.q_bound + 1)
        a = np.repeat(p_values, len(q_values)).astype(self.dtype)
        return a, np.tile(q_values, len(p_values)).astype(self.dtype)

    @functools.cached_property
    def choices(self):
        """The head factor choices as ((qa, qb), (pa, pb)) arrays."""
        a, b = self.box
        qi, pi = np.divmod(np.arange(len(a) * len(a)), len(a))
        nonzero = (a[qi] != 0) | (b[qi] != 0) | (a[pi] != 0) | (b[pi] != 0)
        qi, pi = qi[nonzero], pi[nonzero]
        return (a[qi], b[qi]), (a[pi], b[pi])

    def head(self, index: int):
        """The coordinates of head number index."""
        factors = []
        for _ in range(self.n - 1):
            index, i = divmod(index, self.choice_count)
            factors.append(tuple((int(c[0][i]), int(c[1][i])) for c in self.choices))
        return tuple(reversed(factors))

    def completions(self, fixed, start: int, stop: int) -> list:
        """(head index, last factor) for every completion among heads
        start..stop-1 of one level, in head order and, within a head, in the
        certificate's sign-pattern order."""
        stats = self.stats
        clock = time.perf_counter()
        # fixed vectors on the second axis: columns[f] is factor f of every one
        columns = [
            tuple(
                tuple(np.array([[x[f][i][j] for x in fixed]], self.dtype) for j in (0, 1))
                for i in (0, 1)
            )
            for f in range(self.n)
        ]
        # head filter: K / c must lie in Z[R] for the head's product c with
        # every fixed vector; a zero c has zero norm and drops out
        digits, rest = [], np.arange(start, stop)
        for _ in range(self.n - 1):
            rest, i = np.divmod(rest, self.choice_count)
            digits.append(i)
        c = (np.ones((1, len(fixed)), self.dtype), np.zeros((1, len(fixed)), self.dtype))
        for i, x in zip(reversed(digits), columns):
            h = tuple((t[0][i][:, None], t[1][i][:, None]) for t in self.choices)
            c = _mul(c, _symp(h, x))
        conjugate, norm = _conjugate(c)
        ra, rb = _mul(self.k, conjugate)
        passed = norm != 0
        norm = np.where(passed, norm, 1)
        passed &= (ra % norm == 0) & (rb % norm == 0)
        alive = np.flatnonzero(passed.all(axis=1))
        ra, rb, norm = ra[alive], rb[alive], norm[alive]
        rhs = (ra // norm, rb // norm)
        stats["heads"] += stop - start
        stats["heads_passed"] += len(alive)
        now = time.perf_counter()
        stats["filter_s"] += now - clock
        if not len(alive):
            return []
        clock = now

        # last-factor solve: Cramer's rule on the first two fixed last factors
        # for every sign pattern at once, patterns on the second axis
        rows = [x[-1] for x in fixed]
        if len(rows) == 1:
            # One constraint leaves a line: a second row pins the coordinate
            # it does not fix to each box value. The pin's own sign stays +1,
            # since the box already holds both signs of every value.
            # symp2(d, (0, -1)) = d.q and symp2(d, (1, 0)) = d.p
            rows.append(((0, 0), (-1, 0)) if rows[0][0] != (0, 0) else ((1, 0), (0, 0)))
            s1 = np.tile([1, -1], len(self.box[0]))
            second = tuple(np.repeat(t, 2)[None, :] for t in self.box)
        else:
            s1, s2 = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
            second = (s2 * rhs[0][:, 1:2], s2 * rhs[1][:, 1:2])
        e = (s1 * rhs[0][:, :1], s1 * rhs[1][:, :1])
        a, b = rows[0], rows[1]
        # det = a.q b.p - a.p b.q, nonzero for unbiased fixed vectors
        conjugate, det_norm = _conjugate(_symp(b, a))
        solved, integral = [], True
        for bx, ax in ((b[0], a[0]), (b[1], a[1])):
            xa, xb = _sub(_mul(e, _mul(bx, conjugate)), _mul(second, _mul(ax, conjugate)))
            integral = integral & (xa % det_norm == 0) & (xb % det_norm == 0)
            solved.append((xa // det_norm, xb // det_norm))
        (qa, qb), (pa, pb) = solved
        in_box = (
            integral
            & (abs(qa) <= self.p_bound) & (abs(qb) <= self.q_bound)
            & (abs(pa) <= self.p_bound) & (abs(pb) <= self.q_bound)
        )
        stats["sign_pattern_solves"] += qa.size
        stats["box_rejects"] += int(np.count_nonzero(integral & ~in_box))
        flat = np.flatnonzero(in_box)
        head_of = flat // qa.shape[1]
        d = tuple((u.ravel()[flat][:, None], v.ravel()[flat][:, None]) for u, v in solved)
        # the remaining fixed vectors are checks: symp2(d, x) = +/- K / c
        va, vb = _symp(d, tuple((u[:, 2:], v[:, 2:]) for u, v in columns[-1]))
        ra, rb = rhs[0][head_of, 2:], rhs[1][head_of, 2:]
        ok = (((va == ra) & (vb == rb)) | ((va == -ra) & (vb == -rb))).all(axis=1)
        stats["completions"] += int(np.count_nonzero(ok))
        stats["solve_s"] += time.perf_counter() - clock
        q, p = ((u[ok, 0].tolist(), v[ok, 0].tolist()) for u, v in d)
        return list(zip((start + alive[head_of[ok]]).tolist(), zip(zip(*q), zip(*p))))


def _search_lattice(problem: SearchProblem, budget: int, seed: int | None) -> SearchReport:
    """Every filling of the free slots by golden-lattice vectors in the box.

    A free vector splits into a head (its first N - 1 factors, enumerated
    over the box) and a last factor d. Its product with a fixed vector x is
    c * symp2(d, x_N), where c is the head's product with x's first N - 1
    factors, so d solves symp2(d, x_N) = +/- K / c for every fixed x: one
    linear system per sign pattern. A head is skipped when some c is zero or
    K / c is not integral, because an integral d has integral products with
    integral x_N. Further free slots recurse depth-first, each accepted
    vector joining the fixed ones. Heads go through the integer kernel in
    blocks; the budget caps the heads visited, in head order, as if one at a
    time.
    """
    start = time.perf_counter()
    k = _golden_integer(problem.target_k)
    if k.sign() <= 0:
        raise InvalidProblem(f"target K must be positive, got {k}")
    seeds = [_lattice_vector(v) for v in problem.seeds]
    k = (k.p.numerator, k.q.numerator)
    m = max(
        [problem.height, 1, *map(abs, k)]
        + [abs(t) for v in seeds for f in v for pair in f for t in pair]
    )
    stats = dict(
        heads=0, heads_passed=0, sign_pattern_solves=0, box_rejects=0, completions=0,
        budget_hit=False, filter_s=0.0, solve_s=0.0, verify_s=0.0,
    )
    kernel = _LatticeKernel(k, problem.n, problem.height, m, stats)
    evaluations = 0
    solutions: list[tuple[ProductVector, ...]] = []

    def visit(heads: int) -> bool:
        """Count the next heads; False once the budget cannot cover them."""
        nonlocal evaluations
        if evaluations + heads > budget:
            evaluations = max(evaluations, budget)
            stats["budget_hit"] = True
            return False
        evaluations += heads
        return True

    def extend(chosen: list) -> None:
        if len(chosen) == problem.free_slots:
            solutions.append(tuple(_product_vector(v) for v in chosen))
            return
        fixed = seeds + chosen
        for first in range(0, kernel.heads, _HEAD_BLOCK):
            end = min(first + _HEAD_BLOCK, kernel.heads)
            # heads past the budget are never visited; recursion only spends more
            stop = min(end, first + budget - evaluations)
            found = kernel.completions(fixed, first, stop) if stop > first else []
            counted = first
            for index, last in found:
                if not visit(index + 1 - counted):
                    return
                counted = index + 1
                extend(chosen + [kernel.head(index) + (last,)])
            if not visit(end - counted):
                return

    extend([])
    residual = math.inf
    if solutions:
        outcome = "extended"
        vectors = solutions[0]
        # the reported residual must match an independent re-verification
        clock = time.perf_counter()
        residual = verify_mu(
            MUConfiguration(problem.seeds + vectors, problem.target_k, problem.hbar, EXACT),
            tolerance=0.0,
        ).max_deviation
        stats["verify_s"] = time.perf_counter() - clock
    else:
        outcome = "no-improvement" if stats["budget_hit"] else "exhausted"
        vectors = ()
    return SearchReport(
        outcome=outcome,
        vectors=vectors,
        residual=residual,
        best_objective=residual,
        evaluations=evaluations,
        iterations=0,
        restarts_used=0,
        wall_time=time.perf_counter() - start,
        seed=seed,
        solutions=tuple(solutions),
        stats=stats,
    )


def search_extension(
    problem: SearchProblem,
    budget: int = 200000,
    restarts: int = 40,
    seed: int | None = None,
) -> SearchReport:
    """Look for free-slot vectors completing the seeds to a larger MU set.

    Real domain: seeded multi-start gradient descent with backtracking on
    the summed squared log-residuals, over gauge-fixed factor coordinates.
    Even restarts pin every factor's first component to 1; odd ones take
    the charts that pin some factors to (0, 1) in turn, fewest pinned
    first. Golden-lattice domain: every exact completion inside the height
    box, found by enumerating the first N - 1 factors of each free vector
    and solving one linear system per sign pattern for the last;
    evaluations counts enumerated heads, and an unsuccessful search returns
    no vector.
    """
    _seed_check(problem)
    if problem.free_slots == 0:
        return SearchReport(
            outcome="exhausted",
            vectors=(),
            residual=0.0,
            best_objective=0.0,
            evaluations=0,
            iterations=0,
            restarts_used=0,
            wall_time=0.0,
            seed=seed,
        )
    if problem.domain == REAL:
        if seed is None:
            raise InvalidProblem("real-domain search requires a seed")
        return _search_real(problem, budget, restarts, seed)
    return _search_lattice(problem, budget, seed)


# An unreachable level scans every pair of the box: about 4 s at height 3, 30 s at 4.
MAX_ENUMERATION_HEIGHT = 3


def enumerate_triples_n1(k: Scalar, height: int) -> list[MUConfiguration]:
    """The equivalence classes of N = 1 golden-lattice triples at level k.

    There is at most one: if |symp2(a, b)| = k > 0 and c = x a + y b, then
    |symp2(a, c)| = |y| k and |symp2(b, c)| = |x| k force c = +/-a +/- b, so
    triples at k differ only by a map of determinant +/-1, order and signs. The
    result is the first triangle i < j < l among box directions (rational
    parts up to max(height, 1), golden parts up to height, first nonzero
    component positive), with l looked up among the canonical a +/- b.
    """
    if height < 0:
        raise InvalidProblem("height must be nonnegative")
    if height > MAX_ENUMERATION_HEIGHT:
        raise LimitExceeded(f"height {height} exceeds the bound {MAX_ENUMERATION_HEIGHT}")
    k = _golden_integer(k)
    if k.sign() <= 0:
        raise InvalidProblem(f"target K must be positive, got {k}")
    levels = (k, -k)
    components = _height_box(height)

    def canonical(qc: QuadNum, pc: QuadNum) -> DirectionVector:
        # the sign that makes the first nonzero component positive
        head = pc if qc.is_zero else qc
        return DirectionVector(qc, pc) if head.sign() > 0 else DirectionVector(-qc, -pc)

    # dict keys keep the order in which each direction or its negative first appears
    vectors = list(
        dict.fromkeys(
            canonical(qc, pc)
            for qc in components
            for pc in components
            if not (qc.is_zero and pc.is_zero)
        )
    )
    position = {v: i for i, v in enumerate(vectors)}
    for i, j in itertools.combinations(range(len(vectors)), 2):
        a, b = vectors[i], vectors[j]
        if symp2(a, b) not in levels:
            continue
        sums = (canonical(a.q + s * b.q, a.p + s * b.p) for s in (1, -1))
        later = [position[c] for c in sums if position.get(c, -1) > j]
        if later:
            triple = tuple(ProductVector((vectors[t],)) for t in (i, j, min(later)))
            return [MUConfiguration(triple, k, mode=EXACT)]
    return []
