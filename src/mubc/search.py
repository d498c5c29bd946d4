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
  vectors by seeded Newton descent or exhaustively over the golden lattice; find
  the one class of N = 1 lattice triples at K (every c is +/-a +/- b).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProblem,
    InvalidTarget,
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


def certify_no_fourth(
    a: DirectionVector,
    b: DirectionVector,
    c: DirectionVector,
    k: Scalar,
    tolerance: float = 1e-12,
) -> InfeasibilityCertificate | CounterexampleFound:
    """Case-split witness that no fourth direction joins an N = 1 triple.

    Any fourth direction d must satisfy symp2(d, x) = +/- k for each x in
    the triple. For each of the 4 sign choices on a and b, Cramer's rule
    fixes d, and both signs on c must contradict symp2(d, c): exactly for
    exact scalars, relative to k for floats, so rescaling the triple
    changes no record. Patterns come in lexicographic order, +1 before -1.
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
    # the row for symp2(d, x) = s k is (-x.p) d.q + (x.q) d.p = s k
    det = a.q * b.p - a.p * b.q  # = -symp2(a, b)
    if det == 0:  # only a tolerance of 1 or more lets a parallel pair through
        raise PreconditionFailed(f"pair ({a}, {b}) is parallel")
    records = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        e, f = s1 * k, s2 * k
        d = DirectionVector(
            _quotient(e * b.q - a.q * f, det), _quotient((-a.p) * f - e * (-b.p), det)
        )
        value = symp2(d, c)
        for s3 in (1, -1):
            residual = value - s3 * k
            consistent = _is_zero(residual, k, tolerance)
            note = ""
            # consistent only at a tolerance near 1 (see CounterexampleFound)
            if consistent:
                four = MUConfiguration(tuple(ProductVector((v,)) for v in (a, b, c, d)), k, mode=mode)
                if verify_mu(four, tolerance=max(tolerance, 1e-9)).verdict:
                    return CounterexampleFound(d, (s1, s2, s3))
                note = "pattern solvable but full verification fails"
            records.append(
                SignPatternRecord(
                    signs=(s1, s2, s3),
                    solution=d,
                    residual=float(residual),
                    consistent=False,
                    rank_coeff=2,
                    rank_aug=2 if consistent else 3,
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


def _frame(triple: list[DirectionVector]) -> tuple[list[DirectionVector], int]:
    """The triple's floats times 2^-e, and e: its largest component lands
    in [0.5, 1), unless its smallest nonzero one would leave the normal
    range, which bounds the shift. Powers of two scale exactly, so the
    solve sees the same floats as at unit scale. An exact vector whose
    floats overflow or are both 0 raises LimitExceeded."""
    try:
        floats = [v.as_floats() for v in triple]
    except OverflowError:  # an int or Fraction past the float range
        raise LimitExceeded("a vector of the triples is past the float range") from None
    if not all(0.0 < max(abs(q), abs(p)) < math.inf for q, p in floats):
        raise LimitExceeded("a vector of the triples is past the float range")
    sizes = [abs(x) for v in floats for x in v if x]
    e = min(math.frexp(max(sizes))[1], math.frexp(min(sizes))[1] + 1021) if sizes else 0
    return [DirectionVector(math.ldexp(q, -e), math.ldexp(p, -e)) for q, p in floats], e


def find_equivalence(
    config_a: MUConfiguration,
    config_b: MUConfiguration,
    tolerance: float = 1e-10,
) -> Equivalence | None:
    """Search the 6 orderings x 4 sign choices for a linear equivalence.

    A linear map scales every symplectic product by its determinant. With
    sigma = symp2(a1, a2), a3 = x a1 + y a2 for x = symp2(a3, a2) / sigma and
    y = symp2(a1, a3) / sigma, so the map m with m a1 = s1 b_p1 and
    m a2 = s2 b_p2 sends a3 to x s1 b_p1 + y s2 b_p2, which must be s3 b_p3,
    and lambda^2 = |det m| = |symp2(b_p1, b_p2) / sigma|. Two exact triples
    whose QuadNums share one field are decided there, by == (a triple
    without QuadNums fits any field); any other pair in floats, in
    power-of-two frames (see _frame), relative to the vectors' norms. The
    matrix m / lambda is reported in floats from the frames, scale and
    residual in the caller's frame; a value past the float range raises
    LimitExceeded. Returns None when no candidate survives.
    """
    if any(c.n != 1 or len(c.vectors) != 3 for c in (config_a, config_b)):
        raise DimensionMismatch("equivalence search expects N = 1 triples")
    triples = [[v.factors[0] for v in c.vectors] for c in (config_a, config_b)]
    fields = {x.ambient for t in triples for v in t for x in (v.q, v.p) if isinstance(x, QuadNum)}
    exact = config_a.mode == config_b.mode == EXACT and len(fields) <= 1
    frames = None if exact else [_frame(t) for t in triples]
    (a1, a2, a3), bvs = triples if exact else [f[0] for f in frames]

    def parallel(u: DirectionVector, v: DirectionVector) -> bool:
        sp = symp2(u, v)
        return sp == 0 if exact else abs(sp) <= 1e-14 * math.hypot(u.q, u.p) * math.hypot(v.q, v.p)

    if parallel(a1, a2):
        raise PreconditionFailed("first two vectors of A are parallel")
    sigma = symp2(a1, a2)
    x, y = _quotient(symp2(a3, a2), sigma), _quotient(symp2(a1, a3), sigma)
    for perm, s1, s2 in itertools.product(itertools.permutations(range(3)), (1, -1), (1, -1)):
        u, v, w = bvs[perm[0]].scaled(s1), bvs[perm[1]].scaled(s2), bvs[perm[2]]
        if parallel(u, v):
            continue
        mq, mp = x * u.q + y * v.q, x * u.p + y * v.p
        if exact:
            s3 = 1 if (mq, mp) == (w.q, w.p) else -1 if (mq, mp) == (-w.q, -w.p) else 0
            gap = 0.0
        else:
            gaps = [math.hypot(mq - w.q, mp - w.p), math.hypot(mq + w.q, mp + w.p)]
            s3, gap = (-1, gaps[1]) if gaps[1] < gaps[0] else (1, gaps[0])
            if not gap <= tolerance * math.hypot(w.q, w.p):
                s3 = 0
        if s3:
            break
    else:
        return None
    ((a1, a2, _), exp_a), (bvs, exp_b) = frames or [_frame(t) for t in triples]
    u, v = bvs[perm[0]].scaled(s1), bvs[perm[1]].scaled(s2)
    sigma = symp2(a1, a2)
    # m = [u v][a1 a2]^-1: m e = (symp2(e, a2) u + symp2(a1, e) v) / sigma
    columns = [(-a2.p, a1.p), (a2.q, -a1.q)]
    try:
        lam = math.sqrt(abs(symp2(u, v) / sigma))
        scale = math.ldexp(lam, exp_b - exp_a)
        rows = [
            [0.0 + (i * t[0] + j * t[1]) / sigma / lam for i, j in columns]
            for t in ((u.q, v.q), (u.p, v.p))
        ]
    except (OverflowError, ZeroDivisionError):  # exact vectors whose floats are parallel
        scale, rows = math.inf, []
    if not 0.0 < scale < math.inf or not all(map(math.isfinite, sum(rows, []))):
        raise LimitExceeded("the scale or the matrix between the triples is past the float range")
    return Equivalence(
        matrix=UnsignedSymplecticMatrix.from_rows(rows, tolerance=1e-8),
        scale=scale,
        permutation=perm,
        signs=(s1, s2, s3),
        residual=math.ldexp(gap, exp_b),
    )


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
    gradient_evaluations (evaluations that also formed the gradient and
    Hessian: one per restart and per accepted step, but for a step that
    spends the restart's share), gauss_newton_steps
    (steps that took the Gauss-Newton fallback) and share_stops (restarts
    that spent their share of the budget while later restarts were still
    owed theirs). A lattice search reports the
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


def _seed_check(problem: SearchProblem) -> None:
    if len(problem.seeds) >= 2:
        config = MUConfiguration(problem.seeds, problem.target_k, problem.hbar, problem.mode)
        report = verify_mu(config, tolerance=1e-9)
        if not report.verdict:
            raise PreconditionFailed("seed vectors do not verify at the target K")


class _ChartObjective:
    """The objective and its derivatives in the one affine chart, compiled once.

    Factor k of a free vector is s1_k - x[l] s0_k over the first two seeds
    (one seed: s1_k = J s0_k / |s0_k|^2, slot 0's times K), with
    sigma_k = symp2(s0_k, s1_k). Every MU partner of s0 meets each s0_k
    transversally, so this chart covers every candidate, and its product
    with s0 is prod sigma_k, +/-K by the seed check, so seed-0 pairs leave
    the objective: the sum over the other pairs with a free vector of
    (log |prod t| - log(K / prod |sigma_k|))^2, one ratio, so that scaling
    the seeds by powers of two changes no bit. A factor product over its
    sigma_k is a term t: a - b * x[l], seed i >= 1 against a free factor
    (a = symp2(s_ik, s1_k) / sigma_k, b = symp2(s_ik, s0_k) / sigma_k), or
    x[k] - x[l], two free factors; it is stored as (u, c, v), the float
    ext[u] - c * ext[v] over ext = x + consts. f is inf, with no gradient,
    where some product vanishes.
    """

    def __init__(self, problem: SearchProblem) -> None:
        n = problem.n
        target = float(problem.target_k)
        seeds = [[f.as_floats() for f in v.factors] for v in problem.seeds]
        self.s0 = seeds[0]
        if len(seeds) > 1:
            self.s1 = seeds[1]
        else:  # J s0_k / |s0_k|^2 with J (q, p) = (-p, q), slot 0's times K
            self.s1 = []
            for scale, (q, p) in zip([target] + [1.0] * (n - 1), self.s0):
                r = math.hypot(q, p)
                self.s1.append((scale * (-p / r / r), scale * (q / r / r)))
        sigma = [p0 * q1 - q0 * p1 for (q0, p0), (q1, p1) in zip(self.s0, self.s1)]
        ratio = target / abs(math.prod(sigma)) if all(sigma) else 0.0
        if not 0.0 < ratio < math.inf:  # only a one-seed problem's own s1 gets here
            raise LimitExceeded(f"the chart at K = {target} leaves the float range")
        self.log_target = math.log(ratio)
        self.dims = problem.free_slots * n
        self.slots = [range(s * n, (s + 1) * n) for s in range(problem.free_slots)]
        # factor k of each vector as (u, c), its term against free factor l
        # being ext[u] - c * ext[l]: (a, b) for seed i >= 1, (k, 1.0) if free
        rows = [
            [
                ((p * q1 - q * p1) / s, (p * q0 - q * p0) / s)
                for (q, p), (q0, p0), (q1, p1), s in zip(v, self.s0, self.s1, sigma)
            ]
            for v in seeds[1:]
        ]
        self.consts = [a for row in rows for a, _ in row]
        at = [[(self.dims + i * n + k, b) for k, (_, b) in enumerate(row)] for i, row in enumerate(rows)]
        at += [[(k, 1.0) for k in slot] for slot in self.slots]
        self.terms: list[tuple[int, float, int]] = []
        self.pairs = [
            self._compile(at[i], at[j])
            for i, j in itertools.combinations(range(len(at)), 2)
            if j >= len(seeds) - 1
        ]

    def _compile(self, va, vb) -> tuple[range, list]:
        """One pair: the indices of its factor products among the terms, and
        its gradient entries (k, coefficient, the index t of the term holding
        x[k], the indices of the others), in the order the formula visits them."""
        first = len(self.terms)
        self.terms += [(u, c, l) for (u, c), (l, _) in zip(va, vb)]
        own = range(first, len(self.terms))
        grads = []
        for t in own:
            u, c, v = self.terms[t]
            others = tuple(g for g in own if g != t)
            if u < self.dims:
                grads.append((u, 1.0, t, others))
            grads.append((v, -c, t, others))
        return own, grads

    def pack(self, xs: list[float]) -> list[list[tuple[float, float]]]:
        """Free vectors as (q, p) float pairs: factor k is s1_k - x[l] s0_k."""
        return [
            [(q1 - xs[l] * q0, p1 - xs[l] * p0) for l, (q0, p0), (q1, p1) in zip(slot, self.s0, self.s1)]
            for slot in self.slots
        ]

    def evaluate(self, x: list[float], want_grad: bool, want_hessian: bool = False):
        """(f, gradient), or (f, gradient, H, G) with want_hessian too: per pair d =
        log|prod t| - log target has grad d_k = (dt/dx_k) / t over the one term t with
        x_k and hess d = -sum_t grad t grad t^T / t^2; H = 2 sum (grad d grad d^T +
        d hess d), G = 2 sum grad d grad d^T."""
        ext = x + self.consts
        products = [ext[u] - c * ext[v] for u, c, v in self.terms]
        log_target = self.log_target
        total = 0.0
        grad = [0.0] * self.dims if want_grad else None
        if want_hessian:
            hessian = [[0.0] * self.dims for _ in range(self.dims)]
            gauss_newton = [[0.0] * self.dims for _ in range(self.dims)]
        for own, grads in self.pairs:
            sp = 1.0
            for t in own:
                sp *= products[t]
            if sp == 0.0:
                return (math.inf, None, None, None) if want_hessian else (math.inf, None)
            diff = math.log(abs(sp)) - log_target
            total += diff * diff
            if want_grad:
                dd = []
                for k, coefficient, t, others in grads:
                    rest = 1.0
                    for g in others:
                        rest *= products[g]
                    grad[k] += 2.0 * diff * (coefficient * rest) / sp
                    if want_hessian:
                        dd.append((k, coefficient * rest / sp, t))
                for k, a, t in dd:
                    for l, b, u in dd:
                        gauss_newton[k][l] += 2.0 * a * b
                        hessian[k][l] += 2.0 * a * b * (1.0 - diff if t == u else 1.0)
        if want_hessian:
            return total, grad, hessian, gauss_newton
        return total, grad

    def __call__(self, x, want_grad: bool = True) -> tuple[float, np.ndarray | None]:
        value, grad = self.evaluate(np.asarray(x, dtype=float).tolist(), want_grad)
        return value, None if grad is None else np.array(grad)


def real_objective_fn(problem: SearchProblem) -> _ChartObjective:
    """The objective and gradient the real search descends (used by tests)."""
    _seed_check(problem)
    return _ChartObjective(problem)


def _cholesky_solve(a: list[list[float]], b: list[float], shift: float = 0.0) -> list[float] | None:
    """The x with (a + shift I) x = b by square-root-free Cholesky (L D L^T, by
    elimination without pivoting); None when a pivot is not positive and
    finite, so when a + shift I is not positive definite in floats."""
    rows = [row[:i] + [row[i] + shift] + row[i + 1 :] + [bi] for i, (row, bi) in enumerate(zip(a, b))]
    for i, pivot in enumerate(rows):
        if not 0.0 < pivot[i] < math.inf:
            return None
        for row in rows[i + 1 :]:
            ratio = row[i] / pivot[i]
            row[i:] = [r - ratio * p for r, p in zip(row[i:], pivot[i:])]
    x = [0.0] * len(rows)
    for i in reversed(range(len(rows))):
        x[i] = (rows[i][-1] - sum(rows[i][c] * x[c] for c in range(i + 1, len(rows)))) / rows[i][i]
    return x


def _search_real(problem: SearchProblem, budget: int, restarts: int, seed: int) -> SearchReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    objective = _ChartObjective(problem)
    evaluations = 0
    gradient_evaluations = 0
    iterations = 0
    best_val = math.inf
    best_vectors: list[list[tuple[float, float]]] = []
    restarts_used = 0
    gauss_newton_steps = 0
    share_stops = 0
    for _ in range(restarts):
        if evaluations >= budget:
            break
        # an equal share of what is left, at least the starting point, so
        # one hopeless restart cannot starve the others
        limit = evaluations + max(1, (budget - evaluations) // (restarts - restarts_used))
        restarts_used += 1
        x = rng.uniform(-3.0, 3.0, size=objective.dims).tolist()
        fx, gx, hx, gnx = objective.evaluate(x, True, True)
        evaluations += 1
        gradient_evaluations += 1
        for _ in range(400):
            if evaluations >= limit or not math.isfinite(fx):
                break
            minus = [-g for g in gx]
            delta = _cholesky_solve(hx, minus)
            if delta is None:  # H is not positive definite: G, shifted as little as will do
                gauss_newton_steps += 1
                top = max(row[i] for i, row in enumerate(gnx))
                solves = (_cholesky_solve(gnx, minus, s) for s in (0.0, *(top * 10.0**e for e in range(-15, 1))))
                delta = next((d for d in solves if d is not None), None)
            # -slope is the squared Newton decrement; f is dimensionless, so the test is scale-free
            slope = math.inf if delta is None else sum(g * d for g, d in zip(gx, delta))
            if not (math.isfinite(slope) and -slope > 1e-12 * max(fx, 1e-300)):
                break
            step, accepted = 1.0, False
            while not accepted and evaluations < limit:
                x_new = [xi + step * di for xi, di in zip(x, delta)]
                if x_new == x:  # the step is below the rounding of x
                    break
                f_new, _ = objective.evaluate(x_new, False)
                evaluations += 1
                accepted = f_new <= fx + 1e-4 * step * slope
                step *= 0.5
            if not accepted:
                break
            x, fx, decrease = x_new, f_new, fx - f_new
            iterations += 1
            if evaluations >= limit:  # the share leaves no evaluation for the gradient at x
                break
            fx, gx, hx, gnx = objective.evaluate(x, True, True)
            evaluations += 1
            gradient_evaluations += 1
            if decrease <= 1e-15 * fx:  # f is at its rounding level
                break
        share_stops += limit <= evaluations and limit < budget
        if fx < best_val:
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
            "gradient_evaluations": gradient_evaluations,
            "gauss_newton_steps": gauss_newton_steps,
            "share_stops": share_stops,
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
# Entries of the largest table a search may build: the box, which an N = 1
# search with one fixed vector solves over, or the head choices of N >= 2,
# the box squared. Height 18 is the last whose choices fit (1,874,160;
# golden5's height 16 has 1,185,920), and height 723 the last box.
_TABLE_LIMIT = 1 << 21
_INT64_LIMIT = 1 << 62


def _mul(x, y):
    a, b, _ = _product_parts(x[0], x[1], 1, y[0], y[1], 1, GOLDEN)
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
        # integral, so the stored integers are the coordinates (d = 1)
        coords.append(((q._a, q._b), (p._a, p._b)))
    return tuple(coords)


def _product_vector(coords) -> ProductVector:
    """A vector from kernel coordinates, which are golden integers (d = 1)."""
    return ProductVector(
        tuple(DirectionVector(_reduced(*q, 1, GOLDEN), _reduced(*p, 1, GOLDEN)) for q, p in coords)
    )


# Tables depend only on (p_bound, q_bound, dtype), so searches share them;
# read-only, since every caller gets the same arrays.
@functools.lru_cache(maxsize=4)
def _box_values(p_bound: int, q_bound: int, dtype):
    """The box's values (a, b) in box order."""
    p_values = np.arange(-p_bound, p_bound + 1)
    q_values = np.arange(-q_bound, q_bound + 1)
    a = np.repeat(p_values, len(q_values)).astype(dtype)
    b = np.tile(q_values, len(p_values)).astype(dtype)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@functools.lru_cache(maxsize=4)
def _head_choices(p_bound: int, q_bound: int, dtype):
    """The head factor choices as ((qa, qb), (pa, pb)) arrays: q over the
    box, then p over the box, the zero direction left out."""
    a, b = _box_values(p_bound, q_bound, dtype)
    qi, pi = np.divmod(np.arange(len(a) * len(a)), len(a))
    nonzero = (a[qi] != 0) | (b[qi] != 0) | (a[pi] != 0) | (b[pi] != 0)
    qi, pi = qi[nonzero], pi[nonzero]
    q, p = (a[qi], b[qi]), (a[pi], b[pi])
    for table in (*q, *p):
        table.flags.writeable = False
    return q, p


class _LatticeKernel:
    """One lattice search's tables and counters.

    Head factors run over the box's directions (_head_choices). A head is
    N - 1 of them, numbered with the first factor most significant, so head
    order is the order of itertools.product over the factor choices.
    """

    def __init__(self, k, n: int, height: int, m: int, stats: dict) -> None:
        self.k, self.n, self.stats = k, n, stats
        self.p_bound, self.q_bound = max(height, 1), height
        self.dtype = _kernel_dtype(m, n)
        stats["dtype"] = np.dtype(self.dtype).name
        self.box_size = (2 * self.p_bound + 1) * (2 * height + 1)
        self.choice_count = self.box_size**2 - 1
        self.heads = self.choice_count ** (n - 1)

    def _check_table(self, entries: int) -> None:
        if entries > _TABLE_LIMIT:
            raise LimitExceeded(
                f"lattice height {self.q_bound} needs a table of {entries} entries, "
                f"past the bound {_TABLE_LIMIT}"
            )

    # looked up where used, so a search builds no table it does not read,
    # and checked before one is built
    @property
    def box(self):
        self._check_table(self.box_size)
        return _box_values(self.p_bound, self.q_bound, self.dtype)

    @property
    def choices(self):
        self._check_table(self.choice_count + 1)
        return _head_choices(self.p_bound, self.q_bound, self.dtype)

    def completions(self, fixed, start: int, stop: int) -> list:
        """(head index, coordinates) for every completion among heads
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
        digits = []
        if self.n > 1:
            choices = self.choices
            rest = np.arange(start, stop)
            for _ in range(self.n - 1):
                rest, i = np.divmod(rest, self.choice_count)
                digits.append(i)
            # c is the product over head factors, the first one's products as is
            c = functools.reduce(_mul, (
                _symp(tuple((t[0][i][:, None], t[1][i][:, None]) for t in choices), x)
                for i, x in zip(reversed(digits), columns)
            ))
            conjugate, norm = _conjugate(c)
            ra, rb = _mul(self.k, conjugate)
            passed = norm != 0
            norm = np.where(passed, norm, 1)
            passed &= (ra % norm == 0) & (rb % norm == 0)
            alive = np.flatnonzero(passed.all(axis=1))
            ra, rb, norm = ra[alive], rb[alive], norm[alive]
            rhs = (ra // norm, rb // norm)
        else:
            # no head factor (N = 1): c = 1 and every right-hand side is K
            alive = np.arange(stop - start)
            rhs = tuple(np.full((stop - start, len(fixed)), t, self.dtype) for t in self.k)
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
        kept = alive[head_of[ok]]
        # the head factors, first one first, each gathered from the choice
        # tables in one pass; then the solved last factor
        factors = []
        for i in reversed(digits):
            picked = np.stack([t[i[kept]] for pair in choices for t in pair], axis=1)
            factors.append([((qa, qb), (pa, pb)) for qa, qb, pa, pb in picked.tolist()])
        q, p = ((u[ok, 0].tolist(), v[ok, 0].tolist()) for u, v in d)
        factors.append(list(zip(zip(*q), zip(*p))))
        return list(zip((start + kept).tolist(), zip(*factors)))


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
    seeds = [_lattice_vector(v) for v in problem.seeds]
    k = (k._a, k._b)
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
            for index, coords in found:
                if not visit(index + 1 - counted):
                    return
                counted = index + 1
                extend(chosen + [coords])
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
    """Look for free-slot vectors completing the seeds to a larger MU set at
    a positive K (InvalidTarget otherwise).

    Real domain: seeded multi-start damped Newton on the summed squared
    log-residuals over the one affine chart of _ChartObjective. Each step solves with
    the Hessian, or where it is not positive definite with the Gauss-Newton
    matrix shifted just enough to be, then backtracks (Armijo); a restart
    stops once the Newton decrement is tiny beside f, f or the step is at
    rounding level, or its share of the budget is spent: what is left over
    the restarts still to run, at least one evaluation, so budget an
    earlier restart leaves passes to the later ones. Golden-lattice domain: every exact
    completion inside the height box, found by enumerating the first N - 1
    factors of each free vector and solving one linear system per sign
    pattern for the last; evaluations counts enumerated heads, and an
    unsuccessful search returns no vector.
    """
    if not problem.target_k > 0:
        raise InvalidTarget(f"target K must be positive, got {problem.target_k}")
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
