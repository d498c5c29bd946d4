"""Certificates, equivalences, and extension searches for unbiased sets.

Three kinds of question about a set of directions with pairwise unsigned
symplectic products equal to a common K:

* certify_no_fourth: for an N = 1 triple, witness that no fourth direction
  exists by solving all eight sign-pattern linear systems and recording
  each contradiction. The golden-lattice search solves the same systems
  for the last factor of each free vector.
* find_equivalence: hunt for a rescaled unsigned symplectic map carrying
  one triple onto another up to ordering and per-vector signs.
* search_extension / enumerate_triples_n1: look for additional product
  vectors, either by seeded multi-start descent over real factor
  coordinates or exhaustively over the golden lattice.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProblem,
    PreconditionFailed,
)
from .exact import GOLDEN, QuadNum
from .symplectic import (
    EXACT,
    NUMERIC,
    DirectionVector,
    MUConfiguration,
    ProductVector,
    Scalar,
    UnsignedSymplecticMatrix,
    config_from_json,
    config_to_json,
    symp2,
    symp_product,
    verify_mu,
)

# -- fourth-vector infeasibility certificates ---------------------------


def _div(x: Scalar, y: Scalar) -> Scalar:
    if isinstance(x, QuadNum) or isinstance(y, QuadNum):
        if not isinstance(x, QuadNum):
            x = QuadNum(x, 0, y.ambient)
        return x / y
    if isinstance(x, float) or isinstance(y, float):
        return x / y
    return Fraction(x) / Fraction(y)


@dataclass(frozen=True)
class SignPatternRecord:
    """Outcome of one of the eight sign-pattern linear systems."""

    signs: tuple[int, int, int]
    solution: DirectionVector | None
    residual: float
    consistent: bool
    rank_coeff: int
    rank_aug: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "signs": list(self.signs),
            "solution": None if self.solution is None else [
                str(self.solution.q), str(self.solution.p)
            ],
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
    """A fourth direction satisfying one sign pattern (never reachable for
    a genuine unbiased triple; kept for honesty of the return contract)."""

    direction: DirectionVector
    signs: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "direction": [str(self.direction.q), str(self.direction.p)],
            "signs": list(self.signs),
        }


def _is_zero(x: Scalar, scale: Scalar, tolerance: float) -> bool:
    """Exact scalars compare exactly; floats relative to the magnitude of scale."""
    if isinstance(x, float):
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
            _div(e * b.q - a.q * f, det), _div((-a.p) * f - e * (-b.p), det)
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
    if not k > 0:
        raise PreconditionFailed(f"k must be positive, got {k}")
    for x, y in ((a, b), (b, c), (a, c)):
        mag = abs(symp2(x, y))
        if isinstance(mag, float):
            ok = abs(mag - float(k)) <= tolerance * float(k)
        else:
            ok = mag == k
        if not ok:
            raise PreconditionFailed(
                f"pair ({x}, {y}) has |product| {mag}, not the target {k}"
            )
    records = []
    for solved in _solve_sign_patterns((a, b, c), (k, k, k), tolerance):
        d = solved.solution
        note = ""
        if solved.consistent:
            confirm = verify_mu(
                MUConfiguration(
                    tuple(ProductVector((v,)) for v in (a, b, c, d)),
                    k,
                    mode=NUMERIC if d.mode == NUMERIC else EXACT,
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


def _triple_floats(config: MUConfiguration) -> list[np.ndarray]:
    if config.n != 1 or len(config.vectors) != 3:
        raise DimensionMismatch("equivalence search expects N = 1 triples")
    return [np.array(v.factors[0].as_floats()) for v in config.vectors]


def find_equivalence(
    config_a: MUConfiguration,
    config_b: MUConfiguration,
    tolerance: float = 1e-10,
) -> Equivalence | None:
    """Search the 6 orderings x 4 sign choices for a linear equivalence.

    For each candidate, the matrix is solved linearly from two vector
    correspondences and checked on the third; the determinant fixes the
    positive scale lambda with |det m| = 1. Returns None when no candidate
    survives.
    """
    avs = _triple_floats(config_a)
    bvs = _triple_floats(config_b)
    a_cols = np.column_stack([avs[0], avs[1]])
    if abs(np.linalg.det(a_cols)) < 1e-14:
        raise PreconditionFailed("first two vectors of A are parallel")
    for perm in itertools.permutations(range(3)):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            target = np.column_stack([s1 * bvs[perm[0]], s2 * bvs[perm[1]]])
            try:
                m_scaled = target @ np.linalg.inv(a_cols)
            except np.linalg.LinAlgError:
                continue
            det = np.linalg.det(m_scaled)
            if abs(det) < 1e-14:
                continue
            mapped = m_scaled @ avs[2]
            reference = np.linalg.norm(bvs[perm[2]]) + 1.0
            best_s3 = None
            best_gap = math.inf
            for s3 in (1, -1):
                gap = float(np.linalg.norm(mapped - s3 * bvs[perm[2]]))
                if gap < best_gap:
                    best_gap = gap
                    best_s3 = s3
            if best_gap > tolerance * reference:
                continue
            lam = math.sqrt(abs(det))
            m = m_scaled / lam
            matrix = UnsignedSymplecticMatrix.from_rows(
                ((float(m[0, 0]), float(m[0, 1])), (float(m[1, 0]), float(m[1, 1]))),
                tolerance=1e-8,
            )
            return Equivalence(
                matrix=matrix,
                scale=lam,
                permutation=perm,
                signs=(s1, s2, best_s3),
                residual=best_gap,
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

    def to_json(self) -> dict:
        mode = EXACT if self.domain == GOLDEN_LATTICE else NUMERIC
        config = MUConfiguration(self.seeds, self.target_k, self.hbar, mode)
        data = config_to_json(config)
        return {
            "N": self.n,
            "mode": mode,
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
        }


GRAD_TOL = 1e-10
STEP_TOL = 1e-14


def _seed_check(problem: SearchProblem) -> None:
    mode = EXACT if problem.domain == GOLDEN_LATTICE else NUMERIC
    if len(problem.seeds) >= 2:
        config = MUConfiguration(problem.seeds, problem.target_k, problem.hbar, mode)
        report = verify_mu(config, tolerance=1e-9)
        if not report.verdict:
            raise PreconditionFailed("seed vectors do not verify at the target K")


def _real_pack(problem: SearchProblem, charts: tuple[int, ...], x: np.ndarray) -> list[list[tuple[float, float]]]:
    """Free vectors as (q, p) float pairs from gauge-fixed coordinates."""
    vectors = []
    idx = 0
    pos = 0
    for _ in range(problem.free_slots):
        factors = []
        for _ in range(problem.n):
            if charts[idx] == 0:
                factors.append((1.0, float(x[pos])))
                pos += 1
            else:
                factors.append((0.0, 1.0))
            idx += 1
        vectors.append(factors)
    return vectors


def _real_objective(
    problem: SearchProblem,
    charts: tuple[int, ...],
    seeds: list[list[tuple[float, float]]],
    log_k: float,
    x: np.ndarray,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    free = _real_pack(problem, charts, x)
    all_vectors = seeds + free
    n_free = len(free)
    n_seeds = len(seeds)
    total = 0.0
    grad = np.zeros_like(x) if want_grad else None
    # map (slot, factor) -> position in x
    positions = {}
    pos = 0
    idx = 0
    for slot in range(problem.free_slots):
        for factor in range(problem.n):
            if charts[idx] == 0:
                positions[(slot, factor)] = pos
                pos += 1
            idx += 1
    for i in range(len(all_vectors)):
        for j in range(i + 1, len(all_vectors)):
            if i < n_seeds and j < n_seeds:
                continue  # constant contribution; exactly zero for verified seeds
            va, vb = all_vectors[i], all_vectors[j]
            factor_products = [
                va[f][1] * vb[f][0] - va[f][0] * vb[f][1] for f in range(problem.n)
            ]
            sp = 1.0
            for fp in factor_products:
                sp *= fp
            if sp == 0.0:
                return math.inf, grad
            diff = math.log(abs(sp)) - log_k
            total += diff * diff
            if not want_grad:
                continue
            for f in range(problem.n):
                rest = 1.0
                for g in range(problem.n):
                    if g != f:
                        rest *= factor_products[g]
                if i >= n_seeds:
                    key = (i - n_seeds, f)
                    if key in positions:
                        # d symp2 / d (va[f].p) = vb[f].q
                        dsp = vb[f][0] * rest
                        grad[positions[key]] += 2.0 * diff * dsp / sp
                if j >= n_seeds:
                    key = (j - n_seeds, f)
                    if key in positions:
                        dsp = -va[f][0] * rest
                        grad[positions[key]] += 2.0 * diff * dsp / sp
    return total, grad


def real_objective_fn(problem: SearchProblem):
    """Expose the gauge-fixed objective and gradient in the chart that pins
    every factor's first component to 1 (used by tests)."""
    _seed_check(problem)
    charts = (0,) * (problem.free_slots * problem.n)
    seeds = [[f.as_floats() for f in v.factors] for v in problem.seeds]
    log_k = math.log(float(problem.target_k))

    def fn(x: np.ndarray, want_grad: bool = True):
        return _real_objective(problem, charts, seeds, log_k, np.asarray(x, dtype=float), want_grad)

    return fn


def _chart_sequence(problem: SearchProblem) -> list[tuple[int, ...]]:
    dims = problem.free_slots * problem.n
    combos = sorted(itertools.product((0, 1), repeat=dims), key=lambda c: sum(c))
    return combos


def _search_real(problem: SearchProblem, budget: int, restarts: int, seed: int) -> SearchReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    charts_all = _chart_sequence(problem)
    rich = charts_all[0]
    others = charts_all[1:]
    seeds = [[f.as_floats() for f in v.factors] for v in problem.seeds]
    log_k = math.log(float(problem.target_k))
    evaluations = 0
    iterations = 0
    best_val = math.inf
    best_vectors: list[list[tuple[float, float]]] = []
    restarts_used = 0
    for r in range(restarts):
        if evaluations >= budget:
            break
        restarts_used += 1
        if others and r % 2 == 1:
            charts = others[(r // 2) % len(others)]
        else:
            charts = rich
        dims = charts.count(0)
        x = rng.uniform(-3.0, 3.0, size=dims)
        fx, gx = _real_objective(problem, charts, seeds, log_k, x, True)
        evaluations += 1
        for _ in range(400):
            if evaluations >= budget or not math.isfinite(fx):
                break
            gnorm = float(np.linalg.norm(gx)) if gx is not None and dims else 0.0
            if gnorm < GRAD_TOL:
                break
            step = 1.0
            accepted = False
            while step * gnorm >= STEP_TOL:
                x_new = x - step * gx
                f_new, _ = _real_objective(problem, charts, seeds, log_k, x_new, False)
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
            fx, gx = _real_objective(problem, charts, seeds, log_k, x, True)
            evaluations += 1
            iterations += 1
        if math.isfinite(fx) and fx < best_val:
            best_val = fx
            best_vectors = _real_pack(problem, charts, x)
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


def _search_lattice(problem: SearchProblem, budget: int, seed: int | None) -> SearchReport:
    """Every filling of the free slots by golden-lattice vectors in the box.

    A free vector splits into a head (its first N - 1 factors, enumerated
    over the box) and a last factor d. Its product with a fixed vector x is
    c * symp2(d, x_N), where c is the head's product with x's first N - 1
    factors, so d solves symp2(d, x_N) = +/- K / c for every fixed x: one
    linear system per sign pattern. A head is skipped when some c is zero or
    K / c is not integral, because an integral d has integral products with
    integral x_N. Further free slots recurse, each accepted vector joining
    the fixed ones. The budget caps enumerated heads.
    """
    start = time.perf_counter()
    k = _golden_integer(problem.target_k)
    if k.sign() <= 0:
        raise InvalidProblem(f"target K must be positive, got {k}")
    seeds = [
        tuple(DirectionVector(_golden_integer(f.q), _golden_integer(f.p)) for f in v.factors)
        for v in problem.seeds
    ]
    components = _height_box(problem.height)
    box = set(components)
    # a head is the first N - 1 factors, so an N = 1 search needs no choices
    factor_choices = []
    if problem.n >= 2:
        factor_choices = [
            DirectionVector(qc, pc)
            for qc in components
            for pc in components
            if not (qc.is_zero and pc.is_zero)
        ]

    def last_factors(rows: list[DirectionVector], rhs: list[QuadNum]) -> list[DirectionVector]:
        if len(rows) == 1:
            # One constraint leaves a line: pin the coordinate it does not
            # fix to each box value. The pin's own sign stays +1, since the
            # box already holds both signs of every value.
            x = rows[0]
            # symp2(d, (0, -1)) = d.q and symp2(d, (1, 0)) = d.p
            pin = (
                DirectionVector(QuadNum(0), QuadNum(-1))
                if x.q != 0
                else DirectionVector(QuadNum(1), QuadNum(0))
            )
            solved = [
                s
                for t in components
                for s in _solve_sign_patterns((x, pin), (rhs[0], t))
                if s.signs[1] == 1
            ]
        else:
            # fixed vectors are pairwise unbiased, so every factor slot has rank 2
            solved = _solve_sign_patterns(rows, rhs)
        return [
            s.solution
            for s in solved
            if s.consistent and s.solution.q in box and s.solution.p in box
        ]

    evaluations = 0
    exhausted = True
    solutions: list[tuple[ProductVector, ...]] = []

    def extend(chosen: list[tuple[DirectionVector, ...]]) -> None:
        nonlocal evaluations, exhausted
        if len(chosen) == problem.free_slots:
            solutions.append(tuple(ProductVector(v) for v in chosen))
            return
        fixed = seeds + chosen
        for head in itertools.product(factor_choices, repeat=problem.n - 1):
            if evaluations >= budget:
                exhausted = False
                return
            evaluations += 1
            rhs = []
            for x in fixed:
                c = 1
                for h, xf in zip(head, x):
                    c = c * symp2(h, xf)
                if c == 0:
                    break
                r = k / c
                if not r.is_integral:
                    break
                rhs.append(r)
            else:
                for d in last_factors([x[-1] for x in fixed], rhs):
                    extend(chosen + [head + (d,)])

    extend([])
    residual = math.inf
    if solutions:
        outcome = "extended"
        vectors = solutions[0]
        # the reported residual must match an independent re-verification
        residual = verify_mu(
            MUConfiguration(problem.seeds + vectors, problem.target_k, problem.hbar, EXACT),
            tolerance=0.0,
        ).max_deviation
    else:
        outcome = "exhausted" if exhausted else "no-improvement"
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
    )


def search_extension(
    problem: SearchProblem,
    budget: int = 200000,
    restarts: int = 40,
    seed: int | None = None,
) -> SearchReport:
    """Look for free-slot vectors completing the seeds to a larger MU set.

    Real domain: seeded multi-start gradient descent with backtracking on
    the summed squared log-residuals, over gauge-fixed factor coordinates
    (first nonzero component of each factor pinned to 1; factors with zero
    first component use the complementary chart). Golden-lattice domain:
    every exact completion inside the height box, found by enumerating the
    first N - 1 factors of each free vector and solving one linear system
    per sign pattern for the last; evaluations counts enumerated heads, and
    an unsuccessful search returns no vector.
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


def enumerate_triples_n1(k: Scalar, height: int) -> list[MUConfiguration]:
    """All equivalence classes of N = 1 golden-lattice triples at level k.

    Enumerates lattice directions with rational parts bounded by max(height, 1)
    and golden parts by height, keeps triangles whose three pairwise unsigned
    products equal k exactly, and deduplicates by linear equivalence.
    """
    if height < 0:
        raise InvalidProblem("height must be nonnegative")
    k = _golden_integer(k)
    neg_k = -k
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
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(vectors))}
    for i, j in itertools.combinations(range(len(vectors)), 2):
        sp = symp2(vectors[i], vectors[j])
        if sp == k or sp == neg_k:
            adjacency[i].add(j)
            adjacency[j].add(i)
    classes: list[MUConfiguration] = []
    for i in range(len(vectors)):
        for j in sorted(adjacency[i]):
            if j <= i:
                continue
            for l in sorted(adjacency[i] & adjacency[j]):
                if l <= j:
                    continue
                triple = MUConfiguration(
                    tuple(ProductVector((vectors[t],)) for t in (i, j, l)), k, mode=EXACT
                )
                if any(find_equivalence(rep, triple) is not None for rep in classes):
                    continue
                classes.append(triple)
    return classes
