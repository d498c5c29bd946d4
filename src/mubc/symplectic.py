"""Direction vectors, tensor-product vectors, and the unsigned symplectic law.

A direction vector a = (q, p) labels the quadrature p*position - q*momentum;
two directions a, b are attached to mutually unbiased bases exactly when the
symplectic product a^t * j * b is nonzero, and the squared overlap magnitude
of their generalized eigenstates is (2*pi*hbar)^-1 / |a^t j b|. For N pairs
of variables the vectors are Kronecker products of N directions and j is
replaced by its N-fold Kronecker power.

Scalars are either exact (QuadNum / Fraction / int) or numeric (float);
the two modes never mix inside one computation. _strict_mode and
_join_modes below are the one rule that decides the mode, here and in the
metaplectic and search modules: a float commits to numeric, a QuadNum or
Fraction to exact, and an int to neither.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InvalidDirection,
    InvalidTarget,
    InvalidProblem,
    LimitExceeded,
    ParallelDirections,
    PreconditionFailed,
)
from .exact import GOLDEN, Ambient, QuadNum, quad_sqrt

Scalar = Union[QuadNum, Fraction, int, float]

EXACT = "exact"
NUMERIC = "numeric"

#: Hard ceiling on the Kronecker power; 2^8 x 2^8 is the largest j_N built.
MAX_FACTORS = 8


def _strict_mode(x: Scalar) -> str | None:
    """Mode a scalar commits to; int commits to neither."""
    if type(x) is QuadNum:  # the common case, ahead of the isinstance chain
        return EXACT
    if isinstance(x, float):
        return NUMERIC
    if isinstance(x, (QuadNum, Fraction)):
        return EXACT
    if isinstance(x, int):
        return None
    raise ContextMismatch(f"unsupported scalar type {type(x).__name__}")


def _join_modes(*modes: str | None) -> str | None:
    joined: str | None = None
    for mode in modes:
        if mode is None:
            continue
        if joined is None:
            joined = mode
        elif joined != mode:
            raise ContextMismatch("exact and numeric scalars mixed in one value")
    return joined


def _quotient(x: Scalar, y: Scalar) -> Scalar:
    """x / y in the operands' mode: a Fraction for two ints, not int / int's float."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def scalar_str(x: Scalar) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass(frozen=True)
class DirectionVector:
    """One direction (q, p); the zero vector labels no basis."""

    q: Scalar
    p: Scalar
    # EXACT, NUMERIC, or None for two ints; derived once, outside ==/hash/repr
    mode: str | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _join_modes(_strict_mode(self.q), _strict_mode(self.p)))
        if self.q == 0 and self.p == 0:
            raise InvalidDirection("direction (0, 0) labels no basis")

    def scaled(self, factor: Scalar) -> "DirectionVector":
        return DirectionVector(factor * self.q, factor * self.p)

    def as_floats(self) -> tuple[float, float]:
        return (float(self.q), float(self.p))


@dataclass(frozen=True)
class ProductVector:
    """Kronecker product of N direction vectors, one per variable pair."""

    factors: tuple[DirectionVector, ...]
    mode: str | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) == 0:
            raise DimensionMismatch("a product vector needs at least one factor")
        object.__setattr__(self, "mode", _join_modes(*(f.mode for f in self.factors)))

    @classmethod
    def of(cls, *factors: DirectionVector | tuple[Scalar, Scalar]) -> "ProductVector":
        built = tuple(
            f if isinstance(f, DirectionVector) else DirectionVector(*f) for f in factors
        )
        return cls(built)

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def expanded(self) -> tuple[Scalar, ...]:
        """Components in R^(2^N), first factor most significant.

        The iterated Kronecker product: each further factor f replaces every
        component v by v f.q, v f.p. So a component is its factors'
        components multiplied left to right, the first one as is: N - 1
        multiplications, not N."""
        first, *rest = self.factors
        out: list[Scalar] = [first.q, first.p]
        for f in rest:
            q, p = f.q, f.p
            out = [x for v in out for x in (v * q, v * p)]
        return tuple(out)

    def scale_first_factor(self, factor: Scalar) -> "ProductVector":
        head = self.factors[0].scaled(factor)
        return ProductVector((head,) + self.factors[1:])


def symp2(a: DirectionVector, b: DirectionVector) -> Scalar:
    """Symplectic product a^t * j * b with j = [[0, -1], [1, 0]].

    Evaluates to p_a*q_b - q_a*p_b; antisymmetric and bilinear.
    """
    _join_modes(a.mode, b.mode)
    return a.p * b.q - a.q * b.p


def symp_product(a: ProductVector, b: ProductVector) -> Scalar:
    """Product of per-factor symplectic products, a^t * (j^(x)N) * b."""
    if a.n != b.n:
        raise DimensionMismatch(f"factor counts differ: {a.n} vs {b.n}")
    _join_modes(a.mode, b.mode)
    # symp2 per factor, whose mode check the vectors' check above covers;
    # the first factor's starts the product: N - 1 multiplications, not N
    pairs = zip(a.factors, b.factors)
    fa, fb = next(pairs)
    result = fa.p * fb.q - fa.q * fb.p
    for fa, fb in pairs:
        result = result * (fa.p * fb.q - fa.q * fb.p)
    return result


def build_jN(n: int) -> list[list[int]]:
    """N-fold Kronecker power of j as a dense integer matrix."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    if n > MAX_FACTORS:
        raise LimitExceeded(f"n = {n} exceeds the supported bound {MAX_FACTORS}")
    j = [[0, -1], [1, 0]]
    result = [[1]]
    for _ in range(n):
        size = len(result)
        grown = [[0] * (2 * size) for _ in range(2 * size)]
        for bi in range(2):
            for bj in range(2):
                sign = j[bi][bj]
                if sign == 0:
                    continue
                for i in range(size):
                    for k in range(size):
                        grown[bi * size + i][bj * size + k] = sign * result[i][k]
        result = grown
    return result


@functools.cache
def _jn_entries(n: int) -> tuple[tuple[int, int, int], ...]:
    """j_N's nonzero entries as (row, column, +-1), in row-major order."""
    return tuple(
        (i, k, sign) for i, row in enumerate(build_jN(n)) for k, sign in enumerate(row) if sign
    )


def expanded_product(a: ProductVector, b: ProductVector) -> Scalar:
    """Independent route: sandwich expanded coordinates around j_N."""
    if a.n != b.n:
        raise DimensionMismatch(f"factor counts differ: {a.n} vs {b.n}")
    entries = _jn_entries(a.n)
    av = a.expanded
    bv = b.expanded
    # each entry is +-1: add or subtract the term, never multiply by the sign
    total: Scalar = 0
    for i, k, sign in entries:
        if sign > 0:
            total = total + av[i] * bv[k]
        else:
            total = total - av[i] * bv[k]
    return total


def overlap_magnitude_sq(
    a: ProductVector | DirectionVector,
    b: ProductVector | DirectionVector,
    hbar: float = 1.0,
) -> float:
    """Squared overlap magnitude (2*pi*hbar)^-N / |a^t j_N b| as a float."""
    if isinstance(a, DirectionVector):
        a = ProductVector((a,))
    if isinstance(b, DirectionVector):
        b = ProductVector((b,))
    sp = symp_product(a, b)
    if sp == 0:
        raise ParallelDirections("parallel directions: zero symplectic product")
    return _overlap_constant(a.n, hbar, sp, "symplectic product a^t J b")


def _overlap_constant(n: int, hbar: float, denominator: Scalar, name: str) -> float:
    """(2*pi*hbar)^-n / |denominator| for a nonzero denominator, exact or float.

    The denominator's float, or the constant, can leave the float range
    while the denominator is nonzero; that raises LimitExceeded naming
    `name`, never a zero or degenerate verdict.
    """
    magnitude = abs(float(denominator))
    if magnitude in (0.0, math.inf):
        raise LimitExceeded(f"|{name}| is nonzero, but its float is {magnitude}")
    try:
        value = (2.0 * math.pi * hbar) ** (-n) / magnitude
    except OverflowError:
        value = math.inf
    if value in (0.0, math.inf):
        raise LimitExceeded(f"|{name}| = {magnitude:.6e} gives an overlap constant of {value}")
    return value


def _float_tolerance(entries: Sequence[Scalar], tolerance: float) -> float | None:
    """tolerance * max(1, largest |entry|^2), the slack of a float test of
    an identity whose terms are products of two entries. None when an entry
    is inf or nan: no such matrix is symplectic. A scale past the float range
    raises LimitExceeded, since an inf tolerance would accept anything.
    """
    if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
        return None
    largest = abs(max(entries, key=abs))
    try:
        tol = tolerance * max(1.0, float(largest) ** 2)
    except OverflowError:  # an int past the float range, or the square
        tol = math.inf
    if not math.isinf(tol):
        return tol
    if largest > sys.float_info.max:
        scale = f"above 2^{largest.bit_length() - 1}"
    else:
        scale = f"{float(largest):.6e}"
    raise LimitExceeded(f"matrix entry scale {scale} puts the tolerance scale past the float range")


@dataclass(frozen=True)
class UnsignedSymplecticMatrix:
    """2x2 matrix with m^t j m = sign * j, sign in {+1, -1}."""

    entries: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    sign: int

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Scalar]],
        tolerance: float = 1e-12,
    ) -> "UnsignedSymplecticMatrix":
        """The matrix, signed by its determinant: m^t j m = det(m) j for
        every 2x2 m, entry by entry in any commutative arithmetic. Exact
        entries need det = +/-1 exactly, float ones within _float_tolerance;
        anything else raises InvalidProblem."""
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise DimensionMismatch("expected a 2x2 matrix")
        (a, b), (c, d) = rows
        numeric = _join_modes(*(_strict_mode(x) for x in (a, b, c, d))) == NUMERIC
        if numeric:
            tol = _float_tolerance((a, b, c, d), tolerance)
            if tol is None:
                raise InvalidProblem("matrix is not unsigned symplectic (a non-finite entry)")
        det = a * d - b * c
        plus, minus = (abs(det - 1.0) <= tol, abs(det + 1.0) <= tol) if numeric else (det == 1, det == -1)
        if not (plus or minus):
            raise InvalidProblem("matrix is not unsigned symplectic (|det| != 1)")
        return cls(rows, 1 if plus else -1)

    def apply(self, v: DirectionVector) -> DirectionVector:
        (a, b), (c, d) = self.entries
        return DirectionVector(a * v.q + b * v.p, c * v.q + d * v.p)


@dataclass(frozen=True)
class MUConfiguration:
    """A set of product vectors asserted pairwise unbiased at a common K."""

    vectors: tuple[ProductVector, ...]
    target_k: Scalar | None
    hbar: float = 1.0
    mode: str = EXACT

    def __post_init__(self) -> None:
        if not isinstance(self.vectors, tuple):
            object.__setattr__(self, "vectors", tuple(self.vectors))
        if self.mode not in (EXACT, NUMERIC):
            raise InvalidProblem(f"unknown mode {self.mode!r}")
        ns = {v.n for v in self.vectors}
        if len(ns) > 1:
            raise DimensionMismatch(f"mixed factor counts in configuration: {sorted(ns)}")
        for v in self.vectors:
            if v.mode is not None and v.mode != self.mode:
                raise ContextMismatch(f"{v.mode} vector inside a {self.mode} configuration")
        if self.target_k is not None:
            k_mode = _strict_mode(self.target_k)
            if k_mode is not None and k_mode != self.mode:
                raise ContextMismatch(f"{k_mode} target K inside a {self.mode} configuration")
        if self.mode == EXACT:
            ambient = self.ambient
            for x in self._scalars():
                if isinstance(x, QuadNum) and x.ambient is not ambient and x.ambient != ambient:
                    raise ContextMismatch("ambient mismatch: scalars over two ambients in one configuration")

    def _scalars(self) -> Iterator[Scalar | None]:
        """K, then the components."""
        yield self.target_k
        for v in self.vectors:
            for f in v.factors:
                yield f.q
                yield f.p

    @property
    def ambient(self) -> Ambient:
        """The field of the scalars: the first QuadNum's, GOLDEN if there is none."""
        return next((x.ambient for x in self._scalars() if isinstance(x, QuadNum)), GOLDEN)

    @property
    def n(self) -> int:
        return self.vectors[0].n if self.vectors else 0

    def replace_vectors(self, vectors: Iterable[ProductVector]) -> "MUConfiguration":
        return MUConfiguration(tuple(vectors), self.target_k, self.hbar, self.mode)


@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    value: Scalar
    magnitude: float
    deviation: float
    parallel: bool
    unbiased: bool

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "value": scalar_str(self.value),
            "magnitude": self.magnitude,
            "deviation": self.deviation,
            "parallel": self.parallel,
            "unbiased": self.unbiased,
        }


@dataclass(frozen=True)
class VerificationReport:
    verdict: bool
    target_k: Scalar | None
    inferred: bool
    mode: str
    tolerance: float
    pairs: tuple[PairCheck, ...]
    max_deviation: float
    parallel_pairs: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "target_k": None if self.target_k is None else scalar_str(self.target_k),
            "inferred_k": self.inferred,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "max_deviation": self.max_deviation,
            "parallel_pairs": [list(p) for p in self.parallel_pairs],
            "pairs": [p.to_json() for p in self.pairs],
        }


def verify_mu(
    config: MUConfiguration,
    tolerance: float = 1e-12,
    infer_k: bool = False,
) -> VerificationReport:
    """Check all pairwise symplectic magnitudes against the target K.

    Exact mode compares field elements exactly; numeric mode compares at
    the given relative tolerance. Zero products are reported as parallel
    pairs, a distinct outcome from a wrong magnitude, with deviation inf.
    max_deviation is the largest pair deviation, parallel pairs included,
    and NaN if any deviation is NaN.
    """
    if len(config.vectors) < 2:
        raise PreconditionFailed("need at least two vectors to verify")
    target = config.target_k
    if infer_k:
        target = None
    checks: list[PairCheck] = []
    parallel: list[tuple[int, int]] = []
    raw: list[tuple[int, int, Scalar]] = []
    for i in range(len(config.vectors)):
        for j in range(i + 1, len(config.vectors)):
            sp = symp_product(config.vectors[i], config.vectors[j])
            raw.append((i, j, sp))
            if sp == 0:
                parallel.append((i, j))
    inferred = False
    if target is None:
        for i, j, sp in raw:
            if sp != 0:
                target = abs(sp)
                inferred = True
                break
        if target is None:
            raise PreconditionFailed("all pairs are parallel; no K to infer")
    if config.mode == EXACT:
        if target <= 0:
            raise InvalidTarget(f"target K must be positive, got {target}")
    else:
        target_float = float(target)
        if target_float <= 0:
            raise InvalidTarget(f"target K must be positive, got {target_float}")
    max_dev = 0.0
    verdict = True
    for i, j, sp in raw:
        if sp == 0:
            check = PairCheck(i, j, sp, 0.0, math.inf, True, False)
        else:
            mag = abs(sp)
            mag_float = float(mag)
            if config.mode == EXACT:
                ok = mag == target
                # exact quotient first: float(target) can underflow to 0
                deviation = 0.0 if ok else float(abs(mag - target) / target)
            else:
                deviation = abs(mag_float - target_float) / abs(target_float)
                ok = deviation <= tolerance
            check = PairCheck(i, j, sp, mag_float, deviation, False, ok)
        # max(0.0, nan) is 0.0, and a NaN deviation must not read as agreement;
        # a parallel pair's inf counts too, short of a NaN already taken
        if math.isnan(check.deviation) or check.deviation > max_dev:
            max_dev = check.deviation
        verdict = verdict and check.unbiased
        checks.append(check)
    return VerificationReport(
        verdict=verdict,
        target_k=target,
        inferred=inferred,
        mode=config.mode,
        tolerance=tolerance,
        pairs=tuple(checks),
        max_deviation=max_dev,
        parallel_pairs=tuple(parallel),
    )


def rescale_config(config: MUConfiguration, k_prime: Scalar) -> MUConfiguration:
    """Scale every vector so the common magnitude moves from K to K'.

    Each vector picks up the factor sqrt(K'/K) (applied to its first
    Kronecker factor), so every pairwise product scales by K'/K.
    """
    if len(config.vectors) == 0:
        raise PreconditionFailed("empty configuration")
    k_mode = _strict_mode(k_prime)
    if k_mode is not None and k_mode != config.mode:
        raise ContextMismatch(f"{k_mode} target K' for a {config.mode} configuration")
    target = config.target_k
    if target is None:
        report = verify_mu(config, infer_k=True)
        if not report.verdict:
            raise PreconditionFailed("configuration does not verify; cannot rescale")
        target = report.target_k
    if config.mode == NUMERIC:
        kp = float(k_prime)
        if kp <= 0:
            raise InvalidTarget(f"target K' must be positive, got {kp}")
        lam = math.sqrt(kp / float(target))
        scaled = [v.scale_first_factor(lam) for v in config.vectors]
        return MUConfiguration(tuple(scaled), kp, config.hbar, config.mode)
    if k_prime <= 0:
        raise InvalidTarget(f"target K' must be positive, got {k_prime}")
    ratio = _quotient(k_prime, target)
    if not isinstance(ratio, QuadNum):
        ratio = QuadNum(ratio, 0, config.ambient)
    lam = quad_sqrt(ratio)
    scaled = [v.scale_first_factor(lam) for v in config.vectors]
    return MUConfiguration(tuple(scaled), k_prime, config.hbar, config.mode)


def apply_transform(
    m: UnsignedSymplecticMatrix,
    config: MUConfiguration,
    factor_index: int = 0,
) -> MUConfiguration:
    """Apply one 2x2 unsigned symplectic map to a chosen Kronecker slot."""
    if not (0 <= factor_index < config.n):
        raise DimensionMismatch(
            f"factor index {factor_index} out of range for N = {config.n}"
        )
    new_vectors = []
    for v in config.vectors:
        factors = list(v.factors)
        factors[factor_index] = m.apply(factors[factor_index])
        new_vectors.append(ProductVector(tuple(factors)))
    return config.replace_vectors(new_vectors)


# -- JSON encoding -----------------------------------------------------


def _emit_scalar(x: Scalar, mode: str):
    if mode == NUMERIC:
        return float(x)
    return scalar_str(x)


def _json_number(value: object, what: str) -> float:
    """A JSON number as a finite float; InvalidProblem for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidProblem(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidProblem(f"{what} must be finite, got {value!r}")
    return number


def _parse_scalar(value, mode: str, ambient: Ambient) -> Scalar:
    if mode == NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ContextMismatch(f"numeric mode expects numbers, got {value!r}")
        return _json_number(value, "numeric entries")
    if isinstance(value, bool):
        raise ContextMismatch(f"exact mode expects exact scalars, got {value!r}")
    if isinstance(value, int):
        return QuadNum(value, 0, ambient)
    if isinstance(value, str):
        return QuadNum.parse(value, ambient)
    if isinstance(value, dict):
        parsed = QuadNum.from_json(value)
        if "ambient" not in value:
            parsed = QuadNum(parsed.p, parsed.q, ambient)
        elif parsed.ambient != ambient:
            raise ContextMismatch(f"ambient mismatch: scalar over {parsed.ambient} in a file over {ambient}")
        return parsed
    if isinstance(value, float):
        raise ContextMismatch(f"float {value!r} not allowed in exact mode")
    raise ContextMismatch(f"cannot parse scalar {value!r}")


def config_to_json(config: MUConfiguration) -> dict:
    data: dict = {
        "N": config.n,
        "mode": config.mode,
        "hbar": config.hbar,
        "K": None if config.target_k is None else _emit_scalar(config.target_k, config.mode),
        "vectors": [
            [[_emit_scalar(f.q, config.mode), _emit_scalar(f.p, config.mode)] for f in v.factors]
            for v in config.vectors
        ],
    }
    if config.mode == EXACT:
        data["ambient"] = config.ambient.to_json()
    return data


def config_from_json(data: dict) -> MUConfiguration:
    if not isinstance(data, dict):
        raise InvalidProblem("configuration must be a JSON object")
    for key in ("mode", "vectors"):
        if key not in data:
            raise InvalidProblem(f"configuration is missing the {key!r} field")
    mode = data["mode"]
    if mode not in (EXACT, NUMERIC):
        raise InvalidProblem(f"unknown mode {mode!r}")
    ambient = Ambient.from_json(data["ambient"]) if "ambient" in data else GOLDEN
    hbar = _json_number(data.get("hbar", 1.0), "hbar")
    if hbar <= 0:
        raise InvalidProblem(f"hbar must be positive, got {hbar!r}")
    declared_n = data.get("N")
    if declared_n is not None and (isinstance(declared_n, bool) or not isinstance(declared_n, int)):
        raise InvalidProblem(f"N must be an integer, got {declared_n!r}")
    if not isinstance(data["vectors"], (list, tuple)):
        raise InvalidProblem("field 'vectors' must be a list of vectors")
    vectors = []
    for vi, vec in enumerate(data["vectors"]):
        if not isinstance(vec, (list, tuple)):
            raise InvalidProblem(f"vector {vi} is not a list of [Q, P] factors")
        factors = []
        for fi, pair in enumerate(vec):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidProblem(f"vector {vi} factor {fi} is not a [Q, P] pair")
            factors.append(
                DirectionVector(
                    _parse_scalar(pair[0], mode, ambient),
                    _parse_scalar(pair[1], mode, ambient),
                )
            )
        vectors.append(ProductVector(tuple(factors)))
    if declared_n is not None and vectors and declared_n != vectors[0].n:
        raise DimensionMismatch(
            f"declared N = {declared_n} but vectors have {vectors[0].n} factors"
        )
    target = data.get("K")
    parsed_target = None if target is None else _parse_scalar(target, mode, ambient)
    return MUConfiguration(tuple(vectors), parsed_target, hbar, mode)
