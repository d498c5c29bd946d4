"""Exact arithmetic in a real quadratic extension of the rationals.

Elements are p + q*R where p, q are rationals and R satisfies R^2 = u*R + v
for ambient rationals (u, v). The default ambient is the golden one
(u = v = 1), whose R is the golden ratio. All arithmetic is exact; signs
are decided algebraically, never through floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath

from .errors import ContextMismatch, DivisionByZero, ExactSqrtUnavailable, NotRealEmbeddable

# Exact rational scalar. fractions.Fraction already guarantees the contract:
# arbitrary precision, lowest terms, positive denominator.
Rat = Fraction

RatLike = Union[int, Fraction]


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ContextMismatch(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Ambient:
    """Defining data (u, v) of the extension R^2 = u*R + v."""

    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _as_rat(self.u))
        object.__setattr__(self, "v", _as_rat(self.v))

    @property
    def discriminant(self) -> Fraction:
        return self.u * self.u + 4 * self.v

    def require_real(self) -> None:
        if self.discriminant <= 0:
            raise NotRealEmbeddable(
                f"u^2 + 4v = {self.discriminant} <= 0: no real embedding"
            )

    def root_value(self, digits: int = 50) -> mpmath.mpf:
        # R = (u + sqrt(u^2 + 4v)) / 2, the larger root.
        self.require_real()
        with mpmath.workdps(digits + 10):
            d = mpmath.mpf(self.discriminant.numerator) / self.discriminant.denominator
            u = mpmath.mpf(self.u.numerator) / self.u.denominator
            return (u + mpmath.sqrt(d)) / 2

    def to_json(self) -> list[int]:
        return [self.u.numerator, self.u.denominator, self.v.numerator, self.v.denominator]

    @classmethod
    def from_json(cls, data: list) -> "Ambient":
        if len(data) != 4:
            raise ValueError("ambient encoding must be [u_num, u_den, v_num, v_den]")
        return cls(Fraction(int(data[0]), int(data[1])), Fraction(int(data[2]), int(data[3])))


GOLDEN = Ambient(Fraction(1), Fraction(1))

_TERM_RE = re.compile(
    r"""^\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coeff>\d+(?:\s*/\s*\d+)?)\s*(?P<rsym>R)?
        |
        (?P<ronly>R)
    )\s*
    """,
    re.VERBOSE,
)


class QuadNum:
    """Element p + q*R of the quadratic extension defined by an ambient."""

    __slots__ = ("p", "q", "ambient")

    p: Fraction
    q: Fraction
    ambient: Ambient

    def __init__(self, p: RatLike = 0, q: RatLike = 0, ambient: Ambient = GOLDEN) -> None:
        object.__setattr__(self, "p", _as_rat(p))
        object.__setattr__(self, "q", _as_rat(q))
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: RatLike, ambient: Ambient = GOLDEN) -> "QuadNum":
        return cls(_as_rat(value), Fraction(0), ambient)

    @classmethod
    def root(cls, ambient: Ambient = GOLDEN) -> "QuadNum":
        return cls(Fraction(0), Fraction(1), ambient)

    @classmethod
    def parse(cls, text: str, ambient: Ambient = GOLDEN) -> "QuadNum":
        """Parse the string form "p/p' + q/q' R" (either term optional)."""
        rest = text.strip()
        if not rest:
            raise ValueError("empty QuadNum literal")
        p = Fraction(0)
        q = Fraction(0)
        first = True
        while rest:
            match = _TERM_RE.match(rest)
            if match is None:
                raise ValueError(f"cannot parse QuadNum literal {text!r} at {rest!r}")
            sign = -1 if match.group("sign") == "-" else 1
            if match.group("sign") == "" and not first:
                raise ValueError(f"missing +/- between terms in {text!r}")
            if match.group("ronly") is not None:
                q += sign
            else:
                coeff = Fraction(match.group("coeff").replace(" ", ""))
                if match.group("rsym") is not None:
                    q += sign * coeff
                else:
                    p += sign * coeff
            rest = rest[match.end():]
            first = False
        return cls(p, q, ambient)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": [self.p.numerator, self.p.denominator],
            "q": [self.q.numerator, self.q.denominator],
            "ambient": self.ambient.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadNum":
        ambient = Ambient.from_json(data["ambient"]) if "ambient" in data else GOLDEN
        p = Fraction(int(data["p"][0]), int(data["p"][1]))
        q = Fraction(int(data["q"][0]), int(data["q"][1]))
        return cls(p, q, ambient)

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        q_part = "R" if self.q == 1 else ("-R" if self.q == -1 else f"{self.q} R")
        if self.p == 0:
            return q_part
        joiner = "- " if self.q < 0 else "+ "
        mag = abs(self.q)
        q_mag = "R" if mag == 1 else f"{mag} R"
        return f"{self.p} {joiner}{q_mag}"

    def __repr__(self) -> str:
        return f"QuadNum({self.p!r}, {self.q!r})"

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: object) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            if other.ambient != self.ambient:
                raise ContextMismatch(
                    f"ambient mismatch: {self.ambient} vs {other.ambient}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other, 0, self.ambient)
        return None

    def __add__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadNum(self.p + rhs.p, self.q + rhs.q, self.ambient)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadNum(self.p - rhs.p, self.q - rhs.q, self.ambient)

    def __rsub__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        u, v = self.ambient.u, self.ambient.v
        # (p1 + q1 R)(p2 + q2 R) with R^2 = u R + v
        p = self.p * rhs.p + v * self.q * rhs.q
        q = self.p * rhs.q + self.q * rhs.p + u * self.q * rhs.q
        return QuadNum(p, q, self.ambient)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadNum":
        # The other root of x^2 = ux + v is u - R.
        return QuadNum(self.p + self.q * self.ambient.u, -self.q, self.ambient)

    def norm(self) -> Fraction:
        # self * self.conjugate(), always rational.
        u, v = self.ambient.u, self.ambient.v
        return self.p * self.p + u * self.p * self.q - v * self.q * self.q

    def inverse(self) -> "QuadNum":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        n = self.norm()
        if n == 0:
            raise DivisionByZero(
                "zero norm: ambient is degenerate (u^2 + 4v a rational square) "
                "and the element is a zero divisor"
            )
        conj = self.conjugate()
        return QuadNum(conj.p / n, conj.q / n, self.ambient)

    def __truediv__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int) -> "QuadNum":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        result = QuadNum(1, 0, self.ambient)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.p, -self.q, self.ambient)

    def __pos__(self) -> "QuadNum":
        return self

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        if isinstance(other, QuadNum):
            if other.ambient != self.ambient:
                return False
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.ambient.u, self.ambient.v))

    # -- ordering through the real embedding --------------------------

    def sign(self) -> int:
        """Algebraic sign under the real embedding; no floating point."""
        self.ambient.require_real()
        # 2x = s + q*sqrt(D) with s = 2p + qu, D = u^2 + 4v > 0.
        s = 2 * self.p + self.q * self.ambient.u
        q = self.q
        if q == 0:
            return 0 if s == 0 else (1 if s > 0 else -1)
        d = self.ambient.discriminant
        lhs = q * q * d  # (q sqrt(D))^2
        rhs = s * s
        if q > 0:
            if s >= 0:
                return 1
            # s < 0: sign of q*sqrt(D) - |s|
            return 0 if lhs == rhs else (1 if lhs > rhs else -1)
        if s <= 0:
            return -1
        return 0 if lhs == rhs else (1 if rhs > lhs else -1)

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __le__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() <= 0

    def __gt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() > 0

    def __ge__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() >= 0

    def embed(self, digits: int = 50) -> mpmath.mpf:
        """Real value of the element to the requested digit count."""
        with mpmath.workdps(digits + 10):
            r = self.ambient.root_value(digits)
            p = mpmath.mpf(self.p.numerator) / self.p.denominator
            q = mpmath.mpf(self.q.numerator) / self.q.denominator
            return mpmath.mpf(p + q * r)

    def __float__(self) -> float:
        if self.q == 0:
            return float(self.p)
        return float(self.embed(30))


def _rat_sqrt(r: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None."""
    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    num = math.isqrt(r.numerator)
    den = math.isqrt(r.denominator)
    if num * num != r.numerator or den * den != r.denominator:
        return None
    return Fraction(num, den)


def quad_sqrt(x: QuadNum) -> QuadNum:
    """Exact square root within the field, if one exists.

    Solves (a + bR)^2 = x by reducing to rational quadratics; raises
    ExactSqrtUnavailable when no field element squares to x.
    """
    if x.sign() < 0:
        raise ExactSqrtUnavailable(f"{x} is negative")
    u, v = x.ambient.u, x.ambient.v
    d = x.ambient.discriminant
    candidates: list[tuple[Fraction, Fraction]] = []
    if x.q == 0:
        a = _rat_sqrt(x.p)
        if a is not None:
            candidates.append((a, Fraction(0)))
        # pure-R^2-multiple case: a = -u b / 2, b^2 D / 4 = p
        b_sq = 4 * x.p / d
        b = _rat_sqrt(b_sq)
        if b is not None:
            candidates.append((-u * b / 2, b))
    else:
        # b != 0: a = (q - u b^2) / (2 b); t = b^2 solves
        # D t^2 - 2 (u q + 2 p) t + q^2 = 0.
        half = u * x.q + 2 * x.p
        disc = half * half - d * x.q * x.q
        root = _rat_sqrt(disc)
        if root is not None:
            for t in {(half + root) / d, (half - root) / d}:
                b = _rat_sqrt(t)
                if b is None or b == 0:
                    continue
                a = (x.q - u * b * b) / (2 * b)
                candidates.append((a, b))
    for a, b in candidates:
        y = QuadNum(a, b, x.ambient)
        if y * y == x:
            return abs(y)
    raise ExactSqrtUnavailable(f"no exact square root of {x} in the field")
