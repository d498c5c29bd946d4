"""Exact arithmetic in a real quadratic extension of the rationals.

Elements are p + q*R where p, q are rationals and R satisfies R^2 = u*R + v
for ambient rationals (u, v). The default ambient is the golden one
(u = v = 1), whose R is the golden ratio. All arithmetic is exact; signs
are decided algebraically, never through floating point. An element is
stored as integers (a + b*R) / d with gcd(a, b, d) = 1 and d > 0, so every
operation is integer arithmetic followed by at most one gcd.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import (
    ContextMismatch, DivisionByZero, ExactSqrtUnavailable, InvalidProblem, NotRealEmbeddable
)

RatLike = Union[int, Fraction]


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ContextMismatch(f"expected an exact rational, got {type(value).__name__}")


def _json_fraction(pair: object, what: str) -> Fraction:
    """A JSON [numerator, denominator] pair of integers as a Fraction."""
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or any(isinstance(x, bool) or not isinstance(x, int) for x in pair)
    ):
        raise InvalidProblem(f"{what} must be an integer pair [num, den], got {pair!r}")
    if pair[1] == 0:
        raise InvalidProblem(f"{what} has a zero denominator: {pair!r}")
    return Fraction(pair[0], pair[1])


@dataclass(frozen=True)
class Ambient:
    """Defining data (u, v) of the extension R^2 = u*R + v."""

    u: Fraction
    v: Fraction
    # integer form: L, L*u, L*v and L^2 (u^2 + 4v), so R^2 = (L*u*R + L*v) / L
    _l: int = field(init=False, repr=False, compare=False)
    _lu: int = field(init=False, repr=False, compare=False)
    _lv: int = field(init=False, repr=False, compare=False)
    _ldisc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, v = _as_rat(self.u), _as_rat(self.v)
        l = math.lcm(u.denominator, v.denominator)
        lu, lv = u.numerator * (l // u.denominator), v.numerator * (l // v.denominator)
        values = dict(u=u, v=v, _l=l, _lu=lu, _lv=lv, _ldisc=lu * lu + 4 * l * lv)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def discriminant(self) -> Fraction:
        return self.u * self.u + 4 * self.v

    def require_real(self) -> None:
        if self._ldisc <= 0:
            raise NotRealEmbeddable(
                f"u^2 + 4v = {self.discriminant} <= 0: no real embedding"
            )

    def to_json(self) -> list[int]:
        return [self.u.numerator, self.u.denominator, self.v.numerator, self.v.denominator]

    @classmethod
    def from_json(cls, data: list) -> "Ambient":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise InvalidProblem(
                f"ambient encoding must be [u_num, u_den, v_num, v_den], got {data!r}"
            )
        key = (_json_fraction(data[:2], "ambient u"), _json_fraction(data[2:], "ambient v"))
        # equal ambients share one instance, so QuadNum's identity test on
        # ambients succeeds without comparing four Fractions
        if key not in _AMBIENTS:
            _AMBIENTS[key] = cls(*key)
        return _AMBIENTS[key]


GOLDEN = Ambient(Fraction(1), Fraction(1))
_AMBIENTS = {(GOLDEN.u, GOLDEN.v): GOLDEN}

_TERM_RE = re.compile(
    r"""^\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*(?P<rsym>R)?
        |
        (?P<ronly>R)
    )\s*
    """,
    re.VERBOSE,
)


@functools.total_ordering
class QuadNum:
    """Element p + q*R of the quadratic extension defined by an ambient."""

    # (a + b R) / d over _ambient; read-only through p, q and ambient
    __slots__ = ("_a", "_b", "_d", "_ambient")

    def __init__(self, p: RatLike = 0, q: RatLike = 0, ambient: Ambient = GOLDEN) -> None:
        if type(p) is int and type(q) is int:
            self._a, self._b, self._d = p, q, 1
        else:
            p, q = _as_rat(p), _as_rat(q)
            # over the lcm of two lowest-terms denominators, gcd(a, b, d) = 1
            self._d = math.lcm(p.denominator, q.denominator)
            self._a = p.numerator * (self._d // p.denominator)
            self._b = q.numerator * (self._d // q.denominator)
        self._ambient = ambient

    @property
    def p(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def q(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def ambient(self) -> Ambient:
        return self._ambient

    # -- constructors -------------------------------------------------

    @classmethod
    def root(cls, ambient: Ambient = GOLDEN) -> "QuadNum":
        return cls(0, 1, ambient)

    @classmethod
    def parse(cls, text: str, ambient: Ambient = GOLDEN) -> "QuadNum":
        """Parse the string form "p/p' + q/q' R" (either term optional)."""
        rest = text.strip()
        if not rest:
            raise InvalidProblem("empty QuadNum literal")
        # sums stay ints until a term with a denominator makes them Fractions
        p: RatLike = 0
        q: RatLike = 0
        first = True
        while rest:
            match = _TERM_RE.match(rest)
            if match is None:
                raise InvalidProblem(f"cannot parse QuadNum literal {text!r} at {rest!r}")
            sign = -1 if match.group("sign") == "-" else 1
            if match.group("sign") == "" and not first:
                raise InvalidProblem(f"missing +/- between terms in {text!r}")
            if match.group("ronly") is not None:
                q += sign
            else:
                num, den = match.group("num", "den")
                try:
                    coeff = int(num) if den is None else Fraction(int(num), int(den))
                except ZeroDivisionError:
                    raise InvalidProblem(f"zero denominator in QuadNum literal {text!r}")
                except ValueError:  # past int's limit on digits converted from a string
                    digits = max(len(num), len(den or ""))
                    raise InvalidProblem(f"QuadNum literal has a {digits}-digit coefficient: too long")
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
            "ambient": self._ambient.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadNum":
        if not isinstance(data, dict) or "p" not in data or "q" not in data:
            raise InvalidProblem(f"QuadNum encoding must hold 'p' and 'q' pairs, got {data!r}")
        ambient = Ambient.from_json(data["ambient"]) if "ambient" in data else GOLDEN
        return cls(_json_fraction(data["p"], "p"), _json_fraction(data["q"], "q"), ambient)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _ratio_str(a, d)
        q_mag = "R" if abs(b) == d else f"{_ratio_str(abs(b), d)} R"
        if a == 0:
            return q_mag if b > 0 else "-" + q_mag
        return f"{_ratio_str(a, d)} {'-' if b < 0 else '+'} {q_mag}"

    def __repr__(self) -> str:
        return f"QuadNum({self.p!r}, {self.q!r})"

    # -- arithmetic ---------------------------------------------------

    def _parts(self, other: object) -> tuple[int, int, int] | None:
        """other as integers (a, b, d) over this ambient; None for foreign types."""
        # the common operands first: a QuadNum over this very ambient, an int
        if type(other) is QuadNum and other._ambient is self._ambient:
            return other._a, other._b, other._d
        if type(other) is int:
            return other, 0, 1
        if isinstance(other, QuadNum):
            if other._ambient is not self._ambient and other._ambient != self._ambient:
                raise ContextMismatch(f"ambient mismatch: {self._ambient} vs {other._ambient}")
            return other._a, other._b, other._d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, d = parts
        return _reduced(
            self._a * d + a * self._d, self._b * d + b * self._d, self._d * d, self._ambient
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, d = parts
        return _reduced(
            self._a * d - a * self._d, self._b * d - b * self._d, self._d * d, self._ambient
        )

    def __rsub__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, d = parts
        return _reduced(
            a * self._d - self._a * d, b * self._d - self._b * d, self._d * d, self._ambient
        )

    def __mul__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        amb = self._ambient
        a, b, d = _product_parts((self._a, self._b, self._d), parts, amb)
        return _reduced(a, b, d, amb)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """self times its conjugate (u - R for R), always rational."""
        n = _reciprocal_parts((self._a, self._b, self._d), self._ambient)[2]
        return Fraction(n, self._ambient._l * self._d ** 2)

    def inverse(self) -> "QuadNum":
        return _reduced(*_inverse_parts((self._a, self._b, self._d), self._ambient), self._ambient)

    def __truediv__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        amb = self._ambient
        a, b, d = _product_parts((self._a, self._b, self._d), _inverse_parts(parts, amb), amb)
        return _reduced(a, b, d, amb)

    def __rtruediv__(self, other: object) -> "QuadNum":
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        amb = self._ambient
        a, b, d = _product_parts(parts, _inverse_parts((self._a, self._b, self._d), amb), amb)
        return _reduced(a, b, d, amb)

    def __neg__(self) -> "QuadNum":
        return _reduced(-self._a, -self._b, self._d, self._ambient)

    def __pos__(self) -> "QuadNum":
        return self

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            if other._ambient is not self._ambient and other._ambient != self._ambient:
                return False
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self.p)
        return hash((self.p, self.q, self._ambient.u, self._ambient.v))

    # -- ordering through the real embedding --------------------------

    def sign(self) -> int:
        """Algebraic sign under the real embedding; no floating point."""
        amb = self._ambient
        amb.require_real()
        # 2 L d x = s + b sqrt(L^2 D) with s = 2 L a + L u b, D = u^2 + 4v > 0.
        b = self._b
        s = 2 * amb._l * self._a + amb._lu * b
        if b == 0:
            return (s > 0) - (s < 0)
        lhs = b * b * amb._ldisc  # (b sqrt(L^2 D))^2
        rhs = s * s
        if b > 0:
            if s >= 0:
                return 1
            # s < 0: sign of b sqrt(L^2 D) - |s|
            return (lhs > rhs) - (lhs < rhs)
        if s <= 0:
            return -1
        return (rhs > lhs) - (rhs < lhs)

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_integral(self) -> bool:
        """Both coordinates p and q are integers."""
        return self._d == 1

    def __lt__(self, other: object) -> bool:
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __float__(self) -> float:
        """The correctly rounded real embedding, from integers only."""
        if self._b == 0:
            return _ratio(self._a, self._d)
        amb = self._ambient
        amb.require_real()
        # x = (s + b sqrt(E)) / n with s = 2 L a + L u b, E = L^2 D, n = 2 L d
        b, e = self._b, amb._ldisc
        s = 2 * amb._l * self._a + amb._lu * b
        n = 2 * amb._l * self._d
        root = math.isqrt(e)
        if root * root == e:
            return _ratio(s + b * root, n)
        # Ziv's loop: r <= 2^k sqrt(E) < r + 1 brackets x; when both ends
        # round to one float, x rounds to it (x is irrational, so never a tie)
        k = 64
        while True:
            r = math.isqrt(e << 2 * k)
            if s * b < 0:
                # x = (s^2 - b^2 E) / (n (s - b sqrt(E))): no cancellation,
                # s and -b sqrt(E) share a sign
                top = (s * s - b * b * e) << k
                ends = [_ratio(top, n * ((s << k) - b * rr)) for rr in (r, r + 1)]
            else:
                ends = [_ratio((s << k) + b * rr, n << k) for rr in (r, r + 1)]
            if ends[0] == ends[1]:
                return ends[0]
            k *= 2


_new = object.__new__


def _ratio(num: int, den: int) -> float:
    """num / den correctly rounded, signed infinity past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _reduced(a: int, b: int, d: int, ambient: Ambient) -> QuadNum:
    """The element (a + b R) / d, d != 0, brought to lowest terms with d > 0."""
    # d = 1, the integral case, is in lowest terms already
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = _new(QuadNum)
    x._a, x._b, x._d, x._ambient = a, b, d, ambient
    return x


def _product_parts(x: tuple, y: tuple, ambient: Ambient) -> tuple:
    """(a1 + b1 R)(a2 + b2 R) / (d1 d2) with R^2 = (L u R + L v) / L, unreduced.
    Arithmetic operators only, so integer arrays work as well as ints."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    l = ambient._l
    bb = b1 * b2
    return l * a1 * a2 + ambient._lv * bb, l * (a1 * b2 + b1 * a2) + ambient._lu * bb, l * d1 * d2


def _reciprocal_parts(x: tuple, ambient: Ambient) -> tuple:
    """1 / ((a + b R) / d) = d (L a + L u b - L b R) / n, unreduced: the conjugate
    (a + b u) - b R over the norm n / L, n = L a^2 + L u a b - L v b^2. Arithmetic
    operators only, so integer arrays work as well as ints. n is 0 for x = 0
    and, in a degenerate ambient, for a zero divisor."""
    a, b, d = x
    n = ambient._l * a * a + ambient._lu * a * b - ambient._lv * b * b
    return d * (ambient._l * a + ambient._lu * b), -d * ambient._l * b, n


def _inverse_parts(x: tuple[int, int, int], ambient: Ambient) -> tuple[int, int, int]:
    """_reciprocal_parts of a scalar x; raises where x has no inverse."""
    parts = _reciprocal_parts(x, ambient)
    if parts[2] == 0:
        if x[0] == 0 and x[1] == 0:
            raise DivisionByZero("inverse of zero")
        raise DivisionByZero(
            "zero norm: ambient is degenerate (u^2 + 4v a rational square) "
            "and the element is a zero divisor"
        )
    return parts


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
