"""Exact rational and quadratic field arithmetic tests."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mubc import (
    GOLDEN,
    Ambient,
    ContextMismatch,
    DivisionByZero,
    ExactSqrtUnavailable,
    InvalidProblem,
    LimitExceeded,
    NotRealEmbeddable,
    QuadNum,
    quad_sqrt,
)

from embedding import embed

R = QuadNum.root()
ONE = QuadNum(1)
ZERO = QuadNum(0)


def qn(p, q=0):
    return QuadNum(Fraction(p), Fraction(q))


# strategy for golden-ambient elements with moderate numerators/denominators
rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
quadnums = st.builds(lambda p, q: QuadNum(p, q), rationals, rationals)
nonzero_quadnums = quadnums.filter(lambda x: not x.is_zero)


class TestAddition:
    def test_one_plus_root(self):
        assert qn(1) + R == QuadNum(1, 1)

    def test_additive_inverse_of_root_part(self):
        assert QuadNum(1, -1) + R == qn(1)

    def test_rational_addition(self):
        a = QuadNum(Fraction(1, 2), Fraction(1, 3))
        b = QuadNum(Fraction(1, 2), Fraction(2, 3))
        assert a + b == QuadNum(1, 1)


class TestMultiplication:
    def test_golden_relation(self):
        assert R * R == QuadNum(1, 1)

    def test_multiplicative_identity(self):
        for x in (R, qn(3), QuadNum(Fraction(-2, 7), Fraction(5, 3))):
            assert ONE * x == x
            assert x * ONE == x

    def test_one_minus_root_times_root(self):
        # (1-R)R = R - R^2 = -1 under R^2 = R+1
        assert (ONE - R) * R == qn(-1)


class TestInverse:
    def test_identity(self):
        assert ONE.inverse() == ONE

    def test_root_inverse(self):
        assert R.inverse() == QuadNum(-1, 1)
        assert R * R.inverse() == ONE

    def test_rational_inverse(self):
        assert qn(2).inverse() == QuadNum(Fraction(1, 2))

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            ZERO.inverse()


class TestEmbed:
    def test_golden_ratio(self):
        assert abs(float(embed(R)) - (1 + math.sqrt(5)) / 2) < 1e-14

    def test_rational(self):
        assert float(embed(qn(3))) == 3.0

    def test_one_minus_phi(self):
        val = float(embed(QuadNum(1, -1)))
        assert abs(val - (1 - (1 + math.sqrt(5)) / 2)) < 1e-14

    def test_requested_precision(self):
        # 50-digit embedding must match mpmath's phi to ~48 digits
        with mpmath.workdps(60):
            phi = (1 + mpmath.sqrt(5)) / 2
            got = embed(R, digits=50)
            assert abs(got - phi) < mpmath.mpf(10) ** (-48)

    def test_negative_discriminant_raises(self):
        bad = Ambient(u=Fraction(0), v=Fraction(-1))  # x^2 = -1
        x = QuadNum(1, 1, ambient=bad)
        with pytest.raises(NotRealEmbeddable):
            embed(x)


class TestSign:
    def test_zero(self):
        assert ZERO.sign() == 0

    def test_one_minus_root_negative(self):
        assert QuadNum(1, -1).sign() == -1

    def test_root_minus_one_positive(self):
        assert QuadNum(-1, 1).sign() == +1

    def test_pure_rational(self):
        assert qn(-7).sign() == -1
        assert QuadNum(Fraction(3, 5)).sign() == +1

    def test_close_calls(self):
        # 21/13 < phi < 13/8: sign decisions near the root must be algebraic
        assert (QuadNum(Fraction(-21, 13)) + R).sign() == +1
        assert (QuadNum(Fraction(-13, 8)) + R).sign() == -1


class TestFieldAxioms:
    @given(quadnums, quadnums, quadnums)
    @settings(max_examples=200)
    def test_associativity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @given(quadnums, quadnums)
    @settings(max_examples=200)
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(quadnums, quadnums, quadnums)
    @settings(max_examples=200)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(nonzero_quadnums)
    @settings(max_examples=200)
    def test_inverse_round_trip(self, x):
        assert x * x.inverse() == ONE
        assert x.inverse().inverse() == x


def test_sign_matches_embedding_on_random_elements():
    # 10^4 random elements: algebraic sign == sign of the 50-digit embedding
    import random

    rng = random.Random(20240517)
    for _ in range(10_000):
        x = QuadNum(
            Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
        )
        emb = embed(x, digits=50)
        expected = 0 if emb == 0 else (1 if emb > 0 else -1)
        assert x.sign() == expected, f"sign mismatch at {x}"


def test_golden_relation_exact():
    assert (R * R - (R + ONE)).is_zero


def test_lowest_terms_invariant():
    x = QuadNum(Fraction(2, 4), Fraction(6, 9))
    assert x.p == Fraction(1, 2) and x.q == Fraction(2, 3)
    y = x * QuadNum(Fraction(4, 2), Fraction(0))
    assert y.p.denominator > 0 and math.gcd(y.p.numerator, y.p.denominator) == 1
    z = x + QuadNum(Fraction(1, 2), Fraction(1, 3))
    assert z.q.denominator > 0 and math.gcd(z.q.numerator, z.q.denominator) == 1


class TestAmbientMismatch:
    def test_add_mismatch(self):
        other = Ambient(u=Fraction(2), v=Fraction(1))
        with pytest.raises(ContextMismatch):
            R + QuadNum(1, 1, ambient=other)

    def test_mul_mismatch(self):
        other = Ambient(u=Fraction(0), v=Fraction(2))  # x^2 = 2
        with pytest.raises(ContextMismatch):
            R * QuadNum(0, 1, ambient=other)


class TestNonGoldenAmbient:
    def test_sqrt_two_ambient(self):
        # x^2 = 2: R here is sqrt(2)
        amb = Ambient(u=Fraction(0), v=Fraction(2))
        r2 = QuadNum(0, 1, ambient=amb)
        assert r2 * r2 == QuadNum(2, 0, ambient=amb)
        assert abs(float(embed(r2)) - math.sqrt(2)) < 1e-14
        assert (QuadNum(1, 0, ambient=amb) - r2).sign() == -1


class TestSqrt:
    def test_rational_square(self):
        assert quad_sqrt(qn(4)) == qn(2)
        assert quad_sqrt(QuadNum(Fraction(9, 16))) == QuadNum(Fraction(3, 4))

    def test_golden_square(self):
        x = QuadNum(2, 3)  # (2+3R)^2 = 4+12R+9R^2 = 13+21R
        assert quad_sqrt(x * x) == x

    def test_result_nonnegative(self):
        x = QuadNum(-1, -1)
        root = quad_sqrt(x * x)
        assert root.sign() >= 0

    def test_no_exact_root(self):
        with pytest.raises(ExactSqrtUnavailable):
            quad_sqrt(qn(2))
        with pytest.raises(ExactSqrtUnavailable):
            quad_sqrt(QuadNum(2, 1))

    def test_negative_raises(self):
        with pytest.raises(ExactSqrtUnavailable):
            quad_sqrt(qn(-4))

    def test_rational_without_rational_root(self):
        # q = 0 but 5 is no rational square: the root is a pure multiple of
        # sqrt(D) = 2R - 1, here sqrt(5) = -1 + 2R
        assert quad_sqrt(QuadNum(5)) == QuadNum(-1, 2)
        assert quad_sqrt(QuadNum(Fraction(5, 4))) == QuadNum(Fraction(-1, 2), 1)


class TestSerialization:
    def test_string_round_trip(self):
        for s in ("1 + 1R", "2 - R", "1/2 + 3/4 R", "-5", "R", "-R", "0"):
            x = QuadNum.parse(s)
            assert QuadNum.parse(str(x)) == x

    def test_parse_examples(self):
        assert QuadNum.parse("1 - R") == QuadNum(1, -1)
        assert QuadNum.parse("1/2 + 1/3 R") == QuadNum(Fraction(1, 2), Fraction(1, 3))
        assert QuadNum.parse("3") == qn(3)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("- 3 / 6 R + 1/3", (Fraction(1, 3), Fraction(-1, 2))),
            ("1 + 2 + R + R", (3, 2)),
            ("2/1", (2, 0)),
            ("-0", (0, 0)),
            ("R+1", (1, 1)),
            # the grammar allows any blank around "/", a tab included
            ("1\t/ 2 R", (0, Fraction(1, 2))),
        ],
    )
    def test_parse_table(self, text, value):
        got = QuadNum.parse(text)
        assert (got.p, got.q) == value and got == QuadNum(*value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator in QuadNum literal '1/0'"),
            ("3 4", "missing +/- between terms in '3 4'"),
            ("1/2/3", "cannot parse QuadNum literal '1/2/3' at '/3'"),
            ("1e3", "cannot parse QuadNum literal '1e3' at 'e3'"),
            ("", "empty QuadNum literal"),
            # past Python's 4300-digit limit on converting a string to an int
            ("9" * 5000 + " R", "QuadNum literal has a 5000-digit coefficient: too long"),
            ("1/" + "9" * 5000, "QuadNum literal has a 5000-digit coefficient: too long"),
            ("R R", "missing +/- between terms in 'R R'"),
            ("1 +", "cannot parse QuadNum literal '1 +' at '+'"),
            ("R/2", "cannot parse QuadNum literal 'R/2' at '/2'"),
        ],
        ids=[
            "zero-den", "no-sign", "two-slashes", "exponent", "empty", "long-num", "long-den",
            "no-sign-after-root", "dangling-sign", "root-over",
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(InvalidProblem) as info:
            QuadNum.parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "x",
        [QuadNum(10**5000), QuadNum(0, Fraction(1, 10**5000)), QuadNum(1, 10**5000)],
        ids=["integer", "denominator", "root-coefficient"],
    )
    def test_str_past_the_digit_limit_is_a_limit(self, x):
        # Python converts at most 4300 digits of an int to a string
        with pytest.raises(LimitExceeded, match="more than 4300 digits"):
            str(x)

    def test_json_round_trip(self):
        x = QuadNum(Fraction(-7, 3), Fraction(5, 2))
        blob = x.to_json()
        assert blob["p"] == [-7, 3] and blob["q"] == [5, 2]
        assert QuadNum.from_json(blob) == x

    def test_json_ambient_round_trip(self):
        amb = Ambient(u=Fraction(0), v=Fraction(2))
        x = QuadNum(1, 1, ambient=amb)
        y = QuadNum.from_json(x.to_json())
        assert y == x and y.ambient == amb

    def test_golden_default(self):
        assert GOLDEN == Ambient(u=Fraction(1), v=Fraction(1))
        assert R.ambient == GOLDEN


# -- parity with the rational-pair formulas ----------------------------------
#
# The reference keeps an element as a pair of Fractions (p, q) ~ p + q R and
# applies the defining formulas directly; QuadNum must agree with it on
# every operation, including a fractional ambient (the only kind whose
# integer form has a common denominator L != 1).

PARITY_AMBIENTS = (
    GOLDEN,
    Ambient(Fraction(0), Fraction(2)),
    Ambient(Fraction(2), Fraction(1)),
    Ambient(Fraction(1, 2), Fraction(3, 4)),
)
pairs = st.tuples(rationals, rationals)
scalars = st.one_of(st.integers(-30, 30), st.booleans(), rationals)


def ref_mul(x, y, amb):
    (p1, q1), (p2, q2) = x, y
    return (p1 * p2 + amb.v * q1 * q2, p1 * q2 + q1 * p2 + amb.u * q1 * q2)


def ref_norm(x, amb):
    p, q = x
    return p * p + amb.u * p * q - amb.v * q * q


def ref_inverse(x, amb):
    p, q = x
    n = ref_norm(x, amb)
    return ((p + q * amb.u) / n, -q / n)


def ref_sign(x, amb):
    p, q = x
    s = 2 * p + q * amb.u
    if q == 0:
        return 0 if s == 0 else (1 if s > 0 else -1)
    lhs, rhs = q * q * (amb.u * amb.u + 4 * amb.v), s * s
    if q > 0:
        return 1 if s >= 0 else (0 if lhs == rhs else (1 if lhs > rhs else -1))
    return -1 if s <= 0 else (0 if lhs == rhs else (1 if rhs > lhs else -1))


def ref_str(x):
    p, q = x
    if q == 0:
        return str(p)
    q_part = "R" if q == 1 else ("-R" if q == -1 else f"{q} R")
    if p == 0:
        return q_part
    q_mag = "R" if abs(q) == 1 else f"{abs(q)} R"
    return f"{p} {'- ' if q < 0 else '+ '}{q_mag}"


def ref_hash(x, amb):
    p, q = x
    return hash(p) if q == 0 else hash((p, q, amb.u, amb.v))


def ref_float(x, amb):
    p, q = x
    if q == 0:
        return float(p)
    with mpmath.workdps(40):
        disc = amb.u * amb.u + 4 * amb.v
        r = (mpmath.mpf(amb.u.numerator) / amb.u.denominator
             + mpmath.sqrt(mpmath.mpf(disc.numerator) / disc.denominator)) / 2
        value = mpmath.mpf(p.numerator) / p.denominator + mpmath.mpf(q.numerator) / q.denominator * r
        return float(value)


def assert_is(value, pair, amb):
    assert isinstance(value, QuadNum) and value.ambient == amb
    assert (value.p, value.q) == pair
    assert value.p.denominator > 0 and value.q.denominator > 0


@given(st.sampled_from(PARITY_AMBIENTS), pairs, pairs, scalars, st.booleans())
@settings(max_examples=400)
def test_operations_match_fraction_pair_reference(amb, x, y, c, twin):
    # b over an equal but distinct ambient instance when twin; c an int, a
    # bool or a Fraction, on either side of each operator
    a, b = QuadNum(*x, amb), QuadNum(*y, Ambient(amb.u, amb.v) if twin else amb)
    rc = Fraction(c)
    assert_is(a + b, (x[0] + y[0], x[1] + y[1]), amb)
    assert_is(a - b, (x[0] - y[0], x[1] - y[1]), amb)
    assert_is(c + a, (rc + x[0], x[1]), amb)
    assert_is(a + c, (x[0] + rc, x[1]), amb)
    assert_is(c - a, (rc - x[0], -x[1]), amb)
    assert_is(a - c, (x[0] - rc, x[1]), amb)
    assert_is(-a, (-x[0], -x[1]), amb)
    assert_is(a * b, ref_mul(x, y, amb), amb)
    assert_is(c * a, ref_mul((rc, Fraction(0)), x, amb), amb)
    assert_is(a * c, ref_mul(x, (rc, Fraction(0)), amb), amb)
    assert a.norm() == ref_norm(x, amb)
    if y != (0, 0):
        assert_is(b.inverse(), ref_inverse(y, amb), amb)
        assert_is(a / b, ref_mul(x, ref_inverse(y, amb), amb), amb)
        assert_is(c / b, ref_mul((rc, Fraction(0)), ref_inverse(y, amb), amb), amb)
    if c != 0:
        assert_is(a / c, (x[0] / rc, x[1] / rc), amb)
    assert a.sign() == ref_sign(x, amb)
    order = ref_sign((x[0] - y[0], x[1] - y[1]), amb)
    assert (a < b, a <= b, a > b, a >= b) == (order < 0, order <= 0, order > 0, order >= 0)
    assert (c < a) == (ref_sign((rc - x[0], -x[1]), amb) < 0)
    assert (a == b) == (x == y)
    assert (a == c) == (x == (rc, 0))
    assert hash(a) == ref_hash(x, amb)
    assert str(a) == ref_str(x)
    assert repr(a) == f"QuadNum({x[0]!r}, {x[1]!r})"
    blob = a.to_json()
    assert blob == {
        "p": [x[0].numerator, x[0].denominator],
        "q": [x[1].numerator, x[1].denominator],
        "ambient": amb.to_json(),
    }
    assert QuadNum.from_json(blob) == a
    assert float(a) == ref_float(x, amb)


# +, - and * read a QuadNum over the identical ambient and an int inline;
# every other operand goes through _parts. Each kind of operand, on either
# side, must give the reference pair in lowest terms over the left
# QuadNum's own ambient instance. The fractional ambient has L = 2, so even
# a product of integral elements is reduced.
INLINE_AMBIENTS = (GOLDEN, Ambient(Fraction(1, 2), Fraction(3, 4)))
INLINE_OPERANDS = {
    "int": lambda amb: 3,
    "bool": lambda amb: True,
    "Fraction": lambda amb: Fraction(-5, 6),
    "integral QuadNum": lambda amb: QuadNum(2, -3, amb),
    "fractional QuadNum": lambda amb: QuadNum(Fraction(1, 4), Fraction(-2, 3), amb),
    "QuadNum over an equal ambient": lambda amb: QuadNum(-1, 5, Ambient(amb.u, amb.v)),
    "fractional QuadNum over an equal ambient": lambda amb: QuadNum(
        Fraction(7, 3), Fraction(1, 2), Ambient(amb.u, amb.v)
    ),
}


def assert_lowest(value, pair, ambient):
    assert_is(value, pair, ambient)
    assert value.ambient is ambient
    # the stored integers, not only the Fractions read from them
    assert value == QuadNum(*pair, ambient) and value.is_integral == (
        pair[0].denominator == pair[1].denominator == 1
    )


@pytest.mark.parametrize("amb", INLINE_AMBIENTS, ids=["golden", "fractional"])
@pytest.mark.parametrize("x", [(4, -1), (Fraction(3, 2), Fraction(5, 7))], ids=["integral", "fractional"])
@pytest.mark.parametrize("kind", INLINE_OPERANDS)
def test_inline_operands_match_reference(amb, x, kind):
    x = (Fraction(x[0]), Fraction(x[1]))
    a, o = QuadNum(*x, amb), INLINE_OPERANDS[kind](amb)
    y = (o.p, o.q) if isinstance(o, QuadNum) else (Fraction(o), Fraction(0))
    # o on the left keeps its own ambient instance when it is a QuadNum
    left = o.ambient if isinstance(o, QuadNum) else amb
    assert_lowest(a + o, (x[0] + y[0], x[1] + y[1]), amb)
    assert_lowest(o + a, (x[0] + y[0], x[1] + y[1]), left)
    assert_lowest(a - o, (x[0] - y[0], x[1] - y[1]), amb)
    assert_lowest(o - a, (y[0] - x[0], y[1] - x[1]), left)
    assert_lowest(a * o, ref_mul(x, y, amb), amb)
    assert_lowest(o * a, ref_mul(y, x, amb), left)
    assert_lowest(a - a, (Fraction(0), Fraction(0)), amb)


@pytest.mark.parametrize("amb", INLINE_AMBIENTS, ids=["golden", "fractional"])
@pytest.mark.parametrize("x", [(4, -1), (Fraction(3, 2), Fraction(5, 7))], ids=["integral", "fractional"])
def test_inline_operators_refuse_foreign_operands(amb, x):
    a = QuadNum(*x, amb)
    foreign = QuadNum(1, 1, Ambient(Fraction(0), Fraction(2)))
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        with pytest.raises(ContextMismatch):
            op(a, foreign)
        with pytest.raises(ContextMismatch):
            op(foreign, a)
        for other in (1.5, "1", None):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)


@given(st.sampled_from(PARITY_AMBIENTS), st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_int_construction_matches_fraction_construction(amb, p, q):
    x = QuadNum(p, q, amb)
    assert (x.p, x.q) == (p, q) and x.is_integral
    assert x == QuadNum(Fraction(p), Fraction(q), amb)
    assert str(x) == ref_str((Fraction(p), Fraction(q)))
    assert repr(x) == f"QuadNum({Fraction(p)!r}, {Fraction(q)!r})"
    # bool takes the Fraction path and stores plain ints
    assert repr(QuadNum(True, False, amb)) == "QuadNum(Fraction(1, 1), Fraction(0, 1))"
    assert str(QuadNum(True, True, amb) * x) == str((1 + QuadNum.root(amb)) * x)


@given(st.sampled_from(PARITY_AMBIENTS), pairs)
@settings(max_examples=300)
def test_parse_inverts_str(amb, x):
    value = QuadNum(*x, amb)
    assert QuadNum.parse(str(value), amb) == value


@given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40), st.integers(1, 10**20))
@settings(max_examples=300)
def test_parse_inverts_str_of_drawn_parts(a, b, d):
    # (a + b R) / d with wide coefficients and a shared denominator
    value = QuadNum(Fraction(a, d), Fraction(b, d))
    assert QuadNum.parse(str(value)) == value


@given(st.sampled_from(PARITY_AMBIENTS), st.integers(-199, 199), pairs)
@settings(max_examples=300)
def test_float_is_correctly_rounded(amb, n, x):
    # x R^n: the units R^-n of the golden field cancel in p + q R ever more
    # deeply, and R^-n read 0.0 for n >= 99 when R went through 40 digits
    value = QuadNum(*x, amb)
    step = QuadNum.root(amb) if n >= 0 else QuadNum.root(amb).inverse()
    for _ in range(abs(n)):
        value = value * step
    got = float(value)
    assert got == float(embed(value, 300))
    assert (got > 0) - (got < 0) == value.sign()


def test_float_past_the_float_range_is_infinite():
    big = QuadNum(10**400, 10**400)
    assert float(big) == float(embed(big, 300)) == math.inf
    assert float(-big) == -math.inf
    assert float(QuadNum(10**400)) == math.inf


def test_parsed_ambients_are_shared():
    first = Ambient.from_json([1, 1, 1, 1])
    assert first is GOLDEN and Ambient.from_json([2, 2, 3, 3]) is GOLDEN
    other = Ambient.from_json([1, 2, 3, 4])
    assert other is Ambient.from_json([2, 4, 6, 8]) and other == Ambient(Fraction(1, 2), Fraction(3, 4))
    assert hash(QuadNum(1, 1, other)) == hash(QuadNum(1, 1, Ambient(Fraction(1, 2), Fraction(3, 4))))


def test_degenerate_ambient_zero_divisor_has_no_inverse():
    # u^2 + 4v = 4 is a rational square: R = 1 and R - 1 is a zero divisor
    amb = Ambient(Fraction(0), Fraction(1))
    with pytest.raises(DivisionByZero):
        (QuadNum.root(amb) - 1).inverse()
