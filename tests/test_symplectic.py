"""Unsigned symplectic form, MU verification, rescaling, transforms."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mubc import (
    EXACT,
    GOLDEN,
    NUMERIC,
    ContextMismatch,
    DimensionMismatch,
    DirectionVector,
    ExactSqrtUnavailable,
    InvalidDirection,
    InvalidProblem,
    InvalidTarget,
    LimitExceeded,
    MUConfiguration,
    ParallelDirections,
    PreconditionFailed,
    ProductVector,
    QuadNum,
    UnsignedSymplecticClass,
    UnsignedSymplecticMatrix,
    apply_transform,
    build_jN,
    config_from_json,
    config_to_json,
    expanded_product,
    is_unsigned_symplectic,
    overlap_magnitude_sq,
    rescale_config,
    symp2,
    symp_product,
    verify_mu,
)

R = QuadNum.root()


def dv(q, p):
    return DirectionVector(q, p)


ASYM_TRIPLE = MUConfiguration(
    vectors=(
        ProductVector.of((0, -1)),
        ProductVector.of((1, 0)),
        ProductVector.of((1, 1)),
    ),
    target_k=1,
)

S3 = math.sqrt(3.0) / 2.0
SYM_TRIPLE = MUConfiguration(
    vectors=(
        ProductVector.of((0.0, -1.0)),
        ProductVector.of((S3, 0.5)),
        ProductVector.of((-S3, 0.5)),
    ),
    target_k=S3,
    mode=NUMERIC,
)


def golden_five():
    one = QuadNum(1)
    return MUConfiguration(
        vectors=(
            ProductVector.of((one, QuadNum(0)), (one, QuadNum(0))),
            ProductVector.of((QuadNum(0), one), (QuadNum(0), one)),
            ProductVector.of((one, one), (one, one)),
            ProductVector.of((one, one - R), (one, R)),
            ProductVector.of((one, QuadNum(2) - R), (one, one + R)),
        ),
        target_k=QuadNum(1),
    )


class TestSymp2:
    def test_position_momentum(self):
        assert symp2(dv(0, -1), dv(1, 0)) == -1

    def test_self_vanishes(self):
        for d in (dv(0, -1), dv(1, 1), dv(3, -2)):
            assert symp2(d, d) == 0

    def test_rotated_direction(self):
        for theta in (0.3, 1.1, 2.7):
            a = dv(-math.sin(theta), math.cos(theta))
            b = dv(0.0, 1.0)
            assert abs(symp2(a, b) - math.sin(theta)) < 1e-15

    def test_mode_mismatch(self):
        with pytest.raises(ContextMismatch):
            symp2(dv(QuadNum(1), QuadNum(0)), dv(1.0, 0.0))


class TestSympProduct:
    def test_golden_pair_four_five(self):
        v4 = ProductVector.of((QuadNum(1), QuadNum(1) - R), (QuadNum(1), R))
        v5 = ProductVector.of((QuadNum(1), QuadNum(2) - R), (QuadNum(1), QuadNum(1) + R))
        assert symp_product(v4, v5) == QuadNum(1)

    def test_golden_pair_one_four(self):
        v1 = ProductVector.of((QuadNum(1), QuadNum(0)), (QuadNum(1), QuadNum(0)))
        v4 = ProductVector.of((QuadNum(1), QuadNum(1) - R), (QuadNum(1), R))
        value = symp_product(v1, v4)
        assert value == QuadNum(-1)

    def test_self_vanishes(self):
        v = ProductVector.of((1, 2), (3, 1))
        assert symp_product(v, v) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symp_product(ProductVector.of((1, 0)), ProductVector.of((1, 0), (0, 1)))


class TestBuildJN:
    def test_n1(self):
        j1 = build_jN(1)
        assert [list(row) for row in j1] == [[0, -1], [1, 0]]

    def test_n2_corner(self):
        j2 = build_jN(2)
        assert j2[0][3] == 1
        assert len(j2) == 4 and all(len(row) == 4 for row in j2)

    def test_square_is_signed_identity(self):
        for n in (1, 2, 3):
            jn = build_jN(n)
            dim = 2**n
            sq = [
                [sum(jn[i][k] * jn[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            sign = (-1) ** n
            for i in range(dim):
                for j in range(dim):
                    assert sq[i][j] == (sign if i == j else 0)

    def test_transpose_sign(self):
        for n in (1, 2, 3, 4):
            jn = build_jN(n)
            dim = 2**n
            sign = (-1) ** n
            for i in range(dim):
                for j in range(dim):
                    assert jn[j][i] == sign * jn[i][j]

    def test_oversize(self):
        with pytest.raises(LimitExceeded):
            build_jN(9)


class TestOverlapMagnitude:
    def test_position_momentum(self):
        got = overlap_magnitude_sq(ProductVector.of((0, 1)), ProductVector.of((1, 0)))
        assert got == 1.0 / (2.0 * math.pi)

    def test_symmetric_pair(self):
        got = overlap_magnitude_sq(
            ProductVector.of((0.0, -1.0)), ProductVector.of((S3, 0.5))
        )
        assert abs(got - 1.0 / (math.pi * math.sqrt(3.0))) < 1e-15

    def test_golden_pairs(self):
        cfg = golden_five()
        expected = 1.0 / (2.0 * math.pi) ** 2
        for i in range(5):
            for j in range(i + 1, 5):
                got = overlap_magnitude_sq(cfg.vectors[i], cfg.vectors[j])
                assert abs(got - expected) < 1e-16

    def test_hbar_dependence(self):
        a, b = ProductVector.of((0, 1)), ProductVector.of((1, 0))
        assert overlap_magnitude_sq(a, b, hbar=2.0) == 1.0 / (4.0 * math.pi)

    def test_parallel_raises(self):
        with pytest.raises(ParallelDirections):
            overlap_magnitude_sq(ProductVector.of((1, 1)), ProductVector.of((2, 2)))

    @pytest.mark.parametrize(
        "exponent, detail",
        [
            (-2048, "its float is 0.0"),
            (2048, "its float is inf"),
            # a^t J b = -R^-1480 is a subnormal float, and 1 / (2 pi) over it is inf
            (-1480, "overlap constant of inf"),
        ],
    )
    def test_product_out_of_float_range_is_not_a_verdict(self, exponent, detail):
        # (t, 0) against (0, 1) is MU for every t != 0: out of float range
        # is a limit, not parallel directions and not a zero overlap
        t = QuadNum(1)
        for _ in range(abs(exponent)):
            t = t * R if exponent > 0 else t * (R - 1)
        a, b = ProductVector.of((t, QuadNum(0))), ProductVector.of((QuadNum(0), QuadNum(1)))
        with pytest.raises(LimitExceeded, match=f"symplectic product.*{detail}"):
            overlap_magnitude_sq(a, b)

    def test_constant_out_of_float_range_is_a_limit(self):
        # product 1, but (2 pi hbar)^-2 overflows for hbar = 1e-300
        a = ProductVector.of((QuadNum(1), QuadNum(0)), (QuadNum(1), QuadNum(0)))
        b = ProductVector.of((QuadNum(0), QuadNum(1)), (QuadNum(0), QuadNum(1)))
        assert overlap_magnitude_sq(a, b) == 1.0 / (2.0 * math.pi) ** 2
        with pytest.raises(LimitExceeded, match="overlap constant of inf"):
            overlap_magnitude_sq(a, b, hbar=1e-300)

    @pytest.mark.parametrize("hbar, value", [(1e-300, "inf"), (1e300, "0.0")])
    def test_float_constant_out_of_float_range_is_a_limit(self, hbar, value):
        # float products take the same guard: (2 pi hbar)^-2 overflows at
        # hbar = 1e-300 and underflows to 0 at 1e300
        a = ProductVector.of((1.0, 0.0), (1.0, 0.0))
        b = ProductVector.of((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(LimitExceeded, match=f"overlap constant of {value}"):
            overlap_magnitude_sq(a, b, hbar=hbar)


class TestVerifyMU:
    def test_asymmetric_triple(self):
        report = verify_mu(ASYM_TRIPLE)
        assert report.verdict
        assert len(report.pairs) == 3
        assert report.max_deviation == 0

    def test_golden_five(self):
        report = verify_mu(golden_five())
        assert report.verdict
        assert len(report.pairs) == 10
        assert all(pair.unbiased for pair in report.pairs)
        assert report.max_deviation == 0

    def test_counterexample(self):
        cfg = MUConfiguration(
            vectors=(
                ProductVector.of((0, 1)),
                ProductVector.of((1, 0)),
                ProductVector.of((1, 2)),
            ),
            target_k=1,
        )
        report = verify_mu(cfg)
        assert not report.verdict
        bad = next(p for p in report.pairs if p.i == 1 and p.j == 2)
        assert bad.magnitude == 2

    def test_symmetric_triple_numeric(self):
        report = verify_mu(SYM_TRIPLE, tolerance=1e-12)
        assert report.verdict
        assert report.max_deviation <= 1e-12

    def test_infer_k(self):
        cfg = MUConfiguration(
            vectors=(
                ProductVector.of((0, -2)),
                ProductVector.of((2, 0)),
                ProductVector.of((2, 2)),
            ),
            target_k=None,
        )
        report = verify_mu(cfg, infer_k=True)
        assert report.verdict
        assert report.inferred
        assert report.target_k == 4

    def test_target_below_float_range(self):
        # K = R^-100 reads 0.0 as a float, but its sign is +1
        k = QuadNum(1)
        for _ in range(100):
            k = k / R
        mu = MUConfiguration(
            vectors=(ProductVector.of((1, 0)), ProductVector.of((0, k))), target_k=k
        )
        report = verify_mu(mu)
        assert report.verdict and report.max_deviation == 0
        off = MUConfiguration(
            vectors=(ProductVector.of((1, 0)), ProductVector.of((0, 3 * k))), target_k=k
        )
        report = verify_mu(off)
        assert not report.verdict
        assert report.max_deviation == 2.0

    def test_parallel_pair_flagged(self):
        cfg = MUConfiguration(
            vectors=(
                ProductVector.of((1, 1)),
                ProductVector.of((2, 2)),
                ProductVector.of((1, 0)),
            ),
            target_k=1,
        )
        report = verify_mu(cfg)
        assert not report.verdict
        assert report.parallel_pairs == ((0, 1),)
        assert report.max_deviation == math.inf

    @pytest.mark.parametrize(
        "vectors",
        [
            # the parallel pair (0, 4) comes before the NaN pair (2, 3)
            ((1.0, 0.0), (0.0, 1.0), (1e200, 1e200), (1e200, 1e200), (2.0, 0.0)),
            # the NaN pair (0, 1), whose product is inf - inf, comes first
            ((1e200, 1e200), (1e200, 1e200), (1.0, 0.0), (0.0, 1.0), (2.0, 0.0)),
        ],
    )
    def test_nan_maximum_stays_nan_beside_a_parallel_pair(self, vectors):
        cfg = MUConfiguration(tuple(ProductVector.of(v) for v in vectors), 1.0, mode=NUMERIC)
        report = verify_mu(cfg)
        assert report.parallel_pairs
        assert math.isnan(report.max_deviation)

    @pytest.mark.parametrize(
        "vectors, nans",
        [
            # every product overflows: K = inf, each deviation inf / inf
            (((1e200, 0.0), (0.0, 1e200), (1e200, 1e200)), 3),
            # K = 1 and large finite deviations first; the last pair's
            # product is inf - inf
            (((1.0, 0.0), (0.0, 1.0), (1e200, 1e200), (1e200, 1e200)), 1),
        ],
    )
    def test_nan_deviation_shows_in_the_maximum(self, vectors, nans):
        cfg = MUConfiguration(tuple(ProductVector.of(v) for v in vectors), None, mode=NUMERIC)
        report = verify_mu(cfg, infer_k=True)
        assert sum(math.isnan(pair.deviation) for pair in report.pairs) == nans
        assert math.isnan(report.max_deviation)
        assert not report.verdict


class TestRescale:
    def test_quadruple_doubles(self):
        scaled = rescale_config(ASYM_TRIPLE, 4)
        for vec in scaled.vectors:
            f = vec.factors[0]
            assert abs(float(f.q)) in (0.0, 2.0) and abs(float(f.p)) in (0.0, 2.0)
        report = verify_mu(scaled)
        assert report.verdict and report.target_k == 4

    def test_identity(self):
        same = rescale_config(ASYM_TRIPLE, 1)
        assert verify_mu(same).verdict
        assert same.target_k == 1
        for a, b in zip(same.vectors, ASYM_TRIPLE.vectors):
            assert symp_product(a, b) == 0

    def test_symmetric_to_unit(self):
        scaled = rescale_config(SYM_TRIPLE, 1.0)
        lam = (4.0 / 3.0) ** 0.25
        assert abs(abs(scaled.vectors[0].factors[0].p) - lam) < 1e-14
        report = verify_mu(scaled, tolerance=1e-12)
        assert report.verdict and report.target_k == 1.0

    def test_exact_scale_when_root_exists(self):
        scaled = rescale_config(golden_five(), QuadNum(4))
        report = verify_mu(scaled)
        assert report.verdict and report.target_k == QuadNum(4)

    def test_irrational_scale(self):
        # K'/K = 1 + R = R^2, so every vector picks up lambda = R
        source = golden_five()
        scaled = rescale_config(source, 1 + R)
        assert scaled.vectors == tuple(v.scale_first_factor(R) for v in source.vectors)
        report = verify_mu(scaled)
        assert report.verdict and report.mode == EXACT and report.target_k == 1 + R
        assert report.max_deviation == 0.0

    def test_no_exact_scale(self):
        # sqrt(2) is not in Q(sqrt 5)
        with pytest.raises(ExactSqrtUnavailable):
            rescale_config(golden_five(), 2)

    @pytest.mark.parametrize("config, k_prime", [(ASYM_TRIPLE, 4), (SYM_TRIPLE, 1.0)])
    def test_inferred_source_target(self, config, k_prime):
        scaled = rescale_config(dataclasses.replace(config, target_k=None), k_prime)
        assert scaled.vectors == rescale_config(config, k_prime).vectors
        report = verify_mu(scaled, tolerance=1e-12)
        assert report.verdict and report.target_k == k_prime

    def test_unverified_source_is_refused(self):
        off = MUConfiguration(
            vectors=(ProductVector.of((1, 0)), ProductVector.of((0, 1)), ProductVector.of((1, 3))),
            target_k=None,
        )
        with pytest.raises(PreconditionFailed):
            rescale_config(off, 1)

    def test_invalid_target(self):
        with pytest.raises(InvalidTarget):
            rescale_config(ASYM_TRIPLE, 0)
        with pytest.raises(InvalidTarget):
            rescale_config(ASYM_TRIPLE, -2)


class TestUnsignedSymplecticPredicate:
    def test_identity_plus(self):
        assert is_unsigned_symplectic([[1, 0], [0, 1]]) is UnsignedSymplecticClass.PLUS

    def test_rotation_generator(self):
        # det = +1 and m^t j m = +j hold for [[0,-1],[1,0]] by direct expansion
        assert is_unsigned_symplectic([[0, -1], [1, 0]]) is UnsignedSymplecticClass.PLUS

    def test_swap_minus(self):
        assert is_unsigned_symplectic([[0, 1], [1, 0]]) is UnsignedSymplecticClass.MINUS

    def test_diagonal_stretch_rejected(self):
        assert is_unsigned_symplectic([[2, 0], [0, 1]]) is UnsignedSymplecticClass.NOT

    def test_exact_entries(self):
        m = [[R, QuadNum(1)], [QuadNum(1), R.inverse() + QuadNum(1)]]
        # det = R(1 + 1/R) - 1 = R
        assert is_unsigned_symplectic(m) is UnsignedSymplecticClass.NOT

    def test_from_rows_rejects_non_symplectic(self):
        with pytest.raises(InvalidProblem):
            UnsignedSymplecticMatrix.from_rows([[2, 0], [0, 1]])

    @pytest.mark.parametrize(
        "rows, tolerance, scale",
        [
            # det 1, but the tolerance scale (largest entry)^2 is past the float range
            ([[1e200, 0.0], [0.0, 1e-200]], 1e-12, "1.000000e+200"),
            ([[10**400, 0.0], [0, 1]], 1e-12, "above 2^1328"),
            # finite scale, but tolerance * scale^2 is inf: that would accept any det
            ([[1e140, 0.0], [0.0, 1e-140]], 1e30, "1.000000e+140"),
        ],
    )
    def test_out_of_range_scale_is_a_limit(self, rows, tolerance, scale):
        with pytest.raises(LimitExceeded, match=re.escape(f"entry scale {scale} puts the tolerance")):
            is_unsigned_symplectic(rows, tolerance)
        with pytest.raises(LimitExceeded):
            UnsignedSymplecticMatrix.from_rows(rows, tolerance)

    def test_in_range_scale_keeps_its_thresholds(self):
        plus, never = UnsignedSymplecticClass.PLUS, UnsignedSymplecticClass.NOT
        assert is_unsigned_symplectic([[1e150, 0.0], [0.0, 1e-150]]) is plus
        # det 1 + 2e-13 and 1 + 2e-11 against the tolerance 1e-12 * 2^2
        assert is_unsigned_symplectic([[2.0, 0.0], [0.0, 0.5 + 1e-13]]) is plus
        assert is_unsigned_symplectic([[2.0, 0.0], [0.0, 0.5 + 1e-11]]) is never
        assert is_unsigned_symplectic([[math.inf, 0.0], [0.0, 1.0]]) is never
        assert is_unsigned_symplectic([[math.nan, 0.0], [0.0, 1.0]]) is never

    def test_group_closure_signs_multiply(self):
        rng = random.Random(7)
        plus_pool = [[[1, 0], [1, 1]], [[0, -1], [1, 0]], [[1, 2], [0, 1]]]
        minus_pool = [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
        for _ in range(50):
            ma = rng.choice(plus_pool + minus_pool)
            mb = rng.choice(plus_pool + minus_pool)
            sa = is_unsigned_symplectic(ma)
            sb = is_unsigned_symplectic(mb)
            prod = [
                [sum(ma[i][k] * mb[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
            sp = is_unsigned_symplectic(prod)
            want_plus = (sa is sb)
            assert sp is (
                UnsignedSymplecticClass.PLUS if want_plus else UnsignedSymplecticClass.MINUS
            )


class TestApplyTransform:
    def test_identity(self):
        m = UnsignedSymplecticMatrix.from_rows([[1, 0], [0, 1]])
        out = apply_transform(m, ASYM_TRIPLE)
        assert verify_mu(out).verdict
        for a, b in zip(out.vectors, ASYM_TRIPLE.vectors):
            assert a.factors[0] == b.factors[0]

    def test_rotation_generator(self):
        m = UnsignedSymplecticMatrix.from_rows([[0, -1], [1, 0]])
        out = apply_transform(m, ASYM_TRIPLE)
        report = verify_mu(out)
        assert report.verdict and report.target_k == 1

    def test_shear(self):
        m = UnsignedSymplecticMatrix.from_rows([[1, 0], [1, 1]])
        out = apply_transform(m, ASYM_TRIPLE)
        report = verify_mu(out)
        assert report.verdict and report.target_k == 1

    def test_factor_index_on_n2(self):
        m = UnsignedSymplecticMatrix.from_rows([[1, 0], [1, 1]])
        cfg = golden_five()
        for idx in (0, 1):
            out = apply_transform(m, cfg, factor_index=idx)
            assert verify_mu(out).verdict

    def test_index_out_of_range(self):
        m = UnsignedSymplecticMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            apply_transform(m, ASYM_TRIPLE, factor_index=1)


# numeric direction vectors for property tests, components bounded away from huge
coords = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)
directions = (
    st.tuples(coords, coords)
    .filter(lambda t: abs(t[0]) + abs(t[1]) > 1e-6)
    .map(lambda t: DirectionVector(t[0], t[1]))
)


class TestFormProperties:
    @given(directions, directions)
    @settings(max_examples=200)
    def test_antisymmetry(self, a, b):
        assert symp2(a, b) == -symp2(b, a)

    @given(directions, directions, directions, coords, coords)
    @settings(max_examples=200)
    def test_bilinearity(self, a, ap, b, lam, mu):
        combo_q = lam * a.q + mu * ap.q
        combo_p = lam * a.p + mu * ap.p
        if abs(combo_q) + abs(combo_p) <= 1e-9:
            return
        left = symp2(DirectionVector(combo_q, combo_p), b)
        right = lam * symp2(a, b) + mu * symp2(ap, b)
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-9 * scale


def test_factorization_cross_check_exact():
    # product of per-factor forms == expanded Kronecker form, exactly
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 4)
        fa, fb = [], []
        for _ in range(n):
            fa.append(
                (QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)),
                 QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)))
            )
            fb.append(
                (QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)),
                 QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)))
            )
        try:
            a = ProductVector.of(*fa)
            b = ProductVector.of(*fb)
        except InvalidDirection:
            continue
        assert symp_product(a, b) == expanded_product(a, b)


def test_factorization_cross_check_numeric():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(1, 4)
        fa = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        fb = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        a = ProductVector.of(*fa)
        b = ProductVector.of(*fb)
        lhs = symp_product(a, b)
        rhs = expanded_product(a, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_product_multiplication_counts(monkeypatch):
    # N = 2: symp_product forms two factor products and one product of
    # them; expanded_product expands each vector (one multiplication per
    # component) and multiplies each of j_2's four +-1 entries' terms, never
    # the sign
    five = golden_five().vectors
    calls = []
    original = QuadNum.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(QuadNum, "__mul__", counted)
    monkeypatch.setattr(QuadNum, "__rmul__", counted)
    for a, b in ((five[3], five[4]), (five[0], five[2])):
        calls.clear()
        value = symp_product(a, b)
        assert len(calls) == 5
        calls.clear()
        assert expanded_product(a, b) == value
        assert len(calls) == 12
    nine = ProductVector.of(*[(1, 0)] * 9)
    with pytest.raises(LimitExceeded):
        expanded_product(nine, nine)


def test_numeric_products_equal_the_reference_sums():
    # the same floats as summing sign * a_i * b_k over every nonzero entry
    # of j_N, and as multiplying the factor forms from 1
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = ProductVector.of(*[(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)])
        b = ProductVector.of(*[(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)])
        av, bv = a.expanded, b.expanded
        reference = sum(
            sign * av[i] * bv[k]
            for i, row in enumerate(build_jN(n))
            for k, sign in enumerate(row)
            if sign
        )
        assert expanded_product(a, b) == reference
        assert symp_product(a, b) == math.prod(symp2(fa, fb) for fa, fb in zip(a.factors, b.factors))


def test_transform_invariance():
    rng = random.Random(13)
    mats = [[[1, 0], [1, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]], [[1, -3], [0, 1]]]
    for _ in range(200):
        m = rng.choice(mats)
        usm = UnsignedSymplecticMatrix.from_rows(m)
        a = dv(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = dv(rng.uniform(-2, 2), rng.uniform(-2, 2))
        before = abs(symp2(a, b))
        after = abs(symp2(usm.apply(a), usm.apply(b)))
        assert abs(before - after) <= 1e-12 * max(1.0, before)


def test_scaling_law():
    rng = random.Random(14)
    for _ in range(100):
        a = dv(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = dv(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = rng.uniform(0.1, 3.0)
        scaled_a = dv(lam * a.q, lam * a.p)
        assert abs(symp2(scaled_a, b) - lam * symp2(a, b)) <= 1e-12
        scaled_b = dv(lam * b.q, lam * b.p)
        assert abs(symp2(scaled_a, scaled_b) - lam**2 * symp2(a, b)) <= 1e-11


def expanded_by_index_bits(v):
    """Reference: component i as the product of its factors' components,
    picked by the bits of i (first factor most significant) and multiplied
    left to right."""
    n, factors = v.n, v.factors
    out = []
    for index in range(2**n):
        value = factors[0].p if index >> (n - 1) else factors[0].q
        for k in range(1, n):
            bit = (index >> (n - 1 - k)) & 1
            value = value * (factors[k].p if bit else factors[k].q)
        out.append(value)
    return tuple(out)


class TestProductVector:
    def test_expanded_is_kronecker(self):
        v = ProductVector.of((1, 2), (3, 4))
        assert v.expanded == (1 * 3, 1 * 4, 2 * 3, 2 * 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expanded_floats_match_the_index_bit_reference(self, n):
        # bit for bit: signed zeros, and magnitudes whose products overflow,
        # underflow or round differently if reassociated
        rng = random.Random(n)
        pool = [0.0, -0.0, 1e-300, -3e-200, 1e300, -7e150, 1.1, -0.3, math.pi, 1 / 3]
        for _ in range(300):
            factors = []
            for _ in range(n):
                q, p = rng.choice(pool), rng.choice(pool)
                factors.append((q, p) if q or p else (q, rng.uniform(-2, 2)))
            v = ProductVector.of(*factors)
            got, want = v.expanded, expanded_by_index_bits(v)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expanded_exact_match_the_index_bit_reference(self, n):
        rng = random.Random(100 + n)
        pool = [QuadNum(1), R, -R, QuadNum(Fraction(-3, 4), 2), 0, -2, Fraction(5, 3)]
        for _ in range(100):
            factors = []
            for _ in range(n):
                q, p = rng.choice(pool), rng.choice(pool)
                factors.append((q, p) if q != 0 or p != 0 else (q, R))
            v = ProductVector.of(*factors)
            got, want = v.expanded, expanded_by_index_bits(v)
            assert got == want and [type(x) for x in got] == [type(x) for x in want]

    def test_n(self):
        assert ProductVector.of((1, 0)).n == 1
        assert ProductVector.of((1, 0), (0, 1), (1, 1)).n == 3

    def test_zero_factor_rejected(self):
        with pytest.raises(InvalidDirection):
            ProductVector.of((1, 0), (0, 0))


class TestConfigJson:
    def test_exact_round_trip(self):
        cfg = golden_five()
        blob = config_to_json(cfg)
        back = config_from_json(blob)
        assert back.mode == EXACT
        assert back.target_k == cfg.target_k
        assert len(back.vectors) == 5
        for a, b in zip(back.vectors, cfg.vectors):
            for fa, fb in zip(a.factors, b.factors):
                assert fa == fb
        assert verify_mu(back).verdict

    def test_parsed_configs_share_the_ambient(self):
        first = config_from_json(config_to_json(golden_five()))
        second = config_from_json(config_to_json(golden_five()))
        assert first.ambient is second.ambient is GOLDEN
        assert all(
            x.ambient is GOLDEN
            for vec in first.vectors
            for factor in vec.factors
            for x in (factor.q, factor.p)
            if isinstance(x, QuadNum)
        )

    @pytest.mark.parametrize("where", ["entry", "K"])
    def test_dict_over_a_foreign_ambient_is_refused(self, where):
        golden_r = {"p": [0, 1], "q": [1, 1], "ambient": [1, 1, 1, 1]}
        blob = {"N": 1, "mode": "exact", "ambient": [0, 1, 2, 1], "K": "1"}
        blob["vectors"] = [[["1", "R"]], [["1", "0"]]]
        if where == "K":
            blob["K"] = golden_r
        else:
            blob["vectors"][0][0][1] = golden_r
        with pytest.raises(ContextMismatch, match="ambient mismatch"):
            config_from_json(blob)
        # the same dict naming the file's ambient, or none, reads over it
        for entry in ({**golden_r, "ambient": [0, 1, 2, 1]}, {"p": [0, 1], "q": [1, 1]}):
            blob["vectors"][0][0][1] = entry
            blob["K"] = "1"
            config = config_from_json(blob)
            r = config.vectors[0].factors[0].p
            assert r == QuadNum.parse("R", config.ambient) and r.ambient is config.ambient

    def test_numeric_round_trip(self):
        blob = config_to_json(SYM_TRIPLE)
        back = config_from_json(blob)
        assert back.mode == NUMERIC
        assert verify_mu(back, tolerance=1e-12).verdict

    def test_schema_fields(self):
        blob = config_to_json(ASYM_TRIPLE)
        assert blob["N"] == 1
        assert blob["mode"] == "exact"
        assert blob["hbar"] == 1.0
        assert len(blob["vectors"]) == 3
        assert blob["vectors"][0][0] == ["0", "-1"]
