"""Certificates, equivalence maps, and extension searches."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mubc import (
    Ambient,
    ContextMismatch,
    CounterexampleFound,
    DimensionMismatch,
    DirectionVector,
    Equivalence,
    InfeasibilityCertificate,
    InvalidProblem,
    InvalidTarget,
    LimitExceeded,
    MUConfiguration,
    NUMERIC,
    PreconditionFailed,
    ProductVector,
    QuadNum,
    SearchProblem,
    certify_no_fourth,
    enumerate_triples_n1,
    find_equivalence,
    search_extension,
    symp2,
    verify_mu,
)
from mubc import search
from mubc.manifest import fixture_config
from mubc.search import MAX_ENUMERATION_HEIGHT, real_objective_fn

R = QuadNum.root()
S3 = math.sqrt(3.0) / 2.0

ASYM = (DirectionVector(0, -1), DirectionVector(1, 0), DirectionVector(1, 1))
SYM = (
    DirectionVector(0.0, -1.0),
    DirectionVector(S3, 0.5),
    DirectionVector(-S3, 0.5),
)


def config_of(dirs, k, mode="exact"):
    return MUConfiguration(
        vectors=tuple(ProductVector.of((d.q, d.p)) for d in dirs),
        target_k=k,
        mode=mode,
    )


def _over_sqrt2(x):
    return QuadNum(x, 0, Ambient(0, 2))


ASYM_CFG = config_of(ASYM, 1)
SYM_CFG = config_of(SYM, S3, mode=NUMERIC)


class TestCertify:
    def test_asymmetric_triple(self):
        cert = certify_no_fourth(*ASYM, 1)
        assert isinstance(cert, InfeasibilityCertificate)
        assert cert.valid
        assert len(cert.records) == 8
        assert len({rec.signs for rec in cert.records}) == 8
        assert not any(rec.consistent for rec in cert.records)

    def test_symmetric_triple(self):
        cert = certify_no_fourth(*SYM, S3, tolerance=1e-9)
        assert isinstance(cert, InfeasibilityCertificate)
        assert cert.valid
        assert len(cert.records) == 8

    def test_degenerate_triple_rejected(self):
        # repeating a vector leaves only a pair of distinct constraints
        with pytest.raises(PreconditionFailed):
            certify_no_fourth(ASYM[0], ASYM[1], ASYM[0], 1)

    def test_parallel_pair_at_tolerance_one_rejected(self):
        # |0 - 1| <= 1 * 1 passes the pair check, but no Cramer solve exists
        parallel = (DirectionVector(1.0, 0.0), DirectionVector(2.0, 0.0), DirectionVector(0.0, 1.0))
        with pytest.raises(PreconditionFailed, match="parallel"):
            certify_no_fourth(*parallel, 1.0, tolerance=1.0)

    def test_non_mu_triple_rejected(self):
        with pytest.raises(PreconditionFailed):
            certify_no_fourth(
                DirectionVector(0, 1), DirectionVector(1, 0), DirectionVector(1, 2), 1
            )

    @pytest.mark.parametrize(
        "triple, k",
        [((DirectionVector(QuadNum(0), -1), *ASYM[1:]), 1.0), (SYM, QuadNum(1))],
    )
    def test_mixed_modes_rejected(self, triple, k):
        with pytest.raises(ContextMismatch):
            certify_no_fourth(*triple, k)

    def test_records_recheck(self):
        # every stored witness must survive independent recomputation
        cert = certify_no_fourth(*ASYM, 1)
        a, b, c = cert.directions
        k = cert.target_k
        for rec in cert.records:
            s1, s2, s3 = rec.signs
            assert isinstance(rec.solution, DirectionVector)
            d = rec.solution
            # d solves the first two equations by construction
            assert symp2(d, a) == s1 * k
            assert symp2(d, b) == s2 * k
            # third-equation residual matches the stored witness
            recomputed = float(symp2(d, c)) - s3 * float(k)
            assert recomputed == pytest.approx(rec.residual, abs=1e-15)
            assert rec.consistent == (abs(recomputed) <= 1e-12)

    def test_consistent_branch_on_doctored_system(self):
        # a genuine triple's pattern residuals are at least k in magnitude,
        # so a relative tolerance of 1 lets the (+, +, -) residual -k pass,
        # and the full verification at that tolerance accepts the fourth
        # direction (|symp2(d, c)| = 2k is within k of k)
        found = certify_no_fourth(*SYM, S3, tolerance=1.0)
        assert isinstance(found, CounterexampleFound)
        assert found.signs == (1, 1, -1)
        assert found.direction.q == S3
        assert found.direction.p == pytest.approx(1.5, rel=1e-15)

    def test_certificate_json(self):
        cert = certify_no_fourth(*ASYM, 1)
        blob = cert.to_json()
        assert len(blob["records"]) == 8
        assert blob["valid"] is True


def _record_fields(cert):
    return [(r.signs, r.consistent, r.rank_coeff, r.rank_aug, r.note) for r in cert.records]


@pytest.mark.parametrize("exponent", range(-6, 7))
@pytest.mark.parametrize(
    "triple, k, tolerance",
    [
        (tuple(DirectionVector(float(d.q), float(d.p)) for d in ASYM), 1.0, 1e-12),
        (SYM, S3, 1e-9),
    ],
    ids=["asymmetric", "symmetric"],
)
def test_certificate_records_scale_invariant(triple, k, tolerance, exponent):
    # rescaling the triple by lambda and K by lambda^2 changes no record
    lam = 10.0 ** exponent
    base = certify_no_fourth(*triple, k, tolerance=tolerance)
    scaled = certify_no_fourth(
        *(d.scaled(lam) for d in triple), k * lam * lam, tolerance=tolerance
    )
    assert isinstance(scaled, InfeasibilityCertificate) and scaled.valid
    assert _record_fields(scaled) == _record_fields(base)


class TestEquivalence:
    def test_asymmetric_to_symmetric(self):
        eq = find_equivalence(ASYM_CFG, SYM_CFG)
        assert eq is not None
        assert eq.residual < 1e-10
        # lambda^2 = K_b / K_a for N=1 triples
        assert eq.scale == pytest.approx(math.sqrt(S3), rel=1e-12)
        m = np.asarray(eq.matrix.entries, dtype=float)
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-10
        # mapped vectors land on the target up to sign and ordering
        for i, vec in enumerate(ASYM_CFG.vectors):
            src = np.array([float(vec.factors[0].q), float(vec.factors[0].p)])
            tgt_vec = SYM_CFG.vectors[eq.permutation[i]].factors[0]
            tgt = np.array([tgt_vec.q, tgt_vec.p])
            mapped = eq.scale * (m @ src)
            assert np.allclose(mapped, eq.signs[i] * tgt, atol=1e-10)

    def test_self_equivalence(self):
        eq = find_equivalence(ASYM_CFG, ASYM_CFG)
        assert eq is not None
        assert eq.scale == pytest.approx(1.0, rel=1e-12)
        assert eq.residual < 1e-12

    def test_not_found(self):
        other = config_of(
            (DirectionVector(0, 1), DirectionVector(1, 0), DirectionVector(2, 1)), 1
        )
        assert find_equivalence(ASYM_CFG, other) is None

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_scale_free(self, exponent):
        # rescaling both triples by lambda changes no answer
        def scaled(pairs, k, lam):
            dirs = [DirectionVector(lam * q, lam * p) for q, p in pairs]
            return config_of(dirs, k * lam * lam, mode=NUMERIC)

        unit = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        genuine = [(2.0, 0.0), (0.0, 3.0), (2.0, 3.0)]
        perturbed = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0 + 1e-5)]
        base = find_equivalence(scaled(unit, 1.0, 1.0), scaled(genuine, 6.0, 1.0))
        lam = 10.0 ** exponent
        eq = find_equivalence(scaled(unit, 1.0, lam), scaled(genuine, 6.0, lam))
        assert eq is not None
        assert (eq.permutation, eq.signs) == (base.permutation, base.signs)
        assert eq.scale == pytest.approx(base.scale, rel=1e-12)
        assert find_equivalence(scaled(unit, 1.0, lam), scaled(perturbed, 1.0, lam)) is None

    @pytest.mark.parametrize("exponent", [-300, -200, 200, 300])
    def test_scale_free_past_the_squares_range(self, exponent):
        # at 10^+-200 a column norm's squares under- or overflow, so the
        # triples are solved in a power-of-two frame
        def scaled(pairs, lam):
            return config_of([DirectionVector(lam * q, lam * p) for q, p in pairs], 1.0, mode=NUMERIC)

        unit = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        genuine = [(2.0, 0.0), (0.0, 3.0), (2.0, 3.0)]
        perturbed = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0 + 1e-5)]
        lam = 10.0 ** exponent
        base = find_equivalence(scaled(unit, 1.0), scaled(genuine, 1.0))
        both = find_equivalence(scaled(unit, lam), scaled(genuine, lam))
        assert (both.permutation, both.signs) == (base.permutation, base.signs)
        assert both.scale == pytest.approx(base.scale, rel=1e-12)
        for row, base_row in zip(both.matrix.entries, base.matrix.entries):
            assert row == pytest.approx(base_row, rel=1e-12, abs=1e-12)
        assert both.residual <= 1e-12 * lam
        one = find_equivalence(scaled(unit, 1.0), scaled(unit, lam))
        assert one.scale == pytest.approx(lam, rel=1e-12)
        back = find_equivalence(scaled(unit, lam), scaled(unit, 1.0))
        assert back.scale == pytest.approx(1.0 / lam, rel=1e-12)
        assert find_equivalence(scaled(unit, lam), scaled(perturbed, lam)) is None

    @pytest.mark.parametrize("k", [-45, -1, 1, 7, 60])
    def test_power_of_two_scales_exactly(self, k):
        # scaling a triple by 2^k scales the reported scale by exactly 2^k
        # (2^-k for the first triple) and the residual, reported in the
        # second triple's frame, by 2^k; nothing else moves
        source = [(0.3, -1.1), (1.7, 0.2), (0.9, 0.45)]
        shear = np.array([[2.0, 1.0], [1.0, 1.0]])
        target = [tuple(1.37 * (shear @ v)) for v in source]

        def triple(pairs, factor):
            dirs = [DirectionVector(math.ldexp(q, factor), math.ldexp(p, factor)) for q, p in pairs]
            return config_of(dirs, 1.0, mode=NUMERIC)

        base = find_equivalence(triple(source, 0), triple(target, 0))
        assert base is not None and base.residual > 0
        for eq, factor in (
            (find_equivalence(triple(source, 0), triple(target, k)), k),
            (find_equivalence(triple(source, k), triple(target, 0)), -k),
        ):
            assert eq.scale == math.ldexp(base.scale, factor)
            assert (eq.matrix, eq.permutation, eq.signs) == (base.matrix, base.permutation, base.signs)
        assert find_equivalence(triple(source, 0), triple(target, k)).residual == math.ldexp(base.residual, k)

    def test_scale_past_the_float_range_is_a_limit(self):
        # lambda = 1e600 or 1e-600 has no float: a limit, not a verdict
        def scaled(lam):
            return config_of([DirectionVector(lam * q, lam * p) for q, p in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))], 1.0, mode=NUMERIC)

        with pytest.raises(LimitExceeded, match="past the float range"):
            find_equivalence(scaled(1e-300), scaled(1e300))
        with pytest.raises(LimitExceeded, match="past the float range"):
            find_equivalence(scaled(1e300), scaled(1e-300))

    @pytest.mark.parametrize(
        "field_a, field_b",
        [(QuadNum, QuadNum), (Fraction, Fraction), (Fraction, _over_sqrt2), (_over_sqrt2, Fraction)],
        ids=["quadnum", "fraction", "fraction-sqrt2", "sqrt2-fraction"],
    )
    def test_exact_triples_are_decided_in_their_field(self, field_a, field_b):
        # a third vector 1e-12 off (1, 1) is within the float tolerance, but
        # two exact triples are compared exactly; a triple without QuadNums
        # fits the other's field
        def triple(kind, third_p, **mode):
            dirs = [DirectionVector(kind(q), kind(p)) for q, p in ((1, 0), (0, 1), (1, third_p))]
            return config_of(dirs, kind(1), **mode)

        near = 1 + Fraction(1, 10**12)
        assert find_equivalence(triple(field_a, 1), triple(field_b, near)) is None
        assert find_equivalence(triple(field_a, near), triple(field_b, 1)) is None
        floats = find_equivalence(triple(float, 1, mode=NUMERIC), triple(float, near, mode=NUMERIC))
        assert floats.residual == pytest.approx(1e-12, rel=1e-3)
        same = find_equivalence(triple(field_a, 1), triple(field_b, 1))
        assert (same.scale, same.residual, same.matrix.entries) == (1.0, 0.0, ((1.0, 0.0), (0.0, 1.0)))

    def test_exact_shear_is_found_exactly(self):
        # (1, 0), (0, 1), (1, 1) under [[1, 1], [0, 1]] scaled by 3 over the
        # golden field: residual exactly 0 and the unimodular shear reported
        unit = ((1, 0), (0, 1), (1, 1))
        source = config_of([DirectionVector(QuadNum(q), QuadNum(p)) for q, p in unit], QuadNum(1))
        target = config_of([DirectionVector(QuadNum(3 * (q + p)), QuadNum(3 * p)) for q, p in unit], QuadNum(9))
        eq = find_equivalence(source, target)
        assert (eq.scale, eq.residual, eq.permutation, eq.signs) == (3.0, 0.0, (0, 1, 2), (1, 1, 1))
        assert eq.matrix.entries == ((1.0, 1.0), (0.0, 1.0)) and eq.matrix.sign == 1

    def test_mixed_fields_are_decided_in_floats(self):
        # QuadNums over two ambients have no common exact arithmetic
        sqrt2, unit = QuadNum(0, 1, Ambient(0, 2)), ((1, 0), (0, 1), (1, 1))
        golden = config_of([DirectionVector(QuadNum(q), QuadNum(p)) for q, p in unit], QuadNum(1))
        other = config_of([DirectionVector(sqrt2 * q, sqrt2 * p) for q, p in unit], sqrt2 * sqrt2)
        eq = find_equivalence(golden, other)
        assert eq.scale == pytest.approx(math.sqrt(2.0), rel=1e-15) and eq.residual < 1e-15

    @pytest.mark.parametrize(
        "factor", [10**400, Fraction(1, 10**400), QuadNum(10**400)], ids=["int", "fraction", "quadnum"]
    )
    def test_exact_scale_without_a_float_is_a_limit(self, factor):
        # lambda = 10^400 or 10^-400 is exact, but has no float to report
        unit = [(1, 0), (0, 1), (1, 1)]
        source = config_of([DirectionVector(Fraction(q), p) for q, p in unit], Fraction(1))
        target = config_of([DirectionVector(factor * q, factor * p) for q, p in unit], factor * factor)
        with pytest.raises(LimitExceeded, match="past the float range"):
            find_equivalence(source, target)

    @pytest.mark.parametrize("factor", [10**200, Fraction(1, 10**200)], ids=["up", "down"])
    def test_exact_scale_past_the_squares_range_is_reported(self, factor):
        # lambda^2 = 10^+-400 has no float, lambda does: the report comes
        # from the power-of-two frames, as for float triples
        unit = [(1, 0), (0, 1), (1, 1)]
        source = config_of([DirectionVector(Fraction(q), p) for q, p in unit], Fraction(1))
        target = config_of([DirectionVector(factor * q, factor * p) for q, p in unit], factor * factor)
        eq = find_equivalence(source, target)
        assert eq.scale == pytest.approx(float(factor), rel=1e-15)
        assert (eq.residual, eq.matrix.entries) == (0.0, ((1.0, 0.0), (0.0, 1.0)))

    def test_non_triple_rejected(self):
        pair = MUConfiguration(
            vectors=(ProductVector.of((0, -1)), ProductVector.of((1, 0))),
            target_k=1,
        )
        with pytest.raises(DimensionMismatch):
            find_equivalence(pair, ASYM_CFG)
        with pytest.raises(DimensionMismatch):
            find_equivalence(ASYM_CFG, pair)


def asym_problem():
    return SearchProblem(
        target_k=1.0,
        seeds=(
            ProductVector.of((0.0, -1.0)),
            ProductVector.of((1.0, 0.0)),
            ProductVector.of((1.0, 1.0)),
        ),
        free_slots=1,
        domain="real",
    )


def golden_first_four():
    one = QuadNum(1)
    zero = QuadNum(0)
    return (
        ProductVector.of((one, zero), (one, zero)),
        ProductVector.of((zero, one), (zero, one)),
        ProductVector.of((one, one), (one, one)),
        ProductVector.of((one, one - R), (one, R)),
    )


GOLDEN_FIFTH = ProductVector.of((QuadNum(1), QuadNum(2) - R), (QuadNum(1), QuadNum(1) + R))


def same_vector(u, v):
    # equal up to simultaneous sign flip of a factor pair
    if u.n != v.n:
        return False
    direct = all(fu == fv for fu, fv in zip(u.factors, v.factors))
    flipped = all(
        fu.q == -fv.q and fu.p == -fv.p for fu, fv in zip(u.factors, v.factors)
    )
    return direct or flipped


class TestSearchReal:
    def test_no_improvement_on_asymmetric_triple(self):
        report = search_extension(asym_problem(), budget=4000, restarts=8, seed=0)
        assert report.outcome == "no-improvement"
        assert report.residual > 0.1
        assert report.evaluations <= 4000

    def test_determinism(self):
        first = search_extension(asym_problem(), budget=2000, restarts=4, seed=11)
        second = search_extension(asym_problem(), budget=2000, restarts=4, seed=11)
        skip = {"wall_time"}
        for field in dataclasses.fields(first):
            if field.name in skip:
                continue
            assert getattr(first, field.name) == getattr(second, field.name), field.name

    def test_seed_changes_trajectory(self):
        a = search_extension(asym_problem(), budget=2000, restarts=4, seed=1)
        b = search_extension(asym_problem(), budget=2000, restarts=4, seed=2)
        # outcome identical, trajectory counters generally differ
        assert a.outcome == b.outcome == "no-improvement"

    def test_positive_control_pair_extends(self):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(ProductVector.of((0.0, -1.0)), ProductVector.of((1.0, 0.0))),
            free_slots=1,
            domain="real",
        )
        report = search_extension(prob, budget=20000, restarts=10, seed=3)
        assert report.outcome == "extended"
        assert report.residual <= 1e-9

    def test_residual_matches_reverification(self):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(ProductVector.of((0.0, -1.0)), ProductVector.of((1.0, 0.0))),
            free_slots=1,
            domain="real",
        )
        report = search_extension(prob, budget=20000, restarts=10, seed=3)
        cfg = MUConfiguration(
            vectors=tuple(prob.seeds) + tuple(report.vectors),
            target_k=1.0,
            mode=NUMERIC,
        )
        recheck = verify_mu(cfg, tolerance=1e-8)
        assert recheck.max_deviation <= report.residual + 1e-15

    def test_parallel_free_vectors_make_the_residual_inf(self):
        # at K = 1e-320 the two free vectors round to the same floats, a
        # parallel pair, so the residual must not read 0.0
        problem = SearchProblem(1e-320, (ProductVector.of((1e-300, 1e-300)),), 2, "real")
        report = search_extension(problem, budget=400, restarts=4, seed=0)
        assert report.outcome == "no-improvement"
        assert report.residual == math.inf

    def test_seed_required(self):
        with pytest.raises(InvalidProblem):
            search_extension(asym_problem(), budget=1000, restarts=2, seed=None)

    def test_zero_free_slots(self):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(
                ProductVector.of((0.0, -1.0)),
                ProductVector.of((1.0, 0.0)),
                ProductVector.of((1.0, 1.0)),
            ),
            free_slots=0,
            domain="real",
        )
        report = search_extension(prob, budget=100, restarts=1, seed=0)
        assert report.outcome == "exhausted"
        assert report.residual <= 1e-12
        assert report.vectors == ()


class TestObjectiveGradient:
    def test_matches_central_differences(self):
        fn = real_objective_fn(asym_problem())
        rng = np.random.default_rng(21)
        h = 1e-6
        checked = 0
        while checked < 100:
            x = rng.uniform(-3.0, 3.0, size=1)
            # keep away from the log singularities for stable differences
            if min(abs(x[0]), abs(x[0] - 1.0)) < 1e-2:
                continue
            f, grad = fn(x)
            fp, _ = fn(x + h)
            fm, _ = fn(x - h)
            fd = (fp - fm) / (2 * h)
            scale = max(1.0, abs(fd), abs(grad[0]))
            assert abs(grad[0] - fd) <= 1e-6 * scale
            checked += 1


    def test_two_free_slots_match_central_differences(self):
        # the pair of two free vectors differentiates its first vector too
        fn = real_objective_fn(dataclasses.replace(asym_problem(), free_slots=2))
        rng = np.random.default_rng(22)
        h = 1e-6
        checked = 0
        while checked < 100:
            x = rng.uniform(-3.0, 3.0, size=2)
            # keep away from the log singularities for stable differences
            if min(abs(x[0]), abs(x[1]), abs(x[0] - 1.0), abs(x[1] - 1.0), abs(x[0] - x[1])) < 1e-2:
                continue
            f, grad = fn(x)
            for i in range(2):
                step = np.zeros(2)
                step[i] = h
                fd = (fn(x + step)[0] - fn(x - step)[0]) / (2 * h)
                scale = max(1.0, abs(fd), abs(grad[i]))
                assert abs(grad[i] - fd) <= 1e-6 * scale
            checked += 1


def golden5_problem():
    """The first three golden5 vectors as floats: a real N = 2 problem."""
    golden5 = fixture_config("golden5.json")
    seeds = tuple(
        ProductVector(tuple(DirectionVector(*f.as_floats()) for f in v.factors))
        for v in golden5.vectors[:3]
    )
    return SearchProblem(float(golden5.target_k), seeds, 1, "real")


REAL_PROBLEMS = {"asym": asym_problem, "golden3": golden5_problem}

# search_extension(problem, budget=4000, restarts=8, seed), recorded with
# the damped Newton steps in the one affine chart; every figure must match
# exactly: (problem, free slots, seed, outcome, evaluations, iterations,
# restarts_used, best_objective, vectors as (q, p) factor pairs)
REAL_TRAJECTORIES = [
    ("asym", 1, 0, "no-improvement", 87, 38, 8, 0.39420271659640305, (((1.0, -0.7775400992458505),),)),
    ("asym", 1, 1, "no-improvement", 98, 41, 8, 0.39420271659640294, (((1.0, 1.7775401040269656),),)),
    ("asym", 1, 2, "no-improvement", 79, 34, 8, 0.39420271659640294, (((1.0, -0.7775401040300226),),)),
    ("asym", 1, 3, "no-improvement", 83, 35, 8, 0.39420271659640294, (((1.0, -0.7775401040232987),),)),
    ("asym", 2, 0, "no-improvement", 113, 49, 8, 1.3707391468826406, (((1.0, 1.6003046620347914),), ((1.0, 2.283957828595016),))),
    ("asym", 2, 1, "no-improvement", 102, 42, 8, 1.3707391468826378, (((1.0, -1.2839578507380964),), ((1.0, -0.6003046855721821),))),
    ("asym", 2, 2, "no-improvement", 121, 52, 8, 1.3707391468826378, (((1.0, -1.283957851549784),), ((1.0, -0.600304686439974),))),
    ("asym", 2, 3, "no-improvement", 107, 46, 8, 1.3707391468826375, (((1.0, -1.2839578515513097),), ((1.0, -0.6003046864365671),))),
    ("golden3", 1, 0, "extended", 177, 70, 8, 1.232595164407831e-32, (((-1.6180339887498947, 1.0), (0.6180339887498949, 1.0)),)),
    ("golden3", 1, 1, "extended", 156, 71, 8, 4.9303806576313227e-32, (((2.618033988749895, 1.0), (0.38196601125010515, 1.0)),)),
    ("golden3", 1, 2, "extended", 139, 59, 8, 2.465190328815662e-32, (((0.38196601125010515, 1.0), (2.6180339887498945, 1.0)),)),
    ("golden3", 1, 3, "extended", 149, 63, 8, 2.465190328815662e-32, (((2.6180339887498945, 1.0), (0.38196601125010515, 1.0)),)),
    ("golden3", 2, 0, "extended", 154, 65, 8, 1.4791141972893967e-31, (((1.618033988749895, 1.0), (-0.6180339887498949, 1.0)), ((2.618033988749895, 1.0), (0.38196601125010515, 1.0)))),
    ("golden3", 2, 1, "extended", 140, 62, 8, 1.4791141972893971e-31, (((1.6180339887498947, 1.0), (-0.6180339887498949, 1.0)), ((2.618033988749895, 1.0), (0.38196601125010515, 1.0)))),
    ("golden3", 2, 2, "no-improvement", 134, 58, 8, 0.7110039995506571, (((-1.8800360157801448, 1.0), (0.4175435825211232, 1.0)), ((2.880036015738711, 1.0), (0.5824564174742404, 1.0)))),
    ("golden3", 2, 3, "extended", 135, 60, 8, 1.2325951644078314e-31, (((-0.6180339887498949, 1.0), (1.6180339887498947, 1.0)), ((0.38196601125010515, 1.0), (2.6180339887498945, 1.0)))),
]


class TestRealTrajectories:
    @pytest.mark.parametrize(
        "name, slots, seed, outcome, evaluations, iterations, restarts_used, best, vectors",
        REAL_TRAJECTORIES,
        ids=[f"{name}-{slots}-{seed}" for name, slots, seed, *_ in REAL_TRAJECTORIES],
    )
    def test_pinned(self, name, slots, seed, outcome, evaluations, iterations, restarts_used, best, vectors):
        problem = dataclasses.replace(REAL_PROBLEMS[name](), free_slots=slots)
        report = search_extension(problem, budget=4000, restarts=8, seed=seed)
        assert report.outcome == outcome
        assert report.evaluations == evaluations
        assert report.iterations == iterations
        assert report.restarts_used == restarts_used
        assert report.best_objective == best
        assert tuple(tuple((f.q, f.p) for f in v.factors) for v in report.vectors) == vectors

    @pytest.mark.parametrize(
        "name, slots, gauss_newton_steps", [("asym", 1, 2), ("asym", 2, 3), ("golden3", 2, 13)]
    )
    def test_stats(self, name, slots, gauss_newton_steps):
        problem = dataclasses.replace(REAL_PROBLEMS[name](), free_slots=slots)
        report = search_extension(problem, budget=4000, restarts=8, seed=0)
        assert set(report.stats) == {"budget_hit", "gradient_evaluations", "gauss_newton_steps", "share_stops"}
        assert report.stats["gradient_evaluations"] == report.restarts_used + report.iterations
        assert report.stats["gauss_newton_steps"] == gauss_newton_steps
        assert report.stats["budget_hit"] == (report.evaluations >= 4000)
        # no pinned trajectory comes near its share of 500 evaluations
        assert report.stats["share_stops"] == 0
        assert report.to_json()["stats"] == report.stats


def extended_seeds(name, slots):
    problem = dataclasses.replace(REAL_PROBLEMS[name](), free_slots=slots)
    return [
        seed
        for seed in range(4)
        if search_extension(problem, budget=4000, restarts=8, seed=seed).outcome == "extended"
    ]


def scaled_seeds(problem, scale):
    """Every seed's first factor times scale, and K times scale^2."""
    seeds = tuple(v.scale_first_factor(scale) for v in problem.seeds)
    return dataclasses.replace(problem, target_k=problem.target_k * scale**2, seeds=seeds)


class TestRealOutcomes:
    """What the search finds, whatever trajectories it takes to find it."""

    @pytest.mark.parametrize("slots", [1, 2])
    def test_asymmetric_triple_never_extends(self, slots):
        assert extended_seeds("asym", slots) == []

    def test_golden_three_extends_by_one_at_every_seed(self):
        assert extended_seeds("golden3", 1) == [0, 1, 2, 3]

    def test_golden_three_extends_by_two_at_least_as_often_as_descent(self):
        # gradient descent with backtracking extended at 1 of these 4 seeds
        assert len(extended_seeds("golden3", 2)) >= 1

    @pytest.mark.parametrize("j", sorted(set(range(-12, 13)) | set(range(-300, 301, 50))))
    def test_two_seed_family_extends_at_every_scale(self, j):
        # (1, 0), (0, K) has the extension (1, +-K) for every K. A free
        # factor is (0, K) - x (1, 0), and its pair with (0, K) reads
        # |x| = 1 whatever K is, so no scale is too small or too large
        k = 10.0**j
        problem = SearchProblem(k, (ProductVector.of((1.0, 0.0)), ProductVector.of((0.0, k))), 1, "real")
        report = search_extension(problem, budget=4000, restarts=8, seed=0)
        assert report.outcome == "extended"
        assert report.residual <= 1e-9

    @pytest.mark.parametrize(
        "dirs, k", [([(1.0, 1.0), (1.0, -1.0)], 2.0), ([(2.0, 0.0), (0.0, 2.0)], 4.0)]
    )
    def test_extensions_of_any_scale_are_reached(self, dirs, k):
        # (2, 0) or (0, 2), and (2, 2) or (-2, 2), complete these pairs: no
        # first component is 1, so a chart fixing it could not reach them
        problem = SearchProblem(k, tuple(ProductVector.of(d) for d in dirs), 1, "real")
        report = search_extension(problem, budget=4000, restarts=8, seed=0)
        assert report.outcome == "extended"
        assert report.residual <= 1e-9

    @pytest.mark.parametrize("slots", [1, 2])
    def test_golden_three_is_invariant_under_power_of_two_scales(self, slots):
        # the chart's terms and its target are ratios of seed products, so
        # a power-of-two scale moves no bit of the trajectory
        problem = dataclasses.replace(golden5_problem(), free_slots=slots)
        reports = [
            search_extension(scaled_seeds(problem, 2.0**e), budget=4000, restarts=8, seed=0)
            for e in (-300, -200, -100, -10, 0, 10, 100, 200, 300)
        ]
        summaries = {(r.outcome, r.evaluations, r.best_objective) for r in reports}
        assert len(summaries) == 1
        assert summaries.pop()[0] == "extended"

    @pytest.mark.parametrize("slots", [1, 2])
    def test_one_seed_at_the_top_of_the_float_range_extends(self, slots):
        # the second seed the chart makes up carries K: (-0.0, 1e308) here
        problem = SearchProblem(1e308, (ProductVector.of((1.0, 0.0)),), slots, "real")
        report = search_extension(problem, budget=4000, restarts=8, seed=0)
        assert report.outcome == "extended"
        assert report.residual <= 1e-9

    def test_one_seed_chart_past_the_float_range_is_a_limit(self):
        # a free vector's product with (2, 0) would be 2 q = +-K = +-5e-324,
        # and no float q has it; the made-up second seed rounds to zero
        problem = SearchProblem(5e-324, (ProductVector.of((2.0, 0.0)),), 1, "real")
        with pytest.raises(LimitExceeded):
            search_extension(problem, budget=4000, restarts=8, seed=0)

    @pytest.mark.parametrize("k", [1e-150, 1e-200, 1e-300])
    def test_a_hopeless_restart_leaves_the_rest_their_share(self, k):
        # 64 evaluations over 8 restarts: no restart meets its stop tests
        # within its share, yet each stops there and leaves the later ones
        # theirs (the last one's share is what is left, so it never counts)
        problem = SearchProblem(k, (ProductVector.of((1.0, 0.0)), ProductVector.of((0.0, k))), 1, "real")
        report = search_extension(problem, budget=64, restarts=8, seed=0)
        assert report.restarts_used == 8
        assert report.stats["share_stops"] == 7
        assert report.evaluations <= 64

    @pytest.mark.parametrize("restarts", [1, 4, 8])
    def test_the_budget_is_never_overrun(self, restarts):
        # a step accepted on the last evaluation of a share takes no
        # gradient evaluation past it (it once did: budget 2, one restart,
        # spent 3)
        problem = SearchProblem(1.0, (ProductVector.of((0.0, -1.0)), ProductVector.of((1.0, 0.0))), 1, "real")
        for budget in range(1, 60):
            report = search_extension(problem, budget=budget, restarts=restarts, seed=0)
            assert report.evaluations <= budget

    @pytest.mark.parametrize("budget, restarts, used", [(3, 8, 3), (16, 8, 8), (17, 4, 4)])
    def test_every_started_restart_gets_its_starting_point(self, budget, restarts, used):
        # a share below one evaluation still buys the starting point; the
        # restarts stop when the budget does
        problem = dataclasses.replace(REAL_PROBLEMS["asym"](), free_slots=1)
        report = search_extension(problem, budget=budget, restarts=restarts, seed=0)
        assert report.restarts_used == used
        assert report.evaluations <= budget


def reference_vectors(problem, chart, x):
    """Seeds and free vectors as (q, p) float pairs, the gauge's 1.0 and 0.0
    written out: (1, x[k]) for a free factor, (0, 1) for a pinned one."""
    xs = iter(list(x))
    free = [
        [(0.0, 1.0) if pinned else (1.0, next(xs)) for pinned in chart[s * problem.n : (s + 1) * problem.n]]
        for s in range(problem.free_slots)
    ]
    return [[f.as_floats() for f in v.factors] for v in problem.seeds] + free


def reference_objective(problem, chart, x, want_grad=True):
    """The objective of the former gauge charts, as that search evaluated
    it (a chart entry 0 leaves a factor (1, x[k]), 1 pins it to (0, 1)):
    every factor product a.p * b.q - a.q * b.p in full."""
    vectors = reference_vectors(problem, chart, x)
    position = itertools.count()
    flat = [None if pinned else next(position) for pinned in chart]
    n, seeds = problem.n, len(problem.seeds)
    at = [(None,) * n] * seeds + [flat[s * n : (s + 1) * n] for s in range(problem.free_slots)]
    log_k = math.log(float(problem.target_k))
    total = 0.0
    grad = [0.0] * chart.count(0) if want_grad else None
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if j < seeds:
            continue
        va, vb = vectors[i], vectors[j]
        products = [a[1] * b[0] - a[0] * b[1] for a, b in zip(va, vb)]
        sp = 1.0
        for fp in products:
            sp *= fp
        if sp == 0.0:
            return math.inf, None
        diff = math.log(abs(sp)) - log_k
        total += diff * diff
        if not want_grad:
            continue
        for f in range(n):
            rest = 1.0
            for g in range(n):
                if g != f:
                    rest *= products[g]
            if at[i][f] is not None:
                grad[at[i][f]] += 2.0 * diff * (vb[f][0] * rest) / sp
            if at[j][f] is not None:
                grad[at[j][f]] += 2.0 * diff * (-va[f][0] * rest) / sp
    return total, grad


def sl2_triple(a, b, c, d):
    """The asymmetric triple under [[a, b], [c, d]] with ad - bc = 1: the
    same pairwise products, no factor with q = 0 unless the map keeps one."""
    return [(a * q + b * p, c * q + d * p) for q, p in ((0.0, -1.0), (1.0, 0.0), (1.0, 1.0))]


def n3_problem():
    """An N = 3 product of three images of the asymmetric triple, K = 1."""
    maps = [(1.0, 0.0, 0.0, 1.0), (2.0, 1.0, 1.0, 1.0), (1.0, -2.0, 1.0, -1.0)]
    triples = [sl2_triple(*m) for m in maps]
    seeds = tuple(ProductVector.of(*(t[i] for t in triples)) for i in range(3))
    return SearchProblem(1.0, seeds, 1, "real")


GUARD_PROBLEMS = {1: asym_problem, 2: golden5_problem, 3: n3_problem}


def with_one_seed(problem):
    """The problem and its seed 0 alone, whose chart makes up s1."""
    return [problem, dataclasses.replace(problem, seeds=problem.seeds[:1])]


def chart_seeds(problem):
    """s0 and s1 of the one chart as (q, p) float pairs: the first two
    seeds, or for one seed s1_k = J s0_k / |s0_k|^2, slot 0's times K."""
    s0 = [f.as_floats() for f in problem.seeds[0].factors]
    if len(problem.seeds) > 1:
        return s0, [f.as_floats() for f in problem.seeds[1].factors]
    s1 = []
    for k, (q, p) in enumerate(s0):
        r = math.hypot(q, p)
        scale = float(problem.target_k) if k == 0 else 1.0
        s1.append((scale * (-p / r / r), scale * (q / r / r)))
    return s0, s1


def chart_vectors(problem, x):
    """Seeds and free vectors as (q, p) float pairs, factor k of free slot s
    written out as s1_k - x[s N + k] s0_k."""
    s0, s1 = chart_seeds(problem)
    n = problem.n
    free = [
        [(q1 - x[s * n + k] * q0, p1 - x[s * n + k] * p0) for k, ((q0, p0), (q1, p1)) in enumerate(zip(s0, s1))]
        for s in range(problem.free_slots)
    ]
    return [[f.as_floats() for f in v.factors] for v in problem.seeds] + free


def full_objective(problem, x):
    """The summed squared log-residuals of every pair that involves a free
    vector, seed 0's included, over the explicit vectors."""
    vectors = chart_vectors(problem, x)
    log_k = math.log(float(problem.target_k))
    total = 0.0
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if j >= len(problem.seeds):
            sp = math.prod(a[1] * b[0] - a[0] * b[1] for a, b in zip(vectors[i], vectors[j]))
            total += (math.log(abs(sp)) - log_k) ** 2
    return total


def chart_objective(problem, x, want_grad=True):
    """The one chart's objective pair by pair as its docstring states it,
    uncompiled: each factor product is a - b * x[l] or x[k] - x[l]."""
    s0, s1 = chart_seeds(problem)
    n, seeds = problem.n, len(problem.seeds)
    sigma = [p0 * q1 - q0 * p1 for (q0, p0), (q1, p1) in zip(s0, s1)]
    log_target = math.log(float(problem.target_k) / abs(math.prod(sigma)))
    # each factor as (a, b, None) for seed i >= 1, (None, None, k) for free
    at = [
        [
            ((p * q1 - q * p1) / s, (p * q0 - q * p0) / s, None)
            for (q, p), (q0, p0), (q1, p1), s in zip([f.as_floats() for f in v.factors], s0, s1, sigma)
        ]
        for v in problem.seeds[1:]
    ]
    at += [[(None, None, s * n + k) for k in range(n)] for s in range(problem.free_slots)]
    total = 0.0
    grad = [0.0] * (n * problem.free_slots) if want_grad else None
    for i, j in itertools.combinations(range(len(at)), 2):
        if j < seeds - 1:
            continue
        products, slopes = [], []
        for (a, b, k), (_, _, l) in zip(at[i], at[j]):
            if k is None:
                products.append(a - b * x[l])
                slopes.append([(l, -b)])
            else:
                products.append(x[k] - 1.0 * x[l])
                slopes.append([(k, 1.0), (l, -1.0)])
        sp = 1.0
        for t in products:
            sp *= t
        if sp == 0.0:
            return math.inf, None
        diff = math.log(abs(sp)) - log_target
        total += diff * diff
        if not want_grad:
            continue
        for f, slope in enumerate(slopes):
            rest = 1.0
            for g in range(n):
                if g != f:
                    rest *= products[g]
            for k, d in slope:
                grad[k] += 2.0 * diff * (d * rest) / sp
    return total, grad


def live_points(problem, rng, count, margin=5e-2):
    """count points of the chart whose factor products all pass margin in
    magnitude, away from the log singularities."""
    points = []
    while len(points) < count:
        x = rng.uniform(-3.0, 3.0, size=problem.n * problem.free_slots).tolist()
        products = [
            a[1] * b[0] - a[0] * b[1]
            for va, vb in itertools.combinations(chart_vectors(problem, x), 2)
            for a, b in zip(va, vb)
        ]
        if min(abs(fp) for fp in products) >= margin:
            points.append(x)
    return points


class TestCompiledObjective:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_bit_for_bit_against_full_formula(self, n, slots):
        base = dataclasses.replace(GUARD_PROBLEMS[n](), free_slots=slots)
        assert base.n == n
        rng = np.random.default_rng(100 * n + slots)
        for problem in with_one_seed(base):
            objective = real_objective_fn(problem)
            for x in live_points(problem, rng, 4):
                for want_grad in (True, False):
                    value, grad = objective.evaluate(list(x), want_grad)
                    ref_value, ref_grad = chart_objective(problem, x, want_grad)
                    assert value.hex() == ref_value.hex()
                    if want_grad:
                        assert [g.hex() for g in grad] == [g.hex() for g in ref_grad]
                    else:
                        assert grad is None
                # the chart's formula is the full one over explicit vectors
                assert math.isclose(value, full_objective(problem, x), rel_tol=1e-12, abs_tol=1e-24)

    def test_asymmetric_triple_matches_the_former_all_free_chart(self):
        # s0 = (0, -1) and s1 = (1, 0) make a free factor (1, x), and
        # sigma = -1 divides exactly
        problem = asym_problem()
        objective = real_objective_fn(problem)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-3.0, 3.0, size=(1000, 1)).tolist():
            value, grad = objective.evaluate(x, True)
            ref_value, ref_grad = reference_objective(problem, (0,), x)
            assert value.hex() == ref_value.hex()
            assert [g.hex() for g in grad] == [g.hex() for g in ref_grad]

    def test_vanishing_product_is_infinite(self):
        # x = 1 puts the free factor at (1, 1), the third seed
        objective = real_objective_fn(asym_problem())
        assert objective.evaluate([1.0], True) == (math.inf, None)
        assert objective.evaluate([1.0], True, True) == (math.inf, None, None, None)

    def test_wrapper_returns_arrays(self):
        objective = real_objective_fn(golden5_problem())
        value, grad = objective(np.array([0.5, -0.25]))
        assert (value, grad.tolist()) == tuple(objective.evaluate([0.5, -0.25], True))
        assert objective([0.5, -0.25], False) == (value, None)


class TestSecondDerivatives:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_every_live_chart(self, n, slots):
        # the one chart, of the seeds and of seed 0 alone
        base = dataclasses.replace(GUARD_PROBLEMS[n](), free_slots=slots)
        rng = np.random.default_rng(300 + 10 * n + slots)
        h = 1e-6
        for problem in with_one_seed(base):
            objective = real_objective_fn(problem)
            for x in live_points(problem, rng, 3):
                value, grad, hessian, gauss_newton = objective.evaluate(x, True, True)
                # asking for second derivatives changes neither f nor the gradient
                assert (value, grad) == objective.evaluate(x, True)
                hessian, gauss_newton = np.array(hessian), np.array(gauss_newton)
                assert hessian.shape == gauss_newton.shape == (objective.dims,) * 2
                for i in range(objective.dims):
                    up, down = list(x), list(x)
                    up[i] += h
                    down[i] -= h
                    fd = (objective(up, False)[0] - objective(down, False)[0]) / (2 * h)
                    assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd), abs(grad[i]))
                    fd = (np.array(objective(up)[1]) - np.array(objective(down)[1])) / (2 * h)
                    scale = max(1.0, float(np.abs(fd).max()), float(np.abs(hessian[i]).max()))
                    assert np.abs(hessian[i] - fd).max() <= 1e-6 * scale
                assert (gauss_newton == gauss_newton.T).all()
                assert (hessian == hessian.T).all()
                top = float(np.abs(gauss_newton).max())
                assert np.linalg.eigvalsh(gauss_newton).min() >= -1e-12 * top


class TestSearchLattice:
    def test_n1_completion(self):
        prob = SearchProblem(
            target_k=QuadNum(1),
            seeds=(
                ProductVector.of((QuadNum(0), QuadNum(-1))),
                ProductVector.of((QuadNum(1), QuadNum(0))),
            ),
            free_slots=1,
            domain="golden-lattice",
            height=1,
        )
        report = search_extension(prob, budget=10000, restarts=1, seed=0)
        assert report.outcome == "extended"
        assert report.residual == 0
        assert len(report.solutions) >= 1

    def test_golden_recovery_height_two(self):
        prob = SearchProblem(
            target_k=QuadNum(1),
            seeds=golden_first_four(),
            free_slots=1,
            domain="golden-lattice",
            height=2,
        )
        report = search_extension(prob, budget=800000, restarts=1, seed=0)
        assert report.outcome == "extended"
        assert report.residual == 0
        found = [
            vec
            for solution in report.solutions
            for vec in solution
            if same_vector(vec, GOLDEN_FIFTH)
        ]
        assert found, "golden fifth vector missing from the enumeration"
        # every reported completion must re-verify exactly
        for solution in report.solutions:
            cfg = MUConfiguration(
                vectors=golden_first_four() + tuple(solution),
                target_k=QuadNum(1),
            )
            assert verify_mu(cfg).verdict

    def test_budget_exhaustion(self):
        prob = SearchProblem(
            target_k=QuadNum(1),
            seeds=golden_first_four(),
            free_slots=1,
            domain="golden-lattice",
            height=2,
        )
        report = search_extension(prob, budget=50, restarts=1, seed=0)
        assert report.outcome in ("exhausted", "no-improvement")
        assert report.evaluations <= 50


# Reference completions by walking the whole height box on integer pairs
# (p, q) ~ p + q R; the solver under test never enumerates the last factor.


def _pair(x):
    x = x if isinstance(x, QuadNum) else QuadNum(x)
    assert x.p.denominator == 1 and x.q.denominator == 1
    return (x.p.numerator, x.q.numerator)


def _gmul(a, b):
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0] + a[1] * b[1])


def _lattice_vector(v):
    return tuple((_pair(f.q), _pair(f.p)) for f in v.factors)


def _lattice_product(u, v):
    """The symplectic product of two lattice vectors as a golden pair."""
    sp = (1, 0)
    for (uq, up), (vq, vp) in zip(u, v):
        a, b = _gmul(up, vq), _gmul(uq, vp)
        sp = _gmul(sp, (a[0] - b[0], a[1] - b[1]))
    return sp


def brute_force_completions(problem):
    k = _pair(problem.target_k)
    targets = {k, (-k[0], -k[1])}
    seeds = [_lattice_vector(v) for v in problem.seeds]
    bound = max(problem.height, 1)
    comps = [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-problem.height, problem.height + 1)
    ]
    factors = [(qc, pc) for qc in comps for pc in comps if qc != (0, 0) or pc != (0, 0)]
    found = set()

    def extend(chosen):
        if len(chosen) == problem.free_slots:
            found.add(tuple(chosen))
            return
        for candidate in itertools.product(factors, repeat=problem.n):
            if all(_lattice_product(candidate, x) in targets for x in seeds + chosen):
                extend(chosen + [candidate])

    extend([])
    return found


def solver_completions(problem):
    report = search_extension(problem, budget=10**9, restarts=1, seed=0)
    assert report.outcome == ("extended" if report.solutions else "exhausted")
    found = {tuple(_lattice_vector(v) for v in sol) for sol in report.solutions}
    assert len(found) == len(report.solutions)
    return found


def lattice_problem(seeds, height, free_slots=1, k=QuadNum(1)):
    return SearchProblem(
        target_k=k,
        seeds=tuple(seeds),
        free_slots=free_slots,
        domain="golden-lattice",
        height=height,
    )


def n1(*dirs):
    return [ProductVector.of(d) for d in dirs]


GOLDEN_TRIPLES = enumerate_triples_n1(QuadNum(1), 1)


class TestLatticeParity:
    @pytest.mark.parametrize("index", range(len(GOLDEN_TRIPLES)))
    def test_n1_triples_height_two(self, index):
        triple = GOLDEN_TRIPLES[index].vectors
        for seeds in (triple, triple[:2]):
            problem = lattice_problem(seeds, 2)
            assert solver_completions(problem) == brute_force_completions(problem)

    def test_n1_pair_at_golden_level_height_two(self):
        # K = R: the pair (0, -1), (R, 0) has product -R
        problem = lattice_problem(n1((QuadNum(0), QuadNum(-1)), (R, QuadNum(0))), 2, k=R)
        expected = brute_force_completions(problem)
        assert expected
        assert solver_completions(problem) == expected

    @pytest.mark.parametrize(
        "seed",
        [
            n1((QuadNum(1), QuadNum(0))),
            n1((QuadNum(0), QuadNum(1))),
            n1((QuadNum(1), R)),
        ],
        ids=["q-axis", "p-axis", "golden"],
    )
    def test_one_seed_two_free_slots_height_one(self, seed):
        problem = lattice_problem(seed, 1, free_slots=2)
        expected = brute_force_completions(problem)
        assert expected
        assert solver_completions(problem) == expected

    def test_one_n2_seed_height_one(self):
        # the last factor lies on a line behind every enumerated head
        seed = ProductVector.of((QuadNum(1), QuadNum(0)), (QuadNum(1), R))
        problem = lattice_problem([seed], 1)
        expected = brute_force_completions(problem)
        assert expected
        assert solver_completions(problem) == expected

    def test_n3_completions_keep_their_head_factors_in_order(self):
        # two head factors per vector, and seeds whose factors all differ:
        # a completion with its head factors swapped is not unbiased to them
        one, zero = QuadNum(1), QuadNum(0)
        seeds = [
            ProductVector.of((one, zero), (one, one), (zero, one)),
            ProductVector.of((zero, one), (one, zero), (one, one)),
        ]
        found = solver_completions(lattice_problem(seeds, 1))
        assert found
        for (v,) in found:
            assert all(_lattice_product(v, _lattice_vector(x)) in {(1, 0), (-1, 0)} for x in seeds)

    def test_golden_first_four_height_one(self):
        problem = lattice_problem(golden_first_four(), 1)
        expected = brute_force_completions(problem)
        assert len(expected) == 12
        assert solver_completions(problem) == expected

    def test_golden_first_four_height_two(self):
        problem = lattice_problem(golden_first_four(), 2)
        expected = brute_force_completions(problem)
        assert len(expected) == 28
        assert solver_completions(problem) == expected


# Ordered completions of the golden first four, recorded from the per-head
# QuadNum search the integer kernel replaced: each is ((q, p), ...) per factor
# with golden integers a + b R as (a, b).
GOLDEN_FIRST_FOUR_HEIGHT_ONE = (
    (((-1, 0), (0, 1)), ((1, 0), (-1, 1))),
    (((-1, 0), (0, 1)), ((-1, 0), (1, -1))),
    (((-1, 1), (-1, 0)), ((0, -1), (-1, 0))),
    (((-1, 1), (-1, 0)), ((0, 1), (1, 0))),
    (((0, -1), (1, -1)), ((1, -1), (0, -1))),
    (((0, -1), (1, -1)), ((-1, 1), (0, 1))),
    (((0, 1), (-1, 1)), ((-1, 1), (0, 1))),
    (((0, 1), (-1, 1)), ((1, -1), (0, -1))),
    (((1, -1), (1, 0)), ((0, 1), (1, 0))),
    (((1, -1), (1, 0)), ((0, -1), (-1, 0))),
    (((1, 0), (0, -1)), ((-1, 0), (1, -1))),
    (((1, 0), (0, -1)), ((1, 0), (-1, 1))),
)
GOLDEN_FIRST_FOUR_HEIGHT_TWO = (
    (((-2, 1), (-1, 1)), ((1, 1), (0, 1))),
    (((-2, 1), (-1, 1)), ((-1, -1), (0, -1))),
    (((-1, -1), (-1, 0)), ((-2, 1), (-1, 0))),
    (((-1, -1), (-1, 0)), ((2, -1), (1, 0))),
    (((-1, 0), (-2, 1)), ((-1, 0), (-1, -1))),
    (((-1, 0), (-2, 1)), ((1, 0), (1, 1))),
    (((-1, 0), (0, 1)), ((1, 0), (-1, 1))),
    (((-1, 0), (0, 1)), ((-1, 0), (1, -1))),
    (((-1, 1), (-1, 0)), ((0, -1), (-1, 0))),
    (((-1, 1), (-1, 0)), ((0, 1), (1, 0))),
    (((0, -1), (1, -1)), ((1, -1), (0, -1))),
    (((0, -1), (1, -1)), ((-1, 1), (0, 1))),
    (((0, -1), (1, 1)), ((-1, 1), (2, -1))),
    (((0, -1), (1, 1)), ((1, -1), (-2, 1))),
    (((0, 1), (-1, -1)), ((1, -1), (-2, 1))),
    (((0, 1), (-1, -1)), ((-1, 1), (2, -1))),
    (((0, 1), (-1, 1)), ((-1, 1), (0, 1))),
    (((0, 1), (-1, 1)), ((1, -1), (0, -1))),
    (((1, -1), (1, 0)), ((0, 1), (1, 0))),
    (((1, -1), (1, 0)), ((0, -1), (-1, 0))),
    (((1, 0), (0, -1)), ((-1, 0), (1, -1))),
    (((1, 0), (0, -1)), ((1, 0), (-1, 1))),
    (((1, 0), (2, -1)), ((1, 0), (1, 1))),
    (((1, 0), (2, -1)), ((-1, 0), (-1, -1))),
    (((1, 1), (1, 0)), ((2, -1), (1, 0))),
    (((1, 1), (1, 0)), ((-2, 1), (-1, 0))),
    (((2, -1), (1, -1)), ((-1, -1), (0, -1))),
    (((2, -1), (1, -1)), ((1, 1), (0, 1))),
)

# (case, budget, (evaluations, outcome, completions)), recorded the same way
BUDGET_SWEEP = (
    ('first-four', 81, (81, 'no-improvement', 0)),
    ('first-four', 100, (100, 'extended', 2)),
    ('first-four', 623, (623, 'extended', 28)),
    ('first-four', 625, (624, 'extended', 28)),
    ('q-axis-two-slots', 1, (1, 'no-improvement', 0)),
    ('q-axis-two-slots', 2, (2, 'extended', 2)),
    ('q-axis-two-slots', 13, (13, 'extended', 36)),
    ('q-axis-two-slots', 19, (19, 'extended', 48)),
    ('q-axis-two-slots', 20, (19, 'extended', 48)),
    ('n2-one-seed-two-slots', 2, (2, 'no-improvement', 0)),
    ('n2-one-seed-two-slots', 3, (3, 'extended', 2)),
    ('n2-one-seed-two-slots', 50, (50, 'extended', 28)),
    ('n2-one-seed-two-slots', 100, (100, 'extended', 52)),
    ('n2-two-seeds-two-slots', 13, (13, 'no-improvement', 0)),
    ('n2-two-seeds-two-slots', 50, (50, 'extended', 20)),
    ('n2-two-seeds-two-slots', 79, (79, 'extended', 38)),
    ('n2-two-seeds-two-slots', 100, (100, 'extended', 40)),
    ('n2-two-seeds-two-slots', 1000, (1000, 'extended', 494)),
)


def _budget_case(name):
    one, zero = QuadNum(1), QuadNum(0)
    seeds, height, free_slots = {
        "first-four": (golden_first_four(), 2, 1),
        "q-axis-two-slots": (n1((one, zero)), 1, 2),
        "n2-one-seed-two-slots": ([ProductVector.of((one, zero), (one, R))], 1, 2),
        "n2-two-seeds-two-slots": (golden_first_four()[:2], 1, 2),
    }[name]
    return lattice_problem(seeds, height, free_slots)


# heads each budget-sweep case takes with no budget
BUDGET_SWEEP_HEADS = {
    "first-four": 624,
    "q-axis-two-slots": 19,
    "n2-one-seed-two-slots": 43280,
    "n2-two-seeds-two-slots": 11600,
}


class TestLatticeKernel:
    @pytest.mark.parametrize(
        "height, expected",
        [(1, GOLDEN_FIRST_FOUR_HEIGHT_ONE), (2, GOLDEN_FIRST_FOUR_HEIGHT_TWO)],
    )
    def test_golden_first_four_order(self, height, expected):
        report = search_extension(lattice_problem(golden_first_four(), height), budget=10**6)
        found = tuple(_lattice_vector(v) for (v,) in report.solutions)
        assert found == expected
        assert report.evaluations == {1: 80, 2: 624}[height]
        assert report.stats["heads"] == report.evaluations
        assert report.stats["completions"] == len(expected)
        assert report.stats["dtype"] == "int64"

    def test_python_int_path_matches(self, monkeypatch):
        # the same kernel code on arrays of Python ints finds the same completions
        monkeypatch.setattr(search, "_kernel_dtype", lambda m, n: object)
        report = search_extension(lattice_problem(golden_first_four(), 2), budget=10**6)
        assert report.stats["dtype"] == "object"
        found = tuple(_lattice_vector(v) for (v,) in report.solutions)
        assert found == GOLDEN_FIRST_FOUR_HEIGHT_TWO

    @pytest.mark.parametrize("block", [7, 4096])
    @pytest.mark.parametrize("name, budget, expected", BUDGET_SWEEP)
    def test_budget_sweep(self, name, budget, expected, block, monkeypatch):
        # blocks of 7 heads put cuts and recursion on every side of a block edge
        monkeypatch.setattr(search, "_HEAD_BLOCK", block)
        report = search_extension(_budget_case(name), budget=budget)
        assert (report.evaluations, report.outcome, len(report.solutions)) == expected
        assert report.stats["budget_hit"] == (budget < BUDGET_SWEEP_HEADS[name])

    @pytest.mark.parametrize("power, dtype", [(10, "int64"), (100, "object")])
    def test_large_coordinates(self, power, dtype):
        # R^100 has coordinates past 2^63, so the kernel runs on Python ints
        m = QuadNum(1)
        for _ in range(power):
            m = m * R
        problem = lattice_problem(n1((m, QuadNum(1)), (m - 1, QuadNum(1))), 1)
        report = search_extension(problem, budget=10**6)
        assert report.stats["dtype"] == dtype
        expected = brute_force_completions(problem)
        assert {((((1, 0), (0, 0)),),), ((((-1, 0), (0, 0)),),)} <= expected
        assert solver_completions(problem) == expected

    def test_sixth_vector_height_eight(self):
        five = golden_first_four() + (GOLDEN_FIFTH,)
        report = search_extension(lattice_problem(five, 8), budget=10**6)
        assert report.outcome == "exhausted"
        assert report.evaluations == report.stats["heads"] == 83520
        assert report.solutions == () and report.stats["completions"] == 0

    def test_n1_head_has_no_factor(self):
        # N = 1: the one head passes with K itself on every right-hand side,
        # and the triple's first two fixed vectors give four sign patterns
        triple = fixture_config("asymmetric-triple.json")
        report = search_extension(lattice_problem(triple.vectors, 2, k=triple.target_k))
        assert report.outcome == "exhausted" and report.evaluations == 1
        stats = report.stats
        assert (stats["heads"], stats["heads_passed"], stats["sign_pattern_solves"]) == (1, 1, 4)

    def test_tables_are_shared_read_only_and_built_when_read(self):
        search._head_choices.cache_clear()
        search_extension(lattice_problem(n1((QuadNum(1), QuadNum(0))), 3), budget=10**6)
        # an N = 1 head has no factor, so no factor table is built
        assert search._head_choices.cache_info().currsize == 0
        first, second = (search._LatticeKernel((1, 0), 2, 2, 4, {}) for _ in range(2))
        assert first.choices is second.choices and first.box is second.box
        with pytest.raises(ValueError):
            first.choices[0][0][0] = 0
        with pytest.raises(ValueError):
            first.box[0][0] = 0

    def test_stats_in_json(self):
        report = search_extension(lattice_problem(golden_first_four(), 2), budget=100)
        blob = report.to_json()
        assert blob["stats"]["budget_hit"] is True
        assert blob["stats"]["heads"] == 100
        assert set(blob["stats"]) == {
            "heads", "heads_passed", "sign_pattern_solves", "box_rejects", "completions",
            "budget_hit", "filter_s", "solve_s", "verify_s", "dtype",
        }


class TestEnumerate:
    def test_height_one_contains_asymmetric_class(self):
        classes = enumerate_triples_n1(QuadNum(1), 1)
        assert classes
        hits = [cfg for cfg in classes if find_equivalence(cfg, ASYM_CFG) is not None]
        assert len(hits) == 1

    def test_height_zero_nonempty(self):
        restricted = enumerate_triples_n1(QuadNum(1), 0)
        assert restricted
        # restricted set matches the height-1 classes up to equivalence
        full = enumerate_triples_n1(QuadNum(1), 1)
        for cfg in restricted:
            assert any(find_equivalence(cfg, other) is not None for other in full)

    def test_all_classes_verify(self):
        for cfg in enumerate_triples_n1(QuadNum(1), 1):
            assert verify_mu(cfg).verdict

    def test_unreachable_k_empty(self):
        assert enumerate_triples_n1(QuadNum(50), 1) == []

    def test_float_k_rejected(self):
        with pytest.raises(InvalidProblem):
            enumerate_triples_n1(0.5, 1)

    def test_height_cap(self):
        assert enumerate_triples_n1(QuadNum(1), MAX_ENUMERATION_HEIGHT)
        with pytest.raises(LimitExceeded):
            enumerate_triples_n1(QuadNum(1), MAX_ENUMERATION_HEIGHT + 1)

    @pytest.mark.parametrize(
        "k, height",
        [(k, h) for k in (QuadNum(1), R, QuadNum(2), 1 + R, QuadNum(50)) for h in (0, 1)]
        + [(QuadNum(1), 2)],
    )
    def test_matches_pairwise_dedup_reference(self, k, height):
        assert enumerate_triples_n1(k, height) == pairwise_dedup_reference(k, height)

    @pytest.mark.parametrize("k", [QuadNum(1), QuadNum(50)])
    def test_answers_from_exact_operations_only(self, k, monkeypatch):
        def refuse(*args):
            raise AssertionError("the enumeration consulted a float")

        monkeypatch.setattr(search, "find_equivalence", refuse)
        monkeypatch.setattr(QuadNum, "__float__", refuse)
        classes = enumerate_triples_n1(k, 2)
        assert len(classes) == (1 if k == 1 else 0)


def pairwise_dedup_reference(k, height):
    """The enumeration before the one-class theorem: every triangle of the
    height box, deduplicated by find_equivalence."""
    p_bound = max(height, 1)
    components = [
        QuadNum(p, q) for p in range(-p_bound, p_bound + 1) for q in range(-height, height + 1)
    ]

    def canonical(qc, pc):
        head = pc if qc.is_zero else qc
        return DirectionVector(qc, pc) if head.sign() > 0 else DirectionVector(-qc, -pc)

    vectors = list(
        dict.fromkeys(
            canonical(qc, pc)
            for qc in components
            for pc in components
            if not (qc.is_zero and pc.is_zero)
        )
    )
    adjacency = {i: set() for i in range(len(vectors))}
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if abs(symp2(vectors[i], vectors[j])) == k:
            adjacency[i].add(j)
            adjacency[j].add(i)
    classes = []
    for i in range(len(vectors)):
        for j in sorted(x for x in adjacency[i] if x > i):
            for l in sorted(x for x in adjacency[i] & adjacency[j] if x > j):
                triple = config_of([vectors[t] for t in (i, j, l)], k)
                if not any(find_equivalence(rep, triple) is not None for rep in classes):
                    classes.append(triple)
    return classes


class TestProblemValidation:
    def test_unknown_domain(self):
        with pytest.raises(InvalidProblem):
            SearchProblem(
                target_k=1.0,
                seeds=(ProductVector.of((0.0, -1.0)), ProductVector.of((1.0, 0.0))),
                free_slots=1,
                domain="complex",
            )

    @pytest.mark.parametrize(
        "k, seed, domain",
        [(0.0, (1.0, 0.0), "real"), (-1.0, (1.0, 0.0), "real"), (QuadNum(0), (QuadNum(1), QuadNum(0)), "golden-lattice"), (-R, (QuadNum(1), QuadNum(0)), "golden-lattice")],
    )
    @pytest.mark.parametrize("free_slots", [0, 1])
    def test_nonpositive_k_is_an_invalid_target(self, k, seed, domain, free_slots):
        # one seed leaves the seed check no pair to reject K with
        problem = SearchProblem(k, (ProductVector.of(seed),), free_slots, domain)
        with pytest.raises(InvalidTarget):
            search_extension(problem, budget=100, restarts=2, seed=0)

    def test_seeds_must_verify(self):
        with pytest.raises(PreconditionFailed):
            prob = SearchProblem(
                target_k=1.0,
                seeds=(
                    ProductVector.of((0.0, 1.0)),
                    ProductVector.of((1.0, 0.0)),
                    ProductVector.of((1.0, 2.0)),
                ),
                free_slots=1,
                domain="real",
            )
            search_extension(prob, budget=100, restarts=1, seed=0)

    def test_json_round_trip(self):
        prob = asym_problem()
        back = SearchProblem.from_json(prob.to_json())
        assert back.target_k == prob.target_k
        assert back.domain == prob.domain
        assert back.free_slots == prob.free_slots
        assert back.height == prob.height
        assert back.hbar == prob.hbar
        assert len(back.seeds) == len(prob.seeds)
        for u, v in zip(back.seeds, prob.seeds):
            assert same_vector(u, v)

    def test_json_round_trip_lattice(self):
        prob = SearchProblem(
            target_k=QuadNum(1),
            seeds=golden_first_four(),
            free_slots=1,
            domain="golden-lattice",
            height=2,
        )
        back = SearchProblem.from_json(prob.to_json())
        assert back.target_k == prob.target_k
        assert back.domain == "golden-lattice"
        for u, v in zip(back.seeds, prob.seeds):
            assert same_vector(u, v)
