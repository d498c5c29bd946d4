"""Certificates, equivalence maps, and extension searches."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mubc import (
    ContextMismatch,
    CounterexampleFound,
    DimensionMismatch,
    DirectionVector,
    Equivalence,
    InfeasibilityCertificate,
    InvalidProblem,
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
from mubc.search import MAX_ENUMERATION_HEIGHT, _solve_sign_patterns, real_objective_fn

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
        # (0,-1),(1,0),(2,1) is not pairwise-1, but the (+,+,+) system is
        # consistent: d=(1,1) satisfies all three equations
        solved = _solve_sign_patterns(
            (DirectionVector(0, -1), DirectionVector(1, 0), DirectionVector(2, 1)),
            (1, 1, 1),
        )
        rec = next(s for s in solved if s.signs == (1, 1, 1))
        assert rec.consistent
        assert (float(rec.solution.q), float(rec.solution.p)) == (1.0, 1.0)
        assert rec.residuals == (0,)

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


def golden5_problem(indices=(0, 1, 2)):
    """golden5 vectors as floats: a real N = 2 problem."""
    golden5 = fixture_config("golden5.json")
    seeds = tuple(
        ProductVector(tuple(DirectionVector(*f.as_floats()) for f in golden5.vectors[i].factors))
        for i in indices
    )
    return SearchProblem(float(golden5.target_k), seeds, 1, "real")


REAL_PROBLEMS = {"asym": asym_problem, "golden3": golden5_problem}

# search_extension(problem, budget=4000, restarts=8, seed), recorded before
# the objective was built once per chart; its float operations did not
# change, so every figure must match exactly: (problem, free slots, seed,
# outcome, evaluations, iterations, restarts_used, best_objective, vectors
# as (q, p) factor pairs)
REAL_TRAJECTORIES = [
    ("asym", 1, 0, "no-improvement", 586, 108, 8, 0.3942027165964029, (((1.0, -0.7775401040384843),),)),
    ("asym", 1, 1, "no-improvement", 452, 86, 8, 0.3942027165964029, (((1.0, -0.7775401039902837),),)),
    ("asym", 1, 2, "no-improvement", 353, 67, 8, 0.3942027165964029, (((1.0, -0.7775401040597553),),)),
    ("asym", 1, 3, "no-improvement", 726, 106, 8, 0.3942027165964029, (((1.0, -0.7775401037268425),),)),
    ("asym", 2, 0, "no-improvement", 1730, 291, 8, 1.3707391468826373, (((1.0, -0.6003046863439281),), ((1.0, -1.283957851369844),))),
    ("asym", 2, 1, "no-improvement", 1839, 362, 8, 1.3707391468826373, (((1.0, 2.2839578515068384),), ((1.0, 1.6003046865283332),))),
    ("asym", 2, 2, "no-improvement", 904, 150, 8, 1.370739146882637, (((1.0, -0.6003046865483995),), ((1.0, -1.2839578514960623),))),
    ("asym", 2, 3, "no-improvement", 1269, 271, 8, 1.3707391468826373, (((1.0, -1.2839578523668147),), ((1.0, -0.60030468500552),))),
    ("golden3", 1, 0, "extended", 1941, 388, 8, 6.831567189168697e-22, (((1.0, -0.6180339887296997), (1.0, 1.6180339887622905)),)),
    ("golden3", 1, 1, "extended", 1702, 347, 8, 7.925819566507712e-22, (((1.0, 1.6180339887282917), (1.0, -0.6180339887665153)),)),
    ("golden3", 1, 2, "extended", 1348, 276, 8, 2.526241820598464e-22, (((1.0, 1.618033988756619), (1.0, -0.6180339887377251)),)),
    ("golden3", 1, 3, "extended", 2082, 420, 8, 4.485980130553669e-22, (((1.0, 1.6180339887336068), (1.0, -0.6180339887592894)),)),
    ("golden3", 2, 0, "no-improvement", 4000, 613, 7, 0.0003991660055133036, (((1.0, 0.6181559431028402), (1.0, -1.6380898449341859)), ((1.0, 0.3818434549700635), (1.0, 2.5993054320748916)))),
    ("golden3", 2, 1, "extended", 2765, 506, 8, 1.3962189268084704e-21, (((1.0, 0.3819660112512271), (1.0, 2.6180339887888953)), ((1.0, -0.6180339887337885), (1.0, 1.6180339887660014)))),
    ("golden3", 2, 2, "no-improvement", 4000, 475, 3, 1.5798848611818834, (((1.0, -0.7384780265937773), (1.0, -0.8215613395681303)), ((1.0, 0.6166451769157679), (1.0, -1.5732536783952182)))),
    ("golden3", 2, 3, "no-improvement", 4001, 610, 3, 1.3243799026830443, (((1.0, 4.040799359345373), (1.0, 0.6475632732712043)), ((1.0, 2.274965323667925), (1.0, 0.2902607812998942)))),
]


class TestRealTrajectories:
    @pytest.mark.parametrize(
        "name, slots, seed, outcome, evaluations, iterations, restarts_used, best, vectors",
        REAL_TRAJECTORIES,
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

    @pytest.mark.parametrize("name, slots, charts", [("asym", 1, 2), ("asym", 2, 4), ("golden3", 2, 5)])
    def test_stats(self, name, slots, charts):
        problem = dataclasses.replace(REAL_PROBLEMS[name](), free_slots=slots)
        report = search_extension(problem, budget=4000, restarts=8, seed=0)
        # restarts 0, 2, 4, 6 share the all-free chart; 1, 3, 5, 7 take the
        # others in turn, of which a one-coordinate problem has one
        assert report.stats["charts"] == min(charts, 1 + report.restarts_used // 2)
        assert report.stats["gradient_evaluations"] == report.restarts_used + report.iterations
        assert report.stats["budget_hit"] == (report.evaluations >= 4000)
        assert report.to_json()["stats"] == report.stats


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
    """The chart objective as the search evaluated it before charts were
    compiled: every factor product a.p * b.q - a.q * b.p in full."""
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
    """An N = 3 product of three images of the asymmetric triple, K = 1;
    the first factor keeps (0, -1), so charts pinning it are dead."""
    maps = [(1.0, 0.0, 0.0, 1.0), (2.0, 1.0, 1.0, 1.0), (1.0, -2.0, 1.0, -1.0)]
    triples = [sl2_triple(*m) for m in maps]
    seeds = tuple(ProductVector.of(*(t[i] for t in triples)) for i in range(3))
    return SearchProblem(1.0, seeds, 1, "real")


GUARD_PROBLEMS = {1: asym_problem, 2: golden5_problem, 3: n3_problem}


class TestCompiledObjective:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_bit_for_bit_against_full_formula(self, n, slots):
        problem = dataclasses.replace(GUARD_PROBLEMS[n](), free_slots=slots)
        assert problem.n == n
        rng = np.random.default_rng(100 * n + slots)
        dead = 0
        for chart in search._charts(n * slots):
            objective = search._ChartObjective(problem, chart)
            for _ in range(4):
                x = rng.uniform(-3.0, 3.0, size=objective.dims).tolist()
                for want_grad in (True, False):
                    value, grad = objective.evaluate(list(x), want_grad)
                    ref_value, ref_grad = reference_objective(problem, chart, x, want_grad)
                    assert value.hex() == ref_value.hex()
                    if ref_grad is None:
                        assert grad is None
                    else:
                        assert [g.hex() for g in grad] == [g.hex() for g in ref_grad]
                    if objective.dead:
                        assert (value, grad) == (math.inf, None)
                    else:
                        assert math.isfinite(value) and (grad is not None) == want_grad
            dead += objective.dead
        # golden5's second vector and the N = 3 seeds' first factor have
        # q = 0, so a chart pinning a factor they hold is dead; so is one
        # pinning one factor in both free slots
        expected = {1: {1: 1, 2: 3}, 2: {1: 3, 2: 15}, 3: {1: 4, 2: 55}}
        assert dead == expected[n][slots]

    def test_dead_restarts_are_counted(self):
        report = search_extension(golden5_problem(), budget=4000, restarts=8, seed=0)
        # every chart that pins a factor meets the (0, 1) factor of golden5's
        # second vector; odd restarts take those charts
        assert report.stats["dead_charts"] == 4
        assert report.stats["gradient_evaluations"] == report.restarts_used + report.iterations

    def test_wrapper_returns_arrays(self):
        objective = search._ChartObjective(golden5_problem(), (0, 0))
        value, grad = objective(np.array([0.5, -0.25]))
        assert (value, grad.tolist()) == tuple(objective.evaluate([0.5, -0.25], True))
        assert objective([0.5, -0.25], False) == (value, None)


def chart_reference(dims):
    return sorted(itertools.product((0, 1), repeat=dims), key=sum)


class TestCharts:
    @pytest.mark.parametrize("dims", range(1, 11))
    def test_order_matches_sorted_product(self, dims):
        assert list(search._charts(dims)) == chart_reference(dims)

    @pytest.mark.parametrize("dims", range(1, 11))
    def test_restart_schedule_wraps_around(self, dims):
        reference = chart_reference(dims)
        others = reference[1:]
        # restarts // 2 >= 2^dims - 1 on the longest schedule
        for restarts in (1, 8, 2 * len(others) + 3):
            expected = [
                reference[0] if r % 2 == 0 else others[(r // 2) % len(others)]
                for r in range(restarts)
            ]
            assert list(search._restart_charts(dims, restarts)) == expected

    def test_schedule_is_lazy(self):
        # 2^64 charts: the first restarts take the first charts only
        first = list(itertools.islice(search._restart_charts(64, 10**9), 5))
        free, one_pinned = (0,) * 64, (0,) * 63 + (1,)
        assert first == [free, one_pinned, free, (0,) * 62 + (1, 0), free]


class TestMixedChartGradient:
    @pytest.mark.parametrize("chart", [(0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0), (1, 1, 0, 0)])
    def test_matches_central_differences(self, chart):
        # N = 2, two free slots: pinned factors (0, 1) next to free ones, so
        # the rest product and the zero-q derivative both enter the gradient.
        # No seed factor is (0, 1), so no pinned factor is parallel to one.
        problem = dataclasses.replace(golden5_problem((0, 2, 3)), free_slots=2)
        objective = search._ChartObjective(problem, chart)
        assert objective.dims == chart.count(0)
        rng = np.random.default_rng(23)
        h = 1e-6
        checked = 0
        for _ in range(1000):
            if checked == 50:
                break
            x = rng.uniform(-3.0, 3.0, size=objective.dims)
            vectors = reference_vectors(problem, chart, x)
            # keep away from the log singularities for stable differences
            factor_products = [
                a[1] * b[0] - a[0] * b[1]
                for va, vb in itertools.combinations(vectors, 2)
                for a, b in zip(va, vb)
            ]
            if min(abs(fp) for fp in factor_products) < 5e-2:
                continue
            f, grad = objective(x)
            assert math.isfinite(f)
            assert grad.shape == (objective.dims,)
            for i in range(objective.dims):
                step = np.zeros(objective.dims)
                step[i] = h
                fd = (objective(x + step, False)[0] - objective(x - step, False)[0]) / (2 * h)
                scale = max(1.0, abs(fd), abs(grad[i]))
                assert abs(grad[i] - fd) <= 1e-6 * scale
            checked += 1
        assert checked == 50

    def test_vanishing_product_is_infinite(self):
        # a pinned factor (0, 1) is parallel to the second seed's factors
        problem = dataclasses.replace(golden5_problem(), free_slots=2)
        assert search._ChartObjective(problem, (1, 1, 1, 1))([]) == (math.inf, None)


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

    def product(u, v):
        sp = (1, 0)
        for (uq, up), (vq, vp) in zip(u, v):
            a, b = _gmul(up, vq), _gmul(uq, vp)
            sp = _gmul(sp, (a[0] - b[0], a[1] - b[1]))
        return sp

    found = set()

    def extend(chosen):
        if len(chosen) == problem.free_slots:
            found.add(tuple(chosen))
            return
        for candidate in itertools.product(factors, repeat=problem.n):
            if all(product(candidate, x) in targets for x in seeds + chosen):
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
