"""Acceptance gate: the eleven headline checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import contextlib
import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mubc import (
    ChirpState,
    DirectionVector,
    MUConfiguration,
    NUMERIC,
    ProductVector,
    QuadNum,
    SearchProblem,
    SingularCayley,
    cayley_matrix,
    certify_no_fourth,
    compose_overlap_sq,
    direction_for_angle,
    expanded_product,
    find_equivalence,
    genmu_overlap_sq,
    overlap_magnitude_sq,
    overlap_quadrature,
    random_symplectic,
    search_extension,
    special_m,
    symp2,
    symp_product,
    verify_mu,
)
from mubc.cli import build_manifest
from mubc.search import real_objective_fn

R = QuadNum.root()
S3 = math.sqrt(3.0) / 2.0


_CAPFD = None


@pytest.fixture(autouse=True)
def _live_lines(capfd):
    # criterion verdict lines should reach the terminal even under capture
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _say(line):
    ctx = _CAPFD.disabled() if _CAPFD is not None else contextlib.nullcontext()
    with ctx:
        print(line)


def _report(num, label, limit_ms, body, retime=False):
    try:
        t0 = time.perf_counter()
        body()
        elapsed = (time.perf_counter() - t0) * 1000.0
        if retime:
            # steady-state cost for the sub-millisecond criteria: best of 3
            for _ in range(3):
                t0 = time.perf_counter()
                body()
                elapsed = min(elapsed, (time.perf_counter() - t0) * 1000.0)
    except BaseException:
        _say(f"criterion {num:02d} {label}: FAIL")
        raise
    if elapsed >= limit_ms:
        _say(f"criterion {num:02d} {label}: FAIL (runtime {elapsed:.3f} ms, limit {limit_ms} ms)")
        pytest.fail(f"criterion {num} exceeded its runtime budget: {elapsed:.3f} ms")
    _say(f"criterion {num:02d} {label}: PASS ({elapsed:.3f} ms)")


def asym_config():
    return MUConfiguration(
        vectors=(
            ProductVector.of((0, -1)),
            ProductVector.of((1, 0)),
            ProductVector.of((1, 1)),
        ),
        target_k=1,
    )


def sym_config():
    return MUConfiguration(
        vectors=(
            ProductVector.of((0.0, -1.0)),
            ProductVector.of((S3, 0.5)),
            ProductVector.of((-S3, 0.5)),
        ),
        target_k=S3,
        mode=NUMERIC,
    )


def golden_vectors():
    one = QuadNum(1)
    zero = QuadNum(0)
    return (
        ProductVector.of((one, zero), (one, zero)),
        ProductVector.of((zero, one), (zero, one)),
        ProductVector.of((one, one), (one, one)),
        ProductVector.of((one, one - R), (one, R)),
        ProductVector.of((one, QuadNum(2) - R), (one, one + R)),
    )


@functools.lru_cache(maxsize=1)
def cached_manifest():
    return build_manifest()


def test_criterion_01_position_momentum_value():
    def body():
        value = overlap_magnitude_sq(ProductVector.of((0, 1)), ProductVector.of((1, 0)))
        assert value == 1.0 / (2.0 * math.pi)

    _report(1, "position-momentum-value", 1.0, body, retime=True)


def test_criterion_02_rotation_law_three_ways():
    thetas = (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3)

    def body():
        for theta in thetas:
            want = 1.0 / (2.0 * math.pi * abs(math.sin(theta)))
            # closed form on direction vectors
            a = ProductVector.of((-math.sin(theta), math.cos(theta)))
            b = ProductVector.of((0.0, 1.0))
            form = overlap_magnitude_sq(a, b)
            assert abs(form - want) <= 1e-12 * want
            # matrix route
            rot = [
                [math.cos(theta), math.sin(theta)],
                [-math.sin(theta), math.cos(theta)],
            ]
            gen = genmu_overlap_sq(rot)
            assert abs(gen - want) <= 1e-12 * want
            # quadrature oracle on two genuine chirps separated by theta
            res = overlap_quadrature(
                ChirpState(direction_for_angle(-theta / 2)),
                ChirpState(direction_for_angle(theta / 2)),
            )
            assert res.converged
            assert abs(res.value - want) <= 1e-5 * want

    _report(2, "rotation-law-three-ways", 30_000.0, body)


def test_criterion_03_symmetric_triple():
    def body():
        report = verify_mu(sym_config(), tolerance=1e-12)
        assert report.verdict
        want = 1.0 / (math.pi * math.sqrt(3.0))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            got = overlap_magnitude_sq(sym_config().vectors[i], sym_config().vectors[j])
            assert abs(got - want) <= 1e-12 * want

    _report(3, "symmetric-triple", 1.0, body, retime=True)

    # the commonly printed variant with P=1 does not verify; the manifest
    # records that discrepancy as a standing claim
    printed = MUConfiguration(
        vectors=(
            ProductVector.of((0.0, -1.0)),
            ProductVector.of((S3, 1.0)),
            ProductVector.of((-S3, 1.0)),
        ),
        target_k=S3,
        mode=NUMERIC,
    )
    assert not verify_mu(printed, tolerance=1e-12).verdict
    claims = {entry.claim: entry for entry in cached_manifest()}
    assert "symmetric-triple-discrepancy" in claims
    assert claims["symmetric-triple-discrepancy"].passed


def test_criterion_04_asymmetric_triple():
    def body():
        report = verify_mu(asym_config())
        assert report.verdict
        assert report.max_deviation == 0
        assert report.target_k == 1

    _report(4, "asymmetric-triple", 1.0, body, retime=True)


def test_criterion_05_golden_five_exactness():
    def body():
        config = MUConfiguration(vectors=golden_vectors(), target_k=QuadNum(1))
        report = verify_mu(config)
        assert report.verdict
        assert len(report.pairs) == 10
        one = QuadNum(1)
        for pair in report.pairs:
            # exact field arithmetic end to end: the verdict never touches floats
            assert isinstance(pair.value, QuadNum)
            assert pair.value == one or pair.value == -one
            assert not pair.parallel and pair.unbiased
        assert report.max_deviation == 0

    _report(5, "golden-five-exactness", 10.0, body, retime=True)


def test_criterion_06_no_fourth_certificates():
    def body():
        cert_a = certify_no_fourth(
            DirectionVector(0, -1), DirectionVector(1, 0), DirectionVector(1, 1), 1
        )
        assert cert_a.valid and len(cert_a.records) == 8
        cert_s = certify_no_fourth(
            DirectionVector(0.0, -1.0),
            DirectionVector(S3, 0.5),
            DirectionVector(-S3, 0.5),
            S3,
            tolerance=1e-9,
        )
        assert cert_s.valid and len(cert_s.records) == 8

    _report(6, "no-fourth-certificates", 10.0, body, retime=True)


def test_criterion_07_triple_equivalence():
    def body():
        eq = find_equivalence(asym_config(), sym_config())
        assert eq is not None
        assert eq.residual < 1e-10

    _report(7, "triple-equivalence", 100.0, body)


def test_criterion_08_shear_overlap_prefactor():
    def body():
        rng = np.random.default_rng(808)
        for _ in range(20):
            q = float(rng.uniform(0.1, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            p = float(rng.uniform(-2.5, 2.5))
            mu = float(rng.uniform(-3.0, 3.0))
            got = genmu_overlap_sq(special_m(q, p, mu))
            want = 1.0 / (2.0 * math.pi * abs(q))
            assert abs(got - want) <= 1e-10 * want

    _report(8, "shear-overlap-prefactor", 10.0, body)


def test_criterion_09_rotation_composition():
    def body():
        rng = np.random.default_rng(909)
        done = 0
        while done < 20:
            t1 = float(rng.uniform(0.0, 2.0 * math.pi))
            t2 = float(rng.uniform(0.0, 2.0 * math.pi))
            if abs(math.sin(t2 - t1)) < 0.05:
                continue
            m1 = [[math.cos(t1), math.sin(t1)], [-math.sin(t1), math.cos(t1)]]
            m2 = [[math.cos(t2), math.sin(t2)], [-math.sin(t2), math.cos(t2)]]
            got = compose_overlap_sq(m1, m2)
            want = 1.0 / (2.0 * math.pi * abs(math.sin(t2 - t1)))
            assert abs(got - want) <= 1e-10 * want
            done += 1

    _report(9, "rotation-composition", 10.0, body)


def test_criterion_10_extension_search():
    golden_fifth = golden_vectors()[4]

    def same_vector(u, v):
        direct = all(fu == fv for fu, fv in zip(u.factors, v.factors))
        flipped = all(
            fu.q == -fv.q and fu.p == -fv.p for fu, fv in zip(u.factors, v.factors)
        )
        return direct or flipped

    def body():
        lattice = SearchProblem(
            target_k=QuadNum(1),
            seeds=golden_vectors()[:4],
            free_slots=1,
            domain="golden-lattice",
            height=2,
        )
        report = search_extension(lattice, budget=800_000, restarts=1, seed=0)
        assert report.outcome == "extended"
        assert report.residual == 0
        assert any(
            same_vector(vec, golden_fifth)
            for solution in report.solutions
            for vec in solution
        ), "golden fifth vector not recovered"

        real = SearchProblem(
            target_k=1.0,
            seeds=(
                ProductVector.of((0.0, -1.0)),
                ProductVector.of((1.0, 0.0)),
                ProductVector.of((1.0, 1.0)),
            ),
            free_slots=1,
            domain="real",
        )
        real_report = search_extension(real, budget=4000, restarts=8, seed=0)
        assert real_report.outcome == "no-improvement"
        assert real_report.residual > 0.1

    _report(10, "extension-search", 300_000.0, body)


# -- criterion 11: property batteries under ten seeds ----------------------


def _field_axioms(seed):
    rng = random.Random(seed)

    def draw():
        return QuadNum(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        )

    one = QuadNum(1)
    for _ in range(200):
        x, y, z = draw(), draw(), draw()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == one


def _antisymmetry_bilinearity(seed):
    rng = random.Random(seed + 1000)
    for _ in range(200):
        a = DirectionVector(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = DirectionVector(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert symp2(a, b) == -symp2(b, a)
        lam, mu = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ap = DirectionVector(rng.uniform(-3, 3), rng.uniform(-3, 3))
        combo_q = lam * a.q + mu * ap.q
        combo_p = lam * a.p + mu * ap.p
        if abs(combo_q) + abs(combo_p) < 1e-9:
            continue
        left = symp2(DirectionVector(combo_q, combo_p), b)
        right = lam * symp2(a, b) + mu * symp2(ap, b)
        assert abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


def _factorization(seed):
    rng = random.Random(seed + 2000)
    for _ in range(1000):
        n = rng.randint(1, 4)
        try:
            a = ProductVector.of(
                *(
                    (QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)),
                     QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)))
                    for _ in range(n)
                )
            )
            b = ProductVector.of(
                *(
                    (QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)),
                     QuadNum(rng.randint(-3, 3), rng.randint(-2, 2)))
                    for _ in range(n)
                )
            )
        except Exception:
            continue
        assert symp_product(a, b) == expanded_product(a, b)


def _cayley_symmetry(seed):
    rng = np.random.default_rng(seed + 3000)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = random_symplectic(n, rng)
        try:
            out = np.asarray(cayley_matrix(m), dtype=float)
        except SingularCayley:
            continue
        assert np.max(np.abs(out - out.T)) <= 1e-12 * max(1.0, np.max(np.abs(out)))


def _gradient_vs_fd(seed):
    prob = SearchProblem(
        target_k=1.0,
        seeds=(
            ProductVector.of((0.0, -1.0)),
            ProductVector.of((1.0, 0.0)),
            ProductVector.of((1.0, 1.0)),
        ),
        free_slots=1,
        domain="real",
    )
    fn = real_objective_fn(prob)
    rng = np.random.default_rng(seed + 4000)
    h = 1e-6
    checked = 0
    while checked < 100:
        x = rng.uniform(-3.0, 3.0, size=1)
        if min(abs(x[0]), abs(x[0] - 1.0)) < 1e-2:
            continue
        _, grad = fn(x)
        fp, _ = fn(x + h)
        fm, _ = fn(x - h)
        fd = (fp - fm) / (2 * h)
        assert abs(grad[0] - fd) <= 1e-6 * max(1.0, abs(fd), abs(grad[0]))
        checked += 1


def _oracle_agreement(seed):
    rng = np.random.default_rng(seed + 5000)
    hbars = (0.5, 1.0, 2.0)

    def draw_state(hbar):
        while True:
            q = float(rng.uniform(-2.0, 2.0))
            p = float(rng.uniform(-2.0, 2.0))
            if abs(q) >= 0.25 and abs(p) >= 1e-3:
                return ChirpState(DirectionVector(q, p), hbar=hbar)

    for i in range(50):
        hbar = hbars[i % 3]
        while True:
            a, b = draw_state(hbar), draw_state(hbar)
            sp = a.direction.p * b.direction.q - a.direction.q * b.direction.p
            if abs(sp) >= 0.05:
                break
        res = overlap_quadrature(a, b)
        want = overlap_magnitude_sq(
            ProductVector.of((a.direction.q, a.direction.p)),
            ProductVector.of((b.direction.q, b.direction.p)),
            hbar=hbar,
        )
        assert res.converged
        assert abs(res.value - want) <= max(1e-5 * want, res.error_estimate)


def test_criterion_11_property_suites():
    def body():
        for seed in range(10):
            _field_axioms(seed)
            _antisymmetry_bilinearity(seed)
            _factorization(seed)
            _cayley_symmetry(seed)
            _gradient_vs_fd(seed)
            _oracle_agreement(seed)

    _report(11, "property-suites", 600_000.0, body)
