"""Cayley matrices, generalized overlap magnitudes, composition, shear maps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mubc import (
    BlockDecomposition,
    DegenerateBlock,
    DimensionMismatch,
    MetaplecticSpec,
    ProductVector,
    SingularCayley,
    cayley_matrix,
    compose_overlap_sq,
    genmu_overlap_sq,
    interleaved_j,
    interleaved_to_stacked,
    is_symplectic,
    ordering_permutation,
    overlap_magnitude_sq,
    random_symplectic,
    rotation_matrix,
    special_m,
    stacked_j,
    stacked_to_interleaved,
    symplectic_defect,
)

J1 = [[0.0, -1.0], [1.0, 0.0]]


def rot(theta):
    return [
        [math.cos(theta), math.sin(theta)],
        [-math.sin(theta), math.cos(theta)],
    ]


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic([[1.0, 0.0], [0.0, 1.0]])

    def test_rotation(self):
        for theta in (0.1, math.pi / 3, 2.5):
            assert is_symplectic(rot(theta))

    def test_diagonal_stretch(self):
        assert not is_symplectic([[2.0, 0.0], [0.0, 1.0]])

    def test_odd_dimension(self):
        with pytest.raises(DimensionMismatch):
            is_symplectic([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_random_products(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            m = random_symplectic(n, rng)
            assert is_symplectic(m, tolerance=1e-9)
            assert symplectic_defect(m) <= 1e-9


    def test_random_products_match_generator_matrices(self):
        # the in-place column updates reproduce the product of the eight
        # generator matrices bit for bit, from the same draws
        def by_matrices(n, rng):
            result = np.eye(2 * n)
            for _ in range(8):
                kind = rng.integers(0, 4)
                gen = np.eye(2 * n)
                if kind in (0, 1):
                    s = rng.integers(-8, 9, size=(n, n)) / 8.0
                    s = (s + s.T) / 2.0
                    if kind == 0:
                        gen[n:, :n] = s
                    else:
                        gen[:n, n:] = s
                elif kind == 2:
                    diag = np.array([2.0 ** e for e in rng.integers(-2, 3, size=n)])
                    gen[:n, :n] = np.diag(diag)
                    gen[n:, n:] = np.diag(1.0 / diag)
                else:
                    gen = stacked_j(n)
                result = result @ gen
            return result

        for n in (1, 2, 3):
            for seed in range(200):
                expected = by_matrices(n, np.random.default_rng(seed))
                got = random_symplectic(n, np.random.default_rng(seed))
                assert got.tobytes() == expected.tobytes()


class TestCayley:
    def test_quarter_rotation(self):
        out = cayley_matrix(J1)
        assert np.allclose(np.asarray(out, dtype=float), 0.5 * np.eye(2), atol=1e-15)

    def test_minus_identity(self):
        out = cayley_matrix([[-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(np.asarray(out, dtype=float), np.zeros((2, 2)), atol=1e-15)

    def test_identity_singular(self):
        with pytest.raises(SingularCayley):
            cayley_matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_shear_singular(self):
        # M - I is nilpotent for a shear, det(M-I)=0
        with pytest.raises(SingularCayley):
            cayley_matrix([[1.0, 0.0], [1.0, 1.0]])

    def test_symmetry_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            m = random_symplectic(n, rng)
            try:
                out = np.asarray(cayley_matrix(m), dtype=float)
            except SingularCayley:
                continue
            assert np.max(np.abs(out - out.T)) <= 1e-12 * max(
                1.0, np.max(np.abs(out))
            )

    def test_symmetry_exact(self):
        # exact Fraction matrices give identically symmetric output
        shear_a = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1)]]
        shear_b = [[Fraction(1), Fraction(-1, 2)], [Fraction(0), Fraction(1)]]
        jf = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        prods = []
        for a in (shear_a, shear_b, jf):
            for b in (shear_a, shear_b, jf):
                prod = [
                    [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)
                ]
                prods.append(prod)
        checked = 0
        for m in prods:
            try:
                out = cayley_matrix(m)
            except SingularCayley:
                continue
            assert out[0][1] == out[1][0]
            assert isinstance(out[0][1], Fraction)
            checked += 1
        assert checked >= 5


class TestGenmu:
    def test_quarter_rotation(self):
        assert genmu_overlap_sq(J1) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)

    def test_rotations(self):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3):
            got = genmu_overlap_sq(rot(theta))
            want = 1.0 / (2 * math.pi * abs(math.sin(theta)))
            assert got == pytest.approx(want, rel=1e-12)

    def test_identity_singular(self):
        with pytest.raises(SingularCayley):
            genmu_overlap_sq([[1.0, 0.0], [0.0, 1.0]])

    def test_degenerate_block(self):
        # det(M-I) = 4 but the lower-right Cayley block vanishes
        with pytest.raises(DegenerateBlock):
            genmu_overlap_sq([[-1.0, 0.0], [1.0, -1.0]])

    def test_hbar_scaling(self):
        for hbar in (0.5, 1.0, 2.0):
            got = genmu_overlap_sq(J1, hbar=hbar)
            assert got == pytest.approx(1.0 / (2 * math.pi * hbar), rel=1e-14)

    def test_inverse_symmetry(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 3))
            m = random_symplectic(n, rng)
            minv = np.linalg.inv(m)
            try:
                a = genmu_overlap_sq(m)
                b = genmu_overlap_sq(minv)
            except (SingularCayley, DegenerateBlock):
                continue
            assert a == pytest.approx(b, rel=1e-8)
            checked += 1
        assert checked >= 200


class TestCompose:
    def test_right_factor_j(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_symplectic(1, rng)
            mp = np.asarray(m) @ np.asarray(J1)
            got = compose_overlap_sq(m, mp)
            assert got == pytest.approx(1.0 / (2 * math.pi), rel=1e-10)

    def test_equal_matrices_singular(self):
        m = rot(0.7)
        with pytest.raises(SingularCayley):
            compose_overlap_sq(m, m)

    def test_rotation_pairs(self):
        pairs = [(0.2, 1.0), (math.pi / 6, math.pi / 3), (2.0, 0.4)]
        for t1, t2 in pairs:
            got = compose_overlap_sq(rot(t1), rot(t2))
            want = 1.0 / (2 * math.pi * abs(math.sin(t2 - t1)))
            assert got == pytest.approx(want, rel=1e-12)

    def test_depends_only_on_relative_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            m = random_symplectic(n, rng)
            mp = random_symplectic(n, rng)
            common = random_symplectic(n, rng)
            try:
                base = compose_overlap_sq(m, mp)
            except (SingularCayley, DegenerateBlock):
                continue
            shifted = compose_overlap_sq(common @ m, common @ mp)
            assert shifted == pytest.approx(base, rel=1e-8)


class TestSpecialM:
    def test_maps_negative_position(self):
        m = np.asarray(special_m(-1.0, 0.0, 0.0), dtype=float)
        assert np.allclose(m @ np.array([-1.0, 0.0]), np.array([0.0, 1.0]), atol=1e-15)

    def test_maps_diagonal_any_mu(self):
        for mu in (0.0, 1.0, -3.0, 0.37):
            m = np.asarray(special_m(1.0, 1.0, mu), dtype=float)
            assert np.allclose(m @ np.array([1.0, 1.0]), np.array([0.0, 1.0]), atol=1e-14)

    def test_determinant_one(self):
        for q, p, mu in ((1.0, 1.0, 0.0), (-2.0, 3.0, 1.5), (0.25, -0.5, -2.0)):
            m = np.asarray(special_m(q, p, mu), dtype=float)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12
            assert is_symplectic(m, tolerance=1e-12)

    def test_mu_independent_magnitude(self):
        for q, p in ((1.0, 1.0), (-1.0, 0.0), (0.5, -2.0)):
            values = [genmu_overlap_sq(special_m(q, p, mu)) for mu in (0.0, 1.0, -3.0)]
            want = 1.0 / (2 * math.pi * abs(q))
            for v in values:
                assert v == pytest.approx(want, rel=1e-12)

    def test_exact_entries(self):
        m = special_m(Fraction(3, 4), Fraction(-2), Fraction(1, 3))
        flat = [x for row in m for x in row]
        assert all(isinstance(x, Fraction) for x in flat)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == 1

    def test_pure_position_direction(self):
        # Q = 0 goes through the rotation convention, still lands on (0,1)
        m = np.asarray(special_m(0.0, 2.0, 0.0), dtype=float)
        out = m @ np.array([0.0, 2.0])
        assert np.allclose(out / np.linalg.norm(out), np.array([0.0, 1.0]), atol=1e-14)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_consistency_with_direction_overlap():
    # genmu of the shear map against the direction-pair formula
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        p = float(rng.uniform(-2.0, 2.0))
        mu = float(rng.uniform(-2.0, 2.0))
        via_matrix = genmu_overlap_sq(special_m(q, p, mu))
        via_form = overlap_magnitude_sq(
            ProductVector.of((q, p)), ProductVector.of((0.0, 1.0))
        )
        assert via_matrix == pytest.approx(via_form, rel=1e-10)


class TestOrdering:
    def test_j_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            for j, ordering in ((stacked_j(n), "stacked"), (interleaved_j(n), "interleaved")):
                jj = np.asarray(j, dtype=float)
                assert np.allclose(jj @ jj, -np.eye(2 * n), atol=1e-15)
                # each J is symplectic under its own convention
                assert is_symplectic(jj, tolerance=1e-15, ordering=ordering)

    def test_permutation_round_trip(self):
        for n in (1, 2, 3, 4):
            perm = ordering_permutation(n)
            rng = np.random.default_rng(9 + n)
            m = random_symplectic(n, rng)
            there = stacked_to_interleaved(m)
            back = interleaved_to_stacked(there)
            assert np.allclose(np.asarray(back), np.asarray(m), atol=0)
            assert len(perm) == 2 * n

    def test_conversion_preserves_symplectic(self):
        rng = np.random.default_rng(10)
        m = random_symplectic(2, rng)
        inter = stacked_to_interleaved(m)
        ji = np.asarray(interleaved_j(2), dtype=float)
        defect = np.max(np.abs(np.asarray(inter).T @ ji @ np.asarray(inter) - ji))
        assert defect <= 1e-9


class TestBlockDecomposition:
    def test_reassembly(self):
        rng = np.random.default_rng(11)
        m = random_symplectic(2, rng)
        blocks = BlockDecomposition.of(m)
        top = np.hstack([np.asarray(blocks.qq), np.asarray(blocks.qp)])
        bottom = np.hstack([np.asarray(blocks.pq), np.asarray(blocks.pp)])
        assert np.allclose(np.vstack([top, bottom]), np.asarray(m), atol=0)


class TestMetaplecticSpecJson:
    def test_round_trip_stacked(self):
        blob = {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]}
        spec = MetaplecticSpec.from_json(blob)
        assert spec.to_json() == blob
        assert np.allclose(spec.stacked(), np.asarray(J1))

    def test_round_trip_interleaved(self):
        rng = np.random.default_rng(12)
        m = random_symplectic(2, rng)
        inter = stacked_to_interleaved(m)
        blob = {
            "N": 2,
            "ordering": "interleaved",
            "rows": [[float(x) for x in row] for row in np.asarray(inter)],
        }
        spec = MetaplecticSpec.from_json(blob)
        assert np.allclose(spec.stacked(), np.asarray(m), atol=1e-15)
        back = MetaplecticSpec.from_json(spec.to_json())
        assert np.allclose(back.stacked(), spec.stacked(), atol=0)
