"""Cayley matrices, generalized overlap magnitudes, composition, shear maps."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mubc import manifest, metaplectic
from mubc import (
    ContextMismatch,
    DegenerateBlock,
    DimensionMismatch,
    InvalidProblem,
    LimitExceeded,
    MetaplecticSpec,
    NonInvertible,
    ProductVector,
    QuadNum,
    SingularCayley,
    cayley_matrix,
    compose_overlap_sq,
    genmu_overlap_sq,
    interleaved_to_stacked,
    is_symplectic,
    overlap_magnitude_sq,
    random_symplectic,
    rotation_matrix,
    special_m,
    stacked_j,
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

    def test_entry_scale_past_the_float_range_is_a_limit(self):
        # det 1, but the tolerance scale 1e200^2 is past the float range
        with pytest.raises(LimitExceeded, match=r"entry scale 1\.000000e\+200"):
            is_symplectic([[1e200, 0.0], [0.0, 1e-200]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_is_not_symplectic(self, bad):
        # decided before any product, so no limit and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_symplectic([[bad, 0.0], [0.0, 1.0]])
            assert not is_symplectic(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, bad], [0.0, 0.0, 0.0, 1.0]]))

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

    def test_identity_degenerate_block(self):
        # M_qp = 0
        with pytest.raises(DegenerateBlock):
            genmu_overlap_sq([[1.0, 0.0], [0.0, 1.0]])

    def test_q_shear(self):
        # eigenvalue 1: no Cayley matrix, but M_qp = 0.7 gives a constant
        assert genmu_overlap_sq([[1.0, 0.7], [0.0, 1.0]]) == pytest.approx(
            1.0 / (2 * math.pi * 0.7), rel=1e-15
        )

    def test_rotation_near_minus_identity(self):
        # theta = pi - 1e-10: det M_qp = sin(theta) is small but not degenerate
        theta = math.pi - 1e-10
        got = genmu_overlap_sq(rotation_matrix(theta))
        assert got == pytest.approx(1.0 / (2 * math.pi * abs(math.sin(theta))), rel=1e-15)
        assert got == pytest.approx(1.59154735e9, rel=1e-8)

    def test_verdict_and_value_do_not_depend_on_scale(self):
        # D M with the symplectic D = diag(2^k I, 2^-k I) has M_qp scaled by
        # 2^k, so its constant is scaled by 2^(-kN) and its verdict is the same
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m = random_symplectic(n, rng)
            results = []
            for k in (-100, -10, 0, 10, 100):
                d = np.diag([2.0**k] * n + [2.0**-k] * n)
                try:
                    results.append(genmu_overlap_sq(d @ m) * 2.0 ** (k * n))
                except DegenerateBlock:
                    results.append(None)
            if results[2] is None:
                assert results == [None] * 5
            else:
                assert results == pytest.approx([results[2]] * 5, rel=1e-13)

    def test_degenerate_block(self):
        # det(M-I) = 4 but the lower-right Cayley block vanishes
        with pytest.raises(DegenerateBlock):
            genmu_overlap_sq([[-1.0, 0.0], [1.0, -1.0]])

    def test_hbar_scaling(self):
        for hbar in (0.5, 1.0, 2.0):
            got = genmu_overlap_sq(J1, hbar=hbar)
            assert got == pytest.approx(1.0 / (2 * math.pi * hbar), rel=1e-14)

    @pytest.mark.parametrize("hbar, value", [(1e-300, "inf"), (1e300, "0.0")])
    def test_float_overlap_out_of_float_range_is_a_limit(self, hbar, value):
        # J at N = 2 has det M_qp = 1; (2 pi hbar)^-2 leaves the float range
        j = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert genmu_overlap_sq(j) == 1.0 / (2.0 * math.pi) ** 2
        with pytest.raises(LimitExceeded, match=f"det M_qp.*overlap constant of {value}"):
            genmu_overlap_sq(j, hbar=hbar)

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
            except DegenerateBlock:
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

    def test_equal_matrices_degenerate_block(self):
        # M^-1 M = I has M_qp = 0
        m = rot(0.7)
        with pytest.raises(DegenerateBlock):
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
            except DegenerateBlock:
                continue
            shifted = compose_overlap_sq(common @ m, common @ mp)
            assert shifted == pytest.approx(base, rel=1e-8)


class TestIntegerFiveFamily:
    """Five Gaussian MU bases at N = 2 with integer matrices, not a product.

    M_0 = I and M_i = [[0, I], [-I, S_i]] for symmetric S_i; the pair (i, j)
    has |det M_qp| = |det(S_i - S_j)| (or 1 with M_0), which is 1 for all ten
    pairs. The S_i span all of Sym_2, so no symplectic map makes the family
    a product one.
    """

    SYMMETRIC = ([[0, 0], [0, 0]], [[-3, -2], [-2, -1]], [[-3, -1], [-1, 0]], [[2, 1], [1, 1]])

    @staticmethod
    def frame(s):
        (a, b), (c, d) = s
        return [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, a, b], [0, -1, c, d]]

    def test_all_pairs_are_unbiased(self):
        identity = [[1 if i == k else 0 for k in range(4)] for i in range(4)]
        family = [identity] + [self.frame(s) for s in self.SYMMETRIC]
        for m in family:
            assert is_symplectic(m)
        pairs = list(itertools.combinations(family, 2))
        assert len(pairs) == 10
        for a, b in pairs:
            assert compose_overlap_sq(a, b) == (2.0 * math.pi) ** -2


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


class TestModeRule:
    """A nested-list matrix is numeric when any entry is a float, as a
    configuration is; ints commit to neither mode."""

    def test_int_and_float_spellings_agree(self):
        # [[1, b], [c, 1 + b c]] with two-decimal b, c: spelling the top-left
        # entry 1 or 1.0 must not change the verdict
        rng = random.Random(1)
        for _ in range(2000):
            b = round(rng.uniform(-2.0, 2.0), 2)
            c = round(rng.uniform(-2.0, 2.0), 2)
            d = 1 + b * c
            assert is_symplectic([[1, b], [c, d]]) == is_symplectic([[1.0, b], [c, d]])
        assert is_symplectic([[1, 1.94], [1.93, 4.7442]])

    @pytest.mark.parametrize("q, p", [(Fraction(1, 2), Fraction(1, 3)), (QuadNum(2), QuadNum(1))])
    def test_special_m_of_exact_arguments_is_exact(self, q, p):
        m = special_m(q, p)
        assert isinstance(m, list)
        assert all(isinstance(x, type(q)) for row in m for x in row)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert m[0][0] * q + m[0][1] * p == 0 and m[1][0] * q + m[1][1] * p == 1

    def test_exact_beside_float_raises(self):
        with pytest.raises(ContextMismatch):
            special_m(0.5, Fraction(1, 3))
        with pytest.raises(ContextMismatch):
            genmu_overlap_sq([[QuadNum(1), 0.5], [0.0, 1.0]])

    def test_int_entries_beside_a_float_are_numeric(self):
        assert compose_overlap_sq(np.eye(2), [[1, 0.5], [0, 1]]) == pytest.approx(1.0 / math.pi)

    def test_numpy_integer_entries_raise(self):
        with pytest.raises(ContextMismatch):
            is_symplectic([[np.int64(1), 0], [0, 1]])


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


def _interleaved(m):
    """The stacked matrix m in (q_1, p_1, q_2, p_2, ...) coordinates."""
    n = len(m) // 2
    order = [k for pair in zip(range(n), range(n, 2 * n)) for k in pair]
    return np.asarray(m)[np.ix_(order, order)]


class TestOrdering:
    def test_j_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            jj = stacked_j(n)
            assert np.allclose(jj @ jj, -np.eye(2 * n), atol=1e-15)
            assert is_symplectic(jj, tolerance=1e-15)

    def test_permutation_round_trip(self):
        for n in (1, 2, 3, 4):
            rng = np.random.default_rng(9 + n)
            m = random_symplectic(n, rng)
            assert interleaved_to_stacked(_interleaved(m)).tobytes() == m.tobytes()

    def test_conversion_preserves_symplectic(self):
        rng = np.random.default_rng(10)
        inter = _interleaved(random_symplectic(2, rng))
        # J in interleaved coordinates: one 2x2 j per mode
        ji = np.kron(np.eye(2), np.asarray(J1))
        assert np.max(np.abs(inter.T @ ji @ inter - ji)) <= 1e-9
        assert is_symplectic(interleaved_to_stacked(inter), tolerance=1e-9)

    def test_interleaved_to_stacked_literal(self):
        # rows and columns q1 p1 q2 p2 become q1 q2 p1 p2
        inter = np.arange(16.0).reshape(4, 4)
        assert interleaved_to_stacked(inter).tolist() == [
            [0.0, 2.0, 1.0, 3.0],
            [8.0, 10.0, 9.0, 11.0],
            [4.0, 6.0, 5.0, 7.0],
            [12.0, 14.0, 13.0, 15.0],
        ]


class TestMetaplecticSpecJson:
    def test_round_trip_stacked(self):
        blob = {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]}
        spec = MetaplecticSpec.from_json(blob)
        assert spec.to_json() == blob
        assert np.allclose(spec.stacked(), np.asarray(J1))

    def test_round_trip_interleaved(self):
        rng = np.random.default_rng(12)
        m = random_symplectic(2, rng)
        inter = _interleaved(m)
        blob = {
            "N": 2,
            "ordering": "interleaved",
            "rows": [[float(x) for x in row] for row in np.asarray(inter)],
        }
        spec = MetaplecticSpec.from_json(blob)
        assert np.allclose(spec.stacked(), np.asarray(m), atol=1e-15)
        back = MetaplecticSpec.from_json(spec.to_json())
        assert np.allclose(back.stacked(), spec.stacked(), atol=0)


# malformed shapes, each with a J of its own mode for compose_overlap_sq
MALFORMED = {
    "ragged-float": ([[1.0, 2.0], [3.0]], J1, "must form a matrix"),
    "ragged-exact": ([[1, 2], [3]], [[0, -1], [1, 0]], "must form a matrix"),
    "1-d": (np.zeros(4), np.asarray(J1), "must form a matrix"),
    "1-d-exact": ([1, 0], [[0, -1], [1, 0]], "must form a matrix"),
    "empty": (np.zeros((0, 0)), np.asarray(J1), "must be square"),
    "3x2-exact": ([[1, 0], [0, 1], [1, 1]], [[0, -1], [1, 0]], "must be square"),
    "4-d": (np.zeros((1, 2, 2, 2)), np.asarray(J1), "must form a matrix"),
    "3-d-object": (np.zeros((2, 2, 2), dtype=object), np.asarray(J1), "must form a matrix"),
    # not a matrix to most functions, a stack of 2 x 3 matrices to the overlap laws
    "3-d-2x3": (np.zeros((2, 2, 3)), np.asarray(J1), "must (form a matrix|be square)"),
}
SHAPE_CHECKED = {
    "defect": lambda m, j: symplectic_defect(m),
    "is-symplectic": lambda m, j: is_symplectic(m),
    "cayley": lambda m, j: cayley_matrix(m),
    "overlap": lambda m, j: genmu_overlap_sq(m),
    "compose": compose_overlap_sq,
}
# a float 3-d array is a stack of matrices to the overlap laws only
STACK_REFUSED = ("defect", "is-symplectic", "cayley")


# one case per input-error raise that no other test reaches
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MetaplecticSpec.from_json({"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
         DimensionMismatch, "must be square"),
        (lambda: MetaplecticSpec.from_json({"N": 1}), InvalidProblem, "'rows' field"),
        (lambda: MetaplecticSpec.from_json({"rows": []}), DimensionMismatch, "form a matrix"),
        (lambda: compose_overlap_sq(np.eye(2), [[Fraction(1), 0], [0, 1]]),
         InvalidProblem, "cannot mix"),
        (lambda: compose_overlap_sq(np.eye(2), np.eye(4)), DimensionMismatch, "shape mismatch"),
        (lambda: compose_overlap_sq([[int(i == k) for k in range(4)] for i in range(4)],
                                    [[0, -1], [1, 0]]),
         DimensionMismatch, "shape mismatch"),
        (lambda: compose_overlap_sq([[0, -1], [1, 0]], [[1, 0], [0, 1], [1, 1]]),
         DimensionMismatch, "must be square"),
        (lambda: compose_overlap_sq(np.zeros((2, 2)), np.eye(2)),
         NonInvertible, "numerically singular"),
        (lambda: special_m(0, 0), InvalidProblem, "labels no basis"),
        (lambda: genmu_overlap_sq(np.zeros((0, 2, 2))), DimensionMismatch, "holds no matrix"),
        (lambda: compose_overlap_sq(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))),
         DimensionMismatch, "holds no matrix"),
        (lambda: compose_overlap_sq(np.zeros((2, 2, 2)), np.zeros((3, 2, 2))),
         DimensionMismatch, r"shape mismatch: \(2, 2, 2\) vs \(3, 2, 2\)"),
        (lambda: compose_overlap_sq(np.zeros((1, 2, 2)), np.eye(2)),
         DimensionMismatch, r"shape mismatch: \(1, 2, 2\) vs \(2, 2\)"),
    ] + [
        (lambda call=call, m=m, j=j: call(m, j), DimensionMismatch, message)
        for call in SHAPE_CHECKED.values()
        for m, j, message in MALFORMED.values()
    ] + [
        (lambda call=SHAPE_CHECKED[name]: call(np.zeros((2, 2, 2)), np.asarray(J1)),
         DimensionMismatch, "must form a matrix")
        for name in STACK_REFUSED
    ],
    ids=[
        "non-square",
        "spec-without-rows",
        "spec-rows-not-a-matrix",
        "compose-mixed-modes",
        "compose-shape-mismatch",
        "compose-exact-shape-mismatch",
        "compose-exact-malformed-second",
        "compose-singular-first",
        "special-m-zero-direction",
        "overlap-empty-stack",
        "compose-empty-stack",
        "compose-stack-shape-mismatch",
        "compose-stack-beside-matrix",
    ] + [f"{name}-{shape}" for name in SHAPE_CHECKED for shape in MALFORMED]
    + [f"{name}-3-d" for name in STACK_REFUSED],
)
def test_input_error_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


# -- exact golden-field matrices ------------------------------------------

R = QuadNum.root()
GOLDEN_GENERATORS = {
    "shear-up": ((1, 1), (0, 1)),
    "shear-down": ((1, 0), (1, 1)),
    "scale-R": ((R, 0), (0, R - 1)),  # R^-1 = R - 1
    "quarter-turn": ((0, -1), (1, 0)),
}
GOLDEN_WORDS = {
    "a": ("scale-R", "quarter-turn"),
    "b": ("shear-up", "shear-down", "shear-up", "shear-down", "quarter-turn", "scale-R"),
    "c": ("quarter-turn", "shear-down", "shear-up", "shear-down"),
    "d": ("shear-down", "shear-down", "quarter-turn", "scale-R"),
    "e": ("quarter-turn", "scale-R", "scale-R", "shear-up", "shear-down"),
    "f": ("shear-up", "scale-R", "quarter-turn", "shear-down"),
    "g": ("scale-R", "shear-up", "scale-R", "scale-R"),
}


def golden_word(*letters):
    """Product of golden generators as a 2x2 matrix of QuadNum."""
    rows = [[QuadNum(1), QuadNum(0)], [QuadNum(0), QuadNum(1)]]
    for letter in letters:
        (a, b), (c, d) = GOLDEN_GENERATORS[letter]
        rows = [[r[0] * a + r[1] * c, r[0] * b + r[1] * d] for r in rows]
    return rows


def named(key):
    return golden_word(*GOLDEN_WORDS[key])


def block_diagonal(m1, m2):
    """Stacked (q1, q2, p1, p2) matrix acting as m1 on pair 1 and m2 on pair 2."""
    z = QuadNum(0)
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return [[a1, z, b1, z], [z, a2, z, b2], [c1, z, d1, z], [z, c2, z, d2]]


def leibniz_det(rows):
    """Determinant by the permutation expansion: no elimination, no division."""
    size = len(rows)
    total = QuadNum(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[k] for i in range(size) for k in range(i + 1, size))
        term = QuadNum(-1 if inversions % 2 else 1)
        for i, col in enumerate(perm):
            term = term * rows[i][col]
        total = total + term
    return total


class TestExactGolden:
    # floats pinned from the Cayley-route implementation; the overlap is a
    # float of one exact field value, so any exact route must match bit for bit

    @pytest.mark.parametrize(
        "key, hbar, want",
        [
            ("a", 1.0, 0.0983631643083466),
            ("a", 0.5, 0.1967263286166932),
            ("b", 1.0, 0.05150362148004839),
            ("b", 0.5, 0.10300724296009678),
            ("c", 1.0, 0.07957747154594767),
            ("d", 1.0, 0.25751810740024195),
            ("e", 1.0, 0.4166730504921373),
            ("e", 0.5, 0.8333461009842746),
            ("f", 1.0, 0.0983631643083466),
            ("g", 1.0, 0.25751810740024195),
        ],
    )
    def test_pinned_overlap_n1(self, key, hbar, want):
        assert genmu_overlap_sq(named(key), hbar=hbar) == want

    @pytest.mark.parametrize(
        "keys, want",
        [
            ("ab", 0.005066059182116889),
            ("cd", 0.020492639864209048),
            ("ef", 0.040985279728418096),
            ("gb", 0.013263115127800509),
            ("ae", 0.040985279728418096),
        ],
    )
    def test_pinned_overlap_n2(self, keys, want):
        m = block_diagonal(named(keys[0]), named(keys[1]))
        assert genmu_overlap_sq(m) == want

    @pytest.mark.parametrize(
        "keys, want",
        [
            ("ab", 0.05305164769729845),
            ("bd", 0.059524721498876755),
            ("ce", 0.03278772143611553),
            ("fg", 0.4166730504921373),
            ("ag", 0.4166730504921373),
        ],
    )
    def test_pinned_compose_n1(self, keys, want):
        assert compose_overlap_sq(named(keys[0]), named(keys[1])) == want

    @pytest.mark.parametrize(
        "keys, want",
        [
            ("abcd", 0.005855039961202585),
            ("efgb", 0.004942871169861291),
            ("fcdg", 0.011617590475602698),
            ("aebd", 0.004039591132503069),
        ],
    )
    def test_pinned_compose_n2(self, keys, want):
        a = block_diagonal(named(keys[0]), named(keys[1]))
        b = block_diagonal(named(keys[2]), named(keys[3]))
        assert compose_overlap_sq(a, b) == want

    def test_unit_eigenvalue_has_a_constant(self):
        # a shear has M - I nilpotent, so no Cayley matrix, alone and as one
        # block of two; its constant needs only det M_qp, which is 1 and -R
        shear = golden_word("shear-up")
        with pytest.raises(SingularCayley):
            cayley_matrix(shear)
        alone = genmu_overlap_sq(shear)
        assert alone == 0.15915494309189535
        assert alone == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        paired = genmu_overlap_sq(block_diagonal(named("a"), shear))
        assert paired == 0.015654983817833652
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert paired == pytest.approx((2.0 * math.pi) ** -2 / phi, rel=1e-15)
        # M^-1 M = I has M_qp = 0
        with pytest.raises(DegenerateBlock):
            compose_overlap_sq(named("b"), named("b"))

    def test_degenerate_block(self):
        # diag(R, R^-1) has M - I invertible but no momentum-position coupling
        scale = golden_word("scale-R")
        with pytest.raises(DegenerateBlock):
            genmu_overlap_sq(scale)
        with pytest.raises(DegenerateBlock):
            genmu_overlap_sq(block_diagonal(scale, named("a")))

    def test_compose_singular_first(self):
        zero = [[QuadNum(0), QuadNum(0)], [QuadNum(0), QuadNum(0)]]
        with pytest.raises(NonInvertible):
            compose_overlap_sq(zero, named("a"))

    def test_special_m_position_direction(self):
        # q = 0: the quarter-turn branch, exact; its image of (0, p) is (0, 1)
        # only up to scale, and the position-momentum block vanishes
        for p, mu, want in (
            (R, QuadNum(1), [["R", "0"], ["R", "-1 + R"]]),
            (-R - 1, R, [["-1 - R", "0"], ["-1 - 2 R", "-2 + R"]]),
        ):
            m = special_m(QuadNum(0), p, mu)
            assert [[str(x) for x in row] for row in m] == want
            assert all(isinstance(x, QuadNum) for row in m for x in row)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            assert is_symplectic(m)
            with pytest.raises(DegenerateBlock):
                genmu_overlap_sq(m)

    def test_exactly_symplectic(self):
        for key in GOLDEN_WORDS:
            m = named(key)
            assert is_symplectic(m)
            assert symplectic_defect(m) == 0.0
        assert is_symplectic(block_diagonal(named("b"), named("e")))

    def test_defect_below_float_range_is_not_symplectic(self):
        # det = 1 + R^-1600 != 1, but the defect rounds to 0.0 as a float
        tiny = QuadNum(1)
        for _ in range(1600):
            tiny = tiny * (R - 1)
        m = [[1 + tiny, QuadNum(0)], [QuadNum(0), QuadNum(1)]]
        assert not tiny.is_zero
        assert symplectic_defect(m) == 0.0
        assert not is_symplectic(m)

    @pytest.mark.parametrize(
        "exponent, detail",
        [
            (-2048, "its float is 0.0"),
            (2048, "its float is inf"),
            # det M_qp = -R^-1480 is a subnormal float, and 1 / (2 pi) over it is inf
            (-1480, "overlap constant of inf"),
        ],
    )
    def test_overlap_out_of_float_range_is_not_a_verdict(self, exponent, detail):
        # [[0, -t], [1/t, 0]] is symplectic with det M_qp = -t != 0, so it has
        # an overlap constant; it is out of float range, not degenerate or 0
        t = QuadNum(1)
        for _ in range(abs(exponent)):
            t = t * R if exponent > 0 else t * (R - 1)
        zero = QuadNum(0)
        m = [[zero, -t], [t.inverse(), zero]]
        assert is_symplectic(m)
        with pytest.raises(LimitExceeded, match=f"det M_qp.*{detail}"):
            genmu_overlap_sq(m)


def _golden_matrices():
    """The named words, 40 seeded random words, and block diagonals of them."""
    rng = random.Random(11)
    letters = tuple(GOLDEN_GENERATORS)
    singles = [named(key) for key in GOLDEN_WORDS]
    singles += [
        golden_word(*(rng.choice(letters) for _ in range(rng.randint(2, 7))))
        for _ in range(40)
    ]
    pairs = [block_diagonal(rng.choice(singles), rng.choice(singles)) for _ in range(30)]
    return singles + pairs


class TestBlockLaw:
    """det(M - I) det(N_pp) = +-det(M_qp), N_pp from the Cayley matrix."""

    def test_golden_identity(self):
        checked = 0
        for m in _golden_matrices():
            n = len(m) // 2
            try:
                cayley = cayley_matrix(m)
            except SingularCayley:
                continue
            shift = [[x - (1 if i == k else 0) for k, x in enumerate(row)] for i, row in enumerate(m)]
            lhs = leibniz_det(shift) * leibniz_det([row[n:] for row in cayley[n:]])
            block = leibniz_det([row[n:] for row in m[:n]])
            assert lhs == block or lhs == -block
            checked += 1
        assert checked >= 40

    def test_routes_agree_on_random_symplectic(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            checked = 0
            for _ in range(200):
                m = random_symplectic(n, rng)
                try:
                    cayley = np.asarray(cayley_matrix(m), dtype=float)
                    got = genmu_overlap_sq(m)
                except (SingularCayley, DegenerateBlock):
                    continue
                det_shift = np.linalg.det(m - np.eye(2 * n))
                det_pp = np.linalg.det(cayley[n:, n:])
                want = (2.0 * math.pi) ** (-n) / abs(det_shift * det_pp)
                assert got == pytest.approx(want, rel=1e-12)
                checked += 1
            assert checked >= 100


class TestExactSolve:
    """The one exact elimination: det(A) and A^-1 B."""

    def test_signed_determinant_and_solution(self):
        matrices = _golden_matrices()
        for a, b in zip(matrices, matrices[1:] + matrices[:1]):
            if len(a) != len(b):
                continue
            det, solution = metaplectic._exact_solve(a, b)
            assert det == leibniz_det(a)
            if det == 0:
                assert solution is None
                continue
            size = len(a)
            for i in range(size):
                for k in range(size):
                    total = QuadNum(0)
                    for t in range(size):
                        total = total + a[i][t] * solution[t][k]
                    assert total == b[i][k]

    def test_pivot_swap_flips_the_sign(self):
        # quarter-turn has a zero in the first pivot position
        assert metaplectic._exact_solve(golden_word("quarter-turn")) == (1, [])
        swap = [[QuadNum(0), QuadNum(1)], [QuadNum(1), QuadNum(0)]]
        assert metaplectic._exact_solve(swap) == (-1, [])

    def test_singular(self):
        shear = golden_word("shear-up")
        shifted = [[x - (1 if i == k else 0) for k, x in enumerate(row)] for i, row in enumerate(shear)]
        assert metaplectic._exact_solve(shifted) == (0, None)
        assert metaplectic._exact_solve(shifted, shear) == (0, None)

    def test_rational_entries_stay_exact(self):
        a = [[2, 1], [1, 1]]
        det, solution = metaplectic._exact_solve(a, [[1, 0], [0, 1]])
        assert det == 1
        assert solution == [[1, -1], [-1, 2]]
        assert all(isinstance(x, (int, Fraction)) for row in solution for x in row)
        det, solution = metaplectic._exact_solve([[3, 1], [1, 1]], [[1], [0]])
        assert det == 2
        assert solution == [[Fraction(1, 2)], [Fraction(-1, 2)]]


# -- float stacks ---------------------------------------------------------


def _with_constant(inputs, call):
    """The inputs for which call gives an overlap constant."""
    kept = []
    for x in inputs:
        try:
            call(x)
        except (DegenerateBlock, NonInvertible):
            continue
        kept.append(x)
    return kept


def _law(m, hbar):
    """The reference: (2 pi hbar)^-N / |det M_qp| from one det of one matrix."""
    n = len(m) // 2
    return (2.0 * math.pi * hbar) ** (-n) / abs(np.linalg.det(m[:n, n:]))


def _manifest_stacks():
    """The rotation, shear and composition inputs of the reproduced claims."""
    shears, rotations = manifest._seeded_draws()
    return (
        np.array([rotation_matrix(t) for t in manifest.ROTATION_ANGLES]),
        np.array([special_m(q, p, mu) for q, p, mu in shears]),
        np.array([rotation_matrix(a) for a, _ in rotations]),
        np.array([rotation_matrix(b) for _, b in rotations]),
    )


class TestFloatStacks:
    """A float (k, 2N, 2N) array is k matrices; each value is the 2-D call's, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_overlaps_equal_the_per_matrix_calls(self, n):
        rng = np.random.default_rng(60 + n)
        singles = _with_constant([random_symplectic(n, rng) for _ in range(60)], genmu_overlap_sq)
        assert len(singles) >= 20
        got = genmu_overlap_sq(np.array(singles), hbar=0.7)
        assert got == tuple(genmu_overlap_sq(m, hbar=0.7) for m in singles)
        assert got == tuple(_law(m, 0.7) for m in singles)
        assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_compositions_equal_the_per_pair_calls(self, n):
        rng = np.random.default_rng(70 + n)
        pairs = [(random_symplectic(n, rng), random_symplectic(n, rng)) for _ in range(60)]
        pairs = _with_constant(pairs, lambda pair: compose_overlap_sq(*pair))
        assert len(pairs) >= 20
        a, b = (np.array(side) for side in zip(*pairs))
        got = compose_overlap_sq(a, b, hbar=1.3)
        assert got == tuple(compose_overlap_sq(x, y, hbar=1.3) for x, y in pairs)
        assert got == tuple(_law(np.linalg.solve(x, y), 1.3) for x, y in pairs)
        assert all(type(x) is float for x in got)

    def test_manifest_inputs(self):
        rotations, shears, firsts, seconds = _manifest_stacks()
        for stack in (rotations, shears):
            assert genmu_overlap_sq(stack) == tuple(genmu_overlap_sq(m) for m in stack)
            assert genmu_overlap_sq(stack) == tuple(_law(m, 1.0) for m in stack)
        composed = compose_overlap_sq(firsts, seconds)
        assert composed == tuple(compose_overlap_sq(a, b) for a, b in zip(firsts, seconds))
        assert composed == tuple(_law(np.linalg.solve(a, b), 1.0) for a, b in zip(firsts, seconds))

    def test_stack_of_one_is_the_matrix_call(self):
        m, other = rotation_matrix(0.4), rotation_matrix(1.9)
        value = genmu_overlap_sq(m)
        assert type(value) is float
        assert genmu_overlap_sq(m[None]) == (value,)
        composed = compose_overlap_sq(m, other)
        assert type(composed) is float
        assert compose_overlap_sq(m[None], other[None]) == (composed,)

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            (np.zeros((2, 2)), DegenerateBlock, "singular to within"),
            ([[1.0, math.nan], [0.0, 1.0]], DegenerateBlock, "singular to within"),
            ([[1.0, math.inf], [0.0, 1.0]], LimitExceeded, "its float is inf"),
            ([[1.0, 1e-320], [0.0, 1.0]], LimitExceeded, "overlap constant of inf"),
        ],
        ids=["zero-block", "nan", "inf", "out-of-range"],
    )
    def test_an_error_names_its_stack_entry(self, entry, error, message):
        stack = np.array([rotation_matrix(t) for t in (0.3, 0.6, 0.9, 1.2)])
        stack[2] = entry
        with pytest.raises(error, match=f"^stack entry 2: .*{message}"):
            genmu_overlap_sq(stack)
        # the 2-D call says the same, with no entry
        with pytest.raises(error, match=f"^(?!stack).*{message}"):
            genmu_overlap_sq(stack[2])

    def test_a_singular_first_matrix_names_its_stack_entry(self):
        firsts = np.array([rotation_matrix(t) for t in (0.3, 0.6, 0.9)])
        firsts[1] = 0.0
        seconds = np.array([rotation_matrix(t) for t in (1.3, 1.6, 1.9)])
        with pytest.raises(NonInvertible, match="^stack entry 1: first matrix is numerically singular"):
            compose_overlap_sq(firsts, seconds)

    def test_composition_is_scale_free(self):
        # no absolute floor on det M_a: 2^k R(0.3) and 2^k R(1.2) give one value
        want = compose_overlap_sq(rotation_matrix(0.3), rotation_matrix(1.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-1000, 1001, 100):
                scale = 2.0**k
                got = compose_overlap_sq(scale * rotation_matrix(0.3), scale * rotation_matrix(1.2))
                assert got == want, k


NON_FINITE = (math.inf, -math.inf, math.nan)


class TestNoNumpyWarnings:
    """Zero and non-finite entries are decided, never warned about."""

    @pytest.mark.parametrize("value", (0.0, *NON_FINITE))
    @pytest.mark.parametrize("n", [1, 2])
    def test_overlap_verdicts(self, value, n):
        rng = np.random.default_rng(80 + n)
        base = _with_constant([random_symplectic(n, rng) for _ in range(10)], genmu_overlap_sq)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, k in itertools.product(range(2 * n), repeat=2):
                m = base.copy()
                m[i, k] = value
                in_block = i < n <= k
                if in_block and math.isnan(value):
                    with pytest.raises(DegenerateBlock):
                        genmu_overlap_sq(m)
                elif in_block and math.isinf(value):
                    with pytest.raises(LimitExceeded):
                        genmu_overlap_sq(m)
                else:
                    try:
                        genmu_overlap_sq(m)
                    except DegenerateBlock:
                        assert in_block and value == 0.0

    def test_infinite_block_is_a_limit_when_its_det_is_nan(self):
        # LU of [[inf, inf], [1, 1]] divides inf by inf: det nan, not a constant
        m = np.eye(4)
        m[:2, 2:] = [[math.inf, math.inf], [1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LimitExceeded, match="its float is inf"):
                genmu_overlap_sq(m)

    @pytest.mark.parametrize("value", (0.0, *NON_FINITE))
    def test_composition_raises_no_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, k, first in itertools.product(range(2), range(2), (True, False)):
                a, b = rotation_matrix(0.2), rotation_matrix(1.1)
                (a if first else b)[i, k] = value
                try:
                    compose_overlap_sq(a, b)
                except (DegenerateBlock, LimitExceeded, NonInvertible):
                    pass

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["q", "p", "mu"])
    def test_special_m_refuses_non_finite_arguments(self, name, value):
        args = {"q": 1.0, "p": 1.0, "mu": 0.0, name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProblem, match=f"^{name} must be finite"):
                special_m(**args)

    def test_special_m_turn_past_the_float_range(self):
        # q = 0 turns the matrix of (-p, 0), whose entry 1/p overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LimitExceeded, match="past the float range"):
                special_m(0.0, 1e-320)
