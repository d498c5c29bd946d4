"""Overlaps of metaplectic images of the position basis.

A symplectic matrix M acting on 2N phase-space coordinates determines a
unitary image of the position basis; the squared overlap magnitude between
that image and the position basis itself is

    (2*pi*hbar)^-N / |det(M - I) * det(N_pp)|

where N_c = (1/2) J (M + I) (M - I)^-1 is the (symmetric) Cayley matrix of M
and N_pp is its momentum-momentum block. Overlaps between the images of two
different matrices M, M' reduce to the same law applied to M^-1 M'.

Coordinates are ordered "stacked" (q_1..q_N, p_1..p_N) internally, with
J = [[0, -I], [I, 0]] matching the 2x2 j = [[0, -1], [1, 0]] at N = 1.
The "interleaved" ordering (q_1, p_1, q_2, p_2, ...) is accepted
everywhere and converted by an exact permutation.

Matrices may be float ndarrays (numeric mode) or nested lists of exact
scalars (Fraction / QuadNum); exact matrices go through exact Gaussian
elimination so e.g. the Cayley matrix is symmetric identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    DegenerateBlock,
    DimensionMismatch,
    DivisionByZero,
    InvalidProblem,
    NonInvertible,
    SingularCayley,
)
from .exact import QuadNum
from .symplectic import _json_number

ExactMatrix = list  # nested lists of QuadNum / Fraction / int
Matrix = Union[np.ndarray, Sequence[Sequence]]

STACKED = "stacked"
INTERLEAVED = "interleaved"

# Below this |det(M - I)| or |det(N_pp)| a float matrix has no Cayley
# matrix or no finite overlap.
_SINGULAR_TOL = 1e-10


def _is_exact(matrix: Matrix) -> bool:
    if isinstance(matrix, np.ndarray):
        return False
    first = matrix[0][0]
    return isinstance(first, (QuadNum, Fraction, int))


def _dimension(matrix: Matrix) -> int:
    rows = len(matrix)
    if rows == 0 or any(len(row) != rows for row in matrix):
        raise DimensionMismatch("matrix must be square")
    if rows % 2 != 0:
        raise DimensionMismatch(f"matrix size {rows} is odd; expected 2N")
    return rows // 2


# -- orderings ---------------------------------------------------------


def stacked_j(n: int) -> np.ndarray:
    """J in stacked ordering: [[0, -I], [I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def interleaved_j(n: int) -> np.ndarray:
    """J in interleaved ordering: block diagonal of 2x2 j's."""
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return j


def ordering_permutation(n: int) -> np.ndarray:
    """Permutation S with x_interleaved = S @ x_stacked."""
    s = np.zeros((2 * n, 2 * n))
    for k in range(n):
        s[2 * k, k] = 1.0
        s[2 * k + 1, n + k] = 1.0
    return s


def stacked_to_interleaved(matrix: np.ndarray) -> np.ndarray:
    n = _dimension(matrix)
    s = ordering_permutation(n)
    return s @ np.asarray(matrix, dtype=float) @ s.T


def interleaved_to_stacked(matrix: np.ndarray) -> np.ndarray:
    n = _dimension(matrix)
    s = ordering_permutation(n)
    return s.T @ np.asarray(matrix, dtype=float) @ s


# -- exact linear algebra (nested lists of field scalars) ---------------


def _exact_identity(n: int) -> ExactMatrix:
    return [[1 if i == k else 0 for k in range(n)] for i in range(n)]


def _exact_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = []
    for i in range(n):
        row = []
        for k in range(m):
            acc = a[i][0] * b[0][k]
            for t in range(1, inner):
                acc = acc + a[i][t] * b[t][k]
            row.append(acc)
        out.append(row)
    return out


def _exact_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _exact_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _exact_det_inv(matrix: ExactMatrix) -> tuple:
    """Determinant and inverse by Gauss-Jordan with exact division."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    inv = _exact_identity(n)
    det = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not work[r][col] == 0:
                pivot_row = r
                break
        if pivot_row is None:
            return 0, None
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        work[col] = [x / pivot for x in work[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor == 0:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return det, inv


def _exact_j(n: int) -> ExactMatrix:
    j = [[0] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        j[k][n + k] = -1
        j[n + k][k] = 1
    return j


def _exact_transpose(a: ExactMatrix) -> ExactMatrix:
    return [list(row) for row in zip(*a)]


# -- predicates and the Cayley transform --------------------------------


def symplectic_defect(matrix: Matrix, ordering: str = STACKED) -> float:
    """Max-norm of M^t J M - J (0 for exactly symplectic M)."""
    if _is_exact(matrix):
        n = _dimension(matrix)
        if ordering != STACKED:
            raise InvalidProblem("exact matrices are supported in stacked ordering only")
        j = _exact_j(n)
        t = _exact_matmul(_exact_matmul(_exact_transpose(matrix), j), matrix)
        worst = 0.0
        for i in range(2 * n):
            for k in range(2 * n):
                diff = t[i][k] - j[i][k]
                worst = max(worst, abs(float(diff)))
        return worst
    m = np.asarray(matrix, dtype=float)
    n = _dimension(m)
    j = stacked_j(n) if ordering == STACKED else interleaved_j(n)
    return float(np.max(np.abs(m.T @ j @ m - j)))


def is_symplectic(matrix: Matrix, tolerance: float = 1e-12, ordering: str = STACKED) -> bool:
    """True when M^t J M = J (exactly for exact matrices, else within tolerance)."""
    defect = symplectic_defect(matrix, ordering)
    if _is_exact(matrix):
        return defect == 0.0
    scale = max(1.0, float(np.max(np.abs(np.asarray(matrix, dtype=float)))) ** 2)
    return defect <= tolerance * scale


def cayley_matrix(matrix: Matrix):
    """Cayley matrix N_c = (1/2) J (M + I) (M - I)^-1 in stacked ordering.

    Symmetric whenever M is symplectic. Raises SingularCayley when M - I
    is singular (unit eigenvalue), where no Cayley matrix exists.
    """
    if _is_exact(matrix):
        n = _dimension(matrix)
        ident = _exact_identity(2 * n)
        det, inv = _exact_det_inv(_exact_sub(matrix, ident))
        if inv is None:
            raise SingularCayley("M - I is singular")
        product = _exact_matmul(
            _exact_j(n), _exact_matmul(_exact_add(matrix, ident), inv)
        )
        half = Fraction(1, 2)
        return [[half * x for x in row] for row in product]
    m = np.asarray(matrix, dtype=float)
    n = _dimension(m)
    ident = np.eye(2 * n)
    shifted = m - ident
    det = np.linalg.det(shifted)
    if abs(det) <= _SINGULAR_TOL:
        raise SingularCayley(f"|det(M - I)| = {abs(det):.3e} is below {_SINGULAR_TOL}")
    return 0.5 * stacked_j(n) @ (m + ident) @ np.linalg.inv(shifted)


@dataclass(frozen=True)
class BlockDecomposition:
    """N x N blocks of a 2N x 2N stacked-ordering matrix."""

    qq: np.ndarray
    qp: np.ndarray
    pq: np.ndarray
    pp: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray) -> "BlockDecomposition":
        m = np.asarray(matrix, dtype=float)
        n = _dimension(m)
        return cls(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])


def genmu_overlap_sq(matrix: Matrix, hbar: float = 1.0) -> float:
    """Squared overlap magnitude of M's basis image against the position basis.

    (2*pi*hbar)^-N / |det(M - I) * det(N_pp)| with N_pp the momentum-momentum
    block of the Cayley matrix.
    """
    exact = _is_exact(matrix)
    n = _dimension(matrix)
    cayley = cayley_matrix(matrix)
    if exact:
        ident = _exact_identity(2 * n)
        det_shift, _ = _exact_det_inv(_exact_sub(matrix, ident))
        pp = [row[n:] for row in cayley[n:]]
        det_pp, _ = _exact_det_inv(pp)
        if det_pp == 0:
            raise DegenerateBlock("momentum-momentum block of the Cayley matrix is singular")
    else:
        m = np.asarray(matrix, dtype=float)
        det_shift = np.linalg.det(m - np.eye(2 * n))
        pp = BlockDecomposition.of(cayley).pp
        det_pp = np.linalg.det(pp)
        if abs(det_pp) <= _SINGULAR_TOL:
            raise DegenerateBlock(f"|det(N_pp)| = {abs(det_pp):.3e} is below {_SINGULAR_TOL}")
    denom = abs(float(det_shift * det_pp))
    if denom == 0.0:
        raise DegenerateBlock("vanishing overlap denominator")
    return (2.0 * math.pi * hbar) ** (-n) / denom


def compose_overlap_sq(matrix_a: Matrix, matrix_b: Matrix, hbar: float = 1.0) -> float:
    """Squared overlap magnitude between the images of two symplectic maps.

    Depends on the pair only through M_a^-1 M_b.
    """
    if _is_exact(matrix_a) != _is_exact(matrix_b):
        raise InvalidProblem("cannot mix exact and numeric matrices")
    if _is_exact(matrix_a):
        det, inv = _exact_det_inv(matrix_a)
        if inv is None:
            raise NonInvertible("first matrix is singular")
        relative = _exact_matmul(inv, matrix_b)
        return genmu_overlap_sq(relative, hbar)
    a = np.asarray(matrix_a, dtype=float)
    b = np.asarray(matrix_b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    det = np.linalg.det(a)
    if abs(det) < 1e-300:
        raise NonInvertible("first matrix is numerically singular")
    return genmu_overlap_sq(np.linalg.solve(a, b), hbar)


def special_m(q: float, p: float, mu: float = 0.0):
    """The symplectic matrix sending direction (q, p) to the position direction.

    For q != 0 this is [[1,0],[mu,1]] @ [[p,-q],[1/q,0]]; the shear parameter
    mu changes only the phase of the underlying unitary, never the overlap.
    q = 0 composes the q != 0 form with a quarter rotation.
    """
    exact = isinstance(q, (QuadNum, Fraction)) or isinstance(p, (QuadNum, Fraction)) or isinstance(mu, (QuadNum, Fraction))
    exact = exact or (isinstance(q, int) and isinstance(p, int) and isinstance(mu, int))
    if q == 0 and p == 0:
        raise InvalidProblem("direction (0, 0) labels no basis")
    if q == 0:
        quarter = [[0, -1], [1, 0]]
        base = special_m(-p, 0 if exact else 0.0, mu)
        if exact:
            return _exact_matmul(base, quarter)
        return np.asarray(base, dtype=float) @ np.asarray(quarter, dtype=float)
    try:
        inv_q = Fraction(1, q) if isinstance(q, int) else 1 / q
    except ZeroDivisionError as err:
        raise DivisionByZero("1/q in the special matrix") from err
    rows = [[p, -q], [mu * p + inv_q, -mu * q]]
    if exact:
        return rows
    return np.asarray(rows, dtype=float)


def rotation_matrix(theta: float) -> np.ndarray:
    """Phase-space rotation; its basis image is the theta-rotated quadrature."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random product of eight generators that are exactly symplectic in floats.

    Generator entries are small dyadic rationals, so every float operation
    in the product is exact and M^t J M - J vanishes identically.
    """
    size = 2 * n
    result = np.eye(size)
    for _ in range(8):
        kind = rng.integers(0, 4)
        gen = np.eye(size)
        if kind == 0:
            # symmetric shear [[I, 0], [S, I]]
            s = rng.integers(-8, 9, size=(n, n)) / 8.0
            s = (s + s.T) / 2.0
            gen[n:, :n] = s
        elif kind == 1:
            # symmetric shear [[I, S], [0, I]]
            s = rng.integers(-8, 9, size=(n, n)) / 8.0
            s = (s + s.T) / 2.0
            gen[:n, n:] = s
        elif kind == 2:
            # block scaling diag(A, A^-T) with exact dyadic diagonal A
            exponents = rng.integers(-2, 3, size=n)
            diag = np.array([2.0 ** e for e in exponents])
            gen[:n, :n] = np.diag(diag)
            gen[n:, n:] = np.diag(1.0 / diag)
        else:
            gen = stacked_j(n)
        result = result @ gen
    return result


@dataclass(frozen=True)
class MetaplecticSpec:
    """JSON-facing wrapper: a symplectic matrix plus its coordinate ordering."""

    matrix: np.ndarray
    ordering: str = STACKED

    def stacked(self) -> np.ndarray:
        if self.ordering == STACKED:
            return self.matrix
        return interleaved_to_stacked(self.matrix)

    def to_json(self) -> dict:
        n = _dimension(self.matrix)
        return {
            "N": n,
            "ordering": self.ordering,
            "rows": [[float(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MetaplecticSpec":
        if not isinstance(data, dict) or "rows" not in data:
            raise InvalidProblem("matrix object needs a 'rows' field")
        ordering = data.get("ordering", STACKED)
        if ordering not in (STACKED, INTERLEAVED):
            raise InvalidProblem(f"unknown ordering {ordering!r}")
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvalidProblem("field 'rows' must be a list of rows")
        if len({len(row) for row in rows}) > 1:
            raise InvalidProblem("rows of the matrix differ in length")
        matrix = np.array([[_json_number(x, "matrix entries") for x in row] for row in rows])
        if matrix.ndim != 2:
            raise DimensionMismatch("rows must form a matrix")
        n = _dimension(matrix)
        declared = data.get("N")
        if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
            raise InvalidProblem(f"N must be an integer, got {declared!r}")
        if declared is not None and declared != n:
            raise DimensionMismatch(f"declared N = {declared} but matrix is {2*n}x{2*n}")
        return cls(matrix, ordering)
