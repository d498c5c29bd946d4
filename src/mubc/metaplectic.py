"""Overlaps of metaplectic images of the position basis.

A symplectic matrix M acting on 2N phase-space coordinates determines a
unitary image of the position basis; the squared overlap magnitude between
that image and the position basis itself is

    (2*pi*hbar)^-N / |det(M - I) * det(N_pp)|  =  (2*pi*hbar)^-N / |det M_qp|

where N_c = (1/2) J (M + I) (M - I)^-1 is the (symmetric) Cayley matrix of M,
N_pp is its momentum-momentum block and M_qp is the position-momentum block
of M. The two forms agree for any M with M - I invertible:

    N_pp = (1/2) [(M + I)(M - I)^-1]_qp = [(M - I)^-1]_qp, since J X takes the
    row blocks of X and (M + I)(M - I)^-1 = I + 2 (M - I)^-1;
    det(M - I) * det([(M - I)^-1]_qp) = +-det((M - I)_qp) = +-det M_qp, by
    Jacobi's complementary-minor identity.

genmu_overlap_sq evaluates the right-hand form, one N x N determinant. That
form needs only det M_qp != 0, so it also gives the constant of matrices with
eigenvalue 1, such as shears, which have no Cayley matrix; cayley_matrix
keeps the paper's object and is the only function that needs M - I
invertible. Overlaps between the images of two different matrices M, M'
reduce to the same law applied to M^-1 M'.

Coordinates are ordered "stacked" (q_1..q_N, p_1..p_N) internally, with
J = [[0, -I], [I, 0]] matching the 2x2 j = [[0, -1], [1, 0]] at N = 1.
Matrix spec files may use the "interleaved" ordering (q_1, p_1, q_2, p_2,
...); MetaplecticSpec.stacked converts it by an exact index permutation.

Matrices may be float ndarrays or nested lists, and take their mode by the
scalar rule of the symplectic module: an ndarray, or a list with any float
entry, is numeric; any other list (QuadNum / Fraction / int entries, all-int
included) is exact; QuadNum or Fraction beside a float raises
ContextMismatch. A shape that is not 2N x 2N (ragged, 1-D, empty, non-square
or odd) raises DimensionMismatch in both modes.

Both modes share one code path. Where a matrix product is taken, the matrix
becomes an ndarray: float for a numeric matrix, dtype=object for an exact one,
whose QuadNum / Fraction / int entries numpy multiplies and adds exactly.
Only the determinant and the solve differ by mode: numpy's for floats, and
for exact matrices the one exact Gaussian elimination, _exact_solve. So e.g.
the Cayley matrix of an exact matrix is symmetric identically and every exact
decision is a test for an exact zero. Exact results come back as nested lists.
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
    InvalidProblem,
    NonInvertible,
    SingularCayley,
)
from .symplectic import (
    NUMERIC,
    Scalar,
    _float_tolerance,
    _join_modes,
    _json_number,
    _overlap_constant,
    _quotient,
    _strict_mode,
)

Matrix = Union[np.ndarray, Sequence[Sequence]]

STACKED = "stacked"
INTERLEAVED = "interleaved"

# At or below this |det(M - I)| a float matrix has no Cayley matrix, and at
# or below it |det M_qp|, with M_qp's columns scaled to a largest |entry| of 1,
# gives no finite overlap.
_SINGULAR_TOL = 1e-10


def _is_exact(matrix: Matrix) -> bool:
    """False for an ndarray or a list with a float entry (see the module docstring)."""
    if isinstance(matrix, np.ndarray):
        return False
    return _join_modes(*(_strict_mode(x) for row in matrix for x in row)) != NUMERIC


def _dimension(matrix: Matrix) -> int:
    """N of a 2N x 2N matrix; any other shape raises DimensionMismatch."""
    if isinstance(matrix, np.ndarray):
        shape = matrix.shape
    else:
        try:
            shape = (len(matrix), *{len(row) for row in matrix})
        except TypeError:  # a scalar, or a row with no length
            shape = ()
    if len(shape) != 2:
        raise DimensionMismatch("rows must form a matrix")
    size = shape[0]
    if size == 0 or shape[1] != size:
        raise DimensionMismatch("matrix must be square")
    if size % 2 != 0:
        raise DimensionMismatch(f"matrix size {size} is odd; expected 2N")
    return size // 2


def _as_array(matrix: Matrix) -> np.ndarray:
    """The 2N x 2N matrix as an ndarray: dtype=object, entries kept, if exact; else float."""
    _dimension(matrix)
    if _is_exact(matrix):
        return np.array(matrix, dtype=object)
    return np.asarray(matrix, dtype=float)


# -- orderings ---------------------------------------------------------


def stacked_j(n: int, dtype=float) -> np.ndarray:
    """J in stacked ordering: [[0, -I], [I, 0]]; dtype=object gives exact int entries."""
    j = np.zeros((2 * n, 2 * n), dtype=int)
    j[:n, n:] = -np.eye(n, dtype=int)
    j[n:, :n] = np.eye(n, dtype=int)
    return j.astype(dtype)


def interleaved_to_stacked(matrix: np.ndarray) -> np.ndarray:
    """Reorder a matrix in (q_1, p_1, q_2, p_2, ...) coordinates to
    (q_1..q_N, p_1..p_N): stacked index k reads interleaved index perm[k]."""
    n = _dimension(matrix)
    perm = np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]
    return np.asarray(matrix, dtype=float)[np.ix_(perm, perm)]


def _exact_solve(a: Matrix, b: Matrix = ()) -> tuple:
    """det(A) and A^-1 B by Gaussian elimination with exact division.

    A and B are square and of one size, as nested lists or object ndarrays.
    B may have zero rows (the default): then only the forward sweep runs,
    with no augmented columns and no back-substitution, and the solution is
    []. A singular A gives (0, None).
    """
    n = len(a)
    work = (
        [list(row) + list(extra) for row, extra in zip(a, b)] if len(b) else [list(row) for row in a]
    )
    pivots = []
    inverses = [None] * n
    negate = False
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not work[r][col] == 0), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            negate = not negate
        top = work[col]
        pivots.append(top[col])
        for r in range(col + 1, n):
            factor = work[r][col]
            if factor == 0:
                continue
            if inverses[col] is None:
                inverses[col] = _quotient(1, top[col])
            factor = factor * inverses[col]
            row = work[r]
            row[col + 1 :] = [x - factor * y for x, y in zip(row[col + 1 :], top[col + 1 :])]
    det = pivots[0]
    for pivot in pivots[1:]:
        det = det * pivot
    if negate:
        det = -det
    if not len(b):
        return det, []
    solution = [None] * n
    for i in reversed(range(n)):
        rhs = work[i][n:]
        for k in range(i + 1, n):
            u = work[i][k]
            if not u == 0:
                rhs = [c - u * y for c, y in zip(rhs, solution[k])]
        inverse = inverses[i] if inverses[i] is not None else _quotient(1, work[i][i])
        solution[i] = [c * inverse for c in rhs]
    return det, solution


# -- predicates and the Cayley transform --------------------------------


def _defect(m: np.ndarray) -> np.ndarray:
    """M^t J M - J in the arithmetic of m's dtype."""
    j = stacked_j(len(m) // 2, m.dtype)
    return m.T @ j @ m - j


def symplectic_defect(matrix: Matrix) -> float:
    """Max-norm of M^t J M - J (0 for exactly symplectic M).

    For exact matrices this is a report only: a nonzero entry may round to
    0.0, so is_symplectic decides on the exact entries instead.
    """
    return float(np.max(np.abs(_defect(_as_array(matrix)).astype(float))))


def is_symplectic(matrix: Matrix, tolerance: float = 1e-12) -> bool:
    """True when M^t J M = J (exactly for exact matrices, else within tolerance).

    A float matrix is tested within _float_tolerance: never symplectic with
    an inf or nan entry, LimitExceeded for a scale past the float range.
    """
    m = _as_array(matrix)
    if m.dtype == object:
        return all(d == 0 for d in _defect(m).flat)
    tol = _float_tolerance(m.ravel().tolist(), tolerance)
    return tol is not None and symplectic_defect(m) <= tol


def cayley_matrix(matrix: Matrix):
    """Cayley matrix N_c = (1/2) J (M + I) (M - I)^-1 in stacked ordering.

    Symmetric whenever M is symplectic. Raises SingularCayley when M - I
    is singular (unit eigenvalue), where no Cayley matrix exists. An exact
    matrix gives nested lists, a numeric one an ndarray.
    """
    m = _as_array(matrix)
    exact = m.dtype == object
    ident = np.eye(len(m), dtype=m.dtype)
    shifted = m - ident
    if exact:
        _, inverse = _exact_solve(shifted, ident)
        if inverse is None:
            raise SingularCayley("M - I is singular")
    else:
        det = np.linalg.det(shifted)
        if abs(det) <= _SINGULAR_TOL:
            raise SingularCayley(f"|det(M - I)| = {abs(det):.3e} is below {_SINGULAR_TOL}")
        inverse = np.linalg.inv(shifted)
    half = Fraction(1, 2) if exact else 0.5
    j = stacked_j(len(m) // 2, m.dtype)
    cayley = half * j @ (m + ident) @ np.asarray(inverse, dtype=m.dtype)
    return cayley.tolist() if exact else cayley


def genmu_overlap_sq(matrix: Matrix, hbar: float = 1.0) -> float:
    """Squared overlap magnitude of M's basis image against the position basis.

    The paper's law is (2*pi*hbar)^-N / |det(M - I) * det(N_pp)|, with N_pp
    the momentum-momentum block of the Cayley matrix. Since J X takes the
    row blocks of X, N_pp = [(M - I)^-1]_qp, and Jacobi's complementary-minor
    identity turns the denominator into |det M_qp|, the position-momentum
    block of M itself. So the value is (2*pi*hbar)^-N / |det M_qp|, with no
    Cayley matrix formed; it needs only det M_qp != 0, so shears and other
    matrices with eigenvalue 1 have a constant too.

    Raises DegenerateBlock when det M_qp = 0. A float M_qp is degenerate when
    a column is zero or when, with each column divided by its largest
    |entry|, |det| is at most _SINGULAR_TOL; the test ignores how the
    columns are scaled. A constant outside the float range raises
    LimitExceeded.
    """
    # sliced as given, with no object-array copy of M: this is the hottest exact call
    n = _dimension(matrix)
    if _is_exact(matrix):
        det_qp, _ = _exact_solve([row[n:] for row in matrix[:n]])
        if det_qp == 0:
            raise DegenerateBlock("position-momentum block M_qp is singular")
        return _overlap_constant(n, hbar, det_qp, "det M_qp")
    block = np.asarray(matrix, dtype=float)[:n, n:]
    scale = abs(block).max(axis=0)
    # min() is nan for a nan column, and nan > 0.0 is False
    if not scale.min() > 0.0 or abs(np.linalg.det(block / scale)) <= _SINGULAR_TOL:
        raise DegenerateBlock(f"position-momentum block M_qp is singular to within {_SINGULAR_TOL}")
    return _overlap_constant(n, hbar, np.linalg.det(block), "det M_qp")


def compose_overlap_sq(matrix_a: Matrix, matrix_b: Matrix, hbar: float = 1.0) -> float:
    """Squared overlap magnitude between the images of two symplectic maps.

    Depends on the pair only through M_a^-1 M_b.
    """
    n_a, n_b = _dimension(matrix_a), _dimension(matrix_b)
    exact = _is_exact(matrix_a)
    if exact != _is_exact(matrix_b):
        raise InvalidProblem("cannot mix exact and numeric matrices")
    if n_a != n_b:
        raise DimensionMismatch(f"shape mismatch: {(2 * n_a, 2 * n_a)} vs {(2 * n_b, 2 * n_b)}")
    if exact:
        _, relative = _exact_solve(matrix_a, matrix_b)
        if relative is None:
            raise NonInvertible("first matrix is singular")
    else:
        a = np.asarray(matrix_a, dtype=float)
        if abs(np.linalg.det(a)) < 1e-300:
            raise NonInvertible("first matrix is numerically singular")
        relative = np.linalg.solve(a, np.asarray(matrix_b, dtype=float))
    return genmu_overlap_sq(relative, hbar)


def special_m(q: Scalar, p: Scalar, mu: Scalar = 0):
    """The symplectic matrix sending direction (q, p) to the position direction.

    For q != 0 this is [[1,0],[mu,1]] @ [[p,-q],[1/q,0]]; the shear parameter
    mu changes only the phase of the underlying unitary, never the overlap.
    q = 0 composes the q != 0 form with a quarter rotation, J at N = 1. The
    matrix is a nested list when no argument is a float, else an ndarray.
    """
    exact = _join_modes(_strict_mode(q), _strict_mode(p), _strict_mode(mu)) != NUMERIC
    if q == 0 and p == 0:
        raise InvalidProblem("direction (0, 0) labels no basis")
    if q == 0:
        base = _as_array(special_m(-p, 0 if exact else 0.0, mu))
        turned = base @ stacked_j(1, base.dtype)
        return turned.tolist() if exact else turned
    rows = [[p, -q], [mu * p + _quotient(1, q), -mu * q]]
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
    in the product is exact and M^t J M - J vanishes identically. Each
    generator G acts in place on the column blocks of the running product
    M = [P | Q], which becomes M G.
    """
    result = np.eye(2 * n)
    left, right = result[:, :n], result[:, n:]
    for _ in range(8):
        kind = rng.integers(0, 4)
        if kind < 2:
            s = rng.integers(-8, 9, size=(n, n)) / 8.0
            s = (s + s.T) / 2.0
            if kind == 0:
                # symmetric shear [[I, 0], [S, I]]
                left += right @ s
            else:
                # symmetric shear [[I, S], [0, I]]
                right += left @ s
        elif kind == 2:
            # block scaling diag(A, A^-T) with exact dyadic diagonal A
            diag = 2.0 ** rng.integers(-2, 3, size=n)
            left *= diag
            right /= diag
        else:
            # J = [[0, -I], [I, 0]] sends (P, Q) to (Q, -P)
            swapped = -left
            left[...] = right
            right[...] = swapped
    # zero entries as +0.0, as the matrix products gave them
    result += 0.0
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
        n = _dimension(matrix)
        declared = data.get("N")
        if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
            raise InvalidProblem(f"N must be an integer, got {declared!r}")
        if declared is not None and declared != n:
            raise DimensionMismatch(f"declared N = {declared} but matrix is {2*n}x{2*n}")
        return cls(matrix, ordering)
