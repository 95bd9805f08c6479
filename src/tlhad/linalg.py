"""Dense complex matrix kernel.

Row-major complex matrices (numpy complex128 arrays) with the operations
the higher layers need: products, Kronecker products, the action of a
two-site operator on two of three sites, LU inversion with partial
pivoting, entrywise reciprocal, integer matrix powers, roots of unity,
and tolerance-based comparison. Equality of floating-point
matrices is always tolerance-based; nothing here compares floats exactly.

JSON serialization keeps complex entries as [re, im] pairs so files
round-trip bit-exactly through the standard json module.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "FIXTURE_TOL",
    "Matrix",
    "Tolerance",
    "SingularMatrixError",
    "Comparison",
    "as_matrix",
    "identity",
    "zeros",
    "diag",
    "matrix_unit",
    "unit_root",
    "dagger",
    "max_abs",
    "mat_mul",
    "kron",
    "on_strands",
    "mat_power",
    "inverse",
    "hadamard_inverse",
    "approx_eq",
    "matrix_to_dict",
    "matrix_from_dict",
]

#: Default absolute tolerance for residual checks.
DEFAULT_TOL = 1e-9

#: Tighter tolerance for comparisons against hard-coded reference matrices.
FIXTURE_TOL = 1e-12

#: A dense complex matrix: 2-D numpy array of complex128, row-major.
Matrix = np.ndarray


class SingularMatrixError(ValueError):
    """A pivot fell below the relative singularity threshold during LU."""


@dataclass(frozen=True)
class Tolerance:
    """Pair of absolute tolerances: loose residual bound, tight fixture bound."""

    abs_tol: float = DEFAULT_TOL
    fixture_tol: float = FIXTURE_TOL

    def __post_init__(self) -> None:
        for value in (self.abs_tol, self.fixture_tol):
            if not math.isfinite(value) or value < 0:
                raise ValueError("tolerances must be finite and nonnegative")


class Comparison(NamedTuple):
    """Outcome of a tolerance comparison: verdict plus worst entry residual."""

    ok: bool
    max_residual: float


def as_matrix(entries) -> Matrix:
    """Coerce nested sequences (or an ndarray) to a finite complex matrix.

    Raises ValueError for anything that is not a nonempty 2-D array of
    finite complex numbers.
    """
    mat = np.array(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
    if not (np.isfinite(mat.real).all() and np.isfinite(mat.imag).all()):
        raise ValueError("matrix entries must be finite")
    return mat


def _require_square(mat: Matrix, what: str = "matrix") -> int:
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    return mat.shape[0]


def identity(n: int) -> Matrix:
    """n x n identity."""
    if n < 1:
        raise ValueError("identity size must be positive")
    return np.eye(n, dtype=np.complex128)


def zeros(rows: int, cols: int) -> Matrix:
    """rows x cols zero matrix."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return np.zeros((rows, cols), dtype=np.complex128)


def diag(values: Sequence[complex]) -> Matrix:
    """Diagonal matrix with the given entries."""
    vals = np.asarray(list(values), dtype=np.complex128)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("diag expects a nonempty 1-D sequence")
    return np.diag(vals)


def matrix_unit(i: int, j: int, n: int) -> Matrix:
    """n x n matrix unit e_ij: 1 at row i, column j (0-based), 0 elsewhere."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"matrix unit index ({i}, {j}) out of range for size {n}")
    out = zeros(n, n)
    out[i, j] = 1.0
    return out


def unit_root(k: int, m: int) -> complex:
    """The root of unity exp(2*pi*i*k/m). Requires m >= 1."""
    if m < 1:
        raise ValueError("root order must be a positive integer")
    return cmath.exp(2j * cmath.pi * k / m)


def dagger(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def max_abs(a: Matrix) -> float:
    """Largest entry magnitude (0.0 for an empty array)."""
    arr = np.asarray(a)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b with an explicit inner-dimension check."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for product: {a.shape} x {b.shape}")
    return a @ b


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: (a kron b)[i*p + k, j*q + l] = a[i, j] * b[k, l]."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def on_strands(op: Matrix, x: Matrix, strands: tuple[int, int], n: int) -> Matrix:
    """(op acting on `strands` of three n-dimensional sites) @ x.

    op is n^2 x n^2 with row index a_i * n + a_j for strands (i, j), i < j;
    x has n^3 rows. Strands (0, 1) give kron(op, I) @ x, (1, 2) give
    kron(I, op) @ x, and (0, 2) the same op on the outer pair. One matrix
    product of size n^2 x n^2 by n^2 x (n * cols) replaces the n^3 x n^3
    embedding, so no operator larger than op is formed.
    """
    op = np.asarray(op)
    x = np.asarray(x)
    if op.shape != (n * n, n * n):
        raise ValueError(f"operator must be {n * n}x{n * n}, got {op.shape}")
    if x.ndim != 2 or x.shape[0] != n**3:
        raise ValueError(f"operand must have {n**3} rows, got shape {x.shape}")
    if strands not in ((0, 1), (1, 2), (0, 2)):
        raise ValueError(f"strands must be (0, 1), (1, 2) or (0, 2), got {strands}")
    cols = x.shape[1]
    front = np.moveaxis(x.reshape(n, n, n, cols), strands, (0, 1))
    out = (op @ front.reshape(n * n, n * cols)).reshape(n, n, n, cols)
    return np.moveaxis(out, (0, 1), strands).reshape(n**3, cols)


def inverse(a: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix inverse via LU decomposition with partial pivoting.

    Raises SingularMatrixError when any pivot magnitude drops to
    tol * max_abs(a) or below (so the zero matrix is singular even at
    tol = 0).
    """
    a = as_matrix(a)
    n = _require_square(a)
    scale = max_abs(a)
    lu = a.copy()
    perm = np.arange(n)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(lu[col:, col])))
        if abs(lu[piv, col]) <= tol * scale:
            raise SingularMatrixError(
                f"matrix is singular at tolerance {tol}: pivot {abs(lu[piv, col]):.3e} "
                f"in column {col} (scale {scale:.3e})"
            )
        if piv != col:
            lu[[col, piv]] = lu[[piv, col]]
            perm[[col, piv]] = perm[[piv, col]]
        lu[col + 1 :, col] /= lu[col, col]
        lu[col + 1 :, col + 1 :] -= np.outer(lu[col + 1 :, col], lu[col, col + 1 :])
    # Solve L U X = P I by forward then back substitution, all columns at once.
    x = np.eye(n, dtype=np.complex128)[perm]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def mat_power(m: Matrix, k: int, tol: float = DEFAULT_TOL) -> Matrix:
    """Integer matrix power by repeated multiplication.

    Negative powers go through inverse() and therefore raise
    SingularMatrixError on singular input.
    """
    m = as_matrix(m)
    n = _require_square(m)
    k = int(k)
    base = m if k >= 0 else inverse(m, tol)
    out = identity(n)
    for _ in range(abs(k)):
        out = out @ base
    return out


def hadamard_inverse(a: Matrix) -> Matrix:
    """Entrywise reciprocal: out[i, j] = 1 / a[i, j].

    Every entry must be nonzero; the error message names the first
    offending position.
    """
    a = as_matrix(a)
    zero = np.argwhere(a == 0)
    if zero.size:
        i, j = (int(v) for v in zero[0])
        raise ValueError(f"entrywise inverse undefined: zero entry at ({i}, {j})")
    return 1.0 / a


def approx_eq(a: Matrix, b: Matrix, tol: float = DEFAULT_TOL) -> Comparison:
    """Entrywise comparison: ok iff max |a - b| <= tol. Shapes must match."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in comparison: {a.shape} vs {b.shape}")
    residual = max_abs(a - b)
    return Comparison(residual <= tol, residual)


def matrix_to_dict(m: Matrix) -> dict:
    """Serialize to {"rows", "cols", "entries"} with row-major [re, im] pairs."""
    m = as_matrix(m)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_dict(data: dict) -> Matrix:
    """Inverse of matrix_to_dict, with validation of shape and entry format."""
    if not isinstance(data, dict):
        raise ValueError("matrix document must be a JSON object")
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"matrix document missing or malformed field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"entry {idx} is not a [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise ValueError(f"entry {idx} has non-numeric parts")
        flat[idx] = complex(re, im)
    return as_matrix(flat.reshape(rows, cols))
