"""Dense complex matrix kernel.

Row-major complex matrices (numpy complex128 arrays) with the operations
the higher layers need: Kronecker products, the action of a two-site
operator on two of three sites, inversion by LAPACK with a condition
test for singularity, entrywise reciprocal, roots of unity, and
tolerance-based comparison. Equality of floating-point matrices is
always tolerance-based; nothing here compares floats exactly.

The JSON codec of every wire format lives here too. A complex number
travels as an [re, im] pair of finite JSON numbers, so files round-trip
bit-exactly through the standard json module; integer fields must be
JSON integers. The readers raise ValueError naming the offending field.
"""
from __future__ import annotations

import cmath
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "Matrix",
    "SingularMatrixError",
    "Comparison",
    "as_matrix",
    "identity",
    "zeros",
    "diag",
    "unit_root",
    "dagger",
    "max_abs",
    "kron",
    "on_strands",
    "inverse",
    "hadamard_inverse",
    "approx_eq",
    "json_fields",
    "json_int",
    "json_complex",
    "json_list",
    "complex_to_json",
    "matrix_to_dict",
    "matrix_from_dict",
]

#: Default absolute tolerance for residual checks.
DEFAULT_TOL = 1e-9

#: A dense complex matrix: 2-D numpy array of complex128, row-major.
Matrix = np.ndarray


class SingularMatrixError(ValueError):
    """The matrix is singular, or too badly conditioned to invert at the tolerance."""


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
    """Matrix inverse by LAPACK (numpy.linalg.inv).

    Raises SingularMatrixError when LAPACK meets a zero pivot, or when the
    condition estimate max_abs(a) * max_abs(inverse) is not finite or
    reaches 1 / tol. The zero matrix is singular even at tol = 0.
    """
    a = as_matrix(a)
    _require_square(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    cond = max_abs(a) * max_abs(inv)
    if not np.isfinite(cond) or cond * tol >= 1:
        raise SingularMatrixError(
            f"matrix is singular at tolerance {tol}: max|A| * max|A^-1| = {cond:.3e}"
        )
    return inv


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


def json_fields(data, what: str, *keys: str) -> tuple:
    """Values of the required `keys` of the JSON object `data`, in order.

    `what` names the document in the error for a non-object or a missing key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} document missing field {key!r}")
    return tuple(data[key] for key in keys)


def _is_json_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_int(value, what: str) -> int:
    """A JSON integer. Bools and floats, integral ones too, raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_complex(value, what: str) -> complex:
    """An [re, im] pair of finite JSON numbers (int or float, not bool) as a complex."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and _is_json_number(value[0])
        and _is_json_number(value[1])
    ):
        raise ValueError(f"{what} must be a [re, im] pair of JSON numbers, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError as exc:
        raise ValueError(f"{what} has a part beyond the floating-point range") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must have finite parts, got {value!r}")
    return z


def json_list(value, what: str, read: Callable) -> list:
    """The JSON array `value` with read(item, f"{what} {index}") applied to each item."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} list must be a JSON array, got {type(value).__name__}")
    return [read(item, f"{what} {idx}") for idx, item in enumerate(value)]


def complex_to_json(z) -> list:
    """[re, im] pairs of a complex scalar or array, nested as the array is.

    A scalar gives one pair, a vector a list of pairs. The parts are the
    float64 values themselves, so json.dumps writes each exactly (-0.0 too).
    """
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), -1).tolist()


def matrix_to_dict(m: Matrix) -> dict:
    """Serialize to {"rows", "cols", "entries"} with row-major [re, im] pairs."""
    m = as_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": complex_to_json(m.reshape(-1))}


def matrix_from_dict(data: dict) -> Matrix:
    """Inverse of matrix_to_dict, with validation of shape and entry format."""
    rows, cols, entries = json_fields(data, "matrix", "rows", "cols", "entries")
    rows = json_int(rows, "rows")
    cols = json_int(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    flat = json_list(entries, "entry", json_complex)
    if len(flat) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
        )
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)
