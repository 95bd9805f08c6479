"""Dense complex matrix kernel.

Row-major complex matrices (numpy complex128 arrays) with the operations
the higher layers need: Kronecker products, the action of a two-site
operator on two neighbouring sites of three, the local dimension n of
an n^2 x n^2 operator, inversion by LAPACK with a condition test for
singularity, roots of unity from integer phases, and integer powers by
one repeated-squaring ladder.

The JSON codec of every wire format lives here too. A complex number
travels as an [re, im] pair of finite JSON numbers, so files round-trip
bit-exactly through the standard json module; integer fields must be
JSON integers. The readers raise ValueError naming the offending field.
complex_to_json and matrix_to_dict give plain JSON values (lists of
pairs). The one writer, iterdumps, renders a document that may also hold
nonempty complex numpy vectors (matrix_payload gives a matrix document of
that kind) to the same bytes as json.dumps of its list form, in pieces of a
bounded number of array entries, formatting each distinct entry of an
array once; it makes every check before its first piece.

The bases of the package's immutable types live here as well: _Frozen
refuses assignment after __init__, and _Value adds equality, hashing, repr
and pickling by the fields that __slots__ names.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "Matrix",
    "as_matrix",
    "identity",
    "zeros",
    "diag",
    "unit_root",
    "dagger",
    "max_abs",
    "kron",
    "local_dim",
    "on_strands",
    "inverse",
    "json_fields",
    "json_int",
    "json_complex",
    "json_list",
    "complex_to_json",
    "matrix_payload",
    "matrix_to_dict",
    "matrix_from_dict",
    "iterdumps",
]

#: Default absolute tolerance for residual checks.
DEFAULT_TOL = 1e-9

#: A dense complex matrix: 2-D numpy array of complex128, row-major.
Matrix = np.ndarray


class SingularMatrixError(ValueError):
    """The matrix is singular, or too badly conditioned to invert at the tolerance."""


class _Frozen:
    """Base of the immutable types: __init__ sets each attribute once, through _set.

    Assigning or deleting an attribute afterwards raises AttributeError.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """An immutable value whose __slots__ name its fields in constructor order.

    Equality, hashing, repr and pickling go by those fields; unpickling calls
    the constructor, so every instance has passed its validation.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def as_matrix(entries) -> Matrix:
    """Coerce nested sequences (or an ndarray) to a finite complex matrix.

    The result is a new array, never the caller's. Raises ValueError for
    anything that is not a nonempty 2-D array of finite complex numbers.
    A type that keeps a matrix copies it here; a function that only reads
    its matrix checks it where it lies, with
    _finite_matrix(np.asarray(x, dtype=np.complex128)), and does not copy.
    """
    return _finite_matrix(np.array(entries, dtype=np.complex128))


def _finite_matrix(mat: np.ndarray) -> Matrix:
    """mat itself, once it is checked to be a nonempty 2-D array of finite entries."""
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
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
    """The root of unity exp(2*pi*i*k/m). Requires m >= 1.

    The one place where an integer phase becomes a float root: k is
    reduced mod m on the Python int first, so any integer k gives the root
    of its residue, bit for bit.
    """
    if m < 1:
        raise ValueError("root order must be a positive integer")
    return cmath.exp(2j * cmath.pi * (k % m) / m)


def _power_by_squaring(squares: list[np.ndarray], k: int, product: Callable) -> np.ndarray:
    """z^k for an int k >= 1, with product(x, y) as the multiplication.

    squares[j] = z^(2^j), given as [z], is extended in place, so the calls
    for one base share their squarings. The result multiplies in z^(2^j)
    from the lowest set bit of k up, as numpy.linalg.matrix_power does.
    """
    result = None
    for j in range(k.bit_length()):
        if j == len(squares):
            squares.append(product(squares[-1], squares[-1]))
        if k >> j & 1:
            result = squares[j] if result is None else product(result, squares[j])
    return result


def dagger(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def max_abs(a: Matrix) -> float:
    """Largest entry magnitude (0.0 for an empty array)."""
    arr = np.asarray(a)
    return float(np.abs(arr).max()) if arr.size else 0.0


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: (a kron b)[i*p + k, j*q + l] = a[i, j] * b[k, l]."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def local_dim(op: Matrix, what: str = "operator") -> int:
    """The local dimension n of a square n^2 x n^2 operator on two sites.

    Raises ValueError when op is not square or its size is not a perfect square.
    """
    dim = _require_square(op, what)
    root = math.isqrt(dim)
    if root * root != dim:
        raise ValueError(f"{what} dimension {dim} is not a perfect square")
    return root


def on_strands(op: Matrix, x: Matrix, strands: tuple[int, int], n: int) -> Matrix:
    """(op acting on the neighbouring `strands` of three n-dimensional sites) @ x.

    op is n^2 x n^2 with row index a_i * n + a_j for strands (i, j);
    x has n^3 rows. Strands (0, 1) give kron(op, I) @ x and (1, 2) give
    kron(I, op) @ x. One matrix product of size n^2 x n^2 by
    n^2 x (n * cols) replaces the n^3 x n^3 embedding, so no operator
    larger than op is formed.
    """
    op = np.asarray(op)
    x = np.asarray(x)
    if op.shape != (n * n, n * n):
        raise ValueError(f"operator must be {n * n}x{n * n}, got {op.shape}")
    if x.ndim != 2 or x.shape[0] != n**3:
        raise ValueError(f"operand must have {n**3} rows, got shape {x.shape}")
    if strands not in ((0, 1), (1, 2)):
        raise ValueError(f"strands must be (0, 1) or (1, 2), got {strands}")
    cols = x.shape[1]
    front = np.moveaxis(x.reshape(n, n, n, cols), strands, (0, 1))
    out = (op @ front.reshape(n * n, n * cols)).reshape(n, n, n, cols)
    return np.moveaxis(out, (0, 1), strands).reshape(n**3, cols)


def inverse(a: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix inverse by LAPACK (numpy.linalg.inv).

    a must be a finite square matrix. It is no longer copied first: a
    complex128 array is checked and read where it lies. Raises
    SingularMatrixError when LAPACK meets a zero pivot, or when the
    condition estimate max_abs(a) * max_abs(inverse) is not finite or
    reaches 1 / tol. The zero matrix is singular even at tol = 0.
    """
    a = _finite_matrix(np.asarray(a, dtype=np.complex128))
    _require_square(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    cond = max_abs(a) * max_abs(inv)
    if not math.isfinite(cond) or cond * tol >= 1:
        raise SingularMatrixError(
            f"matrix is singular at tolerance {tol}: max|A| * max|A^-1| = {cond:.3e}"
        )
    return inv


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


def matrix_payload(m: Matrix) -> dict:
    """{"rows", "cols", "entries"} of a finite matrix, entries a flat row-major array.

    The document for iterdumps, which writes the array as matrix_to_dict's
    pairs. A C-ordered complex128 matrix is not copied: the entries are a
    view of it.
    """
    m = _finite_matrix(np.asarray(m, dtype=np.complex128))
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": m.reshape(-1)}


def matrix_to_dict(m: Matrix) -> dict:
    """Serialize to {"rows", "cols", "entries"} with row-major [re, im] pairs."""
    doc = matrix_payload(m)
    doc["entries"] = complex_to_json(doc["entries"])
    return doc


def matrix_from_dict(data: dict) -> Matrix:
    """Inverse of matrix_to_dict, with validation of shape and entry format."""
    rows, cols, entries = json_fields(data, "matrix", "rows", "cols", "entries")
    rows = json_int(rows, "rows")
    cols = json_int(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    flat = _bulk_entries(entries)
    if flat is None:
        # Walk the entries one by one so that the error names the first bad one.
        flat = np.array(json_list(entries, "entry", json_complex), dtype=np.complex128)
    if len(flat) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
        )
    return flat.reshape(rows, cols)


def _bulk_entries(entries) -> np.ndarray | None:
    """The entries as a complex vector when all are valid [re, im] pairs, else None.

    Valid means what json_complex accepts, checked for the whole list at
    once: each item a list of two parts, each part exactly an int or a
    float (not a bool), and all finite as float64.
    """
    if type(entries) is not list or not entries:
        return None
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        parts = np.array(entries, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(np.complex128).reshape(-1)


#: The string the writer puts in place of an array before splicing its text in.
_ARRAY_MARK = "\x00array\x00"
_ARRAY_MARK_JSON = json.dumps(_ARRAY_MARK)

#: Entries of an array written per piece of iterdumps.
_CHUNK = 4096

#: The four entries whose parts are both ±0, at slot 2·signbit(re) + signbit(im).
_ZERO_PAIRS = [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]
_SIGNED_ZEROS = np.array(_ZERO_PAIRS).view(np.complex128).reshape(-1)
_ZERO_TEXTS = [json.dumps(pair) for pair in _ZERO_PAIRS]


def iterdumps(doc) -> Iterator[str]:
    """One line of strict JSON in pieces; an array's text comes _CHUNK entries a piece.

    The pieces join to json.dumps(doc, sort_keys=True, allow_nan=False),
    with each numpy array in doc written as complex_to_json(array) would
    be, byte for byte, without building its lists. An array must be a
    nonempty vector, as matrix_payload's entries are.

    Every check runs before the first piece is made: a TypeError for an
    object that is neither JSON nor a nonempty numpy vector, a ValueError
    for a non-finite value, array entries included. So a caller that writes
    the pieces as they come has written nothing when the render fails.
    The checks build each array's table of distinct entry texts and one
    index per entry; the text itself is made a piece at a time. A
    document with a string that spells the array mark is written as one
    piece, from the arrays' list form.
    """
    arrays = []

    def mark(obj):
        if not (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _ARRAY_MARK

    text = json.dumps(doc, sort_keys=True, allow_nan=False, default=mark)
    pieces = text.split(_ARRAY_MARK_JSON)
    if len(pieces) != len(arrays) + 1:
        # A string of doc spells the mark; write the arrays as lists instead.
        yield json.dumps(doc, sort_keys=True, allow_nan=False, default=complex_to_json)
        return
    tables = [_entry_table(np.asarray(a, dtype=np.complex128)) for a in arrays]
    yield pieces[0]
    for array, table, piece in zip(arrays, tables, pieces[1:]):
        yield from _array_pieces(array, *table)
        yield piece


def _entry_table(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(texts, inverse): the [re, im] text of each distinct entry of z, and
    the index of each entry's text. Raises ValueError for a non-finite entry.
    """
    distinct, inverse = _distinct(z)
    if not np.isfinite(distinct).all():
        raise ValueError("Out of range float values are not JSON compliant")
    rest = distinct[len(_ZERO_PAIRS) :]
    formatted = [f"[{re!r}, {im!r}]" for re, im in zip(rest.real.tolist(), rest.imag.tolist())]
    return np.array(_ZERO_TEXTS + formatted, dtype=object), inverse


def _array_pieces(z: np.ndarray, texts: np.ndarray, inverse: np.ndarray) -> Iterator[str]:
    """json.dumps(complex_to_json(z)) of a nonempty vector z, _CHUNK entries a piece.

    "[", then the texts from z's _entry_table joined by ", ", then "]".
    """
    for start in range(0, z.size, _CHUNK):
        text = ", ".join(texts[inverse[start : start + _CHUNK]].tolist())
        yield ("[" if start == 0 else ", ") + text + ("]" if start + _CHUNK >= z.size else "")


def _distinct(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) with flat == distinct[inverse] bit for bit.

    distinct starts with the four ±0 entries of _SIGNED_ZEROS, and an
    entry whose parts are both ±0 takes the slot its two sign bits give,
    unsorted. Only the other entries are sorted by their bits, and each
    run of equal bits among them is one more distinct entry.
    """
    inverse = np.signbit(flat.real) * 2
    inverse += np.signbit(flat.imag)
    rest_at = np.flatnonzero(flat != 0)
    rest = flat[rest_at]
    bits = np.stack((rest.real, rest.imag)).view(np.uint64)
    order = np.lexsort(bits)
    bits = bits[:, order]
    first = np.ones(rest.size, dtype=bool)
    first[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    del bits  # before the index arrays: for an array with few ±0 entries it sets the peak
    inverse[rest_at[order]] = np.cumsum(first) + (len(_ZERO_PAIRS) - 1)
    return np.concatenate((_SIGNED_ZEROS, rest[order[first]])), inverse
