"""Complex and generalized Hadamard matrices.

A complex Hadamard matrix (CHM) of size n has unimodular entries and
satisfies U U^dagger = n I. A generalized Hadamard matrix (GHM) drops
unimodularity and asks instead that the entrywise reciprocal transpose
be n times the ordinary inverse, equivalently U (U^{o-1})^t = n I with
U^{o-1} the entrywise reciprocal. ghm_residual takes this product with no
inverse, so it does not grow with the condition number of U.

Every CHM is a GHM, and the GHM class is closed under the equivalence
moves U -> P1 D1 U D2 P2 with permutations P and invertible diagonals D.
This module provides predicates for both classes plus Butson refinement
(entries restricted to q-th roots of unity), dephasing, equivalence
moves, and the standard constructions: Fourier matrices, the two
printed one- and two-parameter families at sizes 4 and 6, and the
block construction that glues n blocks of size m into a GHM of size
n * m.

Two functions decide which root of unity an entry is. butson_residual
rounds each entry's angle to the nearest q-th root, for check butson.
root_phases reads each entry as an exact reduced phase t/r; the Butson
order, the pigeonhole obstruction and the master search all work from
those integers. The other way, apart from butson_residual's nearest
roots, an integer phase becomes a float root only through
linalg.unit_root.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, Matrix

__all__ = [
    "HadamardVerdict",
    "EquivalenceMove",
    "permutation_matrix",
    "apply_equivalence",
    "dephase",
    "is_chm",
    "chm_residual",
    "ghm_residual",
    "is_ghm",
    "butson_residual",
    "root_phases",
    "butson_order",
    "fourier",
    "f4_family",
    "f6_family",
    "dita",
]

#: Largest root order probed when classifying Butson type.
BUTSON_SCAN_LIMIT = 36


class HadamardVerdict(NamedTuple):
    """Classification of one matrix: CHM? GHM? Butson order if any.

    max_residual is ghm_residual(u): inf when the matrix has a zero
    entry, in which case both verdicts are False.
    """

    is_chm: bool
    is_ghm: bool
    butson_order: int | None
    max_residual: float


class EquivalenceMove(linalg._Value):
    """Hadamard equivalence move U -> P(left_perm) D(left_diag) U D(right_diag) P(right_perm).

    Permutations are 0-based images: P(perm)[i, perm[i]] = 1. Diagonal
    entries must be nonzero (invertible diagonals preserve the GHM
    property; unimodular ones preserve CHM). The fields are stored as
    tuples: ints for the permutations, complex numbers for the diagonals.
    """

    __slots__ = ("left_perm", "left_diag", "right_diag", "right_perm")

    def __init__(self, left_perm, left_diag, right_diag, right_perm) -> None:
        for name, perm in (("left_perm", left_perm), ("right_perm", right_perm)):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"{name} is not a permutation of 0..{len(perm) - 1}: {perm}")
        for name, d in (("left_diag", left_diag), ("right_diag", right_diag)):
            if any(z == 0 for z in d):
                raise ValueError(f"{name} must have nonzero entries")
        if len(left_perm) != len(left_diag) or len(right_perm) != len(right_diag):
            raise ValueError("permutation and diagonal sizes must agree on each side")
        self._set(
            left_perm=tuple(int(p) for p in left_perm),
            left_diag=tuple(complex(z) for z in left_diag),
            right_diag=tuple(complex(z) for z in right_diag),
            right_perm=tuple(int(p) for p in right_perm),
        )


def permutation_matrix(perm) -> Matrix:
    """0-1 matrix P with P[i, perm[i]] = 1, so (P @ u)[i] = u[perm[i]]."""
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    out = linalg.zeros(n, n)
    out[np.arange(n), perm] = 1.0
    return out


def apply_equivalence(u: Matrix, move: EquivalenceMove) -> Matrix:
    """Apply an equivalence move: P1 D1 u D2 P2."""
    u = linalg.as_matrix(u)
    n = u.shape[0]
    if u.shape[1] != n or len(move.left_perm) != n or len(move.right_perm) != n:
        raise ValueError(
            f"move size mismatch: matrix {u.shape}, move {len(move.left_perm)}x{len(move.right_perm)}"
        )
    p1 = permutation_matrix(move.left_perm)
    p2 = permutation_matrix(move.right_perm)
    return p1 @ linalg.diag(move.left_diag) @ u @ linalg.diag(move.right_diag) @ p2


def dephase(u: Matrix) -> tuple[Matrix, EquivalenceMove]:
    """Normalize first row and column to all ones by diagonal rescaling.

    Returns (dephased matrix, move) with the move being the one that was
    applied; an already dephased matrix comes back unchanged with the
    identity move. The two diagonals are applied by broadcasting, not by
    matrix products, so the result equals apply_equivalence(u, move) up to
    rounding. u itself is only read.
    """
    u = linalg._finite_matrix(np.asarray(u, dtype=np.complex128))
    n = linalg._require_square(u, "dephase input")
    if np.any(u[:, 0] == 0) or np.any(u[0, :] == 0):
        raise ValueError("dephasing requires nonzero first row and column")
    left = 1.0 / u[:, 0]
    right = u[0, 0] / u[0, :]
    idp = tuple(range(n))
    move = EquivalenceMove(idp, tuple(left.tolist()), tuple(right.tolist()), idp)
    return left[:, None] * u * right, move


def chm_residual(u: Matrix) -> float:
    """Worst violation of the CHM conditions |u_ij| = 1 and u u^dagger = n I."""
    u = linalg._finite_matrix(np.asarray(u, dtype=np.complex128))
    n = linalg._require_square(u, "CHM input")
    r_mod = float(np.max(np.abs(np.abs(u) - 1.0)))
    r_orto = linalg.max_abs(u @ linalg.dagger(u) - n * linalg.identity(n))
    return max(r_mod, r_orto)


def is_chm(u: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff u is a complex Hadamard matrix at the given tolerance."""
    return chm_residual(u) <= tol


def _hadamard_defect(u: np.ndarray) -> np.ndarray:
    """u (u^{o-1})^t - n I, entry (i, j) = sum_k u[i, k] / u[j, k] - n delta_ij; no zero entry."""
    return u @ (1 / u).T - len(u) * np.eye(len(u))


def ghm_residual(u: Matrix) -> float:
    """max|u (u^{o-1})^t - n I|; inf for a zero entry, finite for a singular u."""
    u = linalg._finite_matrix(np.asarray(u, dtype=np.complex128))
    linalg._require_square(u, "GHM input")
    return linalg.max_abs(_hadamard_defect(u)) if u.all() else math.inf


def butson_residual(u: Matrix, q: int) -> float:
    """Largest distance from an entry of u to the nearest q-th root of unity."""
    if q < 1:
        raise ValueError("Butson order must be a positive integer")
    u = linalg.as_matrix(u)
    angles = np.angle(u)
    nearest = np.exp(2j * np.pi * np.round(angles * q / (2 * np.pi)) / q)
    return linalg.max_abs(u - nearest)


def root_phases(
    u: Matrix, limit: int, tol: float = DEFAULT_TOL
) -> tuple[tuple[tuple[int, int], ...], ...] | None:
    """Every entry of u as a root of unity exp(2*pi*i*t/r), r <= limit.

    Returns the rows of u as tuples of reduced phase pairs (t, r) with
    0 <= t < r, or None when some entry is farther than tol from every
    root of unity of order at most limit. An entry's fraction t/r is the
    first continued-fraction convergent of its phase that lies within
    float rounding of it, so rounding noise is never read as a root of
    huge order; with no such convergent up to limit, it is the closest
    fraction with denominator at most limit. The cost does not grow with
    limit.
    """
    if limit < 1:
        raise ValueError("root order limit must be a positive integer")
    phases = []
    for row in linalg._finite_matrix(np.asarray(u, dtype=np.complex128)).tolist():
        snapped = []
        for z in row:
            phase = _root_phase(z, limit, tol)
            if phase is None:
                return None
            snapped.append(phase)
        phases.append(tuple(snapped))
    return tuple(phases)


#: How far, in turns, a phase computed from a float entry may sit from the
#: exact phase: a few units in the last place of 1.0. Two distinct
#: fractions this close to one phase have a product of denominators of at
#: least 2^47; below that, the first convergent this close is also the
#: closest fraction.
_PHASE_ROUNDING = 2.0**-48


def _root_phase(z: complex, limit: int, tol: float) -> tuple[int, int] | None:
    turn = cmath.phase(z) / (2 * math.pi) % 1.0
    num, den = turn.as_integer_ratio()
    # Convergents p/q of turn; the last one is turn itself, so the loop ends.
    p0, q0, p, q = 0, 1, 1, 0
    while True:
        a, rest = divmod(num, den)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        if q > limit:
            closest = Fraction(turn).limit_denominator(limit)
            p, q = closest.numerator, closest.denominator
            break
        if abs(turn - p / q) <= _PHASE_ROUNDING:
            break
        num, den = den, rest
    t = p % q
    return (t, q) if abs(z - linalg.unit_root(t, q)) <= tol else None


def butson_order(u: Matrix, tol: float, limit: int) -> int | None:
    """Minimal q <= limit whose q-th roots of unity hold every entry of u, or None.

    That q is the lcm of the entries' orders from root_phases.
    """
    phases = root_phases(u, limit, tol)
    if phases is None:
        return None
    q = math.lcm(*(r for row in phases for _, r in row))
    return q if q <= limit else None


def is_ghm(u: Matrix, tol: float = DEFAULT_TOL) -> HadamardVerdict:
    """Classify u as CHM / GHM / Butson in one pass.

    max_residual is ghm_residual(u), inf for a zero entry.
    butson_order is the minimal q <= BUTSON_SCAN_LIMIT whose roots contain
    all entries, reported only when u is a CHM; None otherwise.
    """
    r_ghm = ghm_residual(u)
    chm_ok = chm_residual(u) <= tol
    order = butson_order(u, tol, BUTSON_SCAN_LIMIT) if chm_ok else None
    return HadamardVerdict(chm_ok, r_ghm <= tol, order, r_ghm)


def fourier(n: int, ell: int = 1) -> Matrix:
    """Fourier matrix F[j, k] = w^(ell*j*k) with w = exp(2*pi*i/n).

    ell must be coprime to n so that rows stay pairwise orthogonal;
    the result is a Butson matrix of order n. Entry (j, k) is the root
    unit_root(ell * t, n) at t = j*k mod n, from a table of n roots; the
    n x n result is allocated first, so a size beyond memory fails before
    any root is made.
    """
    if n < 1:
        raise ValueError("Fourier size must be a positive integer")
    if math.gcd(ell, n) != 1:
        raise ValueError(f"twist {ell} must be coprime to the size {n}")
    out = linalg.zeros(n, n)
    roots = np.array([linalg.unit_root(ell * t, n) for t in range(n)])
    index = np.arange(n)
    return np.take(roots, np.outer(index, index) % n, out=out)


def f4_family(a: complex) -> Matrix:
    """One-parameter size-4 family.

    CHM for |a| = 1 (the classic real Hadamard matrix at a = 1), GHM for
    every nonzero a. Coincides with the block construction
    dita(fourier(2), [fourier(2), fourier(2) @ diag(1, a)]).
    """
    a = complex(a)
    if a == 0:
        raise ValueError("family parameter must be nonzero")
    return linalg.as_matrix(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, a, -1, -a],
            [1, -a, -1, a],
        ]
    )


def f6_family(a: complex, b: complex) -> Matrix:
    """Two-parameter size-6 family.

    CHM for |a| = |b| = 1, GHM for all nonzero a, b. Equals the block
    construction over fourier(2) with blocks fourier(3) and
    fourier(3) @ diag(1, a, b).
    """
    a = complex(a)
    b = complex(b)
    if a == 0 or b == 0:
        raise ValueError("family parameters must be nonzero")
    w = linalg.unit_root(1, 6)
    w2, w4 = w * w, w * w * w * w
    return linalg.as_matrix(
        [
            [1, 1, 1, 1, 1, 1],
            [1, w2, w4, 1, w2, w4],
            [1, w4, w2, 1, w4, w2],
            [1, a, b, -1, -a, -b],
            [1, a * w2, b * w4, -1, -a * w2, -b * w4],
            [1, a * w4, b * w2, -1, -a * w4, -b * w2],
        ]
    )


def dita(a: Matrix, blocks) -> Matrix:
    """Block construction: out block (i, j) = a[i, j] * blocks[i].

    For an n x n GHM `a` and n GHM blocks of equal size m, the result is
    a GHM of size n*m (same statement for CHM inputs). Row i of blocks
    multiplies the whole i-th block row.
    """
    a = linalg.as_matrix(a)
    n = linalg._require_square(a, "outer factor")
    blocks = [linalg.as_matrix(b) for b in blocks]
    if len(blocks) != n:
        raise ValueError(f"need exactly {n} blocks, got {len(blocks)}")
    m = linalg._require_square(blocks[0], "block")
    for b in blocks:
        if b.shape != (m, m):
            raise ValueError(f"all blocks must be {m}x{m}, got {b.shape}")
    out = linalg.zeros(n * m, n * m)
    for i in range(n):
        for j in range(n):
            out[i * m : (i + 1) * m, j * m : (j + 1) * m] = a[i, j] * blocks[i]
    return out
