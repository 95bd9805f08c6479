"""Hecke generators and Yang-Baxter checks.

A local Temperley-Lieb generator T with T^2 = nu * T yields a Hecke
braid generator

    R_check = q * I - T / sqrt(nu),      q + 1/q = sqrt(nu),

which satisfies (R_check - q I)(R_check + (1/q) I) = 0 and, when T
comes from an admissible ansatz, the constant braided Yang-Baxter
equation on three strands. Baxterization turns it into a
spectral-parameter family

    R_check(u) = u * R_check - (1/u) * R_check^-1
               = (u - 1/u) * R_check + ((q - 1/q)/u) * I,

which satisfies the multiplicative-parameter Yang-Baxter equation. The
plain R-matrix is R = Pi @ R_check with Pi the site-swap operator, and
the constant equation in R-form is checked independently.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, Matrix

__all__ = [
    "BraidData",
    "q_from_nu",
    "braid_from_tl",
    "hecke_residual",
    "check_braid",
    "baxterize",
    "baxterize_agreement",
    "spectral_samples",
    "check_spectral_ybe",
    "flip_operator",
    "to_plain_r",
    "check_ybe",
]


@dataclass(frozen=True, eq=False)
class BraidData:
    """Hecke generator R_check with its loop factor nu and parameter q."""

    q: complex
    nu: complex
    r_check: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "nu", complex(self.nu))
        if self.q == 0:
            raise ValueError("Hecke parameter q must be nonzero")
        object.__setattr__(self, "r_check", linalg.as_matrix(self.r_check))
        linalg._require_square(self.r_check, "braid generator")

    @property
    def local_dim(self) -> int:
        n = math.isqrt(self.r_check.shape[0])
        if n * n != self.r_check.shape[0]:
            raise ValueError(
                f"braid generator dimension {self.r_check.shape[0]} is not a perfect square"
            )
        return n

    def to_dict(self) -> dict:
        return {
            "q": linalg.complex_to_json(self.q),
            "nu": linalg.complex_to_json(self.nu),
            "r_check": linalg.matrix_to_dict(self.r_check),
        }

    @staticmethod
    def from_dict(data: dict) -> "BraidData":
        q, nu, r_check = linalg.json_fields(data, "braid", "q", "nu", "r_check")
        return BraidData(
            linalg.json_complex(q, "q"),
            linalg.json_complex(nu, "nu"),
            linalg.matrix_from_dict(r_check),
        )


def q_from_nu(nu: complex) -> complex:
    """Solve q + 1/q = sqrt(nu) as q = (sqrt(nu) + sqrt(nu - 4)) / 2.

    Principal square roots throughout; for real nu < 4 this gives |q| = 1
    with nonnegative imaginary part. Any root of the quadratic works for
    the Hecke condition, so the branch is fixed purely for determinism.
    """
    nu = complex(nu)
    if nu == 0:
        raise ValueError("loop factor nu must be nonzero")
    return (cmath.sqrt(nu) + cmath.sqrt(nu - 4)) / 2


def braid_from_tl(t_local: Matrix, nu: complex, tol: float = DEFAULT_TOL) -> BraidData:
    """Build R_check = q I - T / sqrt(nu) from a local TL generator.

    Requires T^2 = nu T within tol; the Hecke condition then follows
    identically (its residual equals the one-loop residual over |nu|).
    """
    t_local = linalg.as_matrix(t_local)
    dim = linalg._require_square(t_local, "local generator")
    nu = complex(nu)
    loop = linalg.max_abs(t_local @ t_local - nu * t_local)
    if loop > tol:
        raise ValueError(
            f"input does not satisfy the one-loop relation T^2 = nu*T: residual {loop:.3e}"
        )
    q = q_from_nu(nu)
    r_check = q * linalg.identity(dim) - t_local / cmath.sqrt(nu)
    return BraidData(q, nu, r_check)


def hecke_residual(b: BraidData) -> float:
    """Worst entry of (R_check - q I)(R_check + (1/q) I)."""
    dim = b.r_check.shape[0]
    eye = linalg.identity(dim)
    return linalg.max_abs((b.r_check - b.q * eye) @ (b.r_check + (1 / b.q) * eye))


def _split_local_dim(r: Matrix, n: int | None) -> int:
    dim = linalg._require_square(r, "braid generator")
    root = math.isqrt(dim)
    if root * root != dim:
        raise ValueError(f"generator dimension {dim} is not a perfect square")
    if n is not None and n != root:
        raise ValueError(f"local dimension {n} inconsistent with generator size {dim}")
    return root


def check_braid(r_check: Matrix, n: int | None = None) -> float:
    """Constant braided Yang-Baxter residual on three strands.

    Returns max |R12 R23 R12 - R23 R12 R23| with R12 = R_check (x) I and
    R23 = I (x) R_check, the outer two factors applied by linalg.on_strands.
    """
    r_check = linalg.as_matrix(r_check)
    n = _split_local_dim(r_check, n)
    eye = linalg.identity(n)
    r12 = linalg.kron(r_check, eye)
    r23 = linalg.kron(eye, r_check)
    lhs = linalg.on_strands(r_check, linalg.on_strands(r_check, r12, (1, 2), n), (0, 1), n)
    rhs = linalg.on_strands(r_check, linalg.on_strands(r_check, r23, (0, 1), n), (1, 2), n)
    return linalg.max_abs(lhs - rhs)


def baxterize(b: BraidData, u: complex, tol: float = DEFAULT_TOL) -> Matrix:
    """Spectral generator R_check(u) = u R_check - (1/u) R_check^-1."""
    u = complex(u)
    if u == 0:
        raise ValueError("spectral parameter must be nonzero")
    rinv = linalg.inverse(b.r_check, tol)
    return u * b.r_check - (1 / u) * rinv


def baxterize_agreement(b: BraidData, u: complex, tol: float = DEFAULT_TOL) -> float:
    """Distance between the two baxterization formulas at parameter u.

    The closed form (u - 1/u) R_check + ((q - 1/q)/u) I equals the
    inverse-based form exactly when the Hecke identity
    R_check^-1 = R_check - (q - 1/q) I holds.
    """
    u = complex(u)
    if u == 0:
        raise ValueError("spectral parameter must be nonzero")
    direct = baxterize(b, u, tol)
    omega = b.q - 1 / b.q
    closed = (u - 1 / u) * b.r_check + (omega / u) * linalg.identity(b.r_check.shape[0])
    return linalg.max_abs(direct - closed)


def spectral_samples(count: int = 20, seed: int = 42) -> list[tuple[complex, complex]]:
    """Deterministic (u, w) pairs: exp(z) with z uniform in the box [-1, 1]^2."""
    if count < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    box = rng.uniform(-1.0, 1.0, size=(count, 4))
    return [
        (cmath.exp(complex(a, bb)), cmath.exp(complex(c, d)))
        for a, bb, c, d in box
    ]


def check_spectral_ybe(
    b: BraidData,
    samples: list[tuple[complex, complex]] | None = None,
    count: int = 20,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> float:
    """Worst residual of the multiplicative spectral Yang-Baxter equation

        R12(u) R23(u*w) R12(w) = R23(w) R12(u*w) R23(u)

    over the given samples (default: spectral_samples(count, seed)).
    """
    if samples is None:
        samples = spectral_samples(count, seed)
    n = b.local_dim
    eye = linalg.identity(n)
    rinv = linalg.inverse(b.r_check, tol)
    worst = 0.0
    for u, w in samples:
        u = complex(u)
        w = complex(w)
        if 0 in (u, w, u * w):
            raise ValueError("spectral parameters must be nonzero")
        # baxterize(b, x) for x = u, w, uw, from the one inverse of R_check.
        r_u, r_w, r_uw = (x * b.r_check - (1 / x) * rinv for x in (u, w, u * w))
        r12_w = linalg.kron(r_w, eye)
        r23_u = linalg.kron(eye, r_u)
        lhs = linalg.on_strands(r_u, linalg.on_strands(r_uw, r12_w, (1, 2), n), (0, 1), n)
        rhs = linalg.on_strands(r_w, linalg.on_strands(r_uw, r23_u, (0, 1), n), (1, 2), n)
        worst = max(worst, linalg.max_abs(lhs - rhs))
    return worst


def flip_operator(n: int) -> Matrix:
    """Swap operator Pi on two n-dimensional sites: Pi (x (x) y) = y (x) x."""
    if n < 1:
        raise ValueError("site dimension must be positive")
    out = linalg.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            out[i * n + j, j * n + i] = 1.0
    return out


def to_plain_r(b: BraidData) -> Matrix:
    """Plain R-matrix R = Pi @ R_check."""
    return flip_operator(b.local_dim) @ b.r_check


def check_ybe(r: Matrix, n: int | None = None) -> float:
    """Constant Yang-Baxter residual max |R12 R13 R23 - R23 R13 R12|.

    R13 is R on the outer strands (0, 2) of linalg.on_strands. Agrees with
    check_braid(R_check) when r = to_plain_r of the same generator.
    """
    r = linalg.as_matrix(r)
    n = _split_local_dim(r, n)
    eye = linalg.identity(n)
    r12 = linalg.kron(r, eye)
    r23 = linalg.kron(eye, r)
    lhs = linalg.on_strands(r, linalg.on_strands(r, r23, (0, 2), n), (0, 1), n)
    rhs = linalg.on_strands(r, linalg.on_strands(r, r12, (0, 2), n), (1, 2), n)
    return linalg.max_abs(lhs - rhs)
