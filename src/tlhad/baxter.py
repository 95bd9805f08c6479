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
plain R-matrix is R = Pi @ R_check with Pi the site-swap operator; its
constant equation is the braid equation of Pi @ R.

The spectral check does not rebuild R_check(u) per sample. Expanded in
the two fixed operators R = R_check and S = R_check^-1, each side of the
spectral equation is a sum of eight three-strand words A B C with A, B,
C in {R, S}, and each word's coefficient is a monomial +-u^i w^j with
i, j in {-2, 0, 2}. The defect is sum u^i w^j C_ij over seven
coefficient operators C_ij (only (0, 0) collects two words per side),
and C_22 = R1 R2 R1 - R2 R1 R2 is the constant braid defect. This holds
for any invertible R_check, Hecke or not. The coefficients are built
once per check, the words other than C_22's one column block at a time,
and every sample is a linear combination of them.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

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
    "spectral_samples",
    "check_spectral_ybe",
    "YbeResiduals",
    "ybe_residuals",
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
        return linalg.local_dim(self.r_check, "braid generator")

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


def _braid_defect(r: Matrix, n: int) -> Matrix:
    """R12 R23 R12 - R23 R12 R23 on three strands, R12 = r (x) I and R23 = I (x) r.

    The outer two factors of each side are applied by linalg.on_strands,
    and each side's seed and inner product are dropped once used.
    """
    eye = linalg.identity(n)
    defect = linalg.on_strands(r, linalg.on_strands(r, linalg.kron(r, eye), (1, 2), n), (0, 1), n)
    defect -= linalg.on_strands(r, linalg.on_strands(r, linalg.kron(eye, r), (0, 1), n), (1, 2), n)
    return defect


def check_braid(r_check: Matrix, n: int | None = None) -> float:
    """Constant braided Yang-Baxter residual on three strands.

    Returns max |R12 R23 R12 - R23 R12 R23| with R12 = R_check (x) I and
    R23 = I (x) R_check.
    """
    r_check = linalg.as_matrix(r_check)
    n = linalg.local_dim(r_check, "braid generator", n)
    return linalg.max_abs(_braid_defect(r_check, n))


def baxterize(b: BraidData, u: complex, tol: float = DEFAULT_TOL) -> Matrix:
    """Spectral generator R_check(u) = u R_check - (1/u) R_check^-1."""
    u = complex(u)
    if u == 0:
        raise ValueError("spectral parameter must be nonzero")
    rinv = linalg.inverse(b.r_check, tol)
    return u * b.r_check - (1 / u) * rinv


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


#: Exponents (i, j) of the monomials u^i w^j, in the order the coefficient
#: operators C_ij are stored.
_MONOMIALS = ((2, 2), (2, 0), (0, 2), (0, 0), (0, -2), (-2, 0), (-2, -2))
_SLOT = {ij: k for k, ij in enumerate(_MONOMIALS)}


class YbeResiduals(NamedTuple):
    """Constant braid residual (as check_braid) and worst spectral residual."""

    braid: float
    spectral: float


def _add_words(coef, seeds, ops, inner, outer, n, lhs):
    """Add one side's words A B C, C a seed, into the column blocks of C_ij.

    The left side R12(u) R23(uw) R12(w) has A, B, C on strands (0, 1),
    (1, 2), (0, 1); A = R carries u, A = S carries -1/u, and so on, so the
    word's monomial is u^(a+b) w^(b+c) with a, b, c = +-1 for R or S and
    its sign is a*b*c. The right side R23(w) R12(uw) R23(u) swaps the
    strands and the roles of u and w, and is subtracted. The word R R R
    is left out: it makes up C_22, which the caller fills.
    """
    signs = (1, -1)
    for c, seed in zip(signs, seeds):
        for b, b_op in zip(signs, ops):
            middle = linalg.on_strands(b_op, seed, inner, n)
            for a, a_op in zip(signs, ops):
                if a == b == c == 1:
                    continue
                word = linalg.on_strands(a_op, middle, outer, n)
                ij = (a + b, b + c) if lhs else (b + c, a + b)
                if (a * b * c > 0) == lhs:
                    coef[_SLOT[ij]] += word
                else:
                    coef[_SLOT[ij]] -= word


def ybe_residuals(
    b: BraidData,
    samples: list[tuple[complex, complex]] | None = None,
    count: int = 20,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> YbeResiduals:
    """Constant braid residual and worst spectral Yang-Baxter residual.

    The spectral defect R12(u) R23(uw) R12(w) - R23(w) R12(uw) R23(u) is
    sum u^i w^j C_ij over the seven coefficient operators of the module
    docstring, built from R_check and its one inverse whatever the number
    of samples (default: spectral_samples(count, seed)). C_22 is the braid
    defect, computed by check_braid's four products, so the braid
    residual is check_braid's to the bit. The other 14 words are built one
    column block at a time: the block of first-strand column index k
    starts from the seeds kron(R[:, k n:(k+1) n], I) and kron(I[:, k], R)
    (and the same with R^-1), 22 on_strands products per block. Every
    word is linear in its seed's columns, so the blockwise maxima are
    exact, and no operator beyond check_braid's is formed at full size.
    A non-finite residual at any sample makes the spectral result
    non-finite.
    """
    if samples is None:
        samples = spectral_samples(count, seed)
    params = np.array(samples, dtype=np.complex128).reshape(-1, 2)
    u, w = params[:, 0], params[:, 1]
    if np.any((u == 0) | (w == 0) | (u * w == 0)):
        raise ValueError("spectral parameters must be nonzero")
    n = b.local_dim
    ops = (b.r_check, linalg.inverse(b.r_check, tol))
    eye = linalg.identity(n)
    braid_defect = _braid_defect(b.r_check, n)
    coef = np.empty((len(_MONOMIALS), n**3, n * n), dtype=np.complex128)
    flat = coef.reshape(len(_MONOMIALS), -1)
    with np.errstate(all="ignore"):
        u2, w2 = u * u, w * w
        pu = {2: u2, 0: np.ones_like(u), -2: 1 / u2}
        pw = {2: w2, 0: np.ones_like(w), -2: 1 / w2}
        monomials = np.stack([pu[i] * pw[j] for i, j in _MONOMIALS], axis=1)
        worst = np.zeros(len(u))
        for k in range(n):
            cols = slice(k * n * n, (k + 1) * n * n)
            coef.fill(0)
            coef[_SLOT[2, 2]] = braid_defect[:, cols]
            lhs_seeds = [linalg.kron(op[:, k * n : (k + 1) * n], eye) for op in ops]
            rhs_seeds = [linalg.kron(eye[:, k : k + 1], op) for op in ops]
            _add_words(coef, lhs_seeds, ops, (1, 2), (0, 1), n, lhs=True)
            _add_words(coef, rhs_seeds, ops, (0, 1), (1, 2), n, lhs=False)
            # Seven samples at a time, so no product outgrows the coefficients.
            for lo in range(0, len(u), len(_MONOMIALS)):
                hi = lo + len(_MONOMIALS)
                block = np.abs(monomials[lo:hi] @ flat).max(axis=1)
                worst[lo:hi] = np.maximum(worst[lo:hi], block)
        spectral = float(worst.max()) if len(worst) else 0.0
    return YbeResiduals(linalg.max_abs(braid_defect), spectral)


def check_spectral_ybe(
    b: BraidData,
    samples: list[tuple[complex, complex]] | None = None,
    count: int = 20,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> float:
    """Worst residual of the multiplicative spectral Yang-Baxter equation

        R12(u) R23(u*w) R12(w) = R23(w) R12(u*w) R23(u)

    over the given samples (default: spectral_samples(count, seed)),
    evaluated as sum u^i w^j C_ij from the seven coefficient operators
    that ybe_residuals builds, in column blocks, from one inverse.
    """
    return ybe_residuals(b, samples, count, seed, tol).spectral


def flip_operator(n: int) -> Matrix:
    """Swap operator Pi on two n-dimensional sites: Pi (x (x) y) = y (x) x."""
    if n < 1:
        raise ValueError("site dimension must be positive")
    # Row i * n + j has its one at column j * n + i.
    return linalg.identity(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


def to_plain_r(b: BraidData) -> Matrix:
    """Plain R-matrix R = Pi @ R_check."""
    return flip_operator(b.local_dim) @ b.r_check


def check_ybe(r: Matrix, n: int | None = None) -> float:
    """Constant Yang-Baxter residual of the plain R-matrix r.

    R12 R13 R23 = R23 R13 R12 holds exactly when R_check = Pi @ r
    satisfies the braid equation, and the two defects differ by a
    permutation of entries, so this is check_braid(Pi @ r).
    """
    r = linalg.as_matrix(r)
    n = linalg.local_dim(r, "R-matrix", n)
    return check_braid(flip_operator(n) @ r, n)
