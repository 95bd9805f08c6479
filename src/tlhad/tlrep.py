"""Rank-n Temperley-Lieb generators from matrix spectra.

The local generator on two neighboring n-dimensional sites is

    T = sum_{a,b} v_a * w_b * e_ab (x) M^(n_a - n_b),

built from an invertible n x n matrix M, integer exponents n_a, and
weight vectors v, w with alpha = sum_a v_a * w_a nonzero. Embedded on N
sites as T_i = I^(i-1) (x) T (x) I^(N-i-1), these satisfy the
renormalized Temperley-Lieb relations

    T_i^2 = alpha * T_i,
    T_i T_{i+-1} T_i = alpha * T_i,
    [T_i, T_j] = 0  for |i - j| > 1,

exactly when the spectral data of M forms a master spec whose matrix is
a generalized Hadamard matrix (the abstract generators with
X^2 = -nu * X correspond via X = -T / sqrt(alpha)).

Every T_i embeds the same two-site T, so each relation is decided locally:
the loop relation by T on two sites, the braid relation on three strands,
and generators on disjoint bonds commute exactly as Kronecker embeddings.
The site count only selects which relations exist (2: loop; 3: adds braid;
4 or more: adds commutation, whose residual is identically 0), and the
checks never form a matrix of size n^sites.

This module builds and embeds the generators, measures the three
relation residuals, checks the factorized closure condition directly on
eigenvector data, reconstructs M from (Omega, H, Lambda), and carries
two printed 9x9 reference generators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import hadamard, linalg, master
from .linalg import DEFAULT_TOL, Comparison, Matrix

__all__ = [
    "TLAnsatz",
    "TLReport",
    "Master4Check",
    "build_local_generator",
    "embed",
    "verify_tl",
    "verify_tl_local",
    "check_master4",
    "eigenvector_condition",
    "reconstruct_m",
    "weighted_hadamard_check",
    "gauge_transform",
    "fixture_u1",
    "fixture_u2",
    "fixture_u1_ansatz",
    "fixture_u2_ansatz",
]


@dataclass(eq=False)
class TLAnsatz:
    """Data of one local generator: matrix, exponents, weights, site count.

    v and w default to all ones (the plain ansatz, alpha = n). Exponent
    order is significant and preserved; it labels the rows/columns of the
    block structure, and the reference generators depend on it.
    """

    m: Matrix
    exponents: tuple[int, ...]
    v: tuple[complex, ...] | None = None
    w: tuple[complex, ...] | None = None
    sites: int = 3

    def __post_init__(self) -> None:
        self.m = linalg.as_matrix(self.m)
        n = linalg._require_square(self.m, "ansatz matrix")
        self.exponents = tuple(int(e) for e in self.exponents)
        if len(self.exponents) != n:
            raise ValueError(
                f"need {n} exponents for a {n}x{n} matrix, got {len(self.exponents)}"
            )
        self.v = (1.0 + 0j,) * n if self.v is None else tuple(complex(z) for z in self.v)
        self.w = (1.0 + 0j,) * n if self.w is None else tuple(complex(z) for z in self.w)
        if len(self.v) != n or len(self.w) != n:
            raise ValueError("weight vectors must have one entry per exponent")
        self.sites = int(self.sites)
        if self.sites < 2:
            raise ValueError("need at least 2 sites")
        if self.alpha == 0:
            raise ValueError("weight overlap alpha = sum(v_a * w_a) must be nonzero")

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def alpha(self) -> complex:
        return sum((va * wa for va, wa in zip(self.v, self.w)), complex(0.0))

    def to_dict(self) -> dict:
        return {
            "m": linalg.matrix_to_dict(self.m),
            "exponents": list(self.exponents),
            "v": linalg.complex_to_json(self.v),
            "w": linalg.complex_to_json(self.w),
            "sites": self.sites,
        }

    @staticmethod
    def from_dict(data: dict) -> "TLAnsatz":
        m, exponents, sites = linalg.json_fields(data, "ansatz", "m", "exponents", "sites")
        weights = {
            key: tuple(linalg.json_list(data[key], key, linalg.json_complex))
            for key in ("v", "w")
            if key in data
        }
        return TLAnsatz(
            linalg.matrix_from_dict(m),
            tuple(linalg.json_list(exponents, "exponent", linalg.json_int)),
            weights.get("v"),
            weights.get("w"),
            linalg.json_int(sites, "sites"),
        )


@dataclass(frozen=True)
class TLReport:
    """Worst residuals of the three relation families, plus the loop factor."""

    loop_residual: float
    braid_residual: float
    commute_residual: float
    nu: complex

    @property
    def max_residual(self) -> float:
        return max(self.loop_residual, self.braid_residual, self.commute_residual)

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_residual <= tol

    def to_dict(self) -> dict:
        return {
            "loop_residual": self.loop_residual,
            "braid_residual": self.braid_residual,
            "commute_residual": self.commute_residual,
            "nu": linalg.complex_to_json(self.nu),
        }


class Master4Check(NamedTuple):
    """Verdict of the n^3 factorized closure conditions, with the worst index."""

    ok: bool
    max_residual: float
    worst: tuple[int, int, int]


def build_local_generator(a: TLAnsatz, tol: float = DEFAULT_TOL) -> Matrix:
    """Assemble sum_{a,b} v_a w_b e_ab (x) M^(n_a - n_b) as an n^2 x n^2 matrix.

    Each distinct power comes from numpy.linalg.matrix_power in O(log d)
    products; a negative difference powers linalg.inverse(M, tol), so a
    singular M raises SingularMatrixError.
    """
    n = a.n
    diffs = {ea - eb for ea in a.exponents for eb in a.exponents}
    minv = linalg.inverse(a.m, tol) if min(diffs) < 0 else None
    powers = {d: np.linalg.matrix_power(a.m if d >= 0 else minv, abs(d)) for d in diffs}
    out = linalg.zeros(n * n, n * n)
    for ia, ea in enumerate(a.exponents):
        for ib, eb in enumerate(a.exponents):
            out[ia * n : (ia + 1) * n, ib * n : (ib + 1) * n] = (
                a.v[ia] * a.w[ib] * powers[ea - eb]
            )
    return out


def embed(local: Matrix, i: int, sites: int, n: int) -> Matrix:
    """I^(i-1) (x) local (x) I^(sites-i-1) with 1-based bond index i."""
    local = linalg.as_matrix(local)
    if local.shape != (n * n, n * n):
        raise ValueError(f"local generator must be {n * n}x{n * n}, got {local.shape}")
    if not 1 <= i <= sites - 1:
        raise ValueError(f"bond index {i} out of range for {sites} sites")
    out = local
    if i > 1:
        out = linalg.kron(linalg.identity(n ** (i - 1)), out)
    if i < sites - 1:
        out = linalg.kron(out, linalg.identity(n ** (sites - i - 1)))
    return out


def verify_tl_local(t_local: Matrix, nu: complex, sites: int) -> TLReport:
    """Measure the TL relation residuals of a prebuilt local generator.

    The loop residual is max|T^2 - nu T| of the local T. For sites >= 3 the
    braid residual is the worst of max|T1 T2 T1 - nu T1| and
    max|T2 T1 T2 - nu T2| on three strands, taken with linalg.on_strands;
    with 2 sites it is vacuously 0. The commute residual is exactly 0 for
    every site count: generators on disjoint bonds act on different tensor
    factors. Every bond sees the same three-strand products, so the report
    is the same for any sites >= 3.
    """
    t_local = linalg.as_matrix(t_local)
    dim = linalg._require_square(t_local, "local generator")
    n = math.isqrt(dim)
    if n * n != dim:
        raise ValueError(f"local generator dimension {dim} is not a perfect square")
    if sites < 2:
        raise ValueError("need at least 2 sites")
    nu = complex(nu)
    loop = linalg.max_abs(t_local @ t_local - nu * t_local)
    braid = 0.0
    if sites >= 3:
        eye = linalg.identity(n)
        t1 = linalg.kron(t_local, eye)
        t2 = linalg.kron(eye, t_local)
        t = t_local
        t1t2t1 = linalg.on_strands(t, linalg.on_strands(t, t1, (1, 2), n), (0, 1), n)
        t2t1t2 = linalg.on_strands(t, linalg.on_strands(t, t2, (0, 1), n), (1, 2), n)
        braid = max(linalg.max_abs(t1t2t1 - nu * t1), linalg.max_abs(t2t1t2 - nu * t2))
    return TLReport(loop, braid, 0.0, nu)


def verify_tl(a: TLAnsatz, tol: float = DEFAULT_TOL) -> TLReport:
    """Build the ansatz generator and measure its TL residuals on a.sites sites.

    nu in the report is the computed weight overlap alpha (equal to n for
    the plain all-ones weights), never assumed integral. Failures are
    residuals, not errors; tol only governs the internal singularity
    threshold of matrix inversion.
    """
    local = build_local_generator(a, tol)
    return verify_tl_local(local, a.alpha, a.sites)


def check_master4(
    p: Matrix, lambdas: Sequence[complex], exponents: Sequence[int], tol: float = DEFAULT_TOL
) -> Master4Check:
    """Evaluate all n^3 factorized closure conditions

        (sum_r (lambda_j / lambda_i)^n_r)
          * (sum_{k,l} Pinv[i,k] P[l,j] lambda_u^(n_k - n_l)) = n * delta_ij.

    The inner double sum factorizes as (Pinv @ c_u)[i] * (r_u @ P)[j]
    with c_u[k] = lambda_u^n_k and r_u[l] = lambda_u^(-n_l), rows of the
    power table and of its reciprocal, which keeps the evaluation at
    O(n^3) scalars. The worst index is the first maximum in (i, j, u)
    order with u slowest.
    """
    p = linalg.as_matrix(p)
    n = linalg._require_square(p, "eigenvector matrix")
    lams = np.asarray(lambdas, dtype=np.complex128)
    if lams.shape != (n,) or len(exponents) != n:
        raise ValueError("need one eigenvalue and one exponent per matrix row")
    if not lams.all():
        raise ValueError("eigenvalues must be nonzero")
    pinv = linalg.inverse(p, tol)
    ratio_sums = master.master_polynomial_eval(exponents, lams / lams[:, None])
    c = master.power_table(lams, exponents)
    if not c.all():
        raise ValueError("an eigenvalue power underflows, so its reciprocal is not finite")
    x = c @ pinv.T
    y = (1 / c) @ p
    vals = ratio_sums * (x[:, :, None] * y[:, None, :])
    res = np.abs(vals - n * np.eye(n))
    u, i, j = np.unravel_index(int(np.argmax(res)), res.shape)
    worst = float(res[u, i, j])
    return Master4Check(worst <= tol, worst, (int(i), int(j), int(u)))


def eigenvector_condition(
    p: Matrix,
    omega: Matrix,
    tol: float = DEFAULT_TOL,
    v: Sequence[complex] | None = None,
    w: Sequence[complex] | None = None,
) -> bool:
    """Admissibility of an eigenvector matrix P against a master matrix Omega.

    Plain form: H = Omega^{-H} @ P must be a generalized Hadamard matrix,
    cross-checked against the raw product condition
    (P^-1 Omega^t)[i, u] * (Omega^{-H} P)[u, i] = 1 for all i, u.

    Weighted form (v and w both given): checks the twisted product
    (P^-1 V Omega^t)[i, u] * (Omega^{-H} W P)[u, i] = 1 only.
    """
    p = linalg.as_matrix(p)
    omega = linalg.as_matrix(omega)
    n = linalg._require_square(p, "eigenvector matrix")
    if omega.shape != p.shape:
        raise ValueError(f"shape mismatch: P {p.shape} vs Omega {omega.shape}")
    if (v is None) != (w is None):
        raise ValueError("weighted form needs both v and w")
    pinv = linalg.inverse(p, tol)
    omega_hinv = linalg.hadamard_inverse(omega)
    if v is not None:
        left = pinv @ linalg.diag(v) @ omega.T
        right = omega_hinv @ linalg.diag(w) @ p
        return linalg.max_abs(left * right.T - 1.0) <= tol
    h = omega_hinv @ p
    left = pinv @ omega.T
    raw_ok = linalg.max_abs(left * h.T - 1.0) <= tol
    return bool(hadamard.is_ghm(h, tol).is_ghm and raw_ok)


def reconstruct_m(omega: Matrix, h: Matrix, lambdas: Sequence[complex]) -> Matrix:
    """Rebuild M = Q Lambda Q^-1 from its spectral data, with Q = Omega^t @ H.

    Any generalized Hadamard H of matching size yields an M whose ansatz
    closes the TL relations when (lambdas, exponents) satisfy the master
    condition; H = I returns the plain conjugated diagonal. The spectrum
    of the result is exactly `lambdas`.
    """
    omega = linalg.as_matrix(omega)
    h = linalg.as_matrix(h)
    n = linalg._require_square(omega, "master matrix")
    if h.shape != omega.shape:
        raise ValueError(f"shape mismatch: Omega {omega.shape} vs H {h.shape}")
    lams = [complex(z) for z in lambdas]
    if len(lams) != n:
        raise ValueError(f"need {n} eigenvalues, got {len(lams)}")
    q = omega.T @ h
    return q @ linalg.diag(lams) @ linalg.inverse(q)


def weighted_hadamard_check(
    omega: Matrix,
    v: Sequence[complex],
    w: Sequence[complex],
    alpha: complex,
    tol: float = DEFAULT_TOL,
) -> Comparison:
    """Residual of the weighted Hadamard identity Omega^{-H} V W = alpha (Omega^-1)^t."""
    omega = linalg.as_matrix(omega)
    linalg._require_square(omega, "master matrix")
    lhs = linalg.hadamard_inverse(omega) @ linalg.diag(v) @ linalg.diag(w)
    rhs = complex(alpha) * linalg.inverse(omega, tol).T
    residual = linalg.max_abs(lhs - rhs)
    return Comparison(residual <= tol, residual)


def gauge_transform(local: Matrix, g: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Conjugate a local generator by g (x) g (preserves all TL residual structure)."""
    local = linalg.as_matrix(local)
    g = linalg.as_matrix(g)
    n = linalg._require_square(g, "gauge matrix")
    if local.shape != (n * n, n * n):
        raise ValueError(
            f"local generator must be {n * n}x{n * n} for a {n}x{n} gauge, got {local.shape}"
        )
    gg = linalg.kron(g, g)
    return gg @ local @ linalg.inverse(gg, tol)


# The two printed 9x9 reference generators. Entries lie in {0, 1, w, w^2}
# with w = exp(2*pi*i/3); both satisfy T^2 = 3T, and on three sites the
# full TL relations with nu = 3.

def fixture_u2() -> Matrix:
    """Plain-ansatz reference generator: M cyclic with one w entry, exponents (2,0,1)."""
    w = linalg.unit_root(1, 3)
    w2 = linalg.unit_root(2, 3)
    return linalg.as_matrix(
        [
            [1, 0, 0, 0, 0, w, 0, 1, 0],
            [0, 1, 0, w, 0, 0, 0, 0, w],
            [0, 0, 1, 0, 1, 0, 1, 0, 0],
            [0, w2, 0, 1, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 1, 0, 1, 0, 0],
            [w2, 0, 0, 0, 0, 1, 0, w2, 0],
            [0, 0, 1, 0, 1, 0, 1, 0, 0],
            [1, 0, 0, 0, 0, w, 0, 1, 0],
            [0, w2, 0, 1, 0, 0, 0, 0, 1],
        ]
    )


def fixture_u1() -> Matrix:
    """Weighted-ansatz reference generator: v = (w,1,1), w = (w^2,1,1), exponents (2,1,0)."""
    w = linalg.unit_root(1, 3)
    w2 = linalg.unit_root(2, 3)
    return linalg.as_matrix(
        [
            [1, 0, 0, 0, w, 0, 0, 0, w2],
            [0, 1, 0, 0, 0, w2, w, 0, 0],
            [0, 0, 1, 1, 0, 0, 0, 1, 0],
            [0, 0, 1, 1, 0, 0, 0, 1, 0],
            [w2, 0, 0, 0, 1, 0, 0, 0, w],
            [0, w, 0, 0, 0, 1, w2, 0, 0],
            [0, w2, 0, 0, 0, w, 1, 0, 0],
            [0, 0, 1, 1, 0, 0, 0, 1, 0],
            [w, 0, 0, 0, w2, 0, 0, 0, 1],
        ]
    )


def fixture_u2_ansatz(sites: int = 3) -> TLAnsatz:
    """The ansatz data whose build_local_generator equals fixture_u2()."""
    w = linalg.unit_root(1, 3)
    m = [[0, 1, 0], [0, 0, w], [1, 0, 0]]
    return TLAnsatz(m, (2, 0, 1), sites=sites)


def fixture_u1_ansatz(sites: int = 3) -> TLAnsatz:
    """The weighted ansatz data whose build_local_generator equals fixture_u1()."""
    w = linalg.unit_root(1, 3)
    w2 = linalg.unit_root(2, 3)
    m = [[0, 1, 0], [0, 0, w], [w2, 0, 0]]
    return TLAnsatz(m, (2, 1, 0), v=(w, 1, 1), w=(w2, 1, 1), sites=sites)
