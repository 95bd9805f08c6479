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
checks never form a matrix of size n^sites. verify_tl, which has the
ansatz data, takes the braid residual in block form from the powers
M^(n_x - n_y), in O(n^7) time and under 64 * max(n^5, 4096) bytes.
verify_tl_local, which has only a prebuilt T, forms the dense
n^3 x n^3 three-strand products; it is the reference for the block form.

This module builds and embeds the generators, measures the three
relation residuals, checks the factorized closure condition directly on
eigenvector data, reconstructs M from (Omega, H, Lambda), and carries
two printed 9x9 reference generators.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import hadamard, linalg, master
from .linalg import DEFAULT_TOL, Matrix

__all__ = [
    "TLAnsatz",
    "TLReport",
    "Master4Check",
    "WeightedHadamardCheck",
    "build_local_generator",
    "embed",
    "verify_tl",
    "verify_tl_local",
    "check_master4",
    "eigenvector_condition",
    "reconstruct_m",
    "weight_overlap",
    "weighted_hadamard_check",
    "fixture_u1",
    "fixture_u2",
    "fixture_u1_ansatz",
    "fixture_u2_ansatz",
]


class TLAnsatz:
    """Data of one local generator: matrix, exponents, weights, site count.

    v and w default to all ones (the plain ansatz, alpha = n). Exponent
    order is significant and preserved; it labels the rows/columns of the
    block structure, and the reference generators depend on it.
    """

    def __init__(self, m: Matrix, exponents, v=None, w=None, sites: int = 3) -> None:
        self.m = linalg.as_matrix(m)
        n = linalg._require_square(self.m, "ansatz matrix")
        self.exponents = tuple(int(e) for e in exponents)
        if len(self.exponents) != n:
            raise ValueError(
                f"need {n} exponents for a {n}x{n} matrix, got {len(self.exponents)}"
            )
        self.v = (1.0 + 0j,) * n if v is None else tuple(complex(z) for z in v)
        self.w = (1.0 + 0j,) * n if w is None else tuple(complex(z) for z in w)
        if len(self.v) != n or len(self.w) != n:
            raise ValueError("weight vectors must have one entry per exponent")
        self.sites = int(sites)
        if self.sites < 2:
            raise ValueError("need at least 2 sites")
        weight_overlap(self.v, self.w)

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def alpha(self) -> complex:
        return weight_overlap(self.v, self.w)

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


def _worst(*residuals: float) -> float:
    """The largest residual; NaN if any is NaN (Python's max would drop it)."""
    return float(np.max(residuals))


class TLReport(NamedTuple):
    """Worst residuals of the three relation families, plus the loop factor."""

    loop_residual: float
    braid_residual: float
    commute_residual: float
    nu: complex

    @property
    def max_residual(self) -> float:
        return _worst(self.loop_residual, self.braid_residual, self.commute_residual)

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


class WeightedHadamardCheck(NamedTuple):
    """Verdict of weighted_hadamard_check with the parts it is made of."""

    ok: bool
    max_residual: float
    ghm_residual: float
    overlap_spread: float
    tl_normalisation: float


def _matrix_power(squares: list[Matrix], k: int) -> Matrix:
    """M^k for k >= 0 by the products numpy.linalg.matrix_power makes, bit for bit.

    squares[j] = M^(2^j), given as [M], is extended in place, so the calls
    for one table share their squarings. Beyond M^2 = M M and
    M^3 = (M M) M, the result multiplies in M^(2^j) from the lowest set
    bit of k up.
    """
    if k == 0:
        return np.eye(len(squares[0]), dtype=np.complex128)
    if k == 3:
        return _matrix_power(squares, 2) @ squares[0]
    return linalg._power_by_squaring(squares, k, np.matmul)


def _difference_powers(m: Matrix, exponents: tuple[int, ...], tol: float) -> np.ndarray:
    """The (n, n, n, n) table p[x, y] = M^(n_x - n_y).

    Each distinct difference d is powered once, by _matrix_power; a
    negative d powers linalg.inverse(M, tol), so a singular M raises
    SingularMatrixError. The table is indexed through a dict keyed by
    difference: exponents are Python ints of any size, which an integer
    array could not hold.
    """
    n = len(exponents)
    diffs = [ex - ey for ex in exponents for ey in exponents]
    slot = {d: i for i, d in enumerate(dict.fromkeys(diffs))}
    squares = {False: [m]}
    if min(slot) < 0:
        squares[True] = [linalg.inverse(m, tol)]
    stack = np.array([_matrix_power(squares[d < 0], abs(d)) for d in slot])
    return stack[[slot[d] for d in diffs]].reshape(n, n, n, n)


def _assemble_generator(p: np.ndarray, v: Sequence[complex], w: Sequence[complex]) -> Matrix:
    """sum_{a,b} v_a w_b e_ab (x) M^(n_a - n_b) from the table p[a, b] = M^(n_a - n_b).

    Each v_a w_b is a Python complex product; numpy's vectorised complex
    multiply may fuse it into one rounding and differ in the last bit.
    """
    n = len(v)
    vw = np.array([[va * wb for wb in w] for va in v])
    return (vw[:, :, None, None] * p).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def build_local_generator(a: TLAnsatz, tol: float = DEFAULT_TOL) -> Matrix:
    """Assemble sum_{a,b} v_a w_b e_ab (x) M^(n_a - n_b) as an n^2 x n^2 matrix.

    Each distinct power takes the products of numpy.linalg.matrix_power,
    O(log |d|) of them; a negative difference powers linalg.inverse(M, tol),
    so a singular M raises SingularMatrixError.
    """
    return _assemble_generator(_difference_powers(a.m, a.exponents, tol), a.v, a.w)


def embed(local: Matrix, i: int, sites: int, n: int) -> Matrix:
    """I^(i-1) (x) local (x) I^(sites-i-1) with 1-based bond index i."""
    local = linalg.as_matrix(local)
    if local.shape != (n * n, n * n):
        raise ValueError(f"local generator must be {n * n}x{n * n}, got {local.shape}")
    if not 1 <= i <= sites - 1:
        raise ValueError(f"bond index {i} out of range for {sites} sites")
    # n^sites >= 2^((bits(n) - 1) * sites): a huge sites fails before its power is formed.
    limit = int(np.iinfo(np.intp).max)
    if (n.bit_length() - 1) * sites >= limit.bit_length() or n**sites > limit:
        raise ValueError(f"embedded dimension {n}**sites exceeds numpy's maximum {limit}")
    out = local
    if i > 1:
        out = linalg.kron(linalg.identity(n ** (i - 1)), out)
    if i < sites - 1:
        out = linalg.kron(out, linalg.identity(n ** (sites - i - 1)))
    return out


def verify_tl_local(t_local: Matrix, nu: complex, sites: int) -> TLReport:
    """Measure the TL relation residuals of a prebuilt local generator.

    This is the dense check, for a T of any form; verify_tl checks ansatz
    data in block form and is tested against it. The loop residual is
    max|T^2 - nu T| of the local T. For sites >= 3 the braid residual is
    the worst of max|T1 T2 T1 - nu T1| and max|T2 T1 T2 - nu T2| on three
    strands, taken with linalg.on_strands in O(n^8) time and n^6 memory
    (NaN if either is NaN); with 2 sites it is vacuously 0. The commute
    residual is exactly 0 for every site count: generators on disjoint
    bonds act on different tensor factors. Every bond sees the same
    three-strand products, so the report is the same for any sites >= 3.
    """
    t_local = linalg.as_matrix(t_local)
    n = linalg.local_dim(t_local, "local generator")
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
        braid = _worst(linalg.max_abs(t1t2t1 - nu * t1), linalg.max_abs(t2t1t2 - nu * t2))
    return TLReport(loop, braid, 0.0, nu)


#: Entries of the defect products that one step of _braid_residual makes
#: at most, unless a single outer index alone makes more: n <= 4 takes
#: every x in one step, n >= 5 one x per step.
_BATCH_ENTRIES = 4096


def _braid_residual(
    t_local: Matrix,
    p: np.ndarray,
    exponents: tuple[int, ...],
    v: np.ndarray,
    w: np.ndarray,
    alpha: complex,
) -> float:
    """max|T1 T2 T1 - alpha T1| and max|T2 T1 T2 - alpha T2| from n x n blocks.

    With P_xy = M^(n_x - n_y) = p[x, y] and r the index of the median
    exponent (so the differences n_x - n_r stay small), the two defects on
    three strands (x, y, z) are, entry for entry,

        (x, x') block of T1 T2 T1 - alpha T1 over strand 0
            = v_x w_x' (P_xr (x) I) (K - alpha I) (P_rx' (x) I),
        K   = sum_k v_k w_k (P_rk (x) I) T (P_kr (x) I);

        ((x,y,z), (x',y',z')) entry of T2 T1 T2 - alpha T2
            = v_y w_y' [P_yr D_xx' P_ry']_zz',
        D_xx' = v_x w_x' S_xx' - alpha delta_xx' I,
        S_xx' = sum_{d,c} w_d v_c (P_xx')_dc P_cd.

    Both follow from P_xy P_yz = P_xz, so they equal the dense products
    up to rounding. K and S cost O(n^6); the defects O(n^7). Each step
    takes c = max(1, _BATCH_ENTRIES // n^5) outer indices x and makes one
    product and one maximum per defect for all of them, so no array holds
    more than max(n^5, _BATCH_ENTRIES) entries.
    """
    n = len(v)
    vw = v * w
    r = sorted(range(n), key=exponents.__getitem__)[n // 2]
    # left[(x, y), i] = v_x (P_xr)_yi and right[j, (x', y')] = w_x' (P_rx')_jy'.
    left = (v[:, None, None] * p[:, r]).reshape(n * n, n)
    right = (w[:, None, None] * p[r]).transpose(1, 0, 2).reshape(n, n * n)

    # K[(y, z, z'), q] = sum_{k,b} ((P_rk (x) I) T)[(y, z), (b, z')] v_k w_k (P_kr)_bq,
    # then g[y, (z, z', q)] = (K - alpha I)[(y, z), (q, z')]. Multiplying T by
    # each power before summing over k keeps the rounding of the dense
    # products; contracting the two powers first would double it.
    tz = t_local.reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n, n**3)
    pt = (p[r].reshape(n * n, n) @ tz).reshape(n, n**3, n).transpose(1, 0, 2)
    k = pt.reshape(n**3, n * n) @ (vw[:, None, None] * p[:, r]).reshape(n * n, n)
    del pt  # n^5 entries; each defect block below takes as many again
    diag = np.arange(n)
    k.reshape(n, n, n, n)[diag[:, None], diag, diag, diag[:, None]] -= alpha  # y = q, z = z'
    g = k.reshape(n, n**3)

    # s[(x, x'), (i, j)] = S_xx'[i, j]; d[x, i, x', j] = D_xx'[i, j].
    pw = p.reshape(n * n, n * n) * (w[:, None] * v).ravel()
    s = pw @ p.transpose(1, 0, 2, 3).reshape(n * n, n * n)
    s = (v[:, None] * w).ravel()[:, None] * s
    s[:: n + 1, :: n + 1] -= alpha  # the rows x = x', the columns i = j
    d = s.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n, n, n * n)

    step = max(1, _BATCH_ENTRIES // n**5)
    worst = []
    for x in range(0, n, step):
        t1 = left[x * n : (x + step) * n] @ g
        t2 = left @ d[x : x + step]
        worst.append(np.abs(t1.reshape(-1, n) @ right).max())
        worst.append(np.abs(t2.reshape(-1, n) @ right).max())
    return _worst(*worst)


def verify_tl(a: TLAnsatz, tol: float = DEFAULT_TOL) -> TLReport:
    """Build the ansatz generator and measure its TL residuals on a.sites sites.

    The loop residual is max|T^2 - nu T| of the assembled T. The braid
    residual (sites >= 3) comes from the block forms of _braid_residual,
    built from the table of difference powers M^d that also assembles T,
    each computed once: O(n^7) time, and a peak working memory under
    64 * max(n^5, 4096) bytes, where the dense verify_tl_local takes
    O(n^8) time and n^6 entries on the same T. The two agree up to
    rounding. The commute residual is exactly 0.

    nu in the report is the computed weight overlap alpha (equal to n for
    the plain all-ones weights), never assumed integral. Failures are
    residuals, not errors; tol only governs the internal singularity
    threshold of matrix inversion.
    """
    p = _difference_powers(a.m, a.exponents, tol)
    t_local = _assemble_generator(p, a.v, a.w)
    nu = a.alpha
    loop = linalg.max_abs(t_local @ t_local - nu * t_local)
    braid = 0.0
    if a.sites >= 3:
        braid = _braid_residual(t_local, p, a.exponents, np.array(a.v), np.array(a.w), nu)
    return TLReport(loop, braid, 0.0, nu)


def check_master4(
    p: Matrix, lambdas: Sequence[complex], exponents: Sequence[int], tol: float = DEFAULT_TOL
) -> Master4Check:
    """Evaluate all n^3 factorized closure conditions

        (sum_r (lambda_j / lambda_i)^n_r)
          * (sum_{k,l} Pinv[i,k] P[l,j] lambda_u^(n_k - n_l)) = n * delta_ij.

    The inner double sum factorizes as (Pinv @ c_u)[i] * (r_u @ P)[j]
    with c_u[k] = lambda_u^n_k and r_u[l] = lambda_u^(-n_l), rows of the
    power table c and of its reciprocal, which keeps the evaluation at
    O(n^3) scalars; the ratio sums are (1/c) @ c^t. The worst index is
    the first maximum in (i, j, u) order with u slowest.
    """
    p = linalg._finite_matrix(np.asarray(p, dtype=np.complex128))
    n = linalg._require_square(p, "eigenvector matrix")
    lams = np.asarray(lambdas, dtype=np.complex128)
    if lams.shape != (n,) or len(exponents) != n:
        raise ValueError("need one eigenvalue and one exponent per matrix row")
    if not lams.all():
        raise ValueError("eigenvalues must be nonzero")
    pinv = linalg.inverse(p, tol)
    c = master._invertible_powers(lams, exponents)
    r = 1 / c
    x, y = c @ pinv.T, r @ p
    vals = (r @ c.T) * (x[:, :, None] * y[:, None, :])
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

    H = Omega^{o-1} W P must be a GHM (hadamard.ghm_residual), with
    Omega^{o-1} the entrywise reciprocal and W = diag(w), w = 1 in the
    plain form. The weighted form (v and w both given) also needs
    max|v_a w_a - 1| <= tol. A zero entry of Omega raises ValueError.
    """
    p = linalg.as_matrix(p)
    omega = linalg.as_matrix(omega)
    n = linalg._require_square(p, "eigenvector matrix")
    if omega.shape != p.shape:
        raise ValueError(f"shape mismatch: P {p.shape} vs Omega {omega.shape}")
    if (v is None) != (w is None):
        raise ValueError("weighted form needs both v and w")
    if not omega.all():
        i, j = np.argwhere(omega == 0)[0]
        raise ValueError(f"Omega has a zero entry at ({i}, {j})")
    scale, normalisation = np.ones(n), 0.0
    if v is not None:
        _require_weights(n, v, w)
        scale = np.asarray(w, dtype=np.complex128)
        normalisation = np.abs(np.asarray(v) * scale - 1).max()
    return _worst(normalisation, hadamard.ghm_residual((scale / omega) @ p)) <= tol


def reconstruct_m(omega: Matrix, h: Matrix, lambdas: Sequence[complex]) -> Matrix:
    """Rebuild M = Q Lambda Q^-1 from its spectral data, with Q = Omega^t @ H.

    Any generalized Hadamard H of matching size yields an M whose ansatz
    closes the TL relations when (lambdas, exponents) satisfy the master
    condition; H = I returns the plain conjugated diagonal. The spectrum
    of the result is exactly `lambdas`.
    """
    omega = linalg._finite_matrix(np.asarray(omega, dtype=np.complex128))
    h = linalg._finite_matrix(np.asarray(h, dtype=np.complex128))
    n = linalg._require_square(omega, "master matrix")
    if h.shape != omega.shape:
        raise ValueError(f"shape mismatch: Omega {omega.shape} vs H {h.shape}")
    lams = [complex(z) for z in lambdas]
    if len(lams) != n:
        raise ValueError(f"need {n} eigenvalues, got {len(lams)}")
    q = omega.T @ h
    return q @ linalg.diag(lams) @ linalg.inverse(q)


def weight_overlap(v: Sequence[complex], w: Sequence[complex]) -> complex:
    """alpha = sum_a v_a w_a, the loop factor of the weighted ansatz.

    Raises ValueError unless |alpha| is finite and above n * eps * sum_a
    |v_a w_a|, eps = 2^-52, the rounding bound of the sum.
    """
    alpha = sum((va * wa for va, wa in zip(v, w)), complex(0.0))
    bound = len(v) * 2.0**-52 * sum(abs(va * wa) for va, wa in zip(v, w))
    if not bound < abs(alpha) < np.inf:
        raise ValueError(f"weight overlap alpha = sum(v_a * w_a) must be nonzero and finite: "
                         f"|alpha| = {abs(alpha):.3g}, its rounding bound {bound:.3g}")
    return alpha


def _require_weights(n: int, v: Sequence[complex], w: Sequence[complex]) -> None:
    if len(v) != n or len(w) != n:
        raise ValueError(
            f"weights v and w need {n} entries each for a {n}x{n} master matrix, "
            f"got {len(v)} and {len(w)}"
        )


def weighted_hadamard_check(
    omega: Matrix, v: Sequence[complex], w: Sequence[complex], tol: float = DEFAULT_TOL
) -> WeightedHadamardCheck:
    """The weighted Hadamard identity Omega^{o-1} V W = alpha (Omega^-1)^t, in two parts.

    Omega^{o-1} is the entrywise reciprocal, alpha = weight_overlap(v, w).
    Entry (i, a) reads v_a w_a = alpha Omega[i, a] (Omega^-1)[a, i]; its
    sum over i is n v_a w_a = alpha. So for alpha != 0 the identity holds
    exactly when Omega is a GHM and v_a w_a = alpha / n for every a. The
    residual is the larger of ghm_residual = hadamard.ghm_residual(Omega)
    and overlap_spread = max|v_a w_a - alpha/n|. ok also needs the TL
    normalisation max|v_a w_a - 1| <= tol, which the identity does not
    test. An alpha zero to rounding raises ValueError: the identity then
    says only v o w = 0.
    """
    omega = linalg.as_matrix(omega)
    n = linalg._require_square(omega, "master matrix")
    _require_weights(n, v, w)
    alpha = weight_overlap(v, w)
    vw = np.asarray(v, dtype=np.complex128) * np.asarray(w)
    ghm = hadamard.ghm_residual(omega)
    spread = float(np.abs(vw - alpha / n).max())
    normalisation = float(np.abs(vw - 1).max())
    residual = _worst(ghm, spread)
    ok = _worst(residual, normalisation) <= tol
    return WeightedHadamardCheck(ok, residual, ghm, spread, normalisation)


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
