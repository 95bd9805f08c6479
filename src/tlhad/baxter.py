"""Hecke generators and Yang-Baxter checks.

A local Temperley-Lieb generator T yields a braid generator

    R_check = q * I - T / sqrt(nu),      q + 1/q = sqrt(nu),

whose Hecke defect is H = (R_check - q I)(R_check + (1/q) I) =
(T^2 - nu T) / nu: it vanishes exactly when T^2 = nu T. When T comes
from an admissible ansatz, R_check also satisfies the constant braided
Yang-Baxter equation on three strands. Baxterization turns it into a
spectral-parameter family

    R_check(u) = u * R_check - (1/u) * R_check^-1
               = (u - 1/u) * R_check + ((q - 1/q)/u) * I,

which satisfies the multiplicative-parameter Yang-Baxter equation. The
plain R-matrix is R = Pi @ R_check with Pi the site-swap operator; its
constant equation is the braid equation of Pi @ R.

Both Yang-Baxter checks run on one three-strand kernel. Write
R_check(x) = sum_a x^a O_a over a = +-1 with O = (R, -R^-1), R = R_check.
The spectral defect R12(u) R23(uw) R12(w) - R23(w) R12(uw) R23(u) is then

    sum over a, b, c = +-1 of  u^(a+b) w^(b+c) D_abc,
    D_abc = A12 B23 C12 - C23 B12 A23,   A, B, C = O_a, O_b, O_c:

the right-hand word that shares a monomial with a left-hand word is its
mirror image. This is exact for any invertible R_check, Hecke or not, and
D_+++ is the constant braid defect, so check_braid needs the stack (R,)
alone and no inverse. The kernel builds the D_abc of a stack of m
operators one strand-0 column block at a time, from seeds that are
Kronecker products with the identity, in a workspace of (m^3 + 2 m) n^5
entries and O(m n^4) more: 12 n^5 for the spectral check, 3 n^5 for
check_braid. The defect is a Laurent polynomial in seven coefficients
C_k: the words, except that D_+-+ and D_-+- share the monomial u^0 w^0
and are one coefficient, their sum, which vanishes on passing data
where neither word does. So each entry's residual at every sample is at
most sum_k max_s |m_k(u_s, w_s)| |C_k|, with m_k the monomial of C_k, and
the spectral check takes the maximum of that bound over the entries,
from one magnitude pass per block and no evaluation at any sample.

Hecke data do not need the two-operator kernel (V. F. R. Jones,
"Baxterization", Int. J. Mod. Phys. B 4, 1990). Let delta = q - 1/q,
H = (R - q I)(R + I/q) = R^2 - delta R - I, P = R - delta I (the inverse
that the Hecke relation gives) and Y = R^-1 - P. Then

    R_check(x) = Rh(x) - Y / x,   Rh(x) = a(x) R + c(x) I,   a(x) = x - 1/x,  c(x) = delta/x.

Expand the defect of Rh. Its cubic term is a(u) a(uw) a(w) D_+++, and its
terms in R12 R23, R23 R12 and I cancel between the sides. Its quadratic
term is a(u) a(w) c(uw) (R12^2 - R23^2), with R^2 = H + delta R + I. The
coefficient of R12 that results is

    delta^2 / (uw) * (a(u) a(w) + a(u)/w + a(w)/u - a(uw)) = 0,

and that of R23 is its negative. So, exactly, for any R and q,

    E(u, w) = f D_+++ + g (H12 - H23) + (the words holding Y at least once),
    f = a(u) a(uw) a(w),   g = a(u) a(w) delta / (uw).

Each side is a product of three factors, Rh(x) or -Y/x, and a word holding
Y is bounded by max|XYZ| <= ||X||_inf max|Y| ||Z||_1, where a norm of
A (x) I or I (x) A is that of A. With h_p and y_p the norms of Rh and of
Y/x at position p, the seven Y-words of a side sum to at most
(y1 (h2 + y2) + h1 y2)(h3 + y3) + h1 h2 y3, and ||Rh(x)|| <= |a(x)| ||R|| +
|c(x)|. Yb is the sum of both sides' bounds plus the rounding floor of
the kernel's sum, (4 n + 16) eps times the same product of norms for the
words of (R, -R^-1). So when max|H| <= tol, check_braid and O(n^4) more
bound every sample's residual, as the kernel would compute it, between
|f| braid - |g| max|H12 - H23| - Yb and J + Yb, with
J = |f| braid + |g| max|H12 - H23|; where that decides the verdict, the
kernel is not needed.
"""
from __future__ import annotations

import cmath
import math
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
    "SPECTRAL_ALLOWANCE",
    "flip_operator",
    "to_plain_r",
    "check_ybe",
]


class BraidData(linalg._Frozen):
    """Hecke generator R_check with its parameter q; the loop factor is (q + 1/q)^2.

    Immutable, equal only to itself, and weakly referenceable.
    """

    def __init__(self, q: complex, r_check: Matrix) -> None:
        q = complex(q)
        if q == 0:
            raise ValueError("Hecke parameter q must be nonzero")
        r_check = linalg.as_matrix(r_check)
        linalg._require_square(r_check, "braid generator")
        self._set(q=q, r_check=r_check)

    @property
    def local_dim(self) -> int:
        return linalg.local_dim(self.r_check, "braid generator")

    def to_dict(self) -> dict:
        return {"q": linalg.complex_to_json(self.q), "r_check": linalg.matrix_to_dict(self.r_check)}

    @staticmethod
    def from_dict(data: dict) -> "BraidData":
        """Read a braid document; other keys, such as the nu of older files, are ignored."""
        q, r_check = linalg.json_fields(data, "braid", "q", "r_check")
        return BraidData(linalg.json_complex(q, "q"), linalg.matrix_from_dict(r_check))


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


def braid_from_tl(t_local: Matrix, nu: complex) -> BraidData:
    """Build R_check = q I - T / sqrt(nu) from any square T.

    Its Hecke defect is H = (T^2 - nu T) / nu, so hecke_residual is
    max|T^2 - nu T| / |nu|: zero exactly when T^2 = nu T.
    """
    t_local = linalg.as_matrix(t_local)
    dim = linalg._require_square(t_local, "local generator")
    nu = complex(nu)
    q = q_from_nu(nu)
    return BraidData(q, q * linalg.identity(dim) - t_local / cmath.sqrt(nu))


def _hecke_defect(b: BraidData) -> np.ndarray:
    """H = (R_check - q I)(R_check + (1/q) I), zero where the Hecke relation holds."""
    eye = linalg.identity(b.r_check.shape[0])
    return (b.r_check - b.q * eye) @ (b.r_check + (1 / b.q) * eye)


def hecke_residual(b: BraidData) -> float:
    """Worst entry of (R_check - q I)(R_check + (1/q) I)."""
    return linalg.max_abs(_hecke_defect(b))


def _strand_difference(h: np.ndarray, n: int) -> float:
    """max |H12 - H23| of a two-site operator h, from O(n^4) entries.

    Entry (i j l, i' j' l') is h[i j, i' j'] [l = l'] - [i = i'] h[j l, j' l'].
    Where i != i' or l != l', one term is left at most, and those entries
    hold every off-diagonal entry of h; the n^4 others are
    h[i j, i j'] - h[j l, j' l].
    """
    quad = h.reshape(n, n, n, n)
    both = np.abs(np.einsum("ijik->ijk", quad)[..., None] - np.einsum("jlkl->jkl", quad))
    off = np.abs(h)
    np.fill_diagonal(off, 0.0)
    return float(max(off.max(), both.max()))


def _workspace(ops: np.ndarray) -> np.ndarray:
    """Buffer for _mirror_words on the stack ops of m operators: (m^3 + 2 m) n^5 + m n^4 entries.

    The first m^3 n^5 entries take the words, the next 2 m n^5 are
    scratch, and the last m n^4 hold the copy of ops, transposed for the
    left side's middle products, that every block reads.
    """
    m, dim = ops.shape[:2]
    n = math.isqrt(dim)
    work = np.empty((m**3 + 2 * m) * n**5 + m * n**4, dtype=np.complex128)
    b_t = work[(m**3 + 2 * m) * n**5 :].reshape(m, n, n, n, n)
    np.copyto(b_t, ops.reshape(m, n, n, n, n).transpose(0, 1, 2, 4, 3))
    return work


def _mirror_words(ops: np.ndarray, k: int, work: np.ndarray | None = None) -> np.ndarray:
    """The m^3 mirror differences D_abc = A12 B23 C12 - C23 B12 A23 on columns (k, ., .).

    ops is a stack of m = 1 or 2 two-strand operators, shape
    (m, n^2, n^2), and A, B, C = ops[a], ops[b], ops[c]. The result has
    shape (m, m, m, n^3, n^2): rows (i, j, l) of the three strands,
    columns (j', l') of strand-0 column index k. The seeds are the column
    blocks C12 = C[:, k n:(k+1) n] (x) I and A23 = e_k (x) A, so each
    middle product has inner dimension n; then one outer product per
    side. The left side's m^2 middle products go through D, which its
    outer products then fill; the right side's are made one b at a time,
    and their outer products one (b, c) at a time, each subtracted from D
    at once. Each product's slice for (a, b, c) has the same shape
    whatever m is, so D_abc does not depend on the rest of the stack. The
    result is a view of work (default: a new _workspace(ops)), whose
    2 m n^5 entries after it are scratch, free once this returns.
    """
    m, dim = ops.shape[:2]
    n = math.isqrt(dim)
    if work is None:
        work = _workspace(ops)
    size, half = m**3 * n**5, m * n**5
    diff, scratch = work[:size], work[size : size + 2 * half]
    b_t = work[size + 2 * half :].reshape(m, 1, n**3, n)
    cols = ops[:, :, k * n : (k + 1) * n]
    c_t = cols.reshape(m, n, n, n).transpose(0, 2, 1, 3).reshape(m, n, n * n)
    # Left side: B23 C12 at [b, c, j, l, l', i, j'], copied into the
    # scratch as [b, c, i, j, l, j', l'], then A12.
    lhs = (m, m) + (n,) * 5
    middle, mid = diff[: m * half], scratch[: m * half]
    np.matmul(b_t, c_t, out=middle.reshape(m, m, n**3, n * n))
    np.copyto(mid.reshape(lhs), middle.reshape(lhs).transpose(0, 1, 5, 2, 3, 6, 4))
    np.matmul(ops[:, None, None], mid.reshape(1, m, m, n * n, n**3), out=diff.reshape(m, m, m, n * n, n**3))
    # Right side: B12 A23 at [a, i, j, l, j', l'], copied as
    # [a, j, l, i, j', l'], then C23, subtracted from D as [a, i, j, l, j', l'].
    rhs = (m,) + (n,) * 5
    words, prod, mid = diff.reshape((m,) * 3 + (n,) * 5), scratch[:half], scratch[half:]
    prod3, mid3 = prod.reshape(m, n * n, n**3), mid.reshape(m, n * n, n**3)
    for b in range(m):
        np.matmul(cols[b], ops.reshape(m, n, n**3), out=prod3)
        np.copyto(mid.reshape(rhs), prod.reshape(rhs).transpose(0, 2, 3, 1, 4, 5))
        for c in range(m):
            np.matmul(ops[c], mid3, out=prod3)
            words[:, b, c] -= prod.reshape(rhs).transpose(0, 3, 1, 2, 4, 5)
    return diff.reshape(m, m, m, n**3, n * n)


def _braid_block(words: np.ndarray, work: np.ndarray) -> float:
    """max |D_+++| of one block of _mirror_words, the magnitudes written to work's scratch."""
    d = words[0, 0, 0]
    mag = work[words.size :].view(np.float64)[: d.size].reshape(d.shape)
    return np.abs(d, out=mag).max()


def check_braid(r_check: Matrix) -> float:
    """Constant braided Yang-Baxter residual on three strands.

    Returns max |R12 R23 R12 - R23 R12 R23| with R12 = R_check (x) I and
    R23 = I (x) R_check, taken one strand-0 column block at a time as the
    word D_+++ of _mirror_words. R_check need not be invertible.
    """
    r_check = linalg.as_matrix(r_check)
    n = linalg.local_dim(r_check, "braid generator")
    # A fresh C-ordered stack, as in ybe_residuals, so the products match.
    ops = np.stack((r_check,))
    work = _workspace(ops)
    return float(np.max([_braid_block(_mirror_words(ops, k, work), work) for k in range(n)]))


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
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; a sample seed must be >= 0")
    rng = np.random.default_rng(seed)
    box = rng.uniform(-1.0, 1.0, size=(count, 4))
    return [
        (cmath.exp(complex(a, bb)), cmath.exp(complex(c, d)))
        for a, bb, c, d in box
    ]


class YbeResiduals(NamedTuple):
    """Constant braid residual (as check_braid) and spectral residual (as ybe_residuals describes)."""

    braid: float
    spectral: float


#: The spectral residual's allowance over tol: Baxterized products amplify
#: rounding. `check ybe` passes a spectral residual up to SPECTRAL_ALLOWANCE * tol.
SPECTRAL_ALLOWANCE = 10
_EPS = np.finfo(np.float64).eps
#: Widens the bound of ybe_residuals past the rounding of the sums it bounds.
_SLACK = 1 + 64 * _EPS


def _hecke_bounds(
    b: BraidData, ops: np.ndarray, u: np.ndarray, w: np.ndarray, tol: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray] | None:
    """check_braid's residual and, per sample, J and the bounds J + Yb and |f| braid - |g| d - Yb.

    None unless max|H| <= tol. d = max|H12 - H23|, and ops is the
    kernel's stack (R_check, -R^-1), from which Y is taken. The two
    bounds of the module docstring are widened past rounding by _SLACK;
    a non-finite term makes the upper bound non-finite.
    """
    with np.errstate(all="ignore"):
        hecke = _hecke_defect(b)
        if not linalg.max_abs(hecke) <= tol:
            return None
        n = b.local_dim
        r, delta = b.r_check, b.q - 1 / b.q
        braid = check_braid(r)
        # -Y = R - delta I - R^-1, which has the magnitudes of Y.
        y = ops[1] + r
        y.flat[:: n * n + 1] -= delta
        mags = np.abs(np.stack((r, y, ops[1])))
        # Rows: the infinity norm, the largest entry and the 1-norm; columns: R, Y and R^-1.
        norms = np.stack(
            (mags.sum(axis=2).max(axis=1), mags.max(axis=(1, 2)), mags.sum(axis=1).max(axis=1))
        )
        # x at the three positions of each side: (u, uw, w) on the left, (w, uw, u) on the right.
        uw = u * w
        x = np.array(((u, w), (uw, uw), (w, u)))
        inv = 1 / x
        a = np.abs(x - inv)
        x, inv = np.abs(x), np.abs(inv)
        h1, h2, h3 = a * norms[:, 0, None, None] + abs(delta) * inv
        y1, y2, y3 = inv * norms[:, 1, None, None]
        yb = ((y1 * (h2 + y2) + h1 * y2) * (h3 + y3) + h1 * h2 * y3).sum(axis=0)
        # The rounding floor of the kernel's sum over the eight words of (R, -R^-1).
        scale = (x * norms[:, 0, None, None] + inv * norms[:, 2, None, None]).prod(axis=0)
        yb += (4 * n + 16) * _EPS * scale.sum(axis=0)
        f = a[0, 0] * a[1, 0] * a[2, 0] * braid
        g = a[0, 0] * a[2, 0] * abs(delta) * inv[1, 0] * _strand_difference(hecke, n)
        spectral = f + g
        return braid, spectral, (spectral + yb) * _SLACK, f / _SLACK - (g + yb) * _SLACK


def _kernel_residuals(ops: np.ndarray, u: np.ndarray, w: np.ndarray) -> YbeResiduals:
    """Both residuals from the mirror words of ops = (R_check, -R^-1), as ybe_residuals describes."""
    n = math.isqrt(ops.shape[1])
    work = _workspace(ops)
    size = n**5
    # The kernel's 4 n^5 free entries, as floats: the magnitudes of the
    # seven coefficients, then the bound of every entry.
    scratch = work[8 * size : 12 * size].view(np.float64)
    mag, bound = scratch[: 7 * size].reshape(7, size), scratch[7 * size :]
    signs = (1, -1)
    # |u^(a+b) w^(b+c)| of each word is (|u|^2)^i (|w|^2)^j, in the order of
    # _mirror_words' leading axes; word 5, D_-+-, shares u^0 w^0 with word 2, D_+-+.
    powers = [((a + bb) // 2, (bb + c) // 2) for a in signs for bb in signs for c in signs]
    del powers[5]
    braid, spectral = np.empty(n), np.empty(n)
    with np.errstate(all="ignore"):
        su, sw = np.abs(u) ** 2, np.abs(w) ** 2
        reach = np.array([(su**i * sw**j).max() for i, j in powers])[:, None] * _SLACK
        for k in range(n):
            d = _mirror_words(ops, k, work).reshape(8, size)
            d[2] += d[5]
            np.abs(d[:5], out=mag[:5])
            np.abs(d[6:], out=mag[5:])
            braid[k] = mag[0].max()
            np.add.reduce(np.multiply(mag, reach, out=mag), axis=0, out=bound)
            spectral[k] = bound.max()
    return YbeResiduals(float(braid.max()), float(spectral.max()))


def ybe_residuals(
    b: BraidData, samples: list[tuple[complex, complex]] | None = None, tol: float = DEFAULT_TOL
) -> YbeResiduals:
    """Constant braid residual and spectral Yang-Baxter residual over the samples.

    The samples default to spectral_samples(). R_check's one
    inverse is taken first, whatever the number of samples, so a singular
    R_check is refused on both routes, and a zero u, w or uw before it.

    Hecke route: when max|H| <= tol, every sample's residual lies between
    the two bounds of the module docstring, taken from check_braid and
    O(n^4) work (_hecke_bounds). If each sample's upper bound is within
    SPECTRAL_ALLOWANCE * tol or some sample's lower bound exceeds it,
    the bounds decide `check ybe`'s spectral verdict, and the
    spectral residual is max_s J_s = |f| braid + |g| max|H12 - H23|: the
    residual of R_check(x) built with the Hecke inverse P, not R^-1.

    Kernel route, for any other input and whenever a bound is not finite
    or undecided: E at sample (u, w) is sum u^(a+b) w^(b+c) D_abc over the
    eight mirror differences of the module docstring, built one strand-0
    column block at a time in a workspace of 12 n^5 entries: the block's
    D_abc and 4 n^5 of scratch. Every word is linear in its seed's
    columns, so the blockwise maxima are exact. The block's D_-+- is
    added to D_+-+ in place, and one magnitude pass gives max |D_+++| and
    the bound sum_k reach_k |C_k| of every entry over the seven
    coefficients, with reach_k the largest |m_k| of the samples, widened
    past rounding. The spectral residual is the largest bound, which is
    at least the residual at every sample. A NaN or an overflow in any
    word or monomial makes it non-finite.

    Without samples the spectral residual is 0.0.

    On both routes the braid residual is check_braid's to the bit: the
    kernel makes D_+++ by the same products.
    """
    if samples is None:
        samples = spectral_samples()
    params = np.array(samples, dtype=np.complex128).reshape(-1, 2)
    u, w = params[:, 0], params[:, 1]
    if np.any((u == 0) | (w == 0) | (u * w == 0)):
        raise ValueError("spectral parameters must be nonzero")
    ops = np.stack((b.r_check, -linalg.inverse(b.r_check, tol)))
    if not len(u):
        # Without a sample there is no spectral residual, not even a NaN word's.
        return YbeResiduals(check_braid(b.r_check), 0.0)
    bounds = _hecke_bounds(b, ops, u, w, tol)
    if bounds is not None:
        spectral_tol = SPECTRAL_ALLOWANCE * tol
        braid, spectral, upper, lower = bounds
        top = upper.max()
        # A finite upper bound means every term, and so the lower bound, is finite.
        if math.isfinite(top) and (top <= spectral_tol or lower.max() > spectral_tol):
            return YbeResiduals(braid, float(spectral.max()))
    return _kernel_residuals(ops, u, w)


def check_spectral_ybe(
    b: BraidData, samples: list[tuple[complex, complex]] | None = None, tol: float = DEFAULT_TOL
) -> float:
    """Spectral residual of the multiplicative Yang-Baxter equation

        R12(u) R23(u*w) R12(w) = R23(w) R12(u*w) R23(u)

    over the given samples (default: spectral_samples()),
    as ybe_residuals gives it from one inverse. Where the braid and
    Hecke defects decide the verdict, it is the largest J of the
    samples; otherwise it is the mirror words' coefficient bound, which
    is at least the residual at every sample.
    """
    return ybe_residuals(b, samples, tol).spectral


def flip_operator(n: int) -> Matrix:
    """Swap operator Pi on two n-dimensional sites: Pi (x (x) y) = y (x) x."""
    if n < 1:
        raise ValueError("site dimension must be positive")
    # Row i * n + j has its one at column j * n + i.
    return linalg.identity(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


def to_plain_r(b: BraidData) -> Matrix:
    """Plain R-matrix R = Pi @ R_check."""
    return flip_operator(b.local_dim) @ b.r_check


def check_ybe(r: Matrix) -> float:
    """Constant Yang-Baxter residual of the plain R-matrix r.

    R12 R13 R23 = R23 R13 R12 holds exactly when R_check = Pi @ r
    satisfies the braid equation, and the two defects differ by a
    permutation of entries, so this is check_braid(Pi @ r).
    """
    r = linalg.as_matrix(r)
    return check_braid(flip_operator(linalg.local_dim(r, "R-matrix")) @ r)
