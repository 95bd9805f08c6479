"""Master polynomials, master matrices, and their constructions.

A master spec is a pair of n pairwise-distinct nonzero eigenvalues
lambda_i and n pairwise-distinct nonnegative integer exponents n_a. Its
master matrix is Omega[i, j] = lambda_i ** n_j, and the pair satisfies
the master condition when

    sum_a (lambda_i / lambda_j) ** n_a = n * delta_ij,

equivalently: every ratio lambda_i / lambda_j (i != j) is a root of the
master polynomial p(z) = sum_a z^n_a; the sum is entry (i, j) of
Omega (Omega^{o-1})^t, so it is Omega's generalized Hadamard identity.
Such spectral data are exactly those for which the rank-n ansatz in
tlrep closes the Temperley-Lieb relations.

Provided constructions: Fourier identification, the size-4 and size-6
parametric families, and iterated ("nested") Fourier products. The
module also carries two obstruction tools for the converse question of
which Hadamard matrices are master matrices: a root-counting pigeonhole
argument and a bounded search by pruned backtracking, plus the two
printed 6x6 matrices that defeat both. Both tools read the matrix through
hadamard.root_phases as exact integer phases, never as floats: the
pigeonhole argument counts distinct phase rows, and the search works in
Z_q, q the lcm of the entry orders, where a gcd-1 exponent tuple leaves
each row exactly one eigenvalue phase, so a leaf is decided by integer
distinctness alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import hadamard, linalg
from .linalg import DEFAULT_TOL, Matrix

__all__ = [
    "MasterSpec",
    "NestingStage",
    "NestingSpec",
    "MasterConditionCheck",
    "PigeonholeObstruction",
    "power_table",
    "master_matrix",
    "master_polynomial_eval",
    "check_master_condition",
    "fourier_master",
    "f4_master",
    "f6_master",
    "nest",
    "pigeonhole_obstruction",
    "search_master_representation",
    "h0",
    "h1",
]

#: Relative scale below which two eigenvalues count as degenerate.
_DEGENERACY_TOL = 1e-12

#: Largest root order probed by the pigeonhole obstruction.
PIGEONHOLE_ORDER_LIMIT = 48


class MasterSpec(linalg._Value):
    """Eigenvalues and exponents of a candidate master matrix.

    Construction rejects degenerate data: zero or (numerically) repeated
    eigenvalues, and negative or repeated exponents. Ordering of both
    sequences is significant and preserved.
    """

    __slots__ = ("lambdas", "exponents")

    def __init__(self, lambdas, exponents) -> None:
        lambdas = linalg.json_list(lambdas, "eigenvalue", linalg.finite_complex)
        exponents = linalg.json_list(exponents, "exponent", linalg.json_int)
        n = len(lambdas)
        if n == 0 or len(exponents) != n:
            raise ValueError(
                f"need equally many eigenvalues and exponents, got {n} and {len(exponents)}"
            )
        if any(z == 0 for z in lambdas):
            raise ValueError("eigenvalues must be nonzero")
        if any(e < 0 for e in exponents):
            raise ValueError(f"exponents must be nonnegative, got {exponents}")
        if len(set(exponents)) != n:
            raise ValueError(f"exponents must be pairwise distinct, got {exponents}")
        for i in range(n):
            for j in range(i + 1, n):
                scale = max(1.0, abs(lambdas[i]), abs(lambdas[j]))
                if abs(lambdas[i] - lambdas[j]) <= _DEGENERACY_TOL * scale:
                    raise ValueError(
                        f"eigenvalues {i} and {j} are degenerate: "
                        f"{lambdas[i]} vs {lambdas[j]}"
                    )
        self._set(lambdas=lambdas, exponents=exponents)

    @property
    def size(self) -> int:
        return len(self.lambdas)

    def to_dict(self) -> dict:
        return {
            "lambdas": linalg.complex_to_json(self.lambdas),
            "exponents": list(self.exponents),
        }

    @staticmethod
    def from_dict(data: dict) -> "MasterSpec":
        lambdas, exponents = linalg.json_fields(data, "master spec", "lambdas", "exponents")
        return MasterSpec(linalg.json_list(lambdas, "eigenvalue", linalg.json_complex), exponents)


class NestingStage(linalg._Value):
    """One factor of an iterated Fourier construction.

    g and f may be any integer sequences; empty ones mean all zeros.
    """

    __slots__ = ("p", "k", "g", "f")

    def __init__(self, p, k=1, g=(), f=()) -> None:
        p, k = linalg.json_int(p, "p"), linalg.json_int(k, "k")
        g = linalg.json_list(g, "g", linalg.json_int) or (0,) * p
        f = linalg.json_list(f, "f", linalg.json_int) or (0,) * p
        if p < 2:
            raise ValueError("stage size p must be at least 2")
        if k < 1:
            raise ValueError("stage multiplier k must be positive")
        if len(g) != p or len(f) != p:
            raise ValueError(f"g and f must each have length p={p}")
        if any(x < 0 for x in g) or any(x < 0 for x in f):
            raise ValueError("g and f entries must be nonnegative")
        self._set(p=p, k=k, g=g, f=f)


class NestingSpec(linalg._Value):
    """Stages of an iterated Fourier construction, outermost first."""

    __slots__ = ("stages",)

    def __init__(self, stages) -> None:
        stages = tuple(stages)
        if not stages:
            raise ValueError("need at least one nesting stage")
        if not all(isinstance(s, NestingStage) for s in stages):
            raise ValueError("stages must be NestingStage records")
        self._set(stages=stages)

    def to_dict(self) -> dict:
        return {
            "stages": [
                {"p": s.p, "k": s.k, "g": list(s.g), "f": list(s.f)} for s in self.stages
            ]
        }

    @staticmethod
    def from_dict(data: dict) -> "NestingSpec":
        (records,) = linalg.json_fields(data, "nesting", "stages")
        return NestingSpec(linalg.json_list(records, "stage", _stage_from_dict))


def _stage_from_dict(data: dict, what: str) -> NestingStage:
    (p,) = linalg.json_fields(data, what, "p")
    try:
        return NestingStage(p, data.get("k", 1), data.get("g", ()), data.get("f", ()))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


class MasterConditionCheck(NamedTuple):
    """Verdict plus the full n x n residual of the eigenvalue-ratio condition."""

    ok: bool
    max_residual: float
    residuals: Matrix


class PigeonholeObstruction(NamedTuple):
    """Proof that a matrix is not a master matrix with gcd-1 exponents.

    All entries are root_order-th roots of unity, yet the matrix has
    distinct_rows > root_order pairwise-distinct rows; a master matrix
    with coprime exponents has one row per eigenvalue, and each row is
    determined by an eigenvalue that must itself be one of those roots.
    """

    root_order: int
    distinct_rows: int


def power_table(base, exponents) -> np.ndarray:
    """table[..., a] = base[...] ** n_a for every integer exponent n_a, in complex128.

    Every nonzero power is made by repeated squaring on the Python int
    (linalg._power_by_squaring), the squares shared by all exponents, so a
    power of -1 or 1j is exact at any exponent, and a negative exponent
    gives the reciprocal. Raises ValueError when a power is not finite, so
    an overflow never reaches a residual as inf or nan.
    """
    # A trailing axis, as numpy rounds 0-d complex products unlike array ones.
    base = np.asarray(base, dtype=np.complex128)[..., None]
    exponents = linalg.json_list(exponents, "exponent", linalg.json_int)
    table = np.ones(base.shape[:-1] + (len(exponents),), dtype=np.complex128)
    squares = [base]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, e in enumerate(exponents):
            if e:
                power = linalg._power_by_squaring(squares, abs(e), np.multiply)
                table[..., a : a + 1] = power if e > 0 else 1 / power
    if not np.isfinite(table).all():
        raise ValueError("an eigenvalue power overflows the floating-point range")
    return table


def _invertible_powers(lambdas, exponents) -> np.ndarray:
    """power_table(lambdas, exponents), refused when a power is 0: its reciprocal is not finite."""
    table = power_table(lambdas, exponents)
    if not table.all():
        raise ValueError("an eigenvalue power overflows or underflows the floating-point range")
    return table


def master_matrix(spec: MasterSpec) -> Matrix:
    """Omega[i, j] = lambda_i ** n_j."""
    return power_table(spec.lambdas, spec.exponents)


def master_polynomial_eval(exponents, z):
    """p(z) = sum_a z^n_a over the given exponents, for a scalar or an array z."""
    p = power_table(z, exponents).sum(axis=-1)
    return complex(p) if p.ndim == 0 else p


def check_master_condition(spec: MasterSpec, tol: float = DEFAULT_TOL) -> MasterConditionCheck:
    """Residuals of sum_a (lambda_i/lambda_j)^n_a = n * delta_ij, Omega's GHM identity.

    Only ratios enter, so Omega is taken at lambda / |lambda_0|; a power
    that overflows or underflows raises ValueError.
    """
    omega = _invertible_powers(np.asarray(spec.lambdas) / abs(spec.lambdas[0]), spec.exponents)
    residuals = np.abs(hadamard._hadamard_defect(omega))
    worst = float(residuals.max())
    return MasterConditionCheck(worst <= tol, worst, residuals)


def fourier_master(n: int, ell: int = 1) -> MasterSpec:
    """Fourier identification: lambda_a = w^(ell*(a-1)), n_b = b-1.

    master_matrix of the result agrees with fourier(n, ell) to rounding, not
    to the bit: by at most 3.0e-14 over n <= 27 and every coprime ell.
    """
    n, ell = linalg.json_int(n, "n"), linalg.json_int(ell, "ell")
    if n < 1:
        raise ValueError("size must be a positive integer")
    if math.gcd(ell, n) != 1:
        raise ValueError(f"twist {ell} must be coprime to the size {n}")
    lambdas = tuple(linalg.unit_root(ell * a, n) for a in range(n))
    return MasterSpec(lambdas, tuple(range(n)))


def f4_master(k: int, m: int) -> MasterSpec:
    """Size-4 master spec with p(z) = (1 + z)(1 + z^2k).

    Eigenvalues (1, -1, a, -a) with a = unit_root(m, 4k); m must be odd
    so that a^2k = -1 and the ratio condition closes. master_matrix equals
    f4_family(a) row-for-row.
    """
    k, m = linalg.json_int(k, "k"), linalg.json_int(m, "m")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    a = linalg.unit_root(m, 4 * k)
    return MasterSpec((1.0, -1.0, a, -a), (0, 1, 2 * k, 2 * k + 1))


def f6_master(k: int, r: int, s: int) -> MasterSpec:
    """Size-6 master spec with p(z) = (1 + z^(3r+1) + z^(3s+2))(1 + z^3k).

    Requires 0 < r < k and 0 < s < k. Eigenvalue order follows the
    printed list (1, mu, w2, w2*mu, w4, w4*mu) with mu = unit_root(1, 6k)
    and w = unit_root(1, 6); f6_family(a, b) with a = mu^(3r+1),
    b = mu^(3s+2) is the same matrix with rows re-ordered (0,2,4,1,3,5).
    """
    k, r, s = linalg.json_int(k, "k"), linalg.json_int(r, "r"), linalg.json_int(s, "s")
    if not (0 < r < k and 0 < s < k):
        raise ValueError(f"need 0 < r, s < k, got k={k}, r={r}, s={s}")
    mu = linalg.unit_root(1, 6 * k)
    w2 = linalg.unit_root(1, 3)
    w4 = linalg.unit_root(2, 3)
    lambdas = (1.0 + 0j, mu, w2, w2 * mu, w4, w4 * mu)
    exponents = (0, 3 * r + 1, 3 * s + 2, 3 * k, 3 * k + 3 * r + 1, 3 * k + 3 * s + 2)
    return MasterSpec(lambdas, exponents)


def nest(spec: NestingSpec) -> MasterSpec:
    """Iterated Fourier product: one master spec per stage, multiplied out.

    Stage j (0-based, outermost first) carries weight eta_j with
    eta_0 = 1 and eta_{j+1} = k_j * p_j * eta_j, per-index exponents
    eta_j * (g_j[i] * p_j + i) and eigenvalue factors
    exp(2*pi*i * (f_j[i] * p_j + i) / (eta_j * p_j)). The flattened spec
    has size prod p_j, with the first stage's index slowest. Every stage
    order eta_j * p_j divides eta = prod k_j * p_j, so an eigenvalue's
    phase is summed over its factors as an integer over eta, as its
    exponent is, and becomes one unit_root.
    """
    eta = math.prod(stage.k * stage.p for stage in spec.stages)
    exp_parts = []
    phase_parts = []
    eta_j = 1
    for stage in spec.stages:
        scale = eta // (eta_j * stage.p)
        exp_parts.append([eta_j * (stage.g[i] * stage.p + i) for i in range(stage.p)])
        phase_parts.append([scale * (stage.f[i] * stage.p + i) for i in range(stage.p)])
        eta_j *= stage.k * stage.p
    exponents = tuple(map(sum, itertools.product(*exp_parts)))
    lambdas = tuple(linalg.unit_root(sum(phases), eta) for phases in itertools.product(*phase_parts))
    return MasterSpec(lambdas, exponents)


def pigeonhole_obstruction(
    u: Matrix, tol: float = DEFAULT_TOL, max_order: int = PIGEONHOLE_ORDER_LIMIT
) -> PigeonholeObstruction | None:
    """Root-counting obstruction to being a master matrix.

    When every entry of u is an m-th root of unity (m minimal, m <=
    max_order) and u has more than m distinct rows, no master spec with
    gcd-1 exponents can produce u: each row forces its eigenvalue to be
    an m-th root of unity too, and there are only m of those. Rows are
    compared as their exact phases from hadamard.root_phases. Returns
    None when some entry is not a root of unity of order <= max_order,
    or when the row count fits.
    """
    u = linalg._finite_matrix(u)
    linalg._require_square(u, "obstruction input")
    phases = hadamard.root_phases(u, linalg.json_int(max_order, "max_order"), tol)
    if phases is None:
        return None
    order = math.lcm(*(r for row in phases for _, r in row))
    rows = len(set(phases))
    if order <= max_order and rows > order:
        return PigeonholeObstruction(order, rows)
    return None


def search_master_representation(
    u: Matrix, exponent_bound: int, root_order_bound: int, tol: float = DEFAULT_TOL
) -> MasterSpec | None:
    """Bounded master-matrix factorization of u by pruned backtracking.

    Dephases u first when needed (the returned spec then reproduces the
    dephased form). Searches exponent tuples (0, e_2, ..., e_n) with
    distinct entries from 1..exponent_bound and overall gcd 1, in
    lexicographic order, for eigenvalues among roots of unity of order
    <= root_order_bound. Every entry is read as an exact phase in Z_q by
    hadamard.root_phases, q the lcm of the entry orders; with gcd-1
    exponents, Bezout (sum c_j e_j = 1) makes each eigenvalue a product of
    powers of its row's entries, hence a q-th root of unity. The tuple is
    built one exponent column at a time. A row's eigenvalue phases that
    satisfy v * e_j = target (mod q) for the columns so far form one
    residue class v = a (mod m), m | q; each column narrows it, and a
    prefix that leaves some row with no solution is cut with all its
    extensions. At a gcd-1 leaf every class is a single residue mod q, so
    the leaf is a master form exactly when the n residues are distinct
    and of order <= root_order_bound. No float check is made, and no
    table sized by q or by a bound is built: the work is a few integer
    operations per row at each node visited.
    Each eigenvalue is linalg.unit_root of its reduced phase. Returns the
    first such spec, else None. A None result is conclusive only within
    the stated bounds.
    """
    exponent_bound = linalg.json_int(exponent_bound, "exponent_bound")
    root_order_bound = linalg.json_int(root_order_bound, "root_order_bound")
    if exponent_bound <= 0 or root_order_bound <= 0:
        raise ValueError("search bounds must be positive")
    u = linalg._finite_matrix(u)
    n = linalg._require_square(u, "search input")
    ones = np.ones(n, dtype=np.complex128)
    if (
        linalg.max_abs(u[0, :] - ones) > tol
        or linalg.max_abs(u[:, 0] - ones) > tol
    ):
        u, _ = hadamard.dephase(u)
    if n == 1:
        return MasterSpec((1.0 + 0j,), (0,))

    # Exact phase arithmetic: entry (i, j) = exp(2*pi*i * target[i][j] / q).
    phases = hadamard.root_phases(u, root_order_bound, tol)
    if phases is None:
        return None
    q = math.lcm(*(r for row in phases for _, r in row))
    target = [[t * (q // r) for t, r in row] for row in phases]

    @functools.cache
    def column(j: int, e: int) -> list[tuple[int, int] | None]:
        # Row i's solutions of v * e = target[i][j] (mod q): the class
        # v = b (mod q/g), g = gcd(e, q), or None when g does not divide it.
        g = math.gcd(e, q)
        unit = pow(e // g, -1, q // g)
        return [None if row[j] % g else (row[j] // g * unit % (q // g), q // g) for row in target]

    def leaf(tup: tuple[int, ...], classes: list[tuple[int, int]]) -> MasterSpec | None:
        # gcd 1 makes every class a single residue mod q (Bezout).
        if math.gcd(*tup) != 1:
            return None
        turns = [Fraction(v, q) for v, _ in classes]
        if len(set(turns)) != n or max(f.denominator for f in turns) > root_order_bound:
            return None
        lambdas = tuple(linalg.unit_root(f.numerator, f.denominator) for f in turns)
        return MasterSpec(lambdas, (0,) + tup)

    def extend(tup: tuple[int, ...], classes: list[tuple[int, int]]) -> MasterSpec | None:
        # Exponents are tried in increasing order, so leaves are visited in
        # lexicographic order and the first match is the least tuple.
        if len(tup) == n - 1:
            return leaf(tup, classes)
        j = len(tup) + 1
        for e in range(1, exponent_bound + 1):
            if e in tup:
                continue
            narrowed = [_meet(x, y) for x, y in zip(classes, column(j, e % q))]
            if None not in narrowed:
                spec = extend(tup + (e,), narrowed)
                if spec is not None:
                    return spec
        return None

    return extend((), [(0, 1)] * n)


def _meet(x: tuple[int, int], y: tuple[int, int] | None) -> tuple[int, int] | None:
    """Residue class where v = a (mod m) and v = b (mod k) meet, x = (a, m), y = (b, k).

    Returns (c, lcm(m, k)) with c the common solution, or None when the
    classes are disjoint or y is None (no solution).
    """
    if y is None:
        return None
    (a, m), (b, k) = x, y
    g = math.gcd(m, k)
    if (b - a) % g:
        return None
    k //= g
    return (a + m * ((b - a) // g * pow(m // g, -1, k) % k)) % (m * k), m * k


def h0() -> Matrix:
    """First printed 6x6 Hadamard matrix admitting no master factorization.

    Entries are cube roots of unity but the matrix has six distinct rows,
    so pigeonhole_obstruction rejects it directly.
    """
    j = linalg.unit_root(1, 3)
    j2 = linalg.unit_root(2, 3)
    return linalg.as_matrix(
        [
            [1, 1, 1, 1, 1, 1],
            [1, 1, j, j, j2, j2],
            [1, j, 1, j2, j2, j],
            [1, j, j2, 1, j, j2],
            [1, j2, j2, j, 1, j],
            [1, j2, j, j2, j, 1],
        ]
    )


def h1(a: complex) -> Matrix:
    """Second printed 6x6 family admitting no master factorization.

    Hadamard for unimodular a; conjugate-parameter entries are rendered
    with conj(a), not 1/a, so the family is not a thickening.
    """
    a = linalg.finite_complex(a, "a")
    if a == 0:
        raise ValueError("family parameter must be nonzero")
    ac = a.conjugate()
    i = 1j
    return linalg.as_matrix(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, i, -i, -i, i],
            [1, i, -1, a, -a, -i],
            [1, -i, -ac, -1, i, ac],
            [1, -i, ac, i, -1, -ac],
            [1, i, -i, -a, a, -1],
        ]
    )
