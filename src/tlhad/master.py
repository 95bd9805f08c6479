"""Master polynomials, master matrices, and their constructions.

A master spec is a pair of n pairwise-distinct nonzero eigenvalues
lambda_i and n pairwise-distinct nonnegative integer exponents n_a. Its
master matrix is Omega[i, j] = lambda_i ** n_j, and the pair satisfies
the master condition when

    sum_a (lambda_i / lambda_j) ** n_a = n * delta_ij,

equivalently: every ratio lambda_i / lambda_j (i != j) is a root of the
master polynomial p(z) = sum_a z^n_a. Matrices of this shape with the
condition are exactly the spectral data for which the rank-n ansatz in
tlrep closes the Temperley-Lieb relations, and they are always
generalized Hadamard matrices.

Provided constructions: Fourier identification, the size-4 and size-6
parametric families, and iterated ("nested") Fourier products. The
module also carries two obstruction tools for the converse question of
which Hadamard matrices are master matrices: a root-counting pigeonhole
argument and a bounded brute-force search, plus the two printed 6x6
matrices that defeat both.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MasterSpec:
    """Eigenvalues and exponents of a candidate master matrix.

    Construction rejects degenerate data: zero or (numerically) repeated
    eigenvalues, and negative or repeated exponents. Ordering of both
    sequences is significant and preserved; normalized() returns the
    shift-to-zero, sorted-ascending form.
    """

    lambdas: tuple[complex, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        lambdas = tuple(complex(z) for z in self.lambdas)
        exponents = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "exponents", exponents)
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

    @property
    def size(self) -> int:
        return len(self.lambdas)

    def normalized(self) -> "MasterSpec":
        """Shift exponents so the smallest is 0, then sort both sequences by exponent."""
        base = min(self.exponents)
        order = sorted(range(self.size), key=lambda i: self.exponents[i])
        return MasterSpec(
            tuple(self.lambdas[i] for i in order),
            tuple(self.exponents[i] - base for i in order),
        )

    def to_dict(self) -> dict:
        return {
            "lambdas": linalg.complex_to_json(self.lambdas),
            "exponents": list(self.exponents),
        }

    @staticmethod
    def from_dict(data: dict) -> "MasterSpec":
        lambdas, exponents = linalg.json_fields(data, "master spec", "lambdas", "exponents")
        return MasterSpec(
            tuple(linalg.json_list(lambdas, "eigenvalue", linalg.json_complex)),
            tuple(linalg.json_list(exponents, "exponent", linalg.json_int)),
        )


@dataclass(frozen=True)
class NestingStage:
    """One factor of an iterated Fourier construction."""

    p: int
    k: int = 1
    g: tuple[int, ...] = ()
    f: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "k", int(self.k))
        g = tuple(int(x) for x in self.g) if self.g else (0,) * self.p
        f = tuple(int(x) for x in self.f) if self.f else (0,) * self.p
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        if self.p < 2:
            raise ValueError("stage size p must be at least 2")
        if self.k < 1:
            raise ValueError("stage multiplier k must be positive")
        if len(g) != self.p or len(f) != self.p:
            raise ValueError(f"g and f must each have length p={self.p}")
        if any(x < 0 for x in g) or any(x < 0 for x in f):
            raise ValueError("g and f entries must be nonnegative")


@dataclass(frozen=True)
class NestingSpec:
    """Stages of an iterated Fourier construction, outermost first."""

    stages: tuple[NestingStage, ...]

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("need at least one nesting stage")
        if not all(isinstance(s, NestingStage) for s in stages):
            raise ValueError("stages must be NestingStage records")

    def to_dict(self) -> dict:
        return {
            "stages": [
                {"p": s.p, "k": s.k, "g": list(s.g), "f": list(s.f)} for s in self.stages
            ]
        }

    @staticmethod
    def from_dict(data: dict) -> "NestingSpec":
        (records,) = linalg.json_fields(data, "nesting", "stages")
        return NestingSpec(tuple(linalg.json_list(records, "stage", _stage_from_dict)))


def _stage_from_dict(data: dict, what: str) -> NestingStage:
    (p,) = linalg.json_fields(data, what, "p")
    return NestingStage(
        p=linalg.json_int(p, f"{what} p"),
        k=linalg.json_int(data.get("k", 1), f"{what} k"),
        g=tuple(linalg.json_list(data.get("g", ()), f"{what} g", linalg.json_int)),
        f=tuple(linalg.json_list(data.get("f", ()), f"{what} f", linalg.json_int)),
    )


class MasterConditionCheck(NamedTuple):
    """Verdict plus the full n x n residual of the eigenvalue-ratio condition."""

    ok: bool
    max_residual: float
    residuals: Matrix


@dataclass(frozen=True)
class PigeonholeObstruction:
    """Proof that a matrix is not a master matrix with gcd-1 exponents.

    All entries are root_order-th roots of unity, yet the matrix has
    distinct_rows > root_order pairwise-distinct rows; a master matrix
    with coprime exponents has one row per eigenvalue, and each row is
    determined by an eigenvalue that must itself be one of those roots.
    """

    root_order: int
    distinct_rows: int


def power_table(base, exponents) -> np.ndarray:
    """table[..., a] = base[...] ** n_a for every exponent n_a, in complex128.

    Raises ValueError when a power is not finite, so an overflow never
    reaches a residual as inf or nan.
    """
    try:
        exps = np.asarray(exponents, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError("exponent beyond the floating-point range") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.asarray(base, dtype=np.complex128)[..., None] ** exps
    if not np.isfinite(table).all():
        raise ValueError("an eigenvalue power overflows the floating-point range")
    return table


def master_matrix(spec: MasterSpec) -> Matrix:
    """Omega[i, j] = lambda_i ** n_j."""
    return power_table(spec.lambdas, spec.exponents)


def master_polynomial_eval(exponents, z):
    """p(z) = sum_a z^n_a over the given exponents, for a scalar or an array z."""
    p = power_table(z, exponents).sum(axis=-1)
    return complex(p) if p.ndim == 0 else p


def check_master_condition(spec: MasterSpec, tol: float = DEFAULT_TOL) -> MasterConditionCheck:
    """Residuals of sum_a (lambda_i/lambda_j)^n_a = n * delta_ij."""
    lams = np.asarray(spec.lambdas)
    sums = master_polynomial_eval(spec.exponents, lams[:, None] / lams)
    residuals = np.abs(sums - spec.size * np.eye(spec.size))
    worst = float(residuals.max())
    return MasterConditionCheck(worst <= tol, worst, residuals)


def fourier_master(n: int, ell: int = 1) -> MasterSpec:
    """Fourier identification: lambda_a = w^(ell*(a-1)), n_b = b-1.

    master_matrix of the result equals fourier(n, ell) exactly.
    """
    if n < 1:
        raise ValueError("size must be a positive integer")
    if math.gcd(ell, n) != 1:
        raise ValueError(f"twist {ell} must be coprime to the size {n}")
    lambdas = tuple(linalg.unit_root(ell * a, n) for a in range(n))
    return MasterSpec(lambdas, tuple(range(n)))


def f4_master(k: int, m: int) -> MasterSpec:
    """Size-4 master spec with p(z) = (1 + z)(1 + z^2k).

    Eigenvalues (1, -1, a, -a) with a = exp(i*pi*m / (2k)); m must be odd
    so that a^2k = -1 and the ratio condition closes. master_matrix equals
    f4_family(a) row-for-row.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    a = cmath.exp(1j * cmath.pi * m / (2 * k))
    return MasterSpec((1.0, -1.0, a, -a), (0, 1, 2 * k, 2 * k + 1))


def f6_master(k: int, r: int, s: int) -> MasterSpec:
    """Size-6 master spec with p(z) = (1 + z^(3r+1) + z^(3s+2))(1 + z^3k).

    Requires 0 < r < k and 0 < s < k. Eigenvalue order follows the
    printed list (1, mu, w2, w2*mu, w4, w4*mu) with mu = exp(i*pi/(3k))
    and w = unit_root(1, 6); f6_family(a, b) with a = mu^(3r+1),
    b = mu^(3s+2) is the same matrix with rows re-ordered (0,2,4,1,3,5).
    """
    if not (0 < r < k and 0 < s < k):
        raise ValueError(f"need 0 < r, s < k, got k={k}, r={r}, s={s}")
    mu = cmath.exp(1j * cmath.pi / (3 * k))
    w2 = linalg.unit_root(1, 3)
    w4 = linalg.unit_root(2, 3)
    lambdas = (1.0 + 0j, mu, w2, w2 * mu, w4, w4 * mu)
    exponents = (0, 3 * r + 1, 3 * s + 2, 3 * k, 3 * k + 3 * r + 1, 3 * k + 3 * s + 2)
    return MasterSpec(lambdas, exponents)


def nest(spec: NestingSpec) -> MasterSpec:
    """Iterated Fourier product: one master spec per stage, multiplied out.

    Stage j (0-based, outermost first) carries weight eta_j with
    eta_0 = 1 and eta_{j+1} = k_j * p_j * eta_j, a root
    w_j = exp(2*pi*i / (eta_j * p_j)), per-index exponents
    eta_j * (g_j[i] * p_j + i) and eigenvalue factors
    w_j ** (f_j[i] * p_j + i). The flattened spec has size prod p_j,
    with the first stage's index slowest.
    """
    etas = []
    eta = 1
    for stage in spec.stages:
        etas.append(eta)
        eta *= stage.k * stage.p
    exp_parts = []
    lam_parts = []
    for stage, eta_j in zip(spec.stages, etas):
        order = eta_j * stage.p
        exp_parts.append([eta_j * (stage.g[i] * stage.p + i) for i in range(stage.p)])
        lam_parts.append(
            [linalg.unit_root(stage.f[i] * stage.p + i, order) for i in range(stage.p)]
        )
    exponents = []
    lambdas = []
    for combo in itertools.product(*(range(s.p) for s in spec.stages)):
        exponents.append(sum(part[i] for part, i in zip(exp_parts, combo)))
        lam = complex(1.0)
        for part, i in zip(lam_parts, combo):
            lam *= part[i]
        lambdas.append(lam)
    return MasterSpec(tuple(lambdas), tuple(exponents))


def _distinct_row_count(u: Matrix, tol: float) -> int:
    reps: list[np.ndarray] = []
    for row in u:
        if not any(linalg.max_abs(row - rep) <= tol for rep in reps):
            reps.append(row)
    return len(reps)


def pigeonhole_obstruction(
    u: Matrix, tol: float = DEFAULT_TOL, max_order: int = PIGEONHOLE_ORDER_LIMIT
) -> PigeonholeObstruction | None:
    """Root-counting obstruction to being a master matrix.

    When every entry of u is an m-th root of unity (m minimal, m <=
    max_order) and u has more than m pairwise-distinct rows, no master
    spec with gcd-1 exponents can produce u: each row forces its
    eigenvalue to be an m-th root of unity too, and there are only m of
    those. Returns None when the entries are not unimodular, not roots of
    unity within the probed orders, or when the row count fits.
    """
    u = linalg.as_matrix(u)
    linalg._require_square(u, "obstruction input")
    if float(np.max(np.abs(np.abs(u) - 1.0))) > tol:
        return None
    order = hadamard.butson_order(u, tol, max_order)
    if order is None:
        return None
    rows = _distinct_row_count(u, tol)
    if rows > order:
        return PigeonholeObstruction(order, rows)
    return None


def _snap_to_phase_fraction(z: complex, root_order_bound: int, tol: float) -> tuple[int, int] | None:
    """Write z = exp(2*pi*i*t/r) with r <= root_order_bound, or None."""
    if abs(abs(z) - 1.0) > tol:
        return None
    x = (cmath.phase(z) / (2 * math.pi)) % 1.0
    frac = Fraction(float(x)).limit_denominator(root_order_bound)
    t = frac.numerator % frac.denominator
    r = frac.denominator
    if abs(z - linalg.unit_root(t, r)) > tol:
        return None
    return t, r


def search_master_representation(
    u: Matrix, exponent_bound: int, root_order_bound: int, tol: float = DEFAULT_TOL
) -> MasterSpec | None:
    """Bounded brute-force master-matrix factorization of u.

    Dephases u first when needed (the returned spec then reproduces the
    dephased form). Enumerates exponent tuples (0, e_2, ..., e_n) with
    distinct entries from 1..exponent_bound and overall gcd 1, in
    lexicographic order, and solves each row for an eigenvalue among
    roots of unity of order <= root_order_bound using exact integer
    phase arithmetic. Returns the first spec whose master matrix matches
    u within tol, else None. A None result is conclusive only within the
    stated bounds.
    """
    if exponent_bound <= 0 or root_order_bound <= 0:
        raise ValueError("search bounds must be positive")
    u = linalg.as_matrix(u)
    n = linalg._require_square(u, "search input")
    ones = np.ones(n, dtype=np.complex128)
    if (
        linalg.max_abs(u[0, :] - ones) > tol
        or linalg.max_abs(u[:, 0] - ones) > tol
    ):
        u, _ = hadamard.dephase(u)
    if n == 1:
        return MasterSpec((1.0 + 0j,), (0,))

    # Exact phase arithmetic: entry (i, j) = exp(2*pi*i * target[i][j] / L).
    lcm = math.lcm(*range(1, root_order_bound + 1))
    target = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            snapped = _snap_to_phase_fraction(u[i, j], root_order_bound, tol)
            if snapped is None:
                return None
            t, r = snapped
            target[i][j] = t * (lcm // r) % lcm

    # Candidate eigenvalue phases: all fractions with denominator <= bound.
    cands = sorted(
        {t * (lcm // r) % lcm for r in range(1, root_order_bound + 1) for t in range(r)}
    )
    full_mask = (1 << len(cands)) - 1

    # tables[i][j-1][e] = bitmask of candidates v with v*e = target[i][j] (mod L).
    tables = []
    for i in range(n):
        row_tab = []
        for j in range(1, n):
            col_tab = [0] * (exponent_bound + 1)
            for e in range(1, exponent_bound + 1):
                mask = 0
                for ci, v in enumerate(cands):
                    if (v * e) % lcm == target[i][j]:
                        mask |= 1 << ci
                col_tab[e] = mask
            row_tab.append(col_tab)
        tables.append(row_tab)

    for tup in itertools.permutations(range(1, exponent_bound + 1), n - 1):
        if math.gcd(*tup) != 1:
            continue
        vals: list[int] = []
        feasible = True
        for row_tab in tables:
            mask = full_mask
            for j, e in enumerate(tup):
                mask &= row_tab[j][e]
                if not mask:
                    break
            if not mask:
                feasible = False
                break
            vals.append(cands[(mask & -mask).bit_length() - 1])
        if not feasible:
            continue
        lambdas = tuple(cmath.exp(2j * math.pi * v / lcm) for v in vals)
        try:
            spec = MasterSpec(lambdas, (0,) + tup)
        except ValueError:
            continue
        if linalg.approx_eq(master_matrix(spec), u, tol).ok:
            return spec
    return None


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
    a = complex(a)
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
