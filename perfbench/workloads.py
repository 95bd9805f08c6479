"""Seeded inputs for the benchmark workloads, each op carrying its expected verdict.

An op is one input carried through its whole pipeline to a verdict. `run`
is the timed part and calls only the library, through its submodules.
`judge` is untimed: it turns the raw outputs into a verdict string and the
(residual, bound) pairs of the checks that are expected to pass. It uses
numpy alone, so a traced run counts no library call made by the harness.

`expect` is the verdict the theory gives. `known_defect` is the verdict the
library is known to give instead, where it is wrong today; such an op is
counted against `verdict_ok_frac` but not as an unexpected failure.

Each builder takes the library namespace, a numpy Generator made from the
workload seed, and a scratch directory inside the checkout, and returns the
op list of one pass. The list is ordered so that the first op of each slice
is a cheap one, which the warm-up and the quick self-check use.
"""
from __future__ import annotations

import cmath
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: The library's default tolerance, used for every check.
TOL = 1e-9
#: The allowance `tlhad check ybe` gives the spectral residual.
SPECTRAL_TOL = 10 * TOL
#: Spectral samples per YBE check (the CLI default).
SAMPLES = 20
#: Exponent and root-order bound of the master search (the CLI default).
SEARCH_BOUND = 12


@dataclass
class Judged:
    verdict: str
    residuals: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Op:
    slice: str
    label: str
    run: Callable[[], object]
    judge: Callable[[object], Judged]
    expect: str
    known_defect: str | None = None


# ------------------------------------------------------------ inputs --

def _phase(rng) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _perm(rng, n: int, fix_first: bool = False) -> tuple[int, ...]:
    perm = 1 + rng.permutation(n - 1) if fix_first else rng.permutation(n)
    return tuple(int(p) for p in ((0, *perm) if fix_first else perm))


def _moved(lib, rng, u, fix_first_col: bool = False, phase=None):
    """u under a seeded equivalence move: row and column permutations, diagonal phases."""
    n = u.shape[0]
    phase = phase or (lambda: _phase(rng))
    move = lib.hadamard.EquivalenceMove(
        _perm(rng, n),
        tuple(phase() for _ in range(n)),
        tuple(phase() for _ in range(n)),
        _perm(rng, n, fix_first_col),
    )
    return lib.hadamard.apply_equivalence(u, move)


def _coprime(rng, n: int) -> int:
    return int(rng.choice([e for e in range(1, max(n, 2)) if math.gcd(e, n) == 1]))


def _rephased_fourier(lib, rng, n: int):
    """fourier(n) times a diagonal of seeded phases, first entry 1."""
    return lib.hadamard.fourier(n) @ np.diag([1.0] + [_phase(rng) for _ in range(n - 1)])


def _dita(lib, rng, outer: int, inner: int):
    blocks = [_rephased_fourier(lib, rng, inner) for _ in range(outer)]
    return lib.hadamard.dita(lib.hadamard.fourier(outer), blocks)


def _ghm(lib, rng, n: int):
    """A seeded generalized Hadamard matrix of size n."""
    choices = [lambda: _moved(lib, rng, lib.hadamard.fourier(n, _coprime(rng, n)))]
    for outer in (2, 3):
        if n % outer == 0 and n > outer:
            choices.append(lambda outer=outer: _dita(lib, rng, outer, n // outer))
    if n == 4:
        choices.append(lambda: lib.hadamard.f4_family(_phase(rng)))
    if n == 6:
        choices.append(lambda: lib.hadamard.f6_family(_phase(rng), _phase(rng)))
    return choices[int(rng.integers(len(choices)))]()


def _nest(lib, rng, sizes):
    stages = tuple(
        lib.master.NestingStage(
            p, 1, tuple(int(x) for x in rng.integers(0, 2, p)), tuple(int(x) for x in rng.integers(0, 2, p))
        )
        for p in sizes
    )
    return lib.master.nest(lib.master.NestingSpec(stages))


def _master_spec(lib, rng, n: int):
    """A seeded master spec of size n from the Fourier, F4, F6 and nested families."""
    m = lib.master
    choices = [lambda: m.fourier_master(n, _coprime(rng, n))]
    if n == 4:
        choices += [
            lambda: m.f4_master(int(rng.integers(1, 3)), int(rng.choice([1, 3]))),
            lambda: _nest(lib, rng, (2, 2)),
        ]
    if n == 6:
        def f6():
            k = int(rng.integers(2, 4))
            return m.f6_master(k, int(rng.integers(1, k)), int(rng.integers(1, k)))
        choices += [f6, lambda: _nest(lib, rng, (2, 3))]
    return choices[int(rng.integers(len(choices)))]()


def _non_master_spec(lib, rng, n: int):
    """Well-separated unimodular eigenvalues off the Fourier grid: no master spec."""
    jitter = rng.uniform(0.2, 0.4, n)
    lambdas = tuple(cmath.exp(2j * math.pi * (a + jitter[a]) / n) for a in range(n))
    return lib.master.MasterSpec(lambdas, tuple(range(n)))


def _repeat(reps: dict, make) -> list[Op]:
    return [make(key) for key, count in reps.items() for _ in range(count)]


# ---------------------------------------------------------- tl_chain --

# Ops per pass are chosen so that, by cost, as many ops lie below the median
# block as above it, and the tail percentile falls inside one cost class:
# the nearest-rank statistics of whole passes then stay in one class. The
# 95th percentile lies in the (5, 4) class, two ops per pass, near its middle
# rather than at its cheap edge.

#: (n, sites) -> ops per pass. Every cell with n^sites <= 729 for n = 2..6.
TL_GRID = {
    (2, 3): 2, (3, 3): 2, (2, 4): 2, (4, 3): 2, (2, 5): 2, (3, 4): 8, (5, 3): 3,
    (2, 6): 3, (6, 3): 3, (2, 7): 2, (4, 4): 2, (3, 5): 4, (2, 8): 1, (5, 4): 2,
    (2, 9): 1, (3, 6): 1,
}
#: (n, sites) -> non-master negative controls per pass.
TL_NEGATIVE = {(3, 3): 1, (4, 3): 1, (5, 3): 2}
#: |a| -> f4_family(a) ops per pass on 3 sites. |a| = 100 is a known defect:
#: the TL residual is 4e-8 to 2e-7 although f4_family(a) is a GHM.
TL_F4_MODULI = {1.5: 2, 3.0: 2, 10.0: 5, 100.0: 2}


def _tl_op(lib, slice_: str, label: str, spec, h, sites: int, expect: str, known=None) -> Op:
    def run():
        omega = lib.master.master_matrix(spec)
        m = lib.tlrep.reconstruct_m(omega, h, spec.lambdas)
        return lib.tlrep.verify_tl(lib.tlrep.TLAnsatz(m, spec.exponents, sites=sites))

    def judge(report) -> Judged:
        if abs(complex(report.nu) - spec.size) > TOL:
            return Judged(f"nu={report.nu}")
        residual = float(report.max_residual)
        verdict = "pass" if residual <= TOL else "fail"
        return Judged(verdict, [(residual, TOL)] if expect == "pass" else [])

    return Op(slice_, label, run, judge, expect, known)


def build_tl_chain(lib, rng, workdir) -> list[Op]:
    def grid(cell):
        n, sites = cell
        return _tl_op(lib, "grid", f"n{n}s{sites}", _master_spec(lib, rng, n), _ghm(lib, rng, n), sites, "pass")

    def negative(cell):
        n, sites = cell
        return _tl_op(
            lib, "negative", f"n{n}s{sites}", _non_master_spec(lib, rng, n), lib.hadamard.fourier(n), sites, "fail"
        )

    def f4(modulus):
        h = lib.hadamard.f4_family(modulus * _phase(rng))
        known = "fail" if modulus >= 100 else None
        return _tl_op(lib, "f4_family", f"|a|={modulus:g}", lib.master.f4_master(1, 1), h, 3, "pass", known)

    return _repeat(TL_GRID, grid) + _repeat(TL_NEGATIVE, negative) + _repeat(TL_F4_MODULI, f4)


# ----------------------------------------------------- cli_roundtrip --

#: (n, sites) -> README pipelines per pass. As many ops cost less than the
#: (3, 3) pipelines as cost more, so the median lies inside that class, and
#: the (6, 3) pipelines are a tenth of a pass, so the 95th percentile lies
#: near the middle of their class rather than at its cheap edge.
CLI_PIPELINES = {(2, 3): 1, (3, 3): 5, (4, 3): 3, (5, 3): 2, (4, 4): 1, (6, 3): 3}
#: family -> `search master-rep` pipelines per pass. Moved master matrices are
#: found with an early exit; h0 and h1 have no master form, so the search
#: enumerates its whole space.
CLI_SEARCHES = {"fourier3": 2, "f4": 1, "nest22": 1, "fourier5": 2, "h1": 2, "h0": 3}


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _call(lib, argv: list[str]) -> tuple[str, str]:
    """Run `tlhad <argv>` in process; the outcome is the exit code or the uncaught exception."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = f"exit{lib.cli.main(argv)}"
        except Exception as exc:  # a leak out of main is an outcome to count, not a harness error
            code = f"uncaught:{type(exc).__name__}"
    return code, out.getvalue()


def _json_outcome(code: str, stdout: str):
    """(outcome, payload): the outcome gains '+nonstrict' when stdout is not strict JSON."""
    if not stdout:
        return code, None
    try:
        return code, _strict_json(stdout)
    except ValueError:
        return f"{code}+nonstrict", None


def _write(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_doc(m: np.ndarray) -> dict:
    """The matrix wire format, written by the caller rather than the library."""
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": [_pair(z) for z in m.reshape(-1)]}


def _dephased(u: np.ndarray) -> np.ndarray:
    return u * u[0, 0] / np.outer(u[:, 0], u[0, :])


def _cli_pipeline(lib, rng, workdir: str, index: int, n: int, sites: int) -> Op:
    """gen -> build reconstruct-m -> checks and builds, one input of size n."""
    path = lambda name: os.path.join(workdir, f"p{index}_{name}.json")
    spec_f, h_f, m_f, ansatz_f = path("spec"), path("h"), path("m"), path("ansatz")
    braid_f = path("braid")

    if n == 4 and rng.random() < 0.5:
        gen_spec = ["gen", "master-f4", "--k", "1", "--m", str(int(rng.choice([1, 3])))]
        gen_h = ["gen", "f4", "--a", str(_phase(rng))]
    elif n == 4:
        stages = [{"p": 2, "k": 1, "g": [int(x) for x in rng.integers(0, 2, 2)], "f": [0, 0]} for _ in range(2)]
        gen_spec = ["gen", "nest", "--stages", _write(path("stages"), {"stages": stages})]
        blocks = [_write(path(f"block{i}"), lib.linalg.matrix_to_dict(_rephased_fourier(lib, rng, 2))) for i in range(2)]
        outer = _write(path("outer"), lib.linalg.matrix_to_dict(lib.hadamard.fourier(2)))
        gen_h = ["gen", "dita", "--a", outer, "--block", blocks[0], "--block", blocks[1]]
    elif n == 6:
        gen_spec = ["gen", "master-f6", "--k", "2", "--r", "1", "--s", "1"]
        gen_h = ["gen", "f6", "--a", str(_phase(rng)), "--b", str(_phase(rng))]
    else:
        ell = _coprime(rng, n)
        gen_spec = ["gen", "master-fourier", "--n", str(n), "--ell", str(ell)]
        gen_h = ["gen", "fourier", "--n", str(n), "--ell", str(_coprime(rng, n))]
    seed = str(int(rng.integers(1 << 31)))
    checks = [
        ["check", "master", "--spec", spec_f],
        ["check", "ghm", "--matrix", h_f],
        ["check", "tl", "--ansatz", ansatz_f, "--sites", str(sites)],
        ["build", "tl-local", "--ansatz", ansatz_f, "--out", path("t")],
        ["build", "braid", "--ansatz", ansatz_f, "--out", braid_f],
        ["check", "hecke", "--braid", braid_f],
        ["check", "ybe", "--braid", braid_f, "--samples", str(SAMPLES), "--seed", seed],
        ["build", "tl-embedded", "--ansatz", ansatz_f, "--site", "2", "--out", path("embedded")],
    ]

    def run():
        results = [
            _call(lib, gen_spec + ["--out", spec_f]),
            _call(lib, gen_h + ["--out", h_f]),
            _call(lib, ["build", "reconstruct-m", "--spec", spec_f, "--h", h_f, "--out", m_f]),
        ]
        with open(spec_f, encoding="utf-8") as fh:
            exponents = json.load(fh)["exponents"]
        with open(m_f, encoding="utf-8") as fh:
            m = json.load(fh)
        _write(ansatz_f, {"m": m, "exponents": exponents, "sites": sites})
        return results + [_call(lib, argv) for argv in checks]

    def judge(results) -> Judged:
        outcomes, payloads = zip(*(_json_outcome(code, out) for code, out in results))
        if any(o != "exit0" for o in outcomes):
            return Judged(" ".join(outcomes))
        tl, hecke, ybe = payloads[5], payloads[8], payloads[9]
        if abs(complex(*tl["nu"]) - n) > TOL:
            return Judged(f"nu={tl['nu']}")
        pairs = [
            (payloads[3]["max_residual"], TOL),
            (payloads[4]["max_residual"], TOL),
            (max(tl["loop_residual"], tl["braid_residual"], tl["commute_residual"]), TOL),
            (hecke["hecke_residual"], TOL),
            (ybe["braid_residual"], TOL),
            (ybe["spectral_worst"], SPECTRAL_TOL),
        ]
        return Judged("pass", pairs)

    return Op("pipeline", f"n{n}s{sites}", run, judge, "pass")


def _cli_malformed(lib, rng, workdir: str) -> list[Op]:
    """One call each, expected to exit 2; the last two are known defects."""
    path = lambda name: os.path.join(workdir, f"bad_{name}.json")
    n = int(rng.integers(2, 5))
    entries = [_pair(_phase(rng)) for _ in range(n * n)]
    lambdas = [_pair(_phase(rng)) for _ in range(n)]
    docs = {
        "short": {"rows": n, "cols": n, "entries": entries[:-1]},
        "unpaired": {"rows": n, "cols": n, "entries": [e[0] for e in entries]},
        "string": {"rows": n, "cols": n, "entries": [["1", "0"]] + entries[1:]},
        "repeated": {"lambdas": lambdas, "exponents": [0] * n},
        "null": {"lambdas": lambdas[:2], "exponents": [0, None]},
        "nan": {"lambdas": [[float("nan"), 0.0], [1.0, 0.0]], "exponents": [0, 1]},
    }
    files = {name: _write(path(name), doc) for name, doc in docs.items()}
    files["truncated"] = _write(path("truncated"), json.dumps(docs["short"])[: -int(rng.integers(2, 9))])
    cases = [
        ("short", ["check", "ghm", "--matrix", files["short"]], None),
        ("unpaired", ["check", "chm", "--matrix", files["unpaired"]], None),
        ("string", ["check", "ghm", "--matrix", files["string"]], None),
        ("truncated", ["check", "chm", "--matrix", files["truncated"]], None),
        ("missing_file", ["check", "tl", "--ansatz", path("absent")], None),
        ("repeated", ["check", "master", "--spec", files["repeated"]], None),
        ("null_exponent", ["check", "master", "--spec", files["null"]], "uncaught:TypeError"),
        ("nan_spec", ["check", "master", "--spec", files["nan"]], "exit1+nonstrict"),
    ]

    def make(label, argv, known):
        return Op(
            "malformed",
            label,
            lambda: _call(lib, argv),
            lambda raw: Judged(_json_outcome(*raw)[0]),
            "exit2",
            known,
        )

    return [make(*case) for case in cases]


def _cli_search(lib, rng, workdir: str, index: int, family: str) -> Op:
    """check ghm -> search master-rep -> for a found spec, check master and master4."""
    path = lambda name: os.path.join(workdir, f"s{index}_{name}.json")
    u_f, spec_f, p_f = path("u"), path("spec"), path("p")
    m = lib.master
    if family == "h0":
        u = _moved(lib, rng, m.h0(), phase=lambda: lib.linalg.unit_root(int(rng.integers(3)), 3))
    elif family == "h1":
        u = m.h1(lib.linalg.unit_root(int(rng.choice([1, 5, 7, 11])), 12))
        u = u * np.exp(2j * np.pi * rng.random(6))[:, None] * np.exp(2j * np.pi * rng.random(6))[None, :]
    else:
        spec = {
            "fourier3": lambda: m.fourier_master(3, _coprime(rng, 3)),
            "f4": lambda: m.f4_master(int(rng.integers(1, 3)), int(rng.choice([1, 3]))),
            "nest22": lambda: _nest(lib, rng, (2, 2)),
            "fourier5": lambda: m.fourier_master(5, _coprime(rng, 5)),
        }[family]()
        # Column 0 (exponent 0) stays first, so the dephased matrix is a master matrix.
        u = _moved(lib, rng, m.master_matrix(spec), fix_first_col=True)
    h = _moved(lib, rng, lib.hadamard.fourier(u.shape[0]))
    _write(u_f, lib.linalg.matrix_to_dict(u))
    bound = str(SEARCH_BOUND)

    def run():
        results = [
            _call(lib, ["check", "ghm", "--matrix", u_f]),
            _call(lib, ["search", "master-rep", "--matrix", u_f, "--exponent-bound", bound, "--root-order-bound", bound]),
        ]
        found = json.loads(results[1][1])["spec"]
        if found is not None:
            _write(spec_f, found)
            omega = np.array([complex(*z) for z in found["lambdas"]])[:, None] ** np.array(found["exponents"])
            _write(p_f, _matrix_doc(omega.T @ h))
            results += [
                _call(lib, ["check", "master", "--spec", spec_f]),
                _call(lib, ["check", "master4", "--p", p_f, "--spec", spec_f]),
            ]
        return results

    def judge(results) -> Judged:
        outcomes, payloads = zip(*(_json_outcome(code, out) for code, out in results))
        if any(o != "exit0" for o in outcomes):
            return Judged(" ".join(outcomes))
        pairs = [(payloads[0]["max_residual"], TOL)]
        found = payloads[1]["spec"]
        if found is None:
            return Judged("not found", pairs)
        omega = np.array([complex(*z) for z in found["lambdas"]])[:, None] ** np.array(found["exponents"])
        match = float(np.max(np.abs(omega - _dephased(u))))
        pairs += [(payloads[2]["max_residual"], TOL), (payloads[3]["max_residual"], TOL), (match, TOL)]
        return Judged("found" if match <= TOL else f"found a spec {match:.1e} off the input", pairs)

    return Op("search", family, run, judge, "not found" if family in ("h0", "h1") else "found")


def build_cli_roundtrip(lib, rng, workdir) -> list[Op]:
    cells = [cell for cell, count in CLI_PIPELINES.items() for _ in range(count)]
    ops = [_cli_pipeline(lib, rng, workdir, i, n, sites) for i, (n, sites) in enumerate(cells)]
    families = [family for family, count in CLI_SEARCHES.items() for _ in range(count)]
    ops += [_cli_search(lib, rng, workdir, i, family) for i, family in enumerate(families)]
    return ops + _cli_malformed(lib, rng, workdir)


WORKLOADS = {
    "tl_chain": build_tl_chain,
    "cli_roundtrip": build_cli_roundtrip,
}
