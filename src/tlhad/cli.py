"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Verbs:
    gen     construct matrices and master specs
    check   run residual checks (exit 1 when a residual exceeds tolerance)
    build   assemble generators, braid data, R-matrices, reconstructed M
    search  bounded brute-force master-matrix factorization

Exit codes: 0 success / check passed, 1 check failed (some residual
above tolerance), 2 input or usage error. Stdout carries JSON only;
stderr carries diagnostics.
"""
from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import baxter, hadamard, linalg, master, tlrep
from .linalg import DEFAULT_TOL, Matrix

__all__ = ["main", "read_matrix", "write_matrix"]


def read_matrix(path: str) -> Matrix:
    """Load a matrix from the canonical JSON format."""
    return linalg.matrix_from_dict(_load_json(path))


def write_matrix(path: str, m: Matrix) -> None:
    """Write a matrix in the canonical JSON format."""
    Path(path).write_text(_render(linalg.matrix_to_dict(m)))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _render(payload: dict) -> str:
    # Strict JSON: a NaN or infinite value raises ValueError, which main reports.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    text = _render(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"complex number must be finite, got {text!r}")
    return z


def _parse_complex_csv(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(part) for part in text.split(","))


def _parse_int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list from {text!r}") from exc


def _finite(x: float) -> float | None:
    # JSON has no Infinity literal; an undefined residual serializes as null.
    return x if x == x and abs(x) != float("inf") else None


# ---------------------------------------------------------------- gen --

def _gen_fourier(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(hadamard.fourier(args.n, args.ell)), True


def _gen_f4(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(hadamard.f4_family(_parse_complex(args.a))), True


def _gen_f6(args) -> tuple[dict, bool]:
    return (
        linalg.matrix_to_dict(
            hadamard.f6_family(_parse_complex(args.a), _parse_complex(args.b))
        ),
        True,
    )


def _gen_dita(args) -> tuple[dict, bool]:
    outer = read_matrix(args.a)
    blocks = [read_matrix(p) for p in args.block]
    return linalg.matrix_to_dict(hadamard.dita(outer, blocks)), True


def _gen_nest(args) -> tuple[dict, bool]:
    spec = master.nest(master.NestingSpec.from_dict(_load_json(args.stages)))
    return spec.to_dict(), True


def _gen_h0(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(master.h0()), True


def _gen_h1(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(master.h1(_parse_complex(args.a))), True


def _gen_fixture_u1(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(tlrep.fixture_u1()), True


def _gen_fixture_u2(args) -> tuple[dict, bool]:
    return linalg.matrix_to_dict(tlrep.fixture_u2()), True


def _gen_master_fourier(args) -> tuple[dict, bool]:
    return master.fourier_master(args.n, args.ell).to_dict(), True


def _gen_master_f4(args) -> tuple[dict, bool]:
    return master.f4_master(args.k, args.m).to_dict(), True


def _gen_master_f6(args) -> tuple[dict, bool]:
    return master.f6_master(args.k, args.r, args.s).to_dict(), True


# -------------------------------------------------------------- check --

def _check_chm(args) -> tuple[dict, bool]:
    u = read_matrix(args.matrix)
    residual = hadamard.chm_residual(u)
    ok = residual <= args.tol
    return {"check": "chm", "ok": ok, "max_residual": residual, "tol": args.tol}, ok


def _check_ghm(args) -> tuple[dict, bool]:
    u = read_matrix(args.matrix)
    verdict = hadamard.is_ghm(u, args.tol)
    payload = {
        "check": "ghm",
        "ok": verdict.is_ghm,
        "is_chm": verdict.is_chm,
        "is_ghm": verdict.is_ghm,
        "butson_order": verdict.butson_order,
        "max_residual": _finite(verdict.max_residual),
        "tol": args.tol,
    }
    return payload, verdict.is_ghm


def _check_butson(args) -> tuple[dict, bool]:
    u = read_matrix(args.matrix)
    chm_res = hadamard.chm_residual(u)
    root_res = hadamard.butson_residual(u, args.q)
    ok = chm_res <= args.tol and root_res <= args.tol
    payload = {
        "check": "butson",
        "ok": ok,
        "q": args.q,
        "chm_residual": chm_res,
        "root_residual": root_res,
        "tol": args.tol,
    }
    return payload, ok


def _check_master(args) -> tuple[dict, bool]:
    spec = master.MasterSpec.from_dict(_load_json(args.spec))
    result = master.check_master_condition(spec, args.tol)
    payload = {
        "check": "master",
        "ok": result.ok,
        "max_residual": result.max_residual,
        "size": spec.size,
        "tol": args.tol,
    }
    return payload, result.ok


def _check_master4(args) -> tuple[dict, bool]:
    p = read_matrix(args.p)
    spec = master.MasterSpec.from_dict(_load_json(args.spec))
    result = tlrep.check_master4(p, spec.lambdas, spec.exponents, args.tol)
    payload = {
        "check": "master4",
        "ok": result.ok,
        "max_residual": result.max_residual,
        "worst": list(result.worst),
        "tol": args.tol,
    }
    return payload, result.ok


def _ansatz_from_args(args) -> tlrep.TLAnsatz:
    a = tlrep.TLAnsatz.from_dict(_load_json(args.ansatz))
    sites = getattr(args, "sites", None)
    if sites is not None and sites != a.sites:
        a = tlrep.TLAnsatz(a.m, a.exponents, a.v, a.w, sites)
    return a


def _check_tl(args) -> tuple[dict, bool]:
    a = _ansatz_from_args(args)
    report = tlrep.verify_tl(a, args.tol)
    ok = report.ok(args.tol)
    payload = {"check": "tl", "ok": ok, "tol": args.tol, "sites": a.sites}
    payload.update(report.to_dict())
    return payload, ok


def _braid_from_args(args) -> baxter.BraidData:
    if getattr(args, "braid", None):
        return baxter.BraidData.from_dict(_load_json(args.braid))
    if getattr(args, "ansatz", None) or getattr(args, "m", None):
        a = _build_ansatz(args)
        local = tlrep.build_local_generator(a, args.tol)
        return baxter.braid_from_tl(local, a.alpha, args.tol)
    raise ValueError("need --braid or --ansatz input")


def _check_hecke(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    residual = baxter.hecke_residual(b)
    ok = residual <= args.tol
    payload = {
        "check": "hecke",
        "ok": ok,
        "q": linalg.complex_to_json(b.q),
        "nu": linalg.complex_to_json(b.nu),
        "hecke_residual": residual,
        "tol": args.tol,
    }
    return payload, ok


def _check_braid(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    residual = baxter.check_braid(b.r_check)
    ok = residual <= args.tol
    payload = {
        "check": "braid",
        "ok": ok,
        "braid_residual": residual,
        "tol": args.tol,
    }
    return payload, ok


def _check_ybe(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    samples = baxter.spectral_samples(args.samples, args.seed)
    braid_residual = baxter.check_braid(b.r_check)
    spectral_worst = baxter.check_spectral_ybe(b, samples, tol=args.tol)
    # Baxterized products amplify rounding; the spectral bound gets the
    # documented 10x allowance over the constant-braid tolerance.
    spectral_tol = 10 * args.tol
    ok = braid_residual <= args.tol and spectral_worst <= spectral_tol
    payload = {
        "check": "ybe",
        "ok": ok,
        "q": linalg.complex_to_json(b.q),
        "nu": linalg.complex_to_json(b.nu),
        "braid_residual": braid_residual,
        "spectral_worst": spectral_worst,
        "samples": linalg.complex_to_json(samples),
        "tol": args.tol,
        "spectral_tol": spectral_tol,
    }
    return payload, ok


def _check_weighted_hadamard(args) -> tuple[dict, bool]:
    omega = read_matrix(args.omega)
    v = _parse_complex_csv(args.v)
    w = _parse_complex_csv(args.w)
    alpha = _parse_complex(args.alpha)
    result = tlrep.weighted_hadamard_check(omega, v, w, alpha, args.tol)
    payload = {
        "check": "weighted-hadamard",
        "ok": result.ok,
        "residual": result.max_residual,
        "alpha": linalg.complex_to_json(alpha),
        "tol": args.tol,
    }
    return payload, result.ok


# -------------------------------------------------------------- build --

def _build_ansatz(args) -> tlrep.TLAnsatz:
    if getattr(args, "ansatz", None):
        return _ansatz_from_args(args)
    if not getattr(args, "m", None) or getattr(args, "exponents", None) is None:
        raise ValueError("need --ansatz, or --m together with --exponents")
    m = read_matrix(args.m)
    v = _parse_complex_csv(args.v) if getattr(args, "v", None) else None
    w = _parse_complex_csv(args.w) if getattr(args, "w", None) else None
    sites = args.sites if getattr(args, "sites", None) is not None else 3
    return tlrep.TLAnsatz(m, _parse_int_csv(args.exponents), v, w, sites)


def _build_tl_local(args) -> tuple[dict, bool]:
    a = _build_ansatz(args)
    return linalg.matrix_to_dict(tlrep.build_local_generator(a, args.tol)), True


def _build_tl_embedded(args) -> tuple[dict, bool]:
    a = _build_ansatz(args)
    local = tlrep.build_local_generator(a, args.tol)
    return linalg.matrix_to_dict(tlrep.embed(local, args.site, a.sites, a.n)), True


def _build_braid(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    payload = b.to_dict()
    payload["hecke_residual"] = baxter.hecke_residual(b)
    return payload, True


def _build_rmatrix(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    return linalg.matrix_to_dict(baxter.to_plain_r(b)), True


def _build_reconstruct_m(args) -> tuple[dict, bool]:
    spec = master.MasterSpec.from_dict(_load_json(args.spec))
    h = read_matrix(args.h)
    omega = master.master_matrix(spec)
    return linalg.matrix_to_dict(tlrep.reconstruct_m(omega, h, spec.lambdas)), True


# ------------------------------------------------------------- search --

def _search_master_rep(args) -> tuple[dict, bool]:
    u = read_matrix(args.matrix)
    spec = master.search_master_representation(
        u, args.exponent_bound, args.root_order_bound, args.tol
    )
    payload = {
        "found": spec is not None,
        "spec": spec.to_dict() if spec is not None else None,
        "exponent_bound": args.exponent_bound,
        "root_order_bound": args.root_order_bound,
    }
    return payload, True


# ------------------------------------------------------------- parser --

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="absolute tolerance")
    common.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    common.add_argument("--out", help="write JSON here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tlhad",
        description="Temperley-Lieb representations from Hadamard data: generate, check, build, search.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def leaf(group, name: str, handler: Callable, help_text: str):
        sub = group.add_parser(name, parents=[common], help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    gen = verbs.add_parser("gen", help="construct matrices and specs").add_subparsers(
        dest="target", required=True
    )
    sub = leaf(gen, "fourier", _gen_fourier, "Fourier matrix")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, default=1)
    sub = leaf(gen, "f4", _gen_f4, "one-parameter size-4 family")
    sub.add_argument("--a", required=True)
    sub = leaf(gen, "f6", _gen_f6, "two-parameter size-6 family")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub = leaf(gen, "dita", _gen_dita, "block construction from an outer matrix and blocks")
    sub.add_argument("--a", required=True, help="outer matrix JSON path")
    sub.add_argument(
        "--block", action="append", required=True, help="block matrix JSON path (repeat n times)"
    )
    sub = leaf(gen, "nest", _gen_nest, "iterated Fourier master spec")
    sub.add_argument("--stages", required=True, help="nesting spec JSON path")
    leaf(gen, "h0", _gen_h0, "printed non-master Hadamard matrix, cube-root entries")
    sub = leaf(gen, "h1", _gen_h1, "printed non-master Hadamard family")
    sub.add_argument("--a", required=True)
    leaf(gen, "fixture-u1", _gen_fixture_u1, "printed weighted 9x9 generator")
    leaf(gen, "fixture-u2", _gen_fixture_u2, "printed plain 9x9 generator")
    sub = leaf(gen, "master-fourier", _gen_master_fourier, "Fourier master spec")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, default=1)
    sub = leaf(gen, "master-f4", _gen_master_f4, "size-4 master spec")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub = leaf(gen, "master-f6", _gen_master_f6, "size-6 master spec")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)

    check = verbs.add_parser("check", help="residual checks").add_subparsers(
        dest="target", required=True
    )
    sub = leaf(check, "chm", _check_chm, "complex Hadamard predicate")
    sub.add_argument("--matrix", required=True)
    sub = leaf(check, "ghm", _check_ghm, "generalized Hadamard classification")
    sub.add_argument("--matrix", required=True)
    sub = leaf(check, "butson", _check_butson, "entries are q-th roots of unity")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--q", type=int, required=True)
    sub = leaf(check, "master", _check_master, "eigenvalue-ratio master condition")
    sub.add_argument("--spec", required=True)
    sub = leaf(check, "master4", _check_master4, "factorized closure condition for P")
    sub.add_argument("--p", required=True, help="eigenvector matrix JSON path")
    sub.add_argument("--spec", required=True)
    sub = leaf(check, "tl", _check_tl, "Temperley-Lieb relation residuals")
    sub.add_argument("--ansatz", required=True)
    sub.add_argument("--sites", type=int)
    sub = leaf(check, "hecke", _check_hecke, "Hecke condition of the braid generator")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub.add_argument("--sites", type=int)
    sub = leaf(check, "braid", _check_braid, "constant braided Yang-Baxter equation")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub.add_argument("--sites", type=int)
    sub = leaf(check, "ybe", _check_ybe, "constant and spectral Yang-Baxter equations")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub.add_argument("--sites", type=int)
    sub.add_argument("--samples", type=int, default=20)
    sub = leaf(check, "weighted-hadamard", _check_weighted_hadamard, "weighted Hadamard identity")
    sub.add_argument("--omega", required=True)
    sub.add_argument("--v", required=True, help="comma-separated complex weights")
    sub.add_argument("--w", required=True, help="comma-separated complex weights")
    sub.add_argument("--alpha", required=True)

    build = verbs.add_parser("build", help="assemble matrices").add_subparsers(
        dest="target", required=True
    )

    def ansatz_flags(sub):
        sub.add_argument("--ansatz", help="ansatz JSON path")
        sub.add_argument("--m", help="matrix JSON path (with --exponents)")
        sub.add_argument("--exponents", help="comma-separated integers")
        sub.add_argument("--v", help="comma-separated complex weights")
        sub.add_argument("--w", help="comma-separated complex weights")
        sub.add_argument("--sites", type=int)

    sub = leaf(build, "tl-local", _build_tl_local, "local generator from an ansatz")
    ansatz_flags(sub)
    sub = leaf(build, "tl-embedded", _build_tl_embedded, "embedded generator at a bond")
    ansatz_flags(sub)
    sub.add_argument("--site", type=int, required=True)
    sub = leaf(build, "braid", _build_braid, "braid data from an ansatz")
    ansatz_flags(sub)
    sub = leaf(build, "rmatrix", _build_rmatrix, "plain R-matrix from ansatz or braid data")
    ansatz_flags(sub)
    sub.add_argument("--braid", help="braid data JSON path")
    sub = leaf(build, "reconstruct-m", _build_reconstruct_m, "rebuild M from a spec and H")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--h", required=True, help="Hadamard matrix JSON path")

    search = verbs.add_parser("search", help="bounded searches").add_subparsers(
        dest="target", required=True
    )
    sub = leaf(search, "master-rep", _search_master_rep, "master-matrix factorization search")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--exponent-bound", type=int, default=12)
    sub.add_argument("--root-order-bound", type=int, default=12)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # Overflow shows as a non-finite result, which the finite checks and
        # the strict render turn into exit 2; numpy's warnings would be a
        # second stderr line.
        with np.errstate(all="ignore"):
            payload, ok = args.handler(args)
            _emit(payload, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
