"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Verbs:
    gen     construct matrices and master specs
    check   run residual checks (exit 1 when a residual exceeds tolerance)
    build   assemble generators, braid data, R-matrices, reconstructed M
    search  bounded master-matrix factorization by pruned backtracking

Exit codes: 0 success / check passed, 1 check failed (some residual
above tolerance), 2 input or usage error. Stdout carries JSON only, one
line of it; stderr carries diagnostics.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from typing import Callable, Sequence

import numpy as np

from . import baxter, hadamard, linalg, master, tlrep
from .linalg import DEFAULT_TOL, Matrix

__all__ = ["main", "read_matrix"]


def read_matrix(path: str) -> Matrix:
    """Load a matrix from the canonical JSON format."""
    return linalg.matrix_from_dict(_load_json(path))


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    # Strict JSON: a NaN or infinite value raises ValueError, which main
    # reports. The writer makes every check before its first piece, so
    # the --out file is opened, and stdout written, only once the render
    # cannot fail; a matrix's text then comes a bounded piece at a time.
    pieces = linalg.iterdumps(payload)
    text = itertools.chain([next(pieces)], pieces, ["\n"])
    if out is None:
        sys.stdout.writelines(text)
        return
    # The file is written over in place and then cut at the end of the new
    # text: truncating it to zero first (O_TRUNC) costs more than the write
    # of a small document on ext4 mounted with discard. The cut is made at
    # the descriptor's offset, which counts only the bytes the system took,
    # so after a write that fails part-way only new bytes remain. Only a
    # regular file with old bytes past that offset is cut: O_TRUNC leaves a
    # FIFO, a tty or /dev/null alone, and ext4 does truncate work even at
    # the same length (the flush puts the offset at the end of the text).
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        try:
            fh.writelines(text)
            fh.flush()
        finally:
            fd = fh.fileno()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if st.st_size > end:
                    os.ftruncate(fd, end)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


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
    return linalg.matrix_payload(hadamard.fourier(args.n, args.ell)), True


def _gen_f4(args) -> tuple[dict, bool]:
    return linalg.matrix_payload(hadamard.f4_family(_parse_complex(args.a))), True


def _gen_f6(args) -> tuple[dict, bool]:
    return (
        linalg.matrix_payload(
            hadamard.f6_family(_parse_complex(args.a), _parse_complex(args.b))
        ),
        True,
    )


def _gen_dita(args) -> tuple[dict, bool]:
    outer = read_matrix(args.a)
    blocks = [read_matrix(p) for p in args.block]
    return linalg.matrix_payload(hadamard.dita(outer, blocks)), True


def _gen_nest(args) -> tuple[dict, bool]:
    spec = master.nest(master.NestingSpec.from_dict(_load_json(args.stages)))
    return spec.to_dict(), True


def _gen_h0(args) -> tuple[dict, bool]:
    return linalg.matrix_payload(master.h0()), True


def _gen_h1(args) -> tuple[dict, bool]:
    return linalg.matrix_payload(master.h1(_parse_complex(args.a))), True


def _gen_fixture_u1(args) -> tuple[dict, bool]:
    return linalg.matrix_payload(tlrep.fixture_u1()), True


def _gen_fixture_u2(args) -> tuple[dict, bool]:
    return linalg.matrix_payload(tlrep.fixture_u2()), True


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


def _check_tl(args) -> tuple[dict, bool]:
    a = _build_ansatz(args)
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
        return baxter.braid_from_tl(local, a.alpha)
    raise ValueError("need --braid or --ansatz input")


def _check_hecke(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    residual = baxter.hecke_residual(b)
    ok = residual <= args.tol
    payload = {
        "check": "hecke",
        "ok": ok,
        "q": linalg.complex_to_json(b.q),
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
    # One pass gives both: the braid residual is check_braid's.
    braid_residual, spectral_worst = baxter.ybe_residuals(b, samples, tol=args.tol)
    spectral_tol = baxter.SPECTRAL_ALLOWANCE * args.tol
    ok = braid_residual <= args.tol and spectral_worst <= spectral_tol
    payload = {
        "check": "ybe",
        "ok": ok,
        "q": linalg.complex_to_json(b.q),
        "braid_residual": braid_residual,
        "spectral_worst": spectral_worst,
        "samples": linalg.complex_to_json(samples),
        "tol": args.tol,
        "spectral_tol": spectral_tol,
    }
    return payload, ok


def _check_weighted_hadamard(args) -> tuple[dict, bool]:
    omega = read_matrix(args.omega)
    v, w = _parse_complex_csv(args.v), _parse_complex_csv(args.w)
    result = tlrep.weighted_hadamard_check(omega, v, w, args.tol)
    payload = {
        "check": "weighted-hadamard",
        "ok": result.ok,
        "residual": _finite(result.max_residual),
        "ghm_residual": _finite(result.ghm_residual),
        "overlap_spread": _finite(result.overlap_spread),
        "tl_normalisation": _finite(result.tl_normalisation),
        "alpha": linalg.complex_to_json(result.alpha),
        "tol": args.tol,
    }
    return payload, result.ok


# -------------------------------------------------------------- build --

def _build_ansatz(args) -> tlrep.TLAnsatz:
    # --sites, where the command takes it, overrides the ansatz file's sites.
    sites = getattr(args, "sites", None)
    if getattr(args, "ansatz", None):
        a = tlrep.TLAnsatz.from_dict(_load_json(args.ansatz))
        if sites is None or sites == a.sites:
            return a
        return tlrep.TLAnsatz(a.m, a.exponents, a.v, a.w, sites)
    if not getattr(args, "m", None) or getattr(args, "exponents", None) is None:
        raise ValueError("need --ansatz, or --m together with --exponents")
    m = read_matrix(args.m)
    v = _parse_complex_csv(args.v) if getattr(args, "v", None) else None
    w = _parse_complex_csv(args.w) if getattr(args, "w", None) else None
    return tlrep.TLAnsatz(m, _parse_int_csv(args.exponents), v, w, 3 if sites is None else sites)


def _build_tl_local(args) -> tuple[dict, bool]:
    a = _build_ansatz(args)
    return linalg.matrix_payload(tlrep.build_local_generator(a, args.tol)), True


def _build_tl_embedded(args) -> tuple[dict, bool]:
    a = _build_ansatz(args)
    local = tlrep.build_local_generator(a, args.tol)
    return linalg.matrix_payload(tlrep.embed(local, args.site, a.sites, a.n)), True


def _build_braid(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    return {"q": linalg.complex_to_json(b.q), "r_check": linalg.matrix_payload(b.r_check)}, True


def _build_rmatrix(args) -> tuple[dict, bool]:
    b = _braid_from_args(args)
    return linalg.matrix_payload(baxter.to_plain_r(b)), True


def _build_reconstruct_m(args) -> tuple[dict, bool]:
    spec = master.MasterSpec.from_dict(_load_json(args.spec))
    h = read_matrix(args.h)
    omega = master.master_matrix(spec)
    return linalg.matrix_payload(tlrep.reconstruct_m(omega, h, spec.lambdas)), True


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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Every leaf takes --out; --tol only where its handler passes it on.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write JSON here instead of stdout")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL, help="absolute tolerance")

    parser = argparse.ArgumentParser(
        prog="tlhad",
        description="Temperley-Lieb representations from Hadamard data: generate, check, build, search.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    groups = {
        verb: verbs.add_parser(verb, help=help_text).add_subparsers(dest="target", required=True)
        for verb, help_text in (
            ("gen", "construct matrices and specs"),
            ("check", "residual checks"),
            ("build", "assemble matrices"),
            ("search", "bounded searches"),
        )
    }
    # main parses a known command with its leaf parser alone.
    parser.leaves = {}

    def leaf(verb: str, name: str, handler: Callable, help_text: str, tolerant: bool = True):
        sub = groups[verb].add_parser(name, parents=[tol, out] if tolerant else [out], help=help_text)
        sub.set_defaults(handler=handler)
        parser.leaves[verb, name] = sub
        return sub

    gen_leaf = functools.partial(leaf, "gen", tolerant=False)
    sub = gen_leaf("fourier", _gen_fourier, "Fourier matrix")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, default=1)
    sub = gen_leaf("f4", _gen_f4, "one-parameter size-4 family")
    sub.add_argument("--a", required=True)
    sub = gen_leaf("f6", _gen_f6, "two-parameter size-6 family")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub = gen_leaf("dita", _gen_dita, "block construction from an outer matrix and blocks")
    sub.add_argument("--a", required=True, help="outer matrix JSON path")
    sub.add_argument(
        "--block", action="append", required=True, help="block matrix JSON path (repeat n times)"
    )
    sub = gen_leaf("nest", _gen_nest, "iterated Fourier master spec")
    sub.add_argument("--stages", required=True, help="nesting spec JSON path")
    gen_leaf("h0", _gen_h0, "printed non-master Hadamard matrix, cube-root entries")
    sub = gen_leaf("h1", _gen_h1, "printed non-master Hadamard family")
    sub.add_argument("--a", required=True)
    gen_leaf("fixture-u1", _gen_fixture_u1, "printed weighted 9x9 generator")
    gen_leaf("fixture-u2", _gen_fixture_u2, "printed plain 9x9 generator")
    sub = gen_leaf("master-fourier", _gen_master_fourier, "Fourier master spec")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, default=1)
    sub = gen_leaf("master-f4", _gen_master_f4, "size-4 master spec")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub = gen_leaf("master-f6", _gen_master_f6, "size-6 master spec")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)

    sub = leaf("check", "chm", _check_chm, "complex Hadamard predicate")
    sub.add_argument("--matrix", required=True)
    sub = leaf("check", "ghm", _check_ghm, "generalized Hadamard classification")
    sub.add_argument("--matrix", required=True)
    sub = leaf("check", "butson", _check_butson, "entries are q-th roots of unity")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--q", type=int, required=True)
    sub = leaf("check", "master", _check_master, "eigenvalue-ratio master condition")
    sub.add_argument("--spec", required=True)
    sub = leaf("check", "master4", _check_master4, "factorized closure condition for P")
    sub.add_argument("--p", required=True, help="eigenvector matrix JSON path")
    sub.add_argument("--spec", required=True)
    sub = leaf("check", "tl", _check_tl, "Temperley-Lieb relation residuals")
    sub.add_argument("--ansatz", required=True)
    sub.add_argument("--sites", type=int)
    sub = leaf("check", "hecke", _check_hecke, "Hecke condition of the braid generator")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub = leaf("check", "braid", _check_braid, "constant braided Yang-Baxter equation")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub = leaf("check", "ybe", _check_ybe, "constant and spectral Yang-Baxter equations")
    sub.add_argument("--ansatz")
    sub.add_argument("--braid")
    sub.add_argument("--samples", type=int, default=20)
    sub.add_argument("--seed", type=int, default=42, help="seed for the spectral samples")
    sub = leaf("check", "weighted-hadamard", _check_weighted_hadamard, "weighted Hadamard identity")
    sub.add_argument("--omega", required=True)
    sub.add_argument("--v", required=True, help="comma-separated complex weights")
    sub.add_argument("--w", required=True, help="comma-separated complex weights")

    def ansatz_flags(sub):
        sub.add_argument("--ansatz", help="ansatz JSON path")
        sub.add_argument("--m", help="matrix JSON path (with --exponents)")
        sub.add_argument("--exponents", help="comma-separated integers")
        sub.add_argument("--v", help="comma-separated complex weights")
        sub.add_argument("--w", help="comma-separated complex weights")

    sub = leaf("build", "tl-local", _build_tl_local, "local generator from an ansatz")
    ansatz_flags(sub)
    sub = leaf("build", "tl-embedded", _build_tl_embedded, "embedded generator at a bond")
    ansatz_flags(sub)
    sub.add_argument("--sites", type=int)
    sub.add_argument("--site", type=int, required=True)
    sub = leaf("build", "braid", _build_braid, "braid data from an ansatz")
    ansatz_flags(sub)
    sub = leaf("build", "rmatrix", _build_rmatrix, "plain R-matrix from ansatz or braid data")
    ansatz_flags(sub)
    sub.add_argument("--braid", help="braid data JSON path")
    sub = leaf(
        "build", "reconstruct-m", _build_reconstruct_m, "rebuild M from a spec and H", tolerant=False
    )
    sub.add_argument("--spec", required=True)
    sub.add_argument("--h", required=True, help="Hadamard matrix JSON path")

    sub = leaf("search", "master-rep", _search_master_rep, "pruned backtracking master-matrix search")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--exponent-bound", type=int, default=12)
    sub.add_argument("--root-order-bound", type=int, default=12)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # The parser is built on the first call, not at import (importing the
    # module stays cheap), and reused by every later call. A known command
    # is parsed by its leaf parser alone, which takes a third of the time
    # of the three nested levels (about 20 against 60 us for `check
    # master4`); a usage error inside it prints that command's usage. Any
    # other argv (help, an unknown or missing command) goes to the full
    # parser, which prints the top-level or the verb's help or error.
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    try:
        args = leaf.parse_args(argv[2:]) if leaf else parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if not 0 <= getattr(args, "tol", DEFAULT_TOL) < float("inf"):
            raise ValueError(f"--tol must be finite and nonnegative, got {args.tol!r}")
        # Overflow shows as a non-finite result, which the finite checks and
        # the strict render turn into exit 2; numpy's warnings would be a
        # second stderr line.
        with np.errstate(all="ignore"):
            payload, ok = args.handler(args)
            _emit(payload, args.out)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A size flag (--n, --samples) asked for more memory than exists.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
