"""Outputs of one checkout on fixed inputs, recorded exactly, for comparing two checkouts.

Usage, from the root of a checkout:

    python3 scripts/parity.py dump SRC --seeds 7 9 > after.json
    python3 scripts/parity.py compare before.json after.json

`dump` first runs `inputs DIR` in a child process, which imports this
checkout's own tlhad and test modules and writes, as JSON documents, the
input files of the PARITY_CASES of tests/test_cli.py and cases.json: the
case tables and every BLOCK_CASES entry of tests/test_tlrep.py as an
ansatz document (TLAnsatz.to_dict). It then imports tlhad from the source
directory SRC (the `src/` of any checkout), which only reads those
documents, and records:

- the loop and braid residuals of verify_tl, as float hex strings, for
  every tl_chain op of perfbench at each seed and for every BLOCK_CASES
  ansatz document;
- the exit code, the sha256 of stdout and of the --out file, and the
  stderr text of every PARITY_CASES command of tests/test_cli.py (the
  --out file is empty text where the command wrote none);
- the exit code and the sha256 of stdout of each CLI call of every
  cli_roundtrip op of perfbench at each seed;
- the spectral_worst of each `check ybe` document above, as a float hex
  string, under its own key; the document's hash is taken without it;
- the exit code, the sha256 of stdout and the stderr text of every
  USAGE_ERRORS and UNKNOWN_FLAGS row of tests/test_cli.py (help is
  formatted for COLUMNS=80 unless COLUMNS is set).

The inputs and cases are those of this checkout, made by its own tlhad,
so two dumps from one checkout read the same bytes whatever SRC computes,
and no test module is imported into the process that imports SRC.
`compare` exits 1 unless
the two files hold the same keys with equal values. spectral_worst may
move without a change of verdict: `check ybe` takes it from the Hecke
bounds' J on Hecke data and from the mirror words' coefficient bound on
any other input, and a change to either moves it by a factor, or within
the rounding floor of its sum. So `compare` reports, instead of failing on
it, its largest distance in ulps and the smallest and largest ratio
after/before, each with the case that sets it.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("linalg", "hadamard", "master", "tlrep", "baxter", "cli")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _residuals(report) -> list[str]:
    return [float(report.loop_residual).hex(), float(report.braid_residual).hex()]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _document(text: str, cases: dict, key: str) -> str:
    """sha256 of a CLI document; a `check ybe` one's spectral_worst is blanked, and filed under ybe/<key>."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and doc.get("check") == "ybe" and "spectral_worst" in doc:
        cases[f"ybe/{key}"] = float(doc["spectral_worst"]).hex()
        text = re.sub(r'("spectral_worst": )[^,}\s]+', r"\1_", text, count=1)
    return _sha256(text.encode())


def _ulps(a: str, b: str) -> float:
    """Doubles from a to b, two non-negative float hex strings; inf if they differ and one is not finite."""
    x, y = float.fromhex(a), float.fromhex(b)
    if a == b:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    # Non-negative doubles are ordered as their bit patterns.
    return float(abs(struct.unpack("<q", struct.pack("<d", x))[0] - struct.unpack("<q", struct.pack("<d", y))[0]))


def write_inputs(directory: Path) -> None:
    """The PARITY_CASES input files and cases.json in directory, made with this checkout's tlhad."""
    sys.path.insert(0, str(ROOT / "src"))
    test_cli = _load(ROOT / "tests" / "test_cli.py")
    block_cases = _load(ROOT / "tests" / "test_tlrep.py").BLOCK_CASES
    factory = SimpleNamespace(mktemp=lambda name: Path(tempfile.mkdtemp(prefix=name, dir=directory)))
    tables = {
        "inputs": str(test_cli.inputs.__wrapped__(factory)),
        "parity": test_cli.PARITY_CASES,
        "usage": test_cli.USAGE_ERRORS,
        "unknown_flag": test_cli.UNKNOWN_FLAGS,
        "block": {name: make().to_dict() for name, make in block_cases.items()},
    }
    (directory / "cases.json").write_text(json.dumps(tables), encoding="utf-8")


def dump(src: str, seeds: list[int], workdir: Path) -> dict:
    # The child's stdout goes to stderr: this process's stdout is the dump.
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "inputs", str(workdir)], check=True, stdout=sys.stderr
    )
    tables = json.loads((workdir / "cases.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(src).resolve()))
    import numpy as np

    lib = SimpleNamespace(**{name: importlib.import_module(f"tlhad.{name}") for name in MODULES})
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    cases = {}
    with np.errstate(all="ignore"):
        for seed in seeds:
            ops = WORKLOADS["tl_chain"](lib, np.random.default_rng(seed), workdir)
            for index, op in enumerate(ops):
                cases[f"tl_chain/{seed}/{index}/{op.slice}/{op.label}"] = _residuals(op.run())
        for name, doc in sorted(tables["block"].items()):
            cases[f"block/{name}"] = _residuals(lib.tlrep.verify_tl(lib.tlrep.TLAnsatz.from_dict(doc)))

    for seed in seeds:
        seed_dir = workdir / f"cli_roundtrip{seed}"
        seed_dir.mkdir()
        ops = WORKLOADS["cli_roundtrip"](lib, np.random.default_rng(seed), str(seed_dir))
        for index, op in enumerate(ops):
            # An op makes one call (code, stdout) or a list of them.
            calls = op.run()
            calls = [calls] if isinstance(calls, tuple) else calls
            key = f"{seed}/{index}/{op.slice}/{op.label}"
            cases[f"cli_roundtrip/{key}"] = [
                [code, _document(out, cases, f"{key}/{call}")] for call, (code, out) in enumerate(calls)
            ]

    for kind in ("usage", "unknown_flag"):
        for name, argv in sorted(tables[kind].items()):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = lib.cli.main(argv.split())
            cases[f"{kind}/{name}"] = [code, _sha256(stdout.getvalue().encode()), stderr.getvalue()]

    for name, argv in sorted(tables["parity"].items()):
        argv = argv.format(d=tables["inputs"]).split()
        out_path = workdir / f"{name}.out.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = lib.cli.main(argv)
            out_code = lib.cli.main(argv + ["--out", str(out_path)])
        # A command that exits 2 writes no --out file; that is recorded as empty text.
        out_text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        cases[f"cli/{name}"] = [
            code,
            out_code,
            _document(stdout.getvalue(), cases, f"cli/{name}/stdout"),
            _document(out_text, cases, f"cli/{name}/out"),
            stderr.getvalue(),
        ]
    return {"tlhad": lib.tlrep.__file__, "cases": cases}


def compare(before: dict, after: dict) -> int:
    a, b = before["cases"], after["cases"]
    spectral = sorted(key for key in a.keys() & b.keys() if key.startswith("ybe/"))
    if spectral:
        far = max(spectral, key=lambda key: _ulps(a[key], b[key]))
        moved = sum(a[key] != b[key] for key in spectral)
        print(
            f"spectral_worst: {moved} of {len(spectral)} moved; largest distance "
            f"{_ulps(a[far], b[far]):.0f} ulp at {far}: {float.fromhex(a[far])!r} -> {float.fromhex(b[far])!r}"
        )
        ratios = {}
        for key in spectral:
            x, y = float.fromhex(a[key]), float.fromhex(b[key])
            if x > 0 and math.isfinite(x) and math.isfinite(y):
                ratios[key] = y / x
        if ratios:
            low, high = min(ratios, key=ratios.get), max(ratios, key=ratios.get)
            print(
                f"spectral_worst after/before over {len(ratios)} finite nonzero: "
                f"min {ratios[low]:.6g} at {low}, max {ratios[high]:.6g} at {high}"
            )
    differ = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key) and key not in spectral)
    for key in differ:
        print(f"differs: {key}: {a.get(key)} -> {b.get(key)}")
    kinds = sorted({key.split("/")[0] for key in a.keys() | b.keys()})
    counts = ", ".join(f"{sum(k.startswith(kind + '/') for k in a.keys() & b.keys())} {kind}" for kind in kinds)
    print(f"cases in both: {counts}; {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump")
    d.add_argument("src")
    d.add_argument("--seeds", type=int, nargs="+", default=[7, 9])
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    i = sub.add_parser("inputs", help="write the input documents and cases.json into an existing directory")
    i.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        with open(args.before) as fb, open(args.after) as fa:
            return compare(json.load(fb), json.load(fa))
    if args.command == "inputs":
        write_inputs(args.directory)
        return 0
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("COLUMNS", "80")
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps(dump(args.src, args.seeds, Path(workdir)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
