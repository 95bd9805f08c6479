"""End-to-end tests for the command line interface."""

import argparse
import cmath
import copy
import importlib
import importlib.util
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad.baxter import BraidData, braid_from_tl
import tlhad
from tlhad import baxter, cli, linalg
from tlhad.cli import main, read_matrix
from tlhad.hadamard import f4_family, f6_family, fourier
from tlhad.linalg import as_matrix, matrix_to_dict
from tlhad.master import f4_master, f6_master, fourier_master, h0, h1, master_matrix
from tlhad.tlrep import (
    TLAnsatz,
    build_local_generator,
    fixture_u1_ansatz,
    fixture_u2,
    fixture_u2_ansatz,
    reconstruct_m,
)


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(m), fh)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


CHM = ["check", "chm", "--matrix"]
SCALAR = {"rows": 1, "cols": 1, "entries": [[1, 0]]}
MATRIX = {"rows": 2, "cols": 2, "entries": [[1, 0], [1, 0], [1, 0], [-1, 0]]}
ANSATZ = {"m": MATRIX, "exponents": [0, 1], "sites": 3}
BRAID = {"q": [0.5, 0.5], "r_check": matrix_to_dict(np.eye(4))}
OVERFLOWING_SPEC = {"lambdas": [[1e308, 0], [1, 0]], "exponents": [0, 2]}
HUGE_EXPONENTS = ["--exponents", "0,100000000000"]
# Sizes whose arrays (2.8 PiB of samples, 142 PiB of Fourier matrix) numpy
# refuses at once on any machine, and below the 2^63-byte limit past which
# it raises ValueError instead of MemoryError.
HUGE_SAMPLES = ["--samples", str(10**14)]
HUGE_FOURIER = ["gen", "fourier", "--n", str(10**8)]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestMatrixIo:
    def test_round_trip_exact(self, workdir):
        m = fixture_u2()
        write_matrix(str(workdir / "m.json"), m)
        assert np.array_equal(read_matrix(str(workdir / "m.json")), m)

    def test_wrong_shape_rejected(self, workdir):
        (workdir / "bad.json").write_text(
            json.dumps({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
        )
        with pytest.raises(ValueError):
            read_matrix(str(workdir / "bad.json"))

    def test_missing_file_raises_value_error(self, workdir):
        with pytest.raises(ValueError):
            read_matrix(str(workdir / "nope.json"))


class TestGen:
    def test_fourier(self, capsys, workdir):
        code, payload = run_json(capsys, "gen", "fourier", "--n", "3")
        assert code == 0
        assert payload["rows"] == 3 and payload["cols"] == 3
        back = as_matrix(
            [
                [complex(re, im) for re, im in payload["entries"][i * 3:(i + 1) * 3]]
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(back, fourier(3), rtol=0, atol=1e-14)

    def test_output_file(self, capsys, workdir):
        code, out, err = run(
            capsys, "gen", "fourier", "--n", "4", "--out", "f4.json"
        )
        assert code == 0 and out == ""
        assert read_matrix("f4.json").shape == (4, 4)

    def test_master_fourier(self, capsys, workdir):
        code, payload = run_json(capsys, "gen", "master-fourier", "--n", "5")
        assert code == 0
        assert payload["exponents"] == [0, 1, 2, 3, 4]
        assert len(payload["lambdas"]) == 5

    def test_master_f4_and_f6(self, capsys, workdir):
        code, payload = run_json(
            capsys, "gen", "master-f4", "--k", "2", "--m", "1"
        )
        assert code == 0 and payload["exponents"] == [0, 1, 4, 5]
        code, payload = run_json(
            capsys, "gen", "master-f6", "--k", "2", "--r", "1", "--s", "1"
        )
        assert code == 0 and len(payload["exponents"]) == 6

    def test_f4_f6_families(self, capsys, workdir):
        code, payload = run_json(capsys, "gen", "f4", "--a", "2")
        assert code == 0 and payload["rows"] == 4
        code, payload = run_json(capsys, "gen", "f6", "--a", "1j", "--b", "2")
        assert code == 0 and payload["rows"] == 6

    def test_nest(self, capsys, workdir):
        (workdir / "stages.json").write_text(
            json.dumps(
                {
                    "stages": [
                        {"p": 2, "k": 1, "g": [0, 0], "f": [0, 0]},
                        {"p": 3, "k": 1, "g": [0, 0, 0], "f": [0, 0, 0]},
                    ]
                }
            )
        )
        code, payload = run_json(
            capsys, "gen", "nest", "--stages", "stages.json"
        )
        assert code == 0
        assert payload["exponents"] == [0, 2, 4, 1, 3, 5]

    def test_dita(self, capsys, workdir):
        write_matrix("f2.json", fourier(2))
        write_matrix("b.json", fourier(3))
        code, payload = run_json(
            capsys,
            "gen",
            "dita",
            "--a",
            "f2.json",
            "--block",
            "b.json",
            "--block",
            "b.json",
        )
        assert code == 0 and payload["rows"] == 6

    def test_fixtures_and_counterexamples(self, capsys, workdir):
        for argv, rows in (
            (("gen", "fixture-u1"), 9),
            (("gen", "fixture-u2"), 9),
            (("gen", "h0"), 6),
            (("gen", "h1", "--a", "2"), 6),
        ):
            code, payload = run_json(capsys, *argv)
            assert code == 0 and payload["rows"] == rows

    @pytest.mark.parametrize(
        "argv,reduced",
        [
            ("gen fourier --n 3 --ell 100000000000000000001", "gen fourier --n 3 --ell 2"),
            (f"gen fourier --n 3 --ell {10**400 + 1}", "gen fourier --n 3 --ell 2"),
            (f"gen master-fourier --n 3 --ell {10**400 + 1}", "gen master-fourier --n 3 --ell 2"),
            ("gen master-f4 --k 1 --m 100000000000000000001", "gen master-f4 --k 1 --m 1"),
            ("gen nest --stages huge_f.json", "gen nest --stages zero_f.json"),
        ],
        ids=["fourier_ell_1e20", "fourier_ell_1e400", "master_fourier_ell_1e400", "master_f4_m_1e20", "nest_f_1e20"],
    )
    def test_an_integer_phase_acts_through_its_residue(self, capsys, workdir, argv, reduced):
        for name, f in (("huge_f.json", 10**20), ("zero_f.json", 0)):
            (workdir / name).write_text(json.dumps({"stages": [{"p": 2, "f": [f, 0]}]}))
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *reduced.split())

    def test_byte_determinism(self, capsys, workdir):
        code1, out1, _ = run(capsys, "gen", "f6", "--a", "0.5j", "--b", "3")
        code2, out2, _ = run(capsys, "gen", "f6", "--a", "0.5j", "--b", "3")
        assert code1 == code2 == 0
        assert out1 == out2


class TestCheck:
    def test_master_pass(self, capsys, workdir):
        run(capsys, "gen", "master-fourier", "--n", "5", "--out", "spec.json")
        code, payload = run_json(capsys, "check", "master", "--spec", "spec.json")
        assert code == 0
        assert payload["ok"] is True
        assert payload["max_residual"] <= 1e-9

    def test_chm_pass_and_fail(self, capsys, workdir):
        write_matrix("f3.json", fourier(3))
        code, payload = run_json(capsys, "check", "chm", "--matrix", "f3.json")
        assert code == 0 and payload["ok"] is True
        write_matrix("u2.json", fixture_u2())
        code, payload = run_json(capsys, "check", "chm", "--matrix", "u2.json")
        assert code == 1 and payload["ok"] is False
        assert payload["max_residual"] > 0.5

    def test_ghm_butson(self, capsys, workdir):
        write_matrix("f3.json", fourier(3))
        code, payload = run_json(capsys, "check", "ghm", "--matrix", "f3.json")
        assert code == 0 and payload["is_ghm"] is True
        code, payload = run_json(
            capsys, "check", "butson", "--matrix", "f3.json", "--q", "3"
        )
        assert code == 0 and payload["ok"] is True
        code, payload = run_json(
            capsys, "check", "butson", "--matrix", "f3.json", "--q", "2"
        )
        assert code == 1 and payload["ok"] is False

    def test_tl_fixture(self, capsys, workdir):
        (workdir / "u2a.json").write_text(
            json.dumps(fixture_u2_ansatz().to_dict())
        )
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "u2a.json")
        assert code == 0
        assert payload["ok"] is True
        assert payload["loop_residual"] <= 1e-10
        assert payload["braid_residual"] <= 1e-10
        assert payload["nu"][0] == pytest.approx(3.0)

    def test_tl_failing_ansatz(self, capsys, workdir):
        bad = {
            "m": {
                "rows": 2,
                "cols": 2,
                "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
            },
            "exponents": [0, 1],
            "sites": 3,
        }
        (workdir / "bad.json").write_text(json.dumps(bad))
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "bad.json")
        assert code == 1
        assert payload["ok"] is False
        assert payload["braid_residual"] > 0.1

    def test_tl_exponents_beyond_int64(self, capsys, workdir):
        # The swap matrix has order 2, so M^(10^30) = I exactly.
        swap = {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
        (workdir / "a.json").write_text(json.dumps(ANSATZ | {"m": swap, "exponents": [0, 10**30]}))
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "a.json")
        assert code == 1
        assert payload["ok"] is False
        assert payload["loop_residual"] == 0.0
        assert payload["braid_residual"] == 2.0
        assert payload["nu"] == [2.0, 0.0]

    def test_hecke_braid_ybe(self, capsys, workdir):
        (workdir / "u2a.json").write_text(
            json.dumps(fixture_u2_ansatz().to_dict())
        )
        code, payload = run_json(
            capsys, "check", "hecke", "--ansatz", "u2a.json"
        )
        assert code == 0 and payload["hecke_residual"] <= 1e-10
        code, payload = run_json(
            capsys, "check", "braid", "--ansatz", "u2a.json"
        )
        assert code == 0 and payload["braid_residual"] <= 1e-9
        code, payload = run_json(
            capsys, "check", "ybe", "--ansatz", "u2a.json", "--samples", "20"
        )
        assert code == 0
        assert payload["spectral_worst"] <= 1e-8
        assert len(payload["samples"]) == 20
        assert payload["spectral_tol"] == pytest.approx(10 * payload["tol"])

    def test_ybe_seed_determinism(self, capsys, workdir):
        (workdir / "u2a.json").write_text(
            json.dumps(fixture_u2_ansatz().to_dict())
        )
        _, out1, _ = run(capsys, "check", "ybe", "--ansatz", "u2a.json")
        _, out2, _ = run(capsys, "check", "ybe", "--ansatz", "u2a.json")
        assert out1 == out2
        _, out3, _ = run(
            capsys, "check", "ybe", "--ansatz", "u2a.json", "--seed", "7"
        )
        assert out1 != out3

    def test_master4(self, capsys, workdir):
        run(capsys, "gen", "master-fourier", "--n", "3", "--out", "spec.json")
        spec = fourier_master(3)
        from tlhad.master import master_matrix

        om = np.asarray(master_matrix(spec))
        p = om.T @ np.asarray(fourier(3)) / 3
        write_matrix("p.json", as_matrix(p))
        code, payload = run_json(
            capsys, "check", "master4", "--p", "p.json", "--spec", "spec.json"
        )
        assert code == 0 and payload["ok"] is True

    def test_weighted_hadamard(self, capsys, workdir):
        from tlhad.linalg import unit_root
        from tlhad.master import master_matrix

        write_matrix("om.json", master_matrix(fourier_master(3)))
        w, w2 = unit_root(1, 3), unit_root(2, 3)
        code, payload = run_json(
            capsys,
            "check",
            "weighted-hadamard",
            "--omega",
            "om.json",
            f"--v={w.real}+{w.imag}j,1,1",
            f"--w={w2.real}{w2.imag}j,1,1",
        )
        assert code == 0 and payload["ok"] is True
        # alpha is the weight overlap w w^2 + 1 + 1.
        assert payload["alpha"] == linalg.complex_to_json(w * w2 + 2)


def _braid_docs():
    rng = np.random.default_rng(5)
    generic = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    # R = q I - T / sqrt(3) of a random T, whose T^2 is not 3 T: neither Hecke nor braided.
    docs = {"generic_n3": braid_from_tl(as_matrix(generic), 3).to_dict()}
    # Hecke data with a braid defect of order 1e5: an ansatz on a random M.
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
    a = TLAnsatz(m, (1, -1, 0), v=rng.normal(size=3) + 1j, w=rng.normal(size=3) - 1j)
    docs["nonmaster_n3"] = braid_from_tl(build_local_generator(a), a.alpha).to_dict()
    for name, a in (("fixture_u1", fixture_u1_ansatz()), ("fixture_u2", fixture_u2_ansatz())):
        docs[name] = braid_from_tl(build_local_generator(a), a.alpha).to_dict()
    for n in (2, 5, 6):
        spec = fourier_master(n)
        m = reconstruct_m(master_matrix(spec), fourier(n), spec.lambdas)
        a = TLAnsatz(m, spec.exponents)
        docs[f"fourier{n}"] = braid_from_tl(build_local_generator(a), a.alpha).to_dict()
    return docs


BRAID_DOCS = _braid_docs()
#: Keys that older builds wrote into braid files, with values no reader may use.
LEGACY_KEYS = {"nu": [100.0, 0.0], "hecke_residual": 0.5}


def legacy_braid(doc, keys=tuple(LEGACY_KEYS)):
    """A braid document as an older build wrote it, with `keys` of LEGACY_KEYS."""
    return doc | {key: LEGACY_KEYS[key] for key in keys}


@pytest.mark.parametrize("keys", [("nu",), ("hecke_residual",), tuple(LEGACY_KEYS)], ids="+".join)
@pytest.mark.parametrize("case", list(BRAID_DOCS))
def test_legacy_braid_keys_change_no_output(capsys, workdir, case, keys):
    (workdir / "new.json").write_text(json.dumps(BRAID_DOCS[case]))
    (workdir / "old.json").write_text(json.dumps(legacy_braid(BRAID_DOCS[case], keys)))
    for verb in (["check", "hecke"], ["check", "braid"], ["check", "ybe", "--samples", "5"], ["build", "rmatrix"]):
        assert run(capsys, *verb, "--braid", "old.json") == run(capsys, *verb, "--braid", "new.json")


def test_braid_documents_and_payloads_hold_no_nu(capsys, workdir):
    (workdir / "a.json").write_text(json.dumps(fixture_u2_ansatz().to_dict()))
    code, doc = run_json(capsys, "build", "braid", "--ansatz", "a.json")
    assert code == 0 and set(doc) == {"q", "r_check"}
    assert run(capsys, "build", "braid", "--ansatz", "a.json", "--out", "b.json")[:2] == (0, "")
    assert json.loads((workdir / "b.json").read_text()) == doc
    for verb in ("hecke", "ybe"):
        code, payload = run_json(capsys, "check", verb, "--braid", "b.json")
        assert code == 0 and "nu" not in payload and payload["q"] == doc["q"]


def test_master_with_exponent_past_numpys_exact_powers(capsys, workdir):
    # 1 + (-1)^(10^7 + 1) is 0 exactly; numpy's ** would miss by 1.4e-9.
    spec = {"lambdas": [[1, 0], [-1, 0]], "exponents": [0, 10**7 + 1]}
    (workdir / "spec.json").write_text(json.dumps(spec))
    code, payload = run_json(capsys, "check", "master", "--spec", "spec.json")
    assert code == 0 and payload["max_residual"] == 0.0


@pytest.mark.parametrize("case", list(BRAID_DOCS))
def test_ybe_braid_residual_is_check_braids(capsys, workdir, case):
    (workdir / "braid.json").write_text(json.dumps(BRAID_DOCS[case]))
    code, braid = run_json(capsys, "check", "braid", "--braid", "braid.json")
    ybe_code, ybe = run_json(capsys, "check", "ybe", "--braid", "braid.json", "--samples", "5")
    assert ybe["braid_residual"] == braid["braid_residual"]
    assert code == ybe_code == (1 if case in ("generic_n3", "nonmaster_n3") else 0)


def _mirror_word_stacks(monkeypatch):
    """The stack size m of every baxter._mirror_words call from now on."""
    calls, real = [], baxter._mirror_words

    def counting(ops, *args, **kwargs):
        calls.append(len(ops))
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(baxter, "_mirror_words", counting)
    return calls


def test_benchmark_ybe_checks_skip_the_two_operator_kernel(monkeypatch, tmp_path):
    # The cli_roundtrip pipelines of perfbench check `ybe` on the Hecke
    # braid files that `build braid` writes: both residuals come from
    # check_braid (m = 1) and the Hecke defect, never from the m = 2 kernel.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    modules = ("linalg", "hadamard", "master", "tlrep", "baxter", "cli")
    lib = SimpleNamespace(**{name: importlib.import_module(f"tlhad.{name}") for name in modules})
    ops = workloads.WORKLOADS["cli_roundtrip"](lib, np.random.default_rng(5), str(tmp_path))
    pipelines = [op for op in ops if op.slice == "pipeline"]
    calls = _mirror_word_stacks(monkeypatch)
    for op in pipelines:
        assert op.judge(op.run()).verdict == "pass"
    # One check_braid block per strand-0 index of each pipeline's n.
    assert calls == [1] * sum(int(op.label[1 : op.label.index("s")]) for op in pipelines)


def test_ybe_of_singular_hecke_data_exits_2(capsys, workdir):
    # Exactly Hecke (eigenvalues q and -1/q), and max|R| * max|R^-1| = 1e12.
    q = 1e-6
    doc = BraidData(q, np.diag([q, -1 / q, -1 / q, q])).to_dict()
    (workdir / "braid.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "ybe", "--braid", "braid.json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "singular" in err


def f4_ansatz(a):
    """The ansatz of f4_master(1, 1) on f4_family(a); cond(M) grows as a^2 (5e7 at a = 1e4)."""
    spec = f4_master(1, 1)
    return TLAnsatz(reconstruct_m(master_matrix(spec), f4_family(a), spec.lambdas), spec.exponents)


#: Every verb that takes --ansatz, in the column order of F4_SWEEP_EXITS.
ANSATZ_VERBS = [
    ("check", "tl"),
    ("check", "hecke"),
    ("check", "braid"),
    ("check", "ybe"),
    ("build", "braid"),
    ("build", "rmatrix"),
]

#: Exit code of each ANSATZ_VERBS verb on f4_ansatz(a). The loop and Hecke
#: relations hold by construction, so their residuals are rounding: past
#: tol from a = 1e4 on, which fails the checks (exit 1) but is not bad
#: input, and the builds never check them. At a = 1e5 M is singular at
#: tol and the ansatz is undefined (exit 2).
F4_SWEEP_EXITS = {
    10: (0, 0, 0, 0, 0, 0),
    100: (1, 0, 1, 1, 0, 0),
    1e4: (1, 1, 1, 1, 0, 0),
    3e4: (1, 1, 1, 1, 0, 0),
    1e5: (2, 2, 2, 2, 2, 2),
}


def _ansatz_exits(capsys, workdir, ansatz):
    (workdir / "a.json").write_text(json.dumps(ansatz.to_dict()))
    return tuple(run(capsys, *verb, "--ansatz", "a.json")[0] for verb in ANSATZ_VERBS)


@pytest.mark.parametrize("a", list(F4_SWEEP_EXITS))
def test_f4_sweep_exit_codes(capsys, workdir, a):
    assert _ansatz_exits(capsys, workdir, f4_ansatz(a)) == F4_SWEEP_EXITS[a]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_non_master_ansatz_fails_tl_braid_and_ybe_but_not_hecke(capsys, workdir, n):
    rng = np.random.default_rng(n - 1)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    exponents = tuple(int(e) for e in rng.permutation(n) - n // 2)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    exits = _ansatz_exits(capsys, workdir, TLAnsatz(m, exponents, v=v, w=w))
    assert exits[:4] == (1, 0, 1, 1)


class TestBuild:
    def test_tl_local_matches_fixture(self, capsys, workdir):
        code, payload = run_json(
            capsys,
            "build",
            "tl-local",
            "--m",
            self._write_m(workdir),
            "--exponents",
            "2,0,1",
        )
        assert code == 0
        entries = payload["entries"]
        built = as_matrix(
            [
                [complex(re, im) for re, im in entries[i * 9:(i + 1) * 9]]
                for i in range(9)
            ]
        )
        np.testing.assert_allclose(built, fixture_u2(), rtol=0, atol=1e-12)

    def test_tl_local_huge_exponent_difference(self, capsys, workdir):
        write_matrix("m.json", np.eye(2))
        code, payload = run_json(capsys, "build", "tl-local", *HUGE_EXPONENTS, "--m", "m.json")
        assert code == 0
        # M^d = I for every d, so T = ones(2, 2) (x) I.
        assert payload == matrix_to_dict(np.kron(np.ones((2, 2)), np.eye(2)))

    @staticmethod
    def _write_m(workdir):
        m = fixture_u2_ansatz().m
        write_matrix(str(workdir / "m.json"), m)
        return "m.json"

    def test_tl_embedded(self, capsys, workdir):
        (workdir / "u2a.json").write_text(
            json.dumps(fixture_u2_ansatz().to_dict())
        )
        code, payload = run_json(
            capsys,
            "build",
            "tl-embedded",
            "--ansatz",
            "u2a.json",
            "--site",
            "2",
        )
        assert code == 0 and payload["rows"] == 27

    def test_braid_and_rmatrix(self, capsys, workdir):
        (workdir / "u2a.json").write_text(
            json.dumps(fixture_u2_ansatz().to_dict())
        )
        code, payload = run_json(
            capsys, "build", "braid", "--ansatz", "u2a.json"
        )
        assert code == 0 and set(payload) == {"q", "r_check"}
        (workdir / "braid.json").write_text(json.dumps(payload))
        code, hecke = run_json(capsys, "check", "hecke", "--braid", "braid.json")
        assert code == 0 and hecke["hecke_residual"] <= 1e-10
        code, payload = run_json(
            capsys, "build", "rmatrix", "--braid", "braid.json"
        )
        assert code == 0 and payload["rows"] == 9

    def test_reconstruct_m(self, capsys, workdir):
        run(capsys, "gen", "master-fourier", "--n", "3", "--out", "spec.json")
        write_matrix("h.json", fourier(3))
        code, payload = run_json(
            capsys,
            "build",
            "reconstruct-m",
            "--spec",
            "spec.json",
            "--h",
            "h.json",
        )
        assert code == 0 and payload["rows"] == 3
        write_matrix("m.json", as_matrix(
            [
                [complex(re, im) for re, im in payload["entries"][i * 3:(i + 1) * 3]]
                for i in range(3)
            ]
        ))
        (workdir / "a.json").write_text(
            json.dumps(
                {
                    "m": json.loads((workdir / "m.json").read_text()),
                    "exponents": [0, 1, 2],
                    "sites": 3,
                }
            )
        )
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "a.json")
        assert code == 0 and payload["ok"] is True


class TestSearch:
    def test_found(self, capsys, workdir):
        write_matrix("f3.json", fourier(3))
        code, payload = run_json(
            capsys,
            "search",
            "master-rep",
            "--matrix",
            "f3.json",
            "--exponent-bound",
            "4",
            "--root-order-bound",
            "6",
        )
        assert code == 0
        assert payload["found"] is True
        assert payload["spec"]["exponents"] == [0, 1, 2]

    @pytest.mark.parametrize(
        "exponent_bound, root_order_bound",
        [("4", "1000"), ("3000000", "12")],
        ids=["root_order_1000", "exponent_3000000"],
    )
    def test_large_bounds_cost_only_the_visited_nodes(
        self, capsys, workdir, exponent_bound, root_order_bound
    ):
        write_matrix("f3.json", fourier(3))
        started = time.perf_counter()
        code, payload = run_json(
            capsys,
            "search",
            "master-rep",
            "--matrix",
            "f3.json",
            "--exponent-bound",
            exponent_bound,
            "--root-order-bound",
            root_order_bound,
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert payload["spec"]["exponents"] == [0, 1, 2]
        assert elapsed < 1.0, elapsed

    def test_not_found_still_exits_zero(self, capsys, workdir):
        write_matrix("h0.json", h0())
        code, payload = run_json(
            capsys,
            "search",
            "master-rep",
            "--matrix",
            "h0.json",
            "--exponent-bound",
            "12",
            "--root-order-bound",
            "12",
        )
        assert code == 0
        assert payload["found"] is False
        assert payload["spec"] is None


class TestErrors:
    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err.lower() or "invalid" in err.lower()

    def test_missing_file(self, capsys, workdir):
        code, out, err = run(capsys, "check", "master", "--spec", "nope.json")
        assert code == 2
        assert "nope.json" in err

    def test_malformed_json(self, capsys, workdir):
        (workdir / "junk.json").write_text("{not json")
        code, out, err = run(capsys, "check", "chm", "--matrix", "junk.json")
        assert code == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"a": "\xff"}', "error: 'utf-8' codec can't decode byte 0xff in position 7"),
            (b"\xef\xbb\xbf{}", "error: malformed JSON in in.json: Unexpected UTF-8 BOM"),
            # Positions count the characters of the file, a CR included.
            (b'{\r\n "rows": 1,\r\n}', "double quotes: line 3 column 1 (char 16)"),
        ],
        ids=["invalid_utf8", "bom", "crlf"],
    )
    def test_input_is_read_as_strict_utf8(self, capsys, workdir, data, message):
        (workdir / "in.json").write_bytes(data)
        code, out, err = run(capsys, "check", "chm", "--matrix", "in.json")
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1

    def test_missing_required_combination(self, capsys, workdir):
        write_matrix("m.json", fixture_u2_ansatz().m)
        code, out, err = run(capsys, "build", "tl-local", "--m", "m.json")
        assert code == 2
        assert "exponents" in err

    def test_bad_complex_literal(self, capsys, workdir):
        code, out, err = run(capsys, "gen", "f4", "--a", "zebra")
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"lambdas": [[1, 0], [-1, 0]], "exponents": [0, None]},
            {"lambdas": [[1, 0], [-1, 0]], "exponents": [0, True]},
            {"lambdas": [[1, 0], [-1, 0]], "exponents": [0, 1.0]},
            {"lambdas": [[1, 0], [-1, 0]], "exponents": [0, "1"]},
            {"lambdas": [[float("nan"), 0], [1, 0]], "exponents": [0, 1]},
            {"lambdas": [[1, float("inf")], [1, 0]], "exponents": [0, 1]},
            {"lambdas": [["1", 0], [-1, 0]], "exponents": [0, 1]},
            {"lambdas": [[None, 0], [-1, 0]], "exponents": [0, 1]},
            {"lambdas": [[True, 0], [-1, 0]], "exponents": [0, 1]},
            {"lambdas": [[10**400, 0], [-1, 0]], "exponents": [0, 1]},
        ],
        ids=["null_exponent", "bool_exponent", "float_exponent", "string_exponent",
             "nan_part", "inf_part", "string_part", "null_part", "bool_part", "huge_int_part"],
    )
    def test_malformed_master_spec_exits_2(self, capsys, workdir, spec):
        (workdir / "spec.json").write_text(json.dumps(spec))
        code, out, err = run(capsys, "check", "master", "--spec", "spec.json")
        assert code == 2
        assert out == ""
        assert "eigenvalue" in err or "exponent" in err

    @pytest.mark.parametrize(
        "argv, doc, field",
        [
            (["check", "tl", "--ansatz"], ANSATZ | {"v": [[None, 0], [1, 0]]}, "v 0"),
            (["check", "tl", "--ansatz"], ANSATZ | {"v": [["1", 0], [1, 0]]}, "v 0"),
            (["check", "hecke", "--braid"], BRAID | {"q": [None, 0]}, "q must"),
            (["check", "hecke", "--braid"], BRAID | {"q": [float("nan"), 0]}, "q must"),
            (["check", "hecke", "--braid"], BRAID | {"q": [0, 0]}, "q must"),
            (["gen", "nest", "--stages"], {"stages": [{"p": 2, "g": [None, 0]}]}, "stage 0: g 0"),
            (["gen", "nest", "--stages"], {"stages": [{"p": 2.5}]}, "stage 0: p"),
            (CHM, SCALAR | {"entries": [[1e308, 1e308]]}, "JSON"),
            (
                ["check", "weighted-hadamard", "--v", "1,nan", "--w", "1,1", "--omega"],
                MATRIX,
                "nan",
            ),
            (["check", "tl", "--ansatz"], ANSATZ | {"exponents": [0, 2.7]}, "exponent"),
            (["check", "tl", "--ansatz"], ANSATZ | {"exponents": [0, "2"]}, "exponent"),
            (["check", "tl", "--ansatz"], ANSATZ | {"sites": 3.9}, "sites"),
            (CHM, SCALAR | {"rows": 1.5}, "rows"),
            (CHM, SCALAR | {"rows": "1"}, "rows"),
            (CHM, SCALAR | {"entries": [[True, False]]}, "entry 0"),
            (["check", "master", "--spec"], OVERFLOWING_SPEC, "overflow"),
            # One document serves as both the eigenvector matrix and the spec.
            (
                ["check", "master4", "--p", "in.json", "--spec"],
                MATRIX | OVERFLOWING_SPEC,
                "overflow",
            ),
            (
                ["check", "master4", "--p", "in.json", "--spec"],
                SCALAR | {"lambdas": [[1e-200, 0]], "exponents": [2]},
                "underflow",
            ),
            (
                ["build", "tl-local", *HUGE_EXPONENTS, "--m"],
                matrix_to_dict(2 * np.eye(2)),
                "finite",
            ),
            (
                ["check", "weighted-hadamard", "--v", "1,1", "--w", "1,1,1", "--omega"],
                MATRIX,
                "need 2 entries",
            ),
            (["check", "ybe", *HUGE_SAMPLES, "--ansatz"], ANSATZ, "out of memory"),
            (["check", "ybe", "--seed", "-1", "--ansatz"], ANSATZ, "seed -1"),
            # gen reads no file; in.json is the --out path, left as written.
            ([*HUGE_FOURIER, "--out"], {}, "out of memory"),
            # Integers past the float range, where a float is needed.
            *(
                ([*argv, "--out"], {}, "too large to convert to float")
                for argv in (
                    ["gen", "master-f4", "--k", str(10**400), "--m", "1"],
                    ["gen", "master-f6", "--k", str(10**400), "--r", "1", "--s", "1"],
                    ["gen", "master-fourier", "--n", str(10**400)],
                )
            ),
            (["check", "butson", "--q", str(10**400), "--matrix"], SCALAR, "too large"),
            # v o w = 0 would pass the identity with any Omega.
            (["check", "weighted-hadamard", "--v", "1,0", "--w", "0,1", "--omega"], MATRIX, "nonzero"),
            # 1e200 * 1e200 overflows: alpha is not finite.
            (["check", "weighted-hadamard", "--v", "1e200,1", "--w", "1e200,1", "--omega"], MATRIX, "finite"),
            # Powers of order 10^200 overflow the braid products: a NaN residual.
            *(
                (["check", "tl", "--ansatz"], ANSATZ | {"m": c, "exponents": e}, "JSON")
                for c, e in (
                    (matrix_to_dict(10 * np.eye(2)), [0, 200]),
                    (matrix_to_dict(10 * np.eye(2)), [0, 160]),
                    (matrix_to_dict(2 * np.eye(2)), [0, 600]),
                )
            ),
            # A tolerance that is not a finite number >= 0 is refused before the check runs.
            *((["check", "chm", "--tol", tol, "--matrix"], SCALAR, "--tol") for tol in ("nan", "inf", "-1")),
        ],
        ids=[
            "ansatz_null_weight", "ansatz_string_weight", "braid_null_q",
            "braid_nan_q", "braid_zero_q", "nesting_null_g", "nesting_fractional_p",
            "overflowing_residual", "nan_weight_flag", "fractional_exponent",
            "string_exponent", "fractional_sites", "fractional_rows", "string_rows",
            "bool_entry", "master_power_overflow", "master4_power_overflow",
            "master4_power_underflow", "generator_power_overflow", "weight_length_mismatch",
            "spectral_samples_memory", "negative_seed", "fourier_size_memory",
            "master_f4_huge_k", "master_f6_huge_k", "master_fourier_huge_n", "butson_huge_q",
            "weighted_zero_overlap", "weighted_overflowing_overlap", "tl_nan_braid_10_200", "tl_nan_braid_10_160",
            "tl_nan_braid_2_600", "tol_nan", "tol_inf", "tol_negative",
        ],
    )
    def test_malformed_input_exits_2(self, capsys, workdir, argv, doc, field):
        (workdir / "in.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "in.json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err
        assert err.count("\n") == 1

    def test_huge_sites_exits_2_at_once(self, workdir):
        # n^sites is refused on bit lengths before the power is formed; in a
        # child process, so that forming it fails the test by the timeout.
        (workdir / "a.json").write_text(json.dumps(fixture_u2_ansatz().to_dict()))
        argv = ["build", "tl-embedded", "--ansatz", "a.json", "--site", "2", "--sites", str(10**400)]
        result = subprocess.run(
            [sys.executable, "-c", "import sys, tlhad.cli as c; sys.exit(c.main(sys.argv[1:]))", *argv],
            capture_output=True,
            text=True,
            timeout=20,
            env=os.environ | {"PYTHONPATH": str(Path(tlhad.__file__).parent.parent)},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: embedded dimension 3**sites exceeds")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "entries, residual", [([[1, 0], [0, 1]], None), ([[1, 2], [2, 4]], 4.0)], ids=["zero_entry", "singular"]
    )
    def test_non_ghm_omega_fails_both_checks(self, capsys, workdir, entries, residual):
        # A zero entry has no residual (null); a singular Omega has a number.
        write_matrix("om.json", as_matrix(entries))
        code, payload = run_json(capsys, "check", "ghm", "--matrix", "om.json")
        assert (code, payload["ok"], payload["max_residual"]) == (1, False, residual)
        code, payload = run_json(
            capsys, "check", "weighted-hadamard", "--omega", "om.json", "--v", "1,1", "--w", "1,1"
        )
        assert (code, payload["ok"], payload["residual"], payload["ghm_residual"]) == (1, False, residual, residual)

    def test_overlap_at_rounding_level_exits_2_on_every_verb(self, capsys, workdir):
        # Fourier 3 with v = 1 and w = (1, w, w^2) from cmath.exp: alpha is
        # the rounding of a zero sum, not zero, and no verb may read it as data.
        w = tuple(cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
        assert 0 < abs(sum(w)) < 1e-15
        spec = fourier_master(3)
        m = reconstruct_m(master_matrix(spec), fourier(3), spec.lambdas)
        doc = {"m": matrix_to_dict(m), "exponents": [0, 1, 2], "sites": 3,
               "v": linalg.complex_to_json((1, 1, 1)), "w": linalg.complex_to_json(w)}
        (workdir / "a.json").write_text(json.dumps(doc))
        write_matrix("om.json", fourier(3))
        for argv in (
            *(["check", verb, "--ansatz", "a.json"] for verb in ("tl", "hecke", "braid", "ybe")),
            ["check", "weighted-hadamard", "--omega", "om.json", "--v", "1,1,1", "--w", ",".join(map(repr, w))],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: weight overlap") and "rounding bound" in err
            assert err.count("\n") == 1

    def test_weighted_check_asks_the_tl_normalisation(self, capsys, workdir):
        # v o w = 2 satisfies the weighted identity at alpha = 6, and check tl
        # fails on the same weights (braid residual 3 * 2^2 * (2 - 1) = 12).
        write_matrix("om.json", fourier(3))
        code, payload = run_json(
            capsys, "check", "weighted-hadamard", "--omega", "om.json", "--v", "1,1,1", "--w", "2,2,2"
        )
        assert (code, payload["ok"], payload["tl_normalisation"], payload["overlap_spread"]) == (1, False, 1.0, 0.0)
        assert payload["residual"] == payload["ghm_residual"] <= 1e-15
        spec = fourier_master(3)
        m = reconstruct_m(master_matrix(spec), fourier(3), spec.lambdas)
        (workdir / "a.json").write_text(json.dumps(TLAnsatz(m, spec.exponents, (1, 1, 1), (2, 2, 2)).to_dict()))
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "a.json")
        assert (code, payload["ok"]) == (1, False)
        assert payload["braid_residual"] == pytest.approx(12.0)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _wire_docs():
    """verb argv -> one valid document of each wire format it reads."""
    spec = fourier_master(2)
    m = reconstruct_m(master_matrix(spec), fourier(2), spec.lambdas)
    ansatz = TLAnsatz(m, spec.exponents, v=(1, 1j), w=(1, -1j))
    braid = braid_from_tl(build_local_generator(ansatz), ansatz.alpha)
    stages = [{"p": 2, "k": 1, "g": [0, 1], "f": [0, 0]}, {"p": 2, "g": [0, 0], "f": [1, 0]}]
    return [
        (["check", "ghm", "--matrix"], matrix_to_dict(fourier(2))),
        (["check", "master", "--spec"], fourier_master(3).to_dict()),
        (["check", "tl", "--ansatz"], ansatz.to_dict()),
        (["check", "ybe", "--samples", "2", "--braid"], braid.to_dict()),
        (["gen", "nest", "--stages"], {"stages": stages}),
    ]


WIRE_DOCS = _wire_docs()
MUTATIONS = [
    None, True, False, "1", float("nan"), float("inf"), float("-inf"), 2.5, 1e308, "drop"
]


def _node_paths(doc, prefix=()):
    """Key/index paths to every node below the root of a JSON document."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutate(doc, path, mutation):
    """Replace the node at `path`; "drop" deletes a key or shortens a list there."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation != "drop":
        parent[path[-1]] = mutation
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        del parent[path[-1]:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_mutated_leaf_keeps_the_wire_contract(data):
    argv, doc = data.draw(st.sampled_from(WIRE_DOCS))
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    _mutate(doc, path, data.draw(st.sampled_from(MUTATIONS)))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "in.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [doc_path])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ------------------------------------------------------- output parity --

def _indented_render(payload):
    """The former stdout and --out render, kept as the oracle."""
    return (
        json.dumps(
            payload,
            indent=2,
            sort_keys=True,
            allow_nan=False,
            default=lambda a: linalg.complex_to_json(a),
        )
        + "\n"
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of valid input documents for the parity cases."""
    d = tmp_path_factory.mktemp("inputs")

    def dump(name, doc):
        (d / name).write_text(json.dumps(doc))

    spec = fourier_master(3)
    m = reconstruct_m(master_matrix(spec), fourier(3), spec.lambdas)
    ansatz = TLAnsatz(m, spec.exponents, sites=3)
    dump("spec.json", spec.to_dict())
    dump("h.json", matrix_to_dict(fourier(3)))
    dump("m.json", matrix_to_dict(m))
    dump("ansatz.json", ansatz.to_dict())
    dump("u2a.json", fixture_u2_ansatz().to_dict())
    dump("braid.json", braid_from_tl(build_local_generator(ansatz), ansatz.alpha).to_dict())
    dump("generic.json", BRAID_DOCS["generic_n3"])
    dump("legacy_braid.json", legacy_braid(BRAID_DOCS["fixture_u2"]))
    dump("f2.json", matrix_to_dict(fourier(2)))
    dump("eye.json", matrix_to_dict(np.eye(2)))
    dump("h0.json", matrix_to_dict(h0()))
    dump("p.json", matrix_to_dict(master_matrix(spec).T @ fourier(3) / 3))
    dump("om.json", matrix_to_dict(master_matrix(spec)))
    dump("stages.json", {"stages": [{"p": 2, "g": [0, 1]}, {"p": 2, "f": [1, 0]}]})
    dump("stages_huge_f.json", {"stages": [{"p": 2, "f": [10**20, 0]}]})
    spec4 = fourier_master(4)
    m4 = reconstruct_m(master_matrix(spec4), fourier(4), spec4.lambdas)
    dump("f4s4.json", TLAnsatz(m4, spec4.exponents, sites=4).to_dict())
    spec6 = f6_master(2, 1, 1)
    h6 = f6_family(cmath.exp(0.3j), cmath.exp(1.1j))
    m6 = reconstruct_m(master_matrix(spec6), h6, spec6.lambdas)
    dump("f6a.json", TLAnsatz(m6, spec6.exponents).to_dict())
    signed = np.array([[complex(1, -0.0), complex(-0.0, 0.0)], [complex(0.0, -0.0), -1]])
    dump("zeros.json", matrix_to_dict(signed))
    dump("f4a1e4.json", f4_ansatz(1e4).to_dict())
    return d


#: argv with {d} standing for the inputs directory.
PARITY_CASES = {
    "gen_fourier": "gen fourier --n 5 --ell 2",
    "gen_f4": "gen f4 --a 0.3+0.7j",
    "gen_f6": "gen f6 --a 1j --b 2",
    "gen_dita": "gen dita --a {d}/f2.json --block {d}/h.json --block {d}/h.json",
    "gen_nest": "gen nest --stages {d}/stages.json",
    # Integer phases past the float range act through their residues.
    "gen_fourier_huge_ell": "gen fourier --n 3 --ell 100000000000000000001",
    "gen_master_f4_huge_m": "gen master-f4 --k 1 --m 100000000000000000001",
    "gen_nest_huge_f": "gen nest --stages {d}/stages_huge_f.json",
    "gen_h0": "gen h0",
    "gen_h1": "gen h1 --a 2",
    "gen_fixture_u1": "gen fixture-u1",
    "gen_fixture_u2": "gen fixture-u2",
    "gen_master_fourier": "gen master-fourier --n 3",
    "gen_master_f4": "gen master-f4 --k 2 --m 1",
    "gen_master_f6": "gen master-f6 --k 2 --r 1 --s 1",
    "readme_reconstruct_m": "build reconstruct-m --spec {d}/spec.json --h {d}/h.json",
    "readme_tl_local": "build tl-local --m {d}/m.json --exponents 0,1,2",
    "readme_check_master": "check master --spec {d}/spec.json",
    "build_tl_local": "build tl-local --ansatz {d}/u2a.json",
    "build_tl_embedded": "build tl-embedded --ansatz {d}/u2a.json --site 2",
    "build_tl_embedded_f4s4_site2": "build tl-embedded --ansatz {d}/f4s4.json --site 2",
    "build_tl_embedded_f4s4_site3": "build tl-embedded --ansatz {d}/f4s4.json --site 3",
    "build_tl_embedded_f6": "build tl-embedded --ansatz {d}/f6a.json --site 2",
    "build_braid_f6": "build braid --ansatz {d}/f6a.json",
    "build_tl_local_signed_zeros": "build tl-local --m {d}/zeros.json --exponents 0,1",
    "build_braid": "build braid --ansatz {d}/ansatz.json",
    # Ill-conditioned but well formed: rounding breaks the loop relation past tol.
    "build_braid_f4_ill_conditioned": "build braid --ansatz {d}/f4a1e4.json",
    "build_rmatrix": "build rmatrix --braid {d}/braid.json",
    "check_chm": "check chm --matrix {d}/h.json",
    "check_chm_fail": "check chm --matrix {d}/m.json",
    "check_ghm": "check ghm --matrix {d}/h.json",
    "check_ghm_null": "check ghm --matrix {d}/eye.json",
    "check_butson": "check butson --matrix {d}/h.json --q 3",
    "check_master4": "check master4 --p {d}/p.json --spec {d}/spec.json",
    "check_tl": "check tl --ansatz {d}/ansatz.json --sites 4",
    "check_hecke": "check hecke --braid {d}/braid.json",
    "check_hecke_f4_ill_conditioned": "check hecke --ansatz {d}/f4a1e4.json",
    "check_braid": "check braid --ansatz {d}/u2a.json",
    "check_ybe": "check ybe --braid {d}/braid.json --samples 5 --seed 3",
    # Not Hecke data, so the spectral residual comes from the two-operator kernel.
    "check_ybe_generic": "check ybe --braid {d}/generic.json --samples 5 --seed 3",
    "check_weighted_hadamard": "check weighted-hadamard --omega {d}/om.json --v 1,1,1 --w 1,1,1",
    # The README example: the U1 weights, whose overlap w w^2 + 2 is 3.
    "check_weighted_hadamard_u1": (
        "check weighted-hadamard --omega {d}/om.json"
        " --v=-0.5+0.8660254037844387j,1,1 --w=-0.5-0.8660254037844387j,1,1"
    ),
    # A zero entry fails the check with a null residual; a zero overlap is refused.
    "check_weighted_hadamard_zero_entry": "check weighted-hadamard --omega {d}/eye.json --v 1,1 --w 1,1",
    "check_weighted_hadamard_zero_overlap": (
        "check weighted-hadamard --omega {d}/f2.json --v 1,0 --w 0,1"
    ),
    # A braid file of an older build: nu and hecke_residual are ignored.
    "check_hecke_legacy_braid": "check hecke --braid {d}/legacy_braid.json",
    "search_found": "search master-rep --matrix {d}/h.json --exponent-bound 4 --root-order-bound 6",
    "search_not_found": "search master-rep --matrix {d}/h0.json",
}


@pytest.fixture(scope="module")
def long_doc(inputs, tmp_path_factory):
    """The 65536-entry f4s4 bond-2 generator document, as bytes."""
    path = tmp_path_factory.mktemp("long") / "long.json"
    argv = PARITY_CASES["build_tl_embedded_f4s4_site2"].format(d=inputs).split()
    assert main(argv + ["--out", str(path)]) == 0
    return path.read_bytes()


# A refused command renders no document; test_malformed_input_exits_2 has its exit 2.
@pytest.mark.parametrize("case", [c for c in PARITY_CASES if c != "check_weighted_hadamard_zero_overlap"])
def test_output_is_the_indented_render_compacted(case, inputs, long_doc, tmp_path):
    argv = PARITY_CASES[case].format(d=inputs).split()
    args = cli._build_parser().parse_args(argv)
    payload, ok = args.handler(args)
    expected = json.dumps(
        json.loads(_indented_render(payload)), sort_keys=True, allow_nan=False
    ) + "\n"
    # --out names an existing file at least as long as the new text.
    (tmp_path / "out.json").write_bytes(long_doc)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
        out_code = main(argv + ["--out", str(tmp_path / "out.json")])
    assert code == out_code == (0 if ok else 1)
    assert err.getvalue() == ""
    assert out.getvalue() == expected
    assert (tmp_path / "out.json").read_text() == expected
    if case == "check_ghm_null":
        assert '"max_residual": null' in expected
    if case == "check_weighted_hadamard_zero_entry":
        assert '"residual": null' in expected


def test_embedded_render_peaks_at_half_the_list_render(inputs, tmp_path):
    argv = PARITY_CASES["build_tl_embedded_f4s4_site2"].format(d=inputs).split()
    assert main(argv + ["--out", str(tmp_path / "t.json")]) == 0
    m = read_matrix(str(tmp_path / "t.json"))
    assert m.shape == (256, 256)
    tracemalloc.start()
    try:
        json.dumps(matrix_to_dict(m), sort_keys=True, allow_nan=False)
        list_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.clear_traces()
        tracemalloc.reset_peak()
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli_peak <= list_peak / 2


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
def test_embedded_render_peak_is_bounded(inputs, tmp_path, to_file):
    # The n=4 Fourier generator on 4 sites at bond 2: 65536 entries, a
    # 1 MiB array. A render that holds the document's whole text and a
    # list of its entries' texts peaks above 3.5 MiB here.
    argv = PARITY_CASES["build_tl_embedded_f4s4_site2"].format(d=inputs).split()
    if to_file:
        argv += ["--out", str(tmp_path / "t.json")]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2**20


def test_late_non_finite_entry_writes_nothing(inputs, tmp_path, monkeypatch, capsys):
    # A payload whose one non-finite entry lies past the writer's first
    # piece: the render fails before any byte reaches stdout or --out.
    def late_nan_payload(m):
        entries = np.array(m, dtype=np.complex128).reshape(-1)
        entries[-1] = complex(1.0, math.nan)
        return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}

    monkeypatch.setattr(linalg, "matrix_payload", late_nan_payload)
    argv = PARITY_CASES["build_tl_embedded_f4s4_site2"].format(d=inputs).split()
    assert 4**8 > linalg._CHUNK
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error:")
    fresh = tmp_path / "fresh.json"
    code, out, err = run(capsys, *argv, "--out", str(fresh))
    assert (code, out) == (2, "") and err.startswith("error:")
    assert not fresh.exists()
    old = tmp_path / "old.json"
    old.write_bytes(b'{"kept": [1.0, -0.0]}\n')
    code, out, err = run(capsys, *argv, "--out", str(old))
    assert (code, out) == (2, "") and err.startswith("error:")
    assert old.read_bytes() == b'{"kept": [1.0, -0.0]}\n'


def test_cli_writes_matrices_through_the_array_payload_only():
    # complex_to_json stays for scalars and sample lists; a matrix_to_dict
    # call in the CLI would build per-entry lists again.
    assert "matrix_to_dict(" not in Path(cli.__file__).read_text()


def test_non_finite_result_exits_2_with_nothing_written(tmp_path, capsys):
    # Entries of 1e200 are finite, but u u^dagger overflows: chm_residual is inf.
    write_matrix(tmp_path / "big.json", as_matrix([[1e200, 1e200], [1e200, -1e200]]))
    argv = ["check", "chm", "--matrix", str(tmp_path / "big.json")]
    assert run(capsys, *argv)[:2] == (2, "")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
    assert (code, out) == (2, "") and err.startswith("error:")
    assert not (tmp_path / "out.json").exists()


# ------------------------------------------------- --out written in place --

def _payload_text(argv):
    args = cli._build_parser().parse_args(argv)
    return "".join(linalg.iterdumps(args.handler(args)[0])) + "\n"


def test_short_long_short_on_one_path(inputs, tmp_path, capsys):
    path = tmp_path / "t.json"
    short = ["gen", "fourier", "--n", "2"]
    long = PARITY_CASES["build_tl_embedded_f4s4_site2"].format(d=inputs).split()
    sizes = []
    for argv in (short, long, short):
        code, expected, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_text() == expected
        sizes.append(len(expected))
    assert sizes[0] == sizes[2] < sizes[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "chm", "--matrix", "{f}"],  # a result shorter than the input
        ["build", "tl-local", "--m", "{f}", "--exponents", "0,1,2"],  # one longer
    ],
    ids=["shorter", "longer"],
)
def test_out_may_be_the_commands_own_input(argv, inputs, tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_bytes((inputs / "m.json").read_bytes())
    argv = [part.format(f=f) for part in argv]
    code, expected, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(f)) == (code, "", "")
    assert f.read_text() == expected


def test_out_is_opened_without_o_trunc(monkeypatch, long_doc, tmp_path):
    flags = []
    real_open = os.open

    def spy(path, flag, *rest, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *rest, **kwargs)

    path = tmp_path / "t.json"
    path.write_bytes(long_doc)
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "open", spy)
    assert main(["gen", "h0", "--out", str(path)]) == 0
    monkeypatch.undo()
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    assert path.stat().st_ino == inode
    assert path.read_text() == _payload_text(["gen", "h0"])


def test_a_write_that_fails_midway_leaves_only_the_new_prefix(
    long_doc, tmp_path, monkeypatch, capsys
):
    argv = ["gen", "fourier", "--n", "3"]
    args = cli._build_parser().parse_args(argv)
    prefix = next(linalg.iterdumps(args.handler(args)[0]))
    assert 0 < len(prefix) < len(_payload_text(argv)) < len(long_doc)
    iterdumps = linalg.iterdumps

    def fail_after_first_piece(doc):
        pieces = iterdumps(doc)
        yield next(pieces)
        raise OSError("write failed")

    monkeypatch.setattr(linalg, "iterdumps", fail_after_first_piece)
    path = tmp_path / "t.json"
    path.write_bytes(long_doc)
    assert run(capsys, *argv, "--out", str(path)) == (2, "", "error: write failed\n")
    assert path.read_text() == prefix


def test_a_write_the_os_refuses_midway_leaves_only_the_new_prefix(long_doc, tmp_path):
    # The child may not grow a file past `limit` bytes (RLIMIT_FSIZE), so the
    # OS writes the first `limit` bytes of the text and then refuses (EFBIG).
    resource = pytest.importorskip("resource")
    argv = ["gen", "fourier", "--n", "3"]
    text = _payload_text(argv).encode()
    limit = 256
    assert limit < len(text) < len(long_doc)
    path = tmp_path / "t.json"
    path.write_bytes(long_doc)
    src = str(Path(tlhad.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, tlhad.cli as c; sys.exit(c.main(sys.argv[1:]))",
         *argv, "--out", str(path)],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert path.read_bytes() == text[:limit]


def test_out_to_dev_null_exits_0(capsys):
    assert run(capsys, "gen", "fourier", "--n", "3", "--out", os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_out_to_a_fifo_gives_its_reader_the_bytes(tmp_path, capsys):
    argv = ["gen", "fourier", "--n", "3"]
    expected = run(capsys, *argv)[1].encode()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, *argv, "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=10)
    assert got == [expected]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_out_to_a_full_device_exits_2(capsys):
    code, out, err = run(capsys, "gen", "fourier", "--n", "3", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["", "{d}", "{d}/missing/t.json"], ids=["empty", "dir", "no_parent"])
def test_out_that_cannot_be_opened_exits_2(target, tmp_path, capsys):
    code, out, err = run(capsys, "gen", "fourier", "--n", "3", "--out", target.format(d=tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_new_out_file_gets_the_mode_of_open_w(tmp_path):
    old_mask = os.umask(0o027)
    try:
        (tmp_path / "ref.json").open("w").close()
        with redirect_stdout(io.StringIO()):
            assert main(["gen", "h0", "--out", str(tmp_path / "new.json")]) == 0
    finally:
        os.umask(old_mask)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("ref.json", "new.json")}
    assert modes == {0o640}


# -------------------------------------------------------------- flags --

def _leaves(parser, prefix=()):
    """(command, flags) of each leaf command under parser; -h is not counted."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, prefix + (name,))
            return
    flags = [
        flag
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    ]
    yield " ".join(prefix), flags


LEAVES = dict(_leaves(cli._build_parser()))


def test_each_flag_sits_only_where_its_handler_reads_it():
    assert len(LEAVES) == 28
    assert sum(map(len, LEAVES.values())) == 107
    assert all("--out" in flags for flags in LEAVES.values())

    def having(flag):
        return sorted(name for name, flags in LEAVES.items() if flag in flags)

    assert having("--seed") == ["check ybe"]
    assert having("--sites") == ["build tl-embedded", "check tl"]
    untolerant = [name for name in LEAVES if name.startswith("gen ")] + ["build reconstruct-m"]
    assert sorted(set(LEAVES) - set(having("--tol"))) == sorted(untolerant)


def test_readme_flag_table_matches_the_parser():
    readme = (Path(cli.__file__).parents[2] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9 -]+)` \| (.*) \|$", section, re.M)
    table = {command: set(re.findall(r"`(--[a-z-]+)`", cell)) for command, cell in rows}
    # --out is on every command, so the table leaves it out.
    assert table == {command: set(flags) - {"--out"} for command, flags in LEAVES.items()}


@pytest.mark.parametrize(
    "argv",
    [
        "gen fourier --n 3 --seed 1",
        "gen h0 --tol 1e-3",
        "check hecke --braid b.json --sites 3",
        "build tl-local --ansatz a.json --sites 5",
        "build reconstruct-m --spec s.json --h h.json --tol 1e-3",
    ],
    ids=["gen_seed", "gen_tol", "hecke_sites", "tl_local_sites", "reconstruct_m_tol"],
)
def test_a_flag_the_command_does_not_read_exits_2(capsys, workdir, argv):
    ansatz = fixture_u2_ansatz()
    braid = braid_from_tl(build_local_generator(ansatz), ansatz.alpha)
    (workdir / "b.json").write_text(json.dumps(braid.to_dict()))
    (workdir / "a.json").write_text(json.dumps(ansatz.to_dict()))
    (workdir / "s.json").write_text(json.dumps(fourier_master(3).to_dict()))
    write_matrix(str(workdir / "h.json"), fourier(3))
    *valid, flag, value = argv.split()
    code, out, err = run(capsys, *valid, flag, value, "--out", "out.json")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not (workdir / "out.json").exists()
    # Without the flag the same command succeeds.
    assert run(capsys, *valid, "--out", "out.json")[:2] == (0, "")
    assert (workdir / "out.json").exists()


# ------------------------------------------------------------ dispatch --

#: One valid argv tail for each leaf command; parsing it reads no file.
VALID_FLAGS = {
    "gen fourier": "--n 3 --ell 2 --out o.json",
    "gen f4": "--a 1j",
    "gen f6": "--a 1 --b 1j",
    "gen dita": "--a a.json --block b1.json --block b2.json",
    "gen nest": "--stages s.json",
    "gen h0": "",
    "gen h1": "--a 1j",
    "gen fixture-u1": "--out o.json",
    "gen fixture-u2": "",
    "gen master-fourier": "--n 5 --ell 2",
    "gen master-f4": "--k 1 --m 3",
    "gen master-f6": "--k 2 --r 1 --s 1",
    "check chm": "--matrix m.json --tol 1e-6",
    "check ghm": "--matrix m.json",
    "check butson": "--matrix m.json --q 4",
    "check master": "--spec s.json",
    "check master4": "--p p.json --spec s.json --tol 1e-3",
    "check tl": "--ansatz a.json --sites 4",
    "check hecke": "--braid b.json",
    "check braid": "--ansatz a.json",
    "check ybe": "--braid b.json --samples 5 --seed 3",
    "check weighted-hadamard": "--omega o.json --v 1,1j --w 1,1j",
    "build tl-local": "--m m.json --exponents 0,1 --v 1,1 --w 1,1",
    "build tl-embedded": "--ansatz a.json --sites 4 --site 2",
    "build braid": "--ansatz a.json --tol 1e-8",
    "build rmatrix": "--braid b.json",
    "build reconstruct-m": "--spec s.json --h h.json",
    "search master-rep": "--matrix m.json --exponent-bound 5 --root-order-bound 7",
}
#: Usage errors and help that give the same exit code, stdout and stderr
#: through main as through the full parser.
USAGE_ERRORS = {
    "empty": "",
    "unknown_verb": "frobnicate",
    "verb_only": "check",
    "unknown_target": "check nope",
    "help": "-h",
    "verb_help": "check -h",
    "leaf_help": "check master -h",
    "missing_required": "check master",
    "bad_int": "gen fourier --n x",
}
#: A flag the command does not take: main names the command in its error.
UNKNOWN_FLAGS = {
    "check_master_seed": "check master --spec s.json --seed 3",
    "gen_fourier_tol": "gen fourier --n 3 --tol 1e-3",
    # alpha is derived from the weights, so check weighted-hadamard takes no --alpha.
    "weighted_hadamard_alpha": "check weighted-hadamard --omega o.json --v 1,1 --w 1,1 --alpha 3",
}


def _full_parse(argv):
    """(exit code, stdout, stderr) of the full three-level parser on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    return int(exc.value.code) if exc.value.code else 0, out.getvalue(), err.getvalue()


def test_every_leaf_is_dispatched():
    leaves = {" ".join(key) for key in cli._build_parser().leaves}
    assert leaves == set(LEAVES) == set(VALID_FLAGS)


@pytest.mark.parametrize("command", sorted(VALID_FLAGS))
def test_a_known_command_is_parsed_by_its_leaf_alone(monkeypatch, command):
    parser = cli._build_parser()
    leaf = parser.leaves[tuple(command.split())]
    argv = command.split() + VALID_FLAGS[command].split()
    seen = []

    def parse_args(args):
        seen.append(vars(argparse.ArgumentParser.parse_args(leaf, args)))
        raise SystemExit(0)  # stops main before the handler runs

    monkeypatch.setattr(leaf, "parse_args", parse_args)
    assert main(argv) == 0
    full = vars(parser.parse_args(argv))
    assert (full.pop("verb"), full.pop("target")) == tuple(command.split())
    assert seen == [full]


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_are_those_of_the_full_parser(capsys, argv):
    assert run(capsys, *argv.split()) == _full_parse(argv.split())


@pytest.mark.parametrize("argv", UNKNOWN_FLAGS.values(), ids=UNKNOWN_FLAGS)
def test_an_unknown_flag_prints_the_usage_of_its_command(capsys, argv):
    argv = argv.split()
    code, out, err = run(capsys, *argv)
    full_code, full_out, full_err = _full_parse(argv)
    assert (code, out) == (full_code, full_out) == (2, "")
    unknown = " ".join(argv[-2:])
    assert full_err.endswith(f"tlhad: error: unrecognized arguments: {unknown}\n")
    leaf = cli._build_parser().leaves[tuple(argv[:2])]
    assert err.startswith(leaf.format_usage())
    assert err.endswith(f"tlhad {' '.join(argv[:2])}: error: unrecognized arguments: {unknown}\n")


# -------------------------------------------------------- parser reuse --

class TestParserReuse:
    def test_import_builds_no_parser(self):
        src = str(Path(tlhad.__file__).parent.parent)
        probe = "import tlhad.cli as c; print(c._build_parser.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=os.environ | {"PYTHONPATH": src},
            check=True,
        )
        assert result.stdout.strip() == "0"

    def test_one_parser_serves_every_call(self, capsys, workdir):
        main(["gen", "h0"])
        built = cli._build_parser.cache_info().misses
        leaves = cli._build_parser().leaves
        for argv in (["gen", "h0"], ["gen", "fourier", "--n", "2"], ["frobnicate"]):
            main(argv)
        capsys.readouterr()
        assert cli._build_parser.cache_info().misses == built
        # The leaf map is built with the parser and kept on it.
        assert cli._build_parser().leaves is leaves

    def test_usage_error_then_valid_call(self, capsys, workdir):
        code, out, err = run(capsys, "check", "chm")
        assert code == 2 and out == "" and "--matrix" in err
        code, out, err = run(capsys, "gen", "fourier", "--n", "2")
        assert code == 0 and err == ""
        assert json.loads(out) == matrix_to_dict(fourier(2))

    def test_sites_flag_does_not_stick(self, capsys, workdir):
        (workdir / "a.json").write_text(json.dumps(fixture_u2_ansatz(sites=4).to_dict()))
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "a.json", "--sites", "5")
        assert code == 0 and payload["sites"] == 5
        code, payload = run_json(capsys, "check", "tl", "--ansatz", "a.json")
        assert code == 0 and payload["sites"] == 4

    def test_out_flag_does_not_stick(self, capsys, workdir):
        code, out, _ = run(capsys, "gen", "h0", "--out", "h0.json")
        assert code == 0 and out == ""
        written = (workdir / "h0.json").read_text()
        code, out, _ = run(capsys, "gen", "h1", "--a", "1j")
        assert code == 0 and json.loads(out) == matrix_to_dict(h1(1j))
        assert (workdir / "h0.json").read_text() == written
