"""End-to-end tests for the command line interface."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad.baxter import braid_from_tl
from tlhad.cli import main, read_matrix, write_matrix
from tlhad.hadamard import fourier
from tlhad.linalg import approx_eq, as_matrix, matrix_to_dict
from tlhad.master import fourier_master, h0, master_matrix
from tlhad.tlrep import (
    TLAnsatz,
    build_local_generator,
    fixture_u2,
    fixture_u2_ansatz,
    reconstruct_m,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


CHM = ["check", "chm", "--matrix"]
SCALAR = {"rows": 1, "cols": 1, "entries": [[1, 0]]}
MATRIX = {"rows": 2, "cols": 2, "entries": [[1, 0], [1, 0], [1, 0], [-1, 0]]}
ANSATZ = {"m": MATRIX, "exponents": [0, 1], "sites": 3}
BRAID = {"q": [0.5, 0.5], "nu": [2, 0], "r_check": matrix_to_dict(np.eye(4))}
OVERFLOWING_SPEC = {"lambdas": [[1e308, 0], [1, 0]], "exponents": [0, 2]}
HUGE_EXPONENTS = ["--exponents", "0,100000000000"]


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
        assert approx_eq(back, fourier(3), 1e-14).ok

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
            "--alpha",
            "3",
        )
        assert code == 0 and payload["ok"] is True


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
        assert approx_eq(built, fixture_u2(), 1e-12).ok

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
        assert code == 0
        assert payload["hecke_residual"] <= 1e-10
        (workdir / "braid.json").write_text(json.dumps(payload))
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
            (["check", "hecke", "--braid"], BRAID | {"nu": [2, "0"]}, "nu must"),
            (["check", "hecke", "--braid"], BRAID | {"q": [float("nan"), 0]}, "q must"),
            (["check", "hecke", "--braid"], BRAID | {"q": [0, 0]}, "q must"),
            (["gen", "nest", "--stages"], {"stages": [{"p": 2, "g": [None, 0]}]}, "stage 0 g"),
            (["gen", "nest", "--stages"], {"stages": [{"p": 2.5}]}, "stage 0 p"),
            (CHM, SCALAR | {"entries": [[1e308, 1e308]]}, "JSON"),
            (
                ["check", "weighted-hadamard", "--v", "1,nan", "--w", "1,1", "--alpha", "2"]
                + ["--omega"],
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
        ],
        ids=[
            "ansatz_null_weight", "ansatz_string_weight", "braid_null_q", "braid_string_nu",
            "braid_nan_q", "braid_zero_q", "nesting_null_g", "nesting_fractional_p",
            "overflowing_residual", "nan_weight_flag", "fractional_exponent",
            "string_exponent", "fractional_sites", "fractional_rows", "string_rows",
            "bool_entry", "master_power_overflow", "master4_power_overflow",
            "master4_power_underflow", "generator_power_overflow",
        ],
    )
    def test_malformed_input_exits_2(self, capsys, workdir, argv, doc, field):
        (workdir / "in.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "in.json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err
        assert err.count("\n") == 1


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
