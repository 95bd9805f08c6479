"""Self-checks of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_gate.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _first(lib, tmp_path, workload: str, slice_: str):
    ops = WORKLOADS[workload](lib, np.random.default_rng(7), str(tmp_path))
    return next(op for op in ops if op.slice == slice_)


def test_quick_mode_finds_every_verdict_as_expected(capsys):
    assert run.main(["--quick"]) == 0
    assert "0 unexpected verdicts" in capsys.readouterr().out


def test_planted_wrong_verdict_counts_as_failure(lib, tmp_path):
    op = _first(lib, tmp_path, "tl_chain", "grid")
    op.expect = "fail"  # master data passes, so this expectation is wrong
    result = run.Measurement()
    result.record(op, *run.execute(op))
    assert result.outcomes["failed"] == 1
    assert "expected 'fail', got 'pass'" in result.failures[0]


def test_planted_wrong_verdict_makes_the_run_incorrect(lib, tmp_path, monkeypatch, capsys):
    def planted(lib, rng, workdir):
        ops = [_first(lib, tmp_path, "cli_roundtrip", "search"), _first(lib, tmp_path, "cli_roundtrip", "malformed")]
        ops[1].expect = "exit0"  # malformed input must exit 2
        return ops

    monkeypatch.setitem(WORKLOADS, "planted", planted)
    monkeypatch.setitem(run.TAIL_PERCENTILE, "planted", 90)
    assert run.main(["--workload", "planted", "--seed", "1", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 2
    assert result["metrics"]["verdict_ok_frac"]["value"] < 1


def test_known_defect_is_counted_but_not_a_failure(lib, tmp_path):
    ops = WORKLOADS["cli_roundtrip"](lib, np.random.default_rng(7), str(tmp_path))
    defect = next(op for op in ops if op.label == "null_exponent")
    result = run.Measurement()
    result.record(defect, *run.execute(defect))
    assert result.outcomes == {"known_defect": 1}


def test_negative_control_fails_as_expected(lib, tmp_path):
    op = _first(lib, tmp_path, "tl_chain", "negative")
    elapsed, judged = run.execute(op)
    assert judged.verdict == "fail" and run.classify(op, judged) == "ok"


def test_missing_library_exits_2_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tl_chain", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_percentile_reports_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == (90.0, 10)
    assert run.percentile(values, 50) == (50.0, 50)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.TAIL_PERCENTILE)
