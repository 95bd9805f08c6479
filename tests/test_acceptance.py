"""Acceptance suite: one test per stated criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print; they are also captured in the test report on failure).
"""

import contextlib
import json
import time

import numpy as np
import pytest

from tlhad.baxter import (
    braid_from_tl,
    check_braid,
    check_spectral_ybe,
    check_ybe,
    hecke_residual,
    to_plain_r,
)
from tlhad.cli import main, read_matrix
from tlhad.hadamard import (
    EquivalenceMove,
    apply_equivalence,
    dephase,
    dita,
    f4_family,
    fourier,
    is_ghm,
)
from tlhad.linalg import as_matrix, diag, identity, matrix_to_dict, max_abs
from tlhad.master import (
    MasterSpec,
    NestingSpec,
    NestingStage,
    check_master_condition,
    f4_master,
    f6_master,
    fourier_master,
    h0,
    h1,
    master_matrix,
    master_polynomial_eval,
    nest,
    pigeonhole_obstruction,
    search_master_representation,
)
from tlhad.tlrep import (
    TLAnsatz,
    build_local_generator,
    fixture_u1,
    fixture_u1_ansatz,
    fixture_u2,
    fixture_u2_ansatz,
    reconstruct_m,
    verify_tl,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE C{number} {label}: PASS")


def test_c1_fixture_u2_via_cli(tmp_path, capsys):
    with criterion(1, "printed 9x9 fixture from CLI build"):
        started = time.perf_counter()
        m_path = tmp_path / "m.json"
        out_path = tmp_path / "t.json"
        m_path.write_text(json.dumps(matrix_to_dict(fixture_u2_ansatz().m)))
        code = main(
            [
                "build",
                "tl-local",
                "--m",
                str(m_path),
                "--exponents",
                "2,0,1",
                "--out",
                str(out_path),
            ]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        built = read_matrix(str(out_path))
        np.testing.assert_allclose(built, fixture_u2(), rtol=0, atol=1e-12)
        assert elapsed < 1.0, elapsed


def test_c2_fixture_u1_weighted_build():
    with criterion(2, "printed weighted fixture"):
        built = build_local_generator(fixture_u1_ansatz())
        np.testing.assert_allclose(built, fixture_u1(), rtol=0, atol=1e-12)


def test_c3_tl_relations_for_fourier_masters():
    with criterion(3, "TL relations for Fourier data"):
        started = time.perf_counter()
        for n in (2, 3, 4, 5):
            spec = fourier_master(n)
            m = reconstruct_m(master_matrix(spec), fourier(n), spec.lambdas)
            site_counts = (3, 4) if n <= 3 else (3,)
            for sites in site_counts:
                report = verify_tl(TLAnsatz(m, spec.exponents, sites=sites))
                assert report.loop_residual <= 1e-9, (n, sites, report)
                assert report.braid_residual <= 1e-9, (n, sites, report)
                assert report.commute_residual <= 1e-9, (n, sites, report)
                assert abs(report.nu - n) <= 1e-9, (n, sites, report.nu)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, elapsed


def test_c4_master_condition_families():
    with criterion(4, "master condition families"):
        for k in (1, 2, 3):
            for m in (1, 3):
                check = check_master_condition(f4_master(k, m))
                assert check.ok, (k, m, check.max_residual)
        for k, r, s in ((2, 1, 1), (3, 1, 2), (3, 2, 1)):
            check = check_master_condition(f6_master(k, r, s))
            assert check.ok, (k, r, s, check.max_residual)
        rng = np.random.default_rng(42)
        for k1 in (1, 2):
            for k2 in (1, 2):
                stages = []
                for p, k in ((2, k1), (3, k2)):
                    g = tuple(int(x) for x in rng.integers(0, 4, size=p))
                    f = tuple(int(x) for x in rng.integers(0, 4, size=p))
                    stages.append(NestingStage(p, k, g, f))
                spec = nest(NestingSpec(tuple(stages)))
                check = check_master_condition(spec)
                assert check.ok, (k1, k2, check.max_residual)


def test_c5_non_master_obstructions():
    with criterion(5, "non-master obstructions"):
        started = time.perf_counter()
        obstruction = pigeonhole_obstruction(h0())
        assert obstruction is not None
        assert obstruction.root_order == 3
        assert obstruction.distinct_rows == 6
        assert search_master_representation(h0(), 12, 12) is None
        assert search_master_representation(h1(2), 12, 12) is None
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, elapsed


def test_c6_duplicate_polynomial_identity():
    with criterion(6, "duplicate master polynomial"):
        exponents = (0, 2, 3, 4, 6)
        from tlhad.linalg import unit_root

        for k in (1, 2, 3, 4):
            value = master_polynomial_eval(exponents, unit_root(k, 5))
            assert abs(value) <= 1e-12, (k, value)
        assert abs(master_polynomial_eval(exponents, 1) - 5) <= 1e-12


def test_c7_dita_thickening_properties():
    with criterion(7, "Dita and thickening closure"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            radii = rng.choice([0.5, 2.0], size=2)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
            params = radii * np.exp(1j * phases)

            for a in params:
                verdict = is_ghm(f4_family(a))
                assert verdict.is_ghm and not verdict.is_chm, a

            blocks = [f4_family(a) for a in params]
            combined = dita(fourier(2), blocks)
            assert is_ghm(combined).is_ghm

            n = combined.shape[0]
            move = EquivalenceMove(
                tuple(int(i) for i in rng.permutation(n)),
                tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))),
                tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))),
                tuple(int(i) for i in rng.permutation(n)),
            )
            scrambled = apply_equivalence(combined, move)
            rephased, _ = dephase(scrambled)
            assert is_ghm(rephased).is_ghm == is_ghm(scrambled).is_ghm


def test_c8_yang_baxter():
    with criterion(8, "Hecke, braid, and Yang-Baxter residuals"):
        cases = []
        for n in (2, 3):
            spec = fourier_master(n)
            m = reconstruct_m(master_matrix(spec), fourier(n), spec.lambdas)
            cases.append(TLAnsatz(m, spec.exponents))
        cases.append(fixture_u2_ansatz())

        for ansatz in cases:
            local = build_local_generator(ansatz)
            braid = braid_from_tl(local, ansatz.alpha)
            assert hecke_residual(braid) <= 1e-10
            constant = check_braid(braid.r_check)
            assert constant <= 1e-9
            spectral = check_spectral_ybe(braid)
            assert spectral <= 1e-8
            plain = check_ybe(to_plain_r(braid))
            assert abs(constant - plain) <= 1e-12


def test_c9_negative_controls():
    with criterion(9, "negative controls"):
        report = verify_tl(TLAnsatz(diag([1, 2]), (0, 1)))
        assert report.braid_residual > 0.1, report

        spec = fourier_master(3)
        perturbed = MasterSpec(
            (spec.lambdas[0] * 1.01,) + spec.lambdas[1:], spec.exponents
        )
        assert not check_master_condition(perturbed).ok

        assert not is_ghm(3 * identity(3)).is_ghm
