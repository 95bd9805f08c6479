"""Tests for the rank-n generator ansatz and the algebra checks it feeds."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad import linalg, tlrep
from tlhad.hadamard import (
    EquivalenceMove,
    apply_equivalence,
    dephase,
    f4_family,
    f6_family,
    fourier,
    is_ghm,
)
from tlhad.linalg import (
    as_matrix,
    diag,
    identity,
    inverse,
    kron,
    max_abs,
    unit_root,
)
from tlhad.master import (
    MasterSpec,
    NestingSpec,
    NestingStage,
    f4_master,
    f6_master,
    fourier_master,
    master_matrix,
    nest,
)
from tlhad.tlrep import (
    TLAnsatz,
    TLReport,
    build_local_generator,
    check_master4,
    eigenvector_condition,
    embed,
    fixture_u1,
    fixture_u1_ansatz,
    fixture_u2,
    fixture_u2_ansatz,
    reconstruct_m,
    verify_tl,
    verify_tl_local,
    weighted_hadamard_check,
)


def reconstructed_ansatz(n, sites=3):
    spec = fourier_master(n)
    m = reconstruct_m(master_matrix(spec), fourier(n), spec.lambdas)
    return TLAnsatz(m, spec.exponents, sites=sites)


class TestTLAnsatz:
    def test_plain_weights_default_to_ones(self):
        a = fixture_u2_ansatz()
        assert np.allclose(a.v, 1.0) and np.allclose(a.w, 1.0)
        assert a.alpha == pytest.approx(3.0)

    def test_dimension_properties(self):
        a = fixture_u2_ansatz()
        assert a.n == 3 and a.sites == 3

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TLAnsatz(identity(2), (0, 1), v=(1, 1, 1))

    def test_zero_loop_weight_rejected(self):
        with pytest.raises(ValueError):
            TLAnsatz(identity(2), (0, 1), v=(1, -1), w=(1, 1))

    def test_exponent_count_must_match_size(self):
        with pytest.raises(ValueError):
            TLAnsatz(identity(3), (0, 1))

    def test_too_few_sites_rejected(self):
        with pytest.raises(ValueError):
            TLAnsatz(identity(2), (0, 1), sites=1)

    def test_json_round_trip(self):
        a = fixture_u1_ansatz()
        back = TLAnsatz.from_dict(a.to_dict())
        np.testing.assert_allclose(back.m, a.m, rtol=0, atol=0)
        assert back.exponents == a.exponents
        assert np.array_equal(back.v, a.v)
        assert back.sites == a.sites


class TestBuildLocalGenerator:
    def test_one_dimensional_ansatz(self):
        a = TLAnsatz(as_matrix([[5]]), (0,))
        t = build_local_generator(a)
        np.testing.assert_allclose(t, as_matrix([[1]]), rtol=0, atol=1e-15)

    def test_matches_printed_u2(self):
        t = build_local_generator(fixture_u2_ansatz())
        np.testing.assert_allclose(t, fixture_u2(), rtol=0, atol=1e-12)

    def test_matches_printed_u1(self):
        t = build_local_generator(fixture_u1_ansatz())
        np.testing.assert_allclose(t, fixture_u1(), rtol=0, atol=1e-12)

    def test_block_formula(self):
        # t = sum_ab v_a w_b (e_ab kron m^(n_a - n_b)); check one block.
        a = fixture_u2_ansatz()
        t = np.asarray(build_local_generator(a))
        n = a.n
        block_01 = t[0 * n:(0 + 1) * n, 1 * n:(1 + 1) * n]
        expected = np.linalg.matrix_power(a.m, a.exponents[0] - a.exponents[1])
        np.testing.assert_allclose(as_matrix(block_01), expected, rtol=0, atol=1e-12)

    def test_rank_is_one_in_block_sense(self):
        # The local generator has rank n (one dyad per internal factor).
        for a in (fixture_u2_ansatz(), fixture_u1_ansatz()):
            s = np.linalg.svd(np.asarray(build_local_generator(a)), compute_uv=False)
            assert s[a.n - 1] > 1e-8
            assert s[a.n] < 1e-10

    @pytest.mark.parametrize("case", ["fourier3", "fourier5", "f4_2_1", "f6_2_1_1", "u1", "u2"])
    def test_matches_repeated_multiplication(self, case):
        # Reference: every power M^d built one factor of M (or M^-1) at a
        # time. Binary powering rounds in another order, so the blocks
        # agree to a tolerance, not bit for bit.
        specs = {"fourier3": fourier_master(3), "fourier5": fourier_master(5),
                 "f4_2_1": f4_master(2, 1), "f6_2_1_1": f6_master(2, 1, 1)}
        if case in specs:
            spec = specs[case]
            m = reconstruct_m(master_matrix(spec), fourier(spec.size), spec.lambdas)
            a = TLAnsatz(m, spec.exponents, v=np.exp(1j * np.arange(spec.size)))
        else:
            a = fixture_u1_ansatz() if case == "u1" else fixture_u2_ansatz()
        minv = np.linalg.inv(a.m)
        n = a.n
        want = np.zeros((n * n, n * n), dtype=complex)
        for ia, ea in enumerate(a.exponents):
            for ib, eb in enumerate(a.exponents):
                power = np.eye(n)
                for _ in range(abs(ea - eb)):
                    power = power @ (a.m if ea >= eb else minv)
                want[ia * n:(ia + 1) * n, ib * n:(ib + 1) * n] = a.v[ia] * a.w[ib] * power
        assert max_abs(build_local_generator(a) - want) <= 1e-13

    def test_singular_m_rejected_when_negative_powers_needed(self):
        m = as_matrix([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            build_local_generator(TLAnsatz(m, (0, 1)))


class TestDifferencePowers:
    # Differences |d| = 0..5 (and negative) from (0, ..., 5); 17 from (0, 17);
    # non-contiguous and shuffled exponents; sizes beyond any int64.
    @pytest.mark.parametrize("exponents", [
        (0, 1, 2, 3, 4, 5), (0, 17), (0, 4, 9), (9, -2, 4), (3, 3, 0),
        (0, 2**63), (0, 10**30, -(10**30)),
    ])
    def test_each_entry_is_numpys_matrix_power(self, exponents):
        n = len(exponents)
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
        if max(exponents) - min(exponents) > 17:
            # A monomial matrix with entries 1, i and -1: every power is
            # exact, where a random M would overflow.
            m = np.roll(np.diag([1j, -1, 1][:n]), 1, axis=0)
        p = tlrep._difference_powers(as_matrix(m), exponents, 1e-9)
        assert p.shape == (n, n, n, n)
        minv = inverse(m)
        for x, ex in enumerate(exponents):
            for y, ey in enumerate(exponents):
                d = ex - ey
                want = np.linalg.matrix_power(m if d >= 0 else minv, abs(d))
                assert np.array_equal(p[x, y], want), (ex, ey)

    def test_positive_differences_need_no_inverse(self):
        # (0, 0) has only d = 0, so a singular M is fine.
        p = tlrep._difference_powers(as_matrix([[1, 0], [0, 0]]), (0, 0), 1e-9)
        assert np.array_equal(p, np.broadcast_to(np.eye(2), (2, 2, 2, 2)))


class TestEmbed:
    def test_two_sites_identity_padding(self):
        a = fixture_u2_ansatz(sites=2)
        local = build_local_generator(a)
        np.testing.assert_allclose(embed(local, 1, 2, a.n), local, rtol=0, atol=0)

    def test_three_sites_left(self):
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        left = embed(local, 1, 3, a.n)
        np.testing.assert_allclose(left, kron(local, identity(3)), rtol=0, atol=0)

    def test_three_sites_right(self):
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        right = embed(local, 2, 3, a.n)
        np.testing.assert_allclose(right, kron(identity(3), local), rtol=0, atol=0)

    def test_distant_embeddings_commute(self):
        a = fixture_u2_ansatz(sites=4)
        local = build_local_generator(a)
        t1 = embed(local, 1, 4, a.n)
        t3 = embed(local, 3, 4, a.n)
        assert max_abs(t1 @ t3 - t3 @ t1) < 1e-10

    def test_site_out_of_range(self):
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        with pytest.raises(ValueError):
            embed(local, 0, 3, a.n)
        with pytest.raises(ValueError):
            embed(local, 3, 3, a.n)

    def test_dimension_past_numpys_limit_refused(self):
        # 3^40 > 2^63 - 1; test_cli's test_huge_sites_exits_2_at_once takes
        # 10^400 sites in a child process, which forming 3^(10^400) would hang.
        with pytest.raises(ValueError, match=r"3\*\*sites exceeds numpy's maximum"):
            embed(np.eye(9), 1, 40, 3)


class TestVerifyTL:
    def test_reconstructed_fourier_two(self):
        report = verify_tl(reconstructed_ansatz(2))
        assert report.max_residual <= 1e-10
        assert report.nu == pytest.approx(2.0)
        assert report.ok(1e-9)

    def test_fixture_u2(self):
        report = verify_tl(fixture_u2_ansatz())
        assert report.loop_residual <= 1e-10
        assert report.braid_residual <= 1e-10
        assert report.commute_residual <= 1e-10
        assert report.nu == pytest.approx(3.0)

    def test_fixture_u1_weighted(self):
        report = verify_tl(fixture_u1_ansatz())
        assert report.max_residual <= 1e-10
        assert report.nu == pytest.approx(3.0)

    def test_generic_diagonal_m_fails_braid(self):
        a = TLAnsatz(diag([1, 2]), (0, 1))
        report = verify_tl(a)
        assert report.loop_residual <= 1e-12
        assert report.braid_residual > 0.1
        assert not report.ok(1e-9)

    def test_two_sites_has_vacuous_braid(self):
        report = verify_tl(fixture_u2_ansatz(sites=2))
        assert report.braid_residual == 0.0
        assert report.commute_residual == 0.0
        assert report.loop_residual <= 1e-12

    def test_report_serialization(self):
        report = verify_tl(fixture_u2_ansatz())
        d = report.to_dict()
        assert set(d) == {
            "loop_residual",
            "braid_residual",
            "commute_residual",
            "nu",
        }
        assert d["nu"][0] == pytest.approx(3.0)


def dense_tl_residuals(t_local, nu, sites):
    """Reference: every relation on the full n^sites chain of embed() generators."""
    n = math.isqrt(t_local.shape[0])
    gens = [embed(t_local, i, sites, n) for i in range(1, sites)]
    loop = max(max_abs(t @ t - nu * t) for t in gens)
    braid = 0.0
    for a, b in zip(gens, gens[1:]):
        braid = max(braid, max_abs(a @ b @ a - nu * a), max_abs(b @ a @ b - nu * b))
    commute = 0.0
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            commute = max(commute, max_abs(gens[i] @ gens[j] - gens[j] @ gens[i]))
    return loop, braid, commute


def off_grid_spec(n):
    """Unimodular eigenvalues with unequal offsets from the Fourier grid: no master spec."""
    offsets = (0.2, 0.35, 0.25, 0.3)
    lambdas = tuple(cmath.exp(2j * math.pi * (a + offsets[a % 4]) / n) for a in range(n))
    return MasterSpec(lambdas, tuple(range(n)))


ORACLE_CASES = {
    "fourier2": (fourier_master(2), fourier(2)),
    "fourier3": (fourier_master(3), fourier(3)),
    "fourier4": (fourier_master(4), fourier(4)),
    "f4": (f4_master(1, 1), f4_family(cmath.exp(0.7j))),
    "nested22": (nest(NestingSpec((NestingStage(2), NestingStage(2)))), fourier(4)),
    "control2": (off_grid_spec(2), fourier(2)),
    "control3": (off_grid_spec(3), fourier(3)),
    "control4": (off_grid_spec(4), fourier(4)),
}


class TestHugeExponents:
    # Exponents beyond int64 on the swap matrix (order 2) and the 3-cycle
    # (order 3): every power is exact, so the report is that of the
    # exponents reduced modulo the order.
    @pytest.mark.parametrize("m, exponents, reduced, report", [
        ([[0, 1], [1, 0]], (0, 2**63), (0, 0), TLReport(0.0, 2.0, 0.0, 2 + 0j)),
        ([[0, 1], [1, 0]], (0, 10**30), (0, 0), TLReport(0.0, 2.0, 0.0, 2 + 0j)),
        (np.roll(np.eye(3), 1, axis=0), (2**63, 0, 1), (2, 0, 1), TLReport(0.0, 3.0, 0.0, 3 + 0j)),
        (np.roll(np.eye(3), 1, axis=0), (-(10**30), 3, 10**30), (2, 0, 1), TLReport(0.0, 3.0, 0.0, 3 + 0j)),
    ])
    def test_report_is_that_of_the_reduced_exponents(self, m, exponents, reduced, report):
        assert verify_tl(TLAnsatz(m, exponents)) == verify_tl(TLAnsatz(m, reduced)) == report


class TestVerifyTLAgainstDenseChain:
    # Every cell with 3 <= sites <= 5 and n^sites <= 729; (n, sites) = (4, 5)
    # would take seconds per dense product.
    @pytest.mark.parametrize(
        "case, sites",
        [
            (case, sites)
            for case, (spec, _) in ORACLE_CASES.items()
            for sites in (3, 4, 5)
            if spec.size**sites <= 729
        ],
    )
    def test_matches_dense_chain(self, case, sites):
        spec, h = ORACLE_CASES[case]
        n = spec.size
        a = TLAnsatz(reconstruct_m(master_matrix(spec), h, spec.lambdas), spec.exponents, sites=sites)
        t = build_local_generator(a)
        report = verify_tl_local(t, a.alpha, sites)
        loop, braid, commute = dense_tl_residuals(t, a.alpha, sites)
        scale = max_abs(t)
        # Rounding differs between the two orders of summation; beyond that
        # floor the residuals must agree to a relative 1e-9.
        floor = 1e-14 * n**2 * scale**3
        assert abs(report.loop_residual - loop) <= 1e-9 * loop + floor
        assert abs(report.braid_residual - braid) <= 1e-9 * braid + floor
        assert report.commute_residual == 0.0
        assert commute <= 1e-15 * scale**2
        assert report.ok() == (max(loop, braid, commute) <= 1e-9)
        assert report.ok() == (not case.startswith("control"))

    def test_site_count_does_not_change_the_report(self):
        # Dense, six sites of n = 8 would be 262144 x 262144 matrices.
        assert verify_tl(reconstructed_ansatz(8, sites=6)) == verify_tl(reconstructed_ansatz(8, sites=3))


def spec_ansatz(spec, h, **kwargs):
    return TLAnsatz(reconstruct_m(master_matrix(spec), h, spec.lambdas), spec.exponents, **kwargs)


def random_ansatz(n, seed, m=None):
    """Random weights and shuffled exponents of both signs, on a random M unless one is given."""
    rng = np.random.default_rng(seed)
    if m is None:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    exponents = tuple(int(e) for e in rng.permutation(n) - n // 2)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    return TLAnsatz(m, exponents, v=v, w=w)


#: Inputs of the block-form braid check, each built on demand: the dense
#: oracle cases, larger Fourier data, F6 and nested families, the weighted
#: fixtures, random and shuffled data, and ill-conditioned F4 data.
BLOCK_CASES = {
    **{case: (lambda s=spec, h=h: spec_ansatz(s, h)) for case, (spec, h) in ORACLE_CASES.items()},
    **{f"fourier{n}": (lambda n=n: spec_ansatz(fourier_master(n), fourier(n))) for n in (5, 6, 7, 8)},
    "f6_2_1_1": lambda: spec_ansatz(f6_master(2, 1, 1), fourier(6)),
    "f6_200_7_11": lambda: spec_ansatz(f6_master(200, 7, 11), fourier(6)),
    "nested23": lambda: spec_ansatz(nest(NestingSpec((NestingStage(2), NestingStage(3)))), fourier(6)),
    "u1": fixture_u1_ansatz,
    "u2": fixture_u2_ansatz,
    "random3": lambda: random_ansatz(3, 21),
    "random5": lambda: random_ansatz(5, 22),
    # Weighted ansaetze on either side of the batch boundary of the braid
    # defects (every outer index in one step for n <= 4, one per step from
    # n = 5): on random M, and on a master M with random weights.
    **{f"random{n}": (lambda n=n: random_ansatz(n, 30 + n)) for n in (2, 4, 6, 7, 8, 9)},
    **{
        f"fourier{n}_weighted": (
            lambda n=n: random_ansatz(n, 40 + n, spec_ansatz(fourier_master(n), fourier(n)).m)
        )
        for n in range(2, 10)
    },
    "fourier9": lambda: spec_ansatz(fourier_master(9), fourier(9)),
    # A master M with shuffled, negative exponents and random weights.
    "fourier4_shuffled": lambda: random_ansatz(4, 23, spec_ansatz(fourier_master(4), fourier(4)).m),
    # Exponents negated: still a master spec.
    "fourier5_negated": lambda: TLAnsatz(
        spec_ansatz(fourier_master(5), fourier(5)).m, tuple(-e for e in fourier_master(5).exponents)
    ),
    "f4_10": lambda: spec_ansatz(f4_master(1, 1), f4_family(10 * cmath.exp(0.7j))),
    "f4_30": lambda: spec_ansatz(f4_master(1, 1), f4_family(30 * cmath.exp(0.7j))),
}


class TestBlockBraidAgainstDense:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_dense_three_strand_products(self, case):
        a = BLOCK_CASES[case]()
        t = build_local_generator(a)
        n = a.n
        # The bound of TestVerifyTLAgainstDenseChain: the block form sums in
        # another order, so the residuals agree to rounding.
        floor = 1e-14 * n**2 * max_abs(t) ** 3
        for sites in (2, 3, 4, 6):
            block = verify_tl(TLAnsatz(a.m, a.exponents, a.v, a.w, sites))
            dense = verify_tl_local(t, a.alpha, sites)
            assert block.loop_residual == dense.loop_residual
            assert abs(block.braid_residual - dense.braid_residual) <= 1e-9 * dense.braid_residual + floor
            assert block.commute_residual == 0.0
            assert block.ok() == dense.ok()
            assert block.nu == dense.nu
            if sites == 2:
                assert block.braid_residual == 0.0

    @pytest.mark.parametrize("case, passes", [
        ("fourier8", True), ("f6_200_7_11", True), ("nested23", True), ("u1", True),
        ("fourier5_negated", True), ("f4_30", True), ("control4", False), ("random5", False),
        ("fourier4_shuffled", False),
    ])
    def test_expected_verdict(self, case, passes):
        assert verify_tl(BLOCK_CASES[case]()).ok() == passes


class TestBlockBraidScale:
    def refuse_dense_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the block form must not form three-strand products")

        monkeypatch.setattr(linalg, "on_strands", refuse)
        monkeypatch.setattr(linalg, "kron", refuse)

    def test_fourier_16_passes_in_bounded_memory(self, monkeypatch):
        # The dense check takes 1.57 GB peak at n = 16.
        a = spec_ansatz(fourier_master(16), fourier(16))
        self.refuse_dense_kernels(monkeypatch)
        tracemalloc.start()
        try:
            report = verify_tl(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.braid_residual <= 1e-9
        assert report.ok()
        assert peak <= 128 * 2**20

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_peak_memory_within_the_stated_bound(self, n):
        # The bound of verify_tl's docstring: 64 * max(n^5, 4096) bytes.
        a = spec_ansatz(fourier_master(n), fourier(n))
        tracemalloc.start()
        try:
            verify_tl(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * max(n**5, 4096)

    def test_off_grid_16_fails(self, monkeypatch):
        a = spec_ansatz(off_grid_spec(16), fourier(16))
        self.refuse_dense_kernels(monkeypatch)
        report = verify_tl(a)
        assert report.braid_residual > 0.1
        assert not report.ok()


class TestNonFiniteResidual:
    # M = c I with a large exponent gap: powers of order c^gap overflow in the
    # braid products, whose residual is NaN. Python's max would drop it.
    CASES = [(10.0, (0, 200)), (10.0, (0, 160)), (2.0, (0, 600))]

    def test_nan_in_any_field_makes_the_report_fail(self):
        for fields in ((math.nan, 0.0, 0.0), (2e-14, math.nan, 0.0), (2e-14, math.inf, 0.0)):
            report = TLReport(*fields, 2.0)
            assert not math.isfinite(report.max_residual)
            assert not report.ok()

    @pytest.mark.parametrize("scale, exponents", CASES)
    def test_overflowing_powers_fail(self, scale, exponents):
        a = TLAnsatz(scale * np.eye(2), exponents, sites=3)
        with np.errstate(all="ignore"):
            block = verify_tl(a)
            dense = verify_tl_local(build_local_generator(a), a.alpha, 3)
        for report in (block, dense):
            assert not math.isfinite(report.braid_residual)
            assert not math.isfinite(report.max_residual)
            assert not report.ok()


class TestMaster4:
    def test_eigenvector_matrix_passes(self):
        for n in (2, 3):
            spec = fourier_master(n)
            om = master_matrix(spec)
            p = np.asarray(om).T @ np.asarray(fourier(n)) / n
            check = check_master4(as_matrix(p), spec.lambdas, spec.exponents)
            assert check.ok, check.max_residual

    def test_identity_p_for_fourier_two(self):
        spec = fourier_master(2)
        check = check_master4(identity(2), spec.lambdas, spec.exponents)
        # Cross-check against the direct TL verification of the same data.
        m = reconstruct_m(master_matrix(spec), fourier(2), spec.lambdas)
        direct = verify_tl(TLAnsatz(m, spec.exponents))
        assert check.ok == direct.ok(1e-9)

    def test_perturbed_eigenvalues_fail(self):
        spec = fourier_master(3)
        om = master_matrix(spec)
        p = np.asarray(om).T @ np.asarray(fourier(3)) / 3
        bad = tuple(
            lam * (1.01 if i == 0 else 1.0)
            for i, lam in enumerate(spec.lambdas)
        )
        check = check_master4(as_matrix(p), bad, spec.exponents)
        assert not check.ok
        assert check.worst is not None

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            check_master4(identity(2), (1, -1, 1j), (0, 1, 2))

    @pytest.mark.parametrize("perturb", [1.0, 1.01])
    @pytest.mark.parametrize("spec", [fourier_master(3), f4_master(2, 1), f6_master(2, 1, 1)],
                             ids=["fourier3", "f4_2_1", "f6_2_1_1"])
    def test_matches_scalar_loop(self, spec, perturb):
        # Reference: the closure conditions one (i, j, u) at a time in
        # Python complex arithmetic. numpy sums in another order, so the
        # residuals agree to a tolerance and the worst index is compared by
        # the residual it points at.
        n = spec.size
        p = np.asarray(master_matrix(spec)).T @ np.asarray(dephase(fourier(n))[0])
        lams = [lam * (perturb if i == 0 else 1.0) for i, lam in enumerate(spec.lambdas)]
        pinv = np.linalg.inv(p)
        res = np.zeros((n, n, n))
        for u in range(n):
            for i in range(n):
                for j in range(n):
                    ratio = sum((lams[j] / lams[i]) ** e for e in spec.exponents)
                    inner = sum(
                        pinv[i, k] * p[l, j] * lams[u] ** (ek - el)
                        for k, ek in enumerate(spec.exponents)
                        for l, el in enumerate(spec.exponents)
                    )
                    res[u, i, j] = abs(ratio * inner - n * (i == j))
        check = check_master4(as_matrix(p), lams, spec.exponents)
        assert abs(check.max_residual - res.max()) <= 1e-12 * max(1.0, res.max())
        i, j, u = check.worst
        assert abs(res[u, i, j] - res.max()) <= 1e-12 * max(1.0, res.max())
        assert check.ok == (perturb == 1.0)


def _unimodular(rng, size):
    return np.exp(2j * math.pi * rng.uniform(size=size))


def _omega(family, rng):
    """A GHM of the family, or a random matrix, which is not one."""
    if family == "fourier":
        return fourier(int(rng.integers(2, 7)))
    if family == "f4":
        return f4_family(10 ** rng.uniform(0, 4) * _unimodular(rng, None))
    if family == "f6":
        a, b = 10 ** rng.uniform(-1, 1, size=2) * _unimodular(rng, 2)
        return f6_family(a, b)
    n = int(rng.integers(2, 7))
    return as_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def _weights(kind, n, rng):
    """(v, w): all ones, a constant overlap, a gauge d and c / d, or random."""
    if kind == "ones":
        return (1.0,) * n, (1.0,) * n
    c = complex(*rng.uniform(0.5, 2.0, size=2))
    if kind == "constant":
        return (c,) * n, (1.0,) * n
    d = rng.uniform(0.5, 2.0, size=n) * _unimodular(rng, n)
    if kind == "gauge":
        return tuple(d), tuple(c / d)
    return tuple(d), tuple(rng.normal(size=n) + 1j * rng.normal(size=n))


def identity_residual(omega, v, w):
    """max|Omega^{o-1} V W - alpha (Omega^-1)^t|, the identity itself: the
    reference whose verdict weighted_hadamard_check's two parts must give."""
    alpha = sum((va * wa for va, wa in zip(v, w)), complex(0.0))
    return max_abs((1 / omega) @ diag(v) @ diag(w) - alpha * inverse(omega).T)


def twisted_product_ok(p, omega, v=None, w=None, tol=1e-9):
    """The twisted product (P^-1 V Omega^t)[i, u] (Omega^{o-1} W P)[u, i] = 1,
    and in the plain form also H = Omega^{o-1} P a GHM: the reference whose
    verdict eigenvector_condition must give."""
    ones = (1.0,) * len(p)
    left = inverse(p) @ diag(ones if v is None else v) @ np.asarray(omega).T
    h = (1 / np.asarray(omega)) @ diag(ones if w is None else w) @ p
    ok = bool(max_abs(left * h.T - 1.0) <= tol)
    return ok and (v is not None or is_ghm(h).is_ghm)


def _eigenvector_data(family, weights, rng):
    """(P, Omega, v, w, verdict of the twisted product) for one draw.

    P is built so that Omega^{o-1} W P is a Fourier matrix after a diagonal
    move, an F4(a) with 1 <= |a| <= 100, or, for "random_p", P is random.
    The weights are plain (none), a gauge d and 1 / d, an overlap of 2, or
    random; only the first two can pass.
    """
    if family == "f4":
        omega = master_matrix(f4_master(2, 1))
        h = f4_family(10 ** rng.uniform(0, 2) * _unimodular(rng, None))
    else:
        n = int(rng.integers(2, 6))
        omega = master_matrix(fourier_master(n))
        left, right = rng.uniform(0.5, 2.0, size=(2, n)) * _unimodular(rng, (2, n))
        move = EquivalenceMove(tuple(range(n)), tuple(left), tuple(right), tuple(range(n)))
        h = apply_equivalence(fourier(n), move)
    n = len(h)
    d = rng.uniform(0.5, 2.0, size=n) * _unimodular(rng, n)
    v, w = {
        "plain": (None, None),
        "gauge": (tuple(d), tuple(1 / d)),
        "overlap_2": (tuple(d), tuple(2 / d)),
        "random": _weights("random", n, rng),
    }[weights]
    p = (1 / np.asarray((1.0,) * n if w is None else w))[:, None] * (omega.T @ h) / n
    if family == "random_p":
        p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    expected = family != "random_p" and weights in ("plain", "gauge")
    return as_matrix(p), omega, v, w, expected


EIGENVECTOR_CASES = {
    f"{family}_{weights}_{seed}": (
        lambda args=(family, weights, seed): _eigenvector_data(
            *args[:2], np.random.default_rng(args[2])
        )
    )
    for family in ("fourier_moved", "f4", "random_p")
    for weights in ("plain", "gauge", "overlap_2", "random")
    for seed in range(3)
}


class TestEigenvectorCondition:
    def test_transpose_alone_fails(self):
        spec = fourier_master(3)
        om = master_matrix(spec)
        assert not eigenvector_condition(as_matrix(np.asarray(om).T), om)

    def test_hadamard_eigenvectors_pass(self):
        for n in (2, 3, 4):
            spec = fourier_master(n)
            om = master_matrix(spec)
            p = as_matrix(np.asarray(om).T @ np.asarray(fourier(n)) / n)
            assert eigenvector_condition(p, om)

    def test_column_rescaling_preserves_condition(self):
        # p is determined up to a diagonal rescaling of eigenvectors.
        rng = np.random.default_rng(12)
        spec = fourier_master(3)
        om = master_matrix(spec)
        p = np.asarray(om).T @ np.asarray(fourier(3)) / 3
        for _ in range(20):
            scale = rng.uniform(0.5, 2.0, size=3) * np.exp(
                1j * rng.uniform(0, 2 * math.pi, size=3)
            )
            rescaled = as_matrix(p @ np.diag(scale))
            assert eigenvector_condition(rescaled, om)

    def test_weighted_variant(self):
        a = fixture_u1_ansatz()
        spec = MasterSpec((1, unit_root(1, 3), unit_root(2, 3)), a.exponents)
        om = master_matrix(spec)
        eig = np.linalg.eig(np.asarray(a.m))
        order = []
        for lam in spec.lambdas:
            order.append(int(np.argmin(np.abs(eig.eigenvalues - lam))))
        p = as_matrix(eig.eigenvectors[:, order])
        assert eigenvector_condition(p, om, v=a.v, w=a.w)
        # This fixture has v_a w_a = 1, so its weights amount to a diagonal
        # gauge of a plain ansatz and the plain condition holds as well.
        assert eigenvector_condition(p, om)
        # Distorted weights break the twisted product.
        assert not eigenvector_condition(p, om, v=(2, 1, 1), w=(1, 1, 1))

    def test_zero_entry_of_omega_named(self):
        om = as_matrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            eigenvector_condition(fourier(2), om)

    def test_singular_p_fails(self):
        om = master_matrix(fourier_master(2))
        assert not eigenvector_condition(as_matrix([[1, 1], [1, 1]]), om)

    @pytest.mark.parametrize("case", EIGENVECTOR_CASES)
    def test_verdict_equals_the_twisted_product(self, case):
        p, om, v, w, expected = EIGENVECTOR_CASES[case]()
        assert twisted_product_ok(p, om, v, w) is expected
        assert eigenvector_condition(p, om, v=v, w=w) is expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fourier_moved", "f4", "random_p"]),
        st.sampled_from(["plain", "gauge", "overlap_2", "random"]),
        st.integers(0, 2**32 - 1),
    )
    def test_verdict_is_the_twisted_products(self, family, weights, seed):
        p, om, v, w, expected = _eigenvector_data(family, weights, np.random.default_rng(seed))
        assert twisted_product_ok(p, om, v, w) is expected
        assert eigenvector_condition(p, om, v=v, w=w) is expected


class TestReconstructM:
    def test_identity_h_gives_permuted_diagonalizable_m(self):
        spec = fourier_master(3)
        m = reconstruct_m(master_matrix(spec), identity(3), spec.lambdas)
        # m annihilates its own characteristic polynomial built from lambdas.
        prod = identity(3)
        for lam in spec.lambdas:
            prod = prod @ (m - lam * identity(3))
        assert max_abs(prod) < 1e-10

    def test_spectrum_matches_lambdas(self):
        spec = fourier_master(4)
        m = reconstruct_m(master_matrix(spec), fourier(4), spec.lambdas)
        # Pair each lambda with its nearest eigenvalue, one to one; sorting by
        # (re, im) would order +-i by the rounding noise of their real parts.
        dist = np.abs(np.subtract.outer(spec.lambdas, np.linalg.eigvals(np.asarray(m))))
        assert sorted(dist.argmin(axis=1)) == list(range(len(spec.lambdas)))
        assert dist.min(axis=1).max() < 1e-9

    def test_reconstruction_satisfies_tl(self):
        for n in (2, 3, 4):
            report = verify_tl(reconstructed_ansatz(n))
            assert report.max_residual <= 1e-9, (n, report)
            assert abs(report.nu - n) < 1e-9

    def test_f4_reconstruction_satisfies_tl(self):
        spec = f4_master(2, 1)
        om = master_matrix(spec)
        h, _ = dephase(as_matrix(np.asarray(om)))
        m = reconstruct_m(om, h, spec.lambdas)
        report = verify_tl(TLAnsatz(m, spec.exponents))
        assert report.max_residual <= 1e-9
        assert abs(report.nu - 4) < 1e-9

    def test_non_ghm_h_fails_tl(self):
        spec = fourier_master(3)
        h = as_matrix([[1, 1, 1], [1, 2, 1], [1, 1, 3]])
        m = reconstruct_m(master_matrix(spec), h, spec.lambdas)
        report = verify_tl(TLAnsatz(m, spec.exponents))
        assert report.max_residual > 1e-3


#: (omega, v, w) of each weighted Hadamard case: F2..F4 with plain weights,
#: the U1 weights on the Fourier master matrix, and weights that fail.
WEIGHTED_CASES = {
    **{f"plain_f{n}": (lambda n=n: (fourier(n), (1.0,) * n, (1.0,) * n)) for n in (2, 3, 4)},
    "u1": lambda: (
        master_matrix(fourier_master(3)), (unit_root(1, 3), 1, 1), (unit_root(2, 3), 1, 1)
    ),
    "wrong": lambda: (fourier(3), (2, 1, 1), (1, 1, 1)),
}


class TestWeightedHadamard:
    def test_plain_weights_reduce_to_ghm(self):
        for n in (2, 3, 4):
            ones = (1.0,) * n
            check = weighted_hadamard_check(fourier(n), ones, ones)
            assert check.ok, check.max_residual

    def test_u1_weights(self):
        w, w2 = unit_root(1, 3), unit_root(2, 3)
        om = master_matrix(fourier_master(3))
        check = weighted_hadamard_check(om, (w, 1, 1), (w2, 1, 1))
        assert check.ok, check.max_residual

    def test_wrong_weights_fail(self):
        check = weighted_hadamard_check(fourier(3), (2, 1, 1), (1, 1, 1))
        assert not check.ok

    def test_zero_entry_rejected(self):
        # A zero entry makes ghm_residual inf, and a singular Omega gives a
        # finite one (Omega (Omega^{o-1})^t = [[2, 1], [4, 2]]): a failed
        # verdict, not an error.
        check = weighted_hadamard_check(as_matrix([[1, 0], [1, 1]]), (1, 1), (1, 1))
        assert (check.ok, check.max_residual) == (False, math.inf)
        check = weighted_hadamard_check(as_matrix([[1, 2], [2, 4]]), (1, 1), (1, 1))
        assert (check.ok, check.max_residual) == (False, 4.0)

    def test_parts(self):
        # v o w = 2 passes the identity at alpha = 6 but not the TL normalisation.
        check = weighted_hadamard_check(fourier(3), (2, 2, 2), (1, 1, 1))
        assert check.max_residual == check.ghm_residual <= 1e-15
        assert check.overlap_spread == 0.0
        assert (check.ok, check.tl_normalisation) == (False, 1.0)

    def test_zero_overlap_refused(self):
        # v o w = 0 satisfies the identity for any Omega without zero entries.
        omega = as_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert identity_residual(omega, (1, 0, 0), (0, 1, 1)) == 0
        with pytest.raises(ValueError, match="must be nonzero"):
            weighted_hadamard_check(omega, (1, 0, 0), (0, 1, 1))

    @pytest.mark.parametrize("case", WEIGHTED_CASES)
    def test_equals_the_identity_at_alpha_the_weight_overlap(self, case):
        # The verdict of the identity itself, at alpha = sum_a v_a w_a.
        omega, v, w = WEIGHTED_CASES[case]()
        expected = identity_residual(omega, v, w) <= 1e-9
        assert weighted_hadamard_check(omega, v, w).ok is expected
        assert expected is (case != "wrong")

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fourier", "f4", "f6", "random"]),
        st.sampled_from(["ones", "constant", "gauge", "random"]),
        st.integers(0, 2**32 - 1),
    )
    def test_verdict_is_the_identitys(self, family, weights, seed):
        rng = np.random.default_rng(seed)
        omega = _omega(family, rng)
        v, w = _weights(weights, len(omega), rng)
        expected = identity_residual(omega, v, w) <= 1e-9
        check = weighted_hadamard_check(omega, v, w)
        assert (check.max_residual <= 1e-9) is expected
        assert check.ok is (expected and check.tl_normalisation <= 1e-9)
        assert expected is (family != "random" and weights != "random")

    def test_no_other_alpha_can_pass(self):
        # F2 with v = w = (1, 1): alpha = 2 is the weight overlap, and the
        # identity at alpha = 3 misses by 0.5 on the diagonal.
        omega = fourier(2)
        assert weighted_hadamard_check(omega, (1, 1), (1, 1)).max_residual <= 1e-15
        assert max_abs(1 / omega - 3 * inverse(omega).T) == pytest.approx(0.5)


def gauge(local, g):
    """local conjugated by g (x) g: (g (x) g) local (g (x) g)^-1."""
    gg = kron(g, g)
    return gg @ local @ inverse(gg)


class TestGaugeTransform:
    def test_gauge_preserves_tl_residuals(self):
        rng = np.random.default_rng(13)
        a = fixture_u2_ansatz()
        local = build_local_generator(a)

        for _ in range(10):
            g = as_matrix(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            ) + 3 * identity(3)
            moved = gauge(local, g)
            report = verify_tl_local(moved, a.alpha, a.sites)
            assert report.max_residual <= 1e-8, report

    def test_diagonal_gauge_reweights_ansatz(self):
        # Conjugating by diag(d) on both tensor factors multiplies the dyad
        # weights by d on the left index, divides them on the right index,
        # and conjugates the internal matrix: (v, w, m) -> (v d, w / d,
        # d m d^-1). The loop weight is unchanged.
        rng = np.random.default_rng(15)
        for a in (fixture_u2_ansatz(), fixture_u1_ansatz()):
            d = rng.uniform(0.5, 2.0, size=3) * np.exp(
                1j * rng.uniform(0, 2 * math.pi, size=3)
            )
            g = diag(d)
            moved = gauge(build_local_generator(a), g)
            m2 = as_matrix(np.asarray(g) @ np.asarray(a.m) @ inverse(g))
            reweighted = TLAnsatz(
                m2,
                a.exponents,
                v=tuple(np.asarray(a.v) * d),
                w=tuple(np.asarray(a.w) / d),
            )
            assert abs(reweighted.alpha - a.alpha) < 1e-12
            rebuilt = build_local_generator(reweighted)
            np.testing.assert_allclose(moved, rebuilt, rtol=0, atol=1e-10)


class TestFixtures:
    def test_u2_entries_are_cube_roots_or_zero(self):
        allowed = [0] + [unit_root(k, 3) for k in range(3)]
        for x in np.asarray(fixture_u2()).flat:
            assert min(abs(x - a) for a in allowed) < 1e-14

    def test_u2_loop_relation(self):
        t = fixture_u2()
        assert max_abs(t @ t - 3 * t) <= 1e-10

    def test_u1_loop_relation(self):
        t = fixture_u1()
        assert max_abs(t @ t - 3 * t) <= 1e-10

    def test_fixture_ansatz_m_is_weighted_permutation(self):
        m = np.asarray(fixture_u2_ansatz().m)
        assert np.count_nonzero(m) == 3
        assert np.allclose(np.abs(m[m != 0]), 1.0)


class TestLemmaInvariant:
    def test_master_spec_plus_ghm_gives_tl(self):
        # Every (master spec, generalized Hadamard eigenvector matrix) pair
        # must produce a TL representation at loop weight n.
        cases = [
            (fourier_master(2), fourier(2)),
            (fourier_master(3), fourier(3)),
            (fourier_master(3, ell=2), fourier(3)),
            (fourier_master(4), fourier(4)),
            (fourier_master(5), fourier(5)),
        ]
        for spec, h in cases:
            n = len(spec.lambdas)
            m = reconstruct_m(master_matrix(spec), h, spec.lambdas)
            sites = 4 if n <= 3 else 3
            report = verify_tl(TLAnsatz(m, spec.exponents, sites=sites))
            assert report.max_residual <= 1e-9, (n, report)

    def test_master4_and_verify_tl_agree(self):
        # check_master4 on the eigenvector matrix must agree with directly
        # verifying the reconstructed generator, pass or fail.
        rng = np.random.default_rng(14)
        spec = fourier_master(3)
        om = master_matrix(spec)
        good_p = np.asarray(om).T @ np.asarray(fourier(3)) / 3
        for trial in range(10):
            noise = 10.0 ** rng.uniform(-14, -1)
            p = as_matrix(
                good_p
                + noise * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            )
            lam = np.asarray(spec.lambdas)
            m = as_matrix(np.asarray(p) @ np.diag(lam) @ np.asarray(inverse(p)))
            check = check_master4(p, spec.lambdas, spec.exponents, tol=1e-6)
            report = verify_tl(TLAnsatz(m, spec.exponents))
            assert check.ok == report.ok(1e-6), (trial, noise)
