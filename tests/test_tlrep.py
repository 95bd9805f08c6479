"""Tests for the rank-n generator ansatz and the algebra checks it feeds."""

import cmath
import math

import numpy as np
import pytest

from tlhad.hadamard import dephase, f4_family, fourier, is_ghm
from tlhad.linalg import (
    approx_eq,
    as_matrix,
    diag,
    identity,
    inverse,
    kron,
    max_abs,
    unit_root,
    zeros,
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
    build_local_generator,
    check_master4,
    eigenvector_condition,
    embed,
    fixture_u1,
    fixture_u1_ansatz,
    fixture_u2,
    fixture_u2_ansatz,
    gauge_transform,
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
        assert approx_eq(back.m, a.m, 0).ok
        assert back.exponents == a.exponents
        assert np.array_equal(back.v, a.v)
        assert back.sites == a.sites


class TestBuildLocalGenerator:
    def test_one_dimensional_ansatz(self):
        a = TLAnsatz(as_matrix([[5]]), (0,))
        t = build_local_generator(a)
        assert approx_eq(t, as_matrix([[1]]), 1e-15).ok

    def test_matches_printed_u2(self):
        t = build_local_generator(fixture_u2_ansatz())
        assert approx_eq(t, fixture_u2(), 1e-12).ok

    def test_matches_printed_u1(self):
        t = build_local_generator(fixture_u1_ansatz())
        assert approx_eq(t, fixture_u1(), 1e-12).ok

    def test_block_formula(self):
        # t = sum_ab v_a w_b (e_ab kron m^(n_a - n_b)); check one block.
        a = fixture_u2_ansatz()
        t = np.asarray(build_local_generator(a))
        n = a.n
        block_01 = t[0 * n:(0 + 1) * n, 1 * n:(1 + 1) * n]
        expected = np.linalg.matrix_power(a.m, a.exponents[0] - a.exponents[1])
        assert approx_eq(as_matrix(block_01), expected, 1e-12).ok

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


class TestEmbed:
    def test_two_sites_identity_padding(self):
        a = fixture_u2_ansatz(sites=2)
        local = build_local_generator(a)
        assert approx_eq(embed(local, 1, 2, a.n), local, 0).ok

    def test_three_sites_left(self):
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        left = embed(local, 1, 3, a.n)
        assert approx_eq(left, kron(local, identity(3)), 0).ok

    def test_three_sites_right(self):
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        right = embed(local, 2, 3, a.n)
        assert approx_eq(right, kron(identity(3), local), 0).ok

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
    offsets = (0.2, 0.35, 0.25, 0.3)[:n]
    lambdas = tuple(cmath.exp(2j * math.pi * (a + d) / n) for a, d in enumerate(offsets))
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


class TestWeightedHadamard:
    def test_plain_weights_reduce_to_ghm(self):
        for n in (2, 3, 4):
            ones = (1.0,) * n
            check = weighted_hadamard_check(fourier(n), ones, ones, n)
            assert check.ok, check.max_residual

    def test_u1_weights(self):
        w, w2 = unit_root(1, 3), unit_root(2, 3)
        om = master_matrix(fourier_master(3))
        check = weighted_hadamard_check(om, (w, 1, 1), (w2, 1, 1), 3)
        assert check.ok, check.max_residual

    def test_wrong_weights_fail(self):
        check = weighted_hadamard_check(fourier(3), (2, 1, 1), (1, 1, 1), 4)
        assert not check.ok

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            weighted_hadamard_check(
                as_matrix([[1, 0], [1, 1]]), (1, 1), (1, 1), 2
            )


class TestGaugeTransform:
    def test_identity_gauge_is_identity(self):
        local = build_local_generator(fixture_u2_ansatz())
        assert approx_eq(gauge_transform(local, identity(3)), local, 1e-12).ok

    def test_gauge_preserves_tl_residuals(self):
        rng = np.random.default_rng(13)
        a = fixture_u2_ansatz()
        local = build_local_generator(a)
        from tlhad.tlrep import verify_tl_local

        for _ in range(10):
            g = as_matrix(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            ) + 3 * identity(3)
            moved = gauge_transform(local, g)
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
            moved = gauge_transform(build_local_generator(a), g)
            m2 = as_matrix(np.asarray(g) @ np.asarray(a.m) @ inverse(g))
            reweighted = TLAnsatz(
                m2,
                a.exponents,
                v=tuple(np.asarray(a.v) * d),
                w=tuple(np.asarray(a.w) / d),
            )
            assert abs(reweighted.alpha - a.alpha) < 1e-12
            rebuilt = build_local_generator(reweighted)
            assert approx_eq(moved, rebuilt, 1e-10).ok

    def test_singular_gauge_rejected(self):
        local = build_local_generator(fixture_u2_ansatz())
        with pytest.raises(Exception):
            gauge_transform(local, zeros(3, 3))


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
