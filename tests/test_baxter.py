"""Tests for Hecke generators, Baxterization, and Yang-Baxter checks."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from tlhad import baxter
from tlhad.baxter import (
    BraidData,
    baxterize,
    braid_from_tl,
    check_braid,
    check_spectral_ybe,
    check_ybe,
    flip_operator,
    hecke_residual,
    q_from_nu,
    spectral_samples,
    to_plain_r,
    ybe_residuals,
)
from tlhad import linalg
from tlhad.hadamard import f4_family, f6_family, fourier
from tlhad.linalg import (
    as_matrix,
    identity,
    inverse,
    kron,
    max_abs,
    on_strands,
    zeros,
)
from tlhad.master import (
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
    fixture_u1_ansatz,
    fixture_u2_ansatz,
    reconstruct_m,
    verify_tl,
)


def braid_from_ansatz(a):
    return braid_from_tl(build_local_generator(a), a.alpha)


def braid_from_spec(n, spec=None, h=None):
    spec = fourier_master(n) if spec is None else spec
    h = fourier(n) if h is None else h
    m = reconstruct_m(master_matrix(spec), h, spec.lambdas)
    return braid_from_ansatz(TLAnsatz(m, spec.exponents))


def random_braid(n, seed):
    """A generic complex R_check: invertible, neither Hecke nor a braid solution."""
    rng = np.random.default_rng(seed)
    dim = n * n
    return BraidData(q_from_nu(3), as_matrix(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))


def diag_violation():
    return BraidData(q_from_nu(3), as_matrix(np.diag([1, 2, 3, 4])))


def oracle_floor(b, samples):
    """Rounding floor of a spectral residual: 1e-14 * n^2 * scale, as in the TL oracle.

    scale bounds an entry of any word's coefficient times the word:
    the largest monomial |u^i w^j| times (max|R| + max|R^-1|)^3.
    """
    n = b.local_dim
    monomial = max(max(abs(u), 1 / abs(u)) ** 2 * max(abs(w), 1 / abs(w)) ** 2 for u, w in samples)
    scale = monomial * (max_abs(b.r_check) + max_abs(inverse(b.r_check))) ** 3
    return 1e-14 * n**2 * scale


def flip_by_loop(n):
    """The site swap as it was first written: one entry per (i, j)."""
    out = zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            out[i * n + j, j * n + i] = 1.0
    return out


#: The box corners e^(+-1 +- i), as every (u, w) pair of them.
CORNERS = [cmath.exp(complex(x, y)) for x in (-1, 1) for y in (-1, 1)]
CORNER_SAMPLES = [(u, w) for u in CORNERS for w in CORNERS]

ORACLE_BRAIDS = {
    **{f"fourier{n}": (lambda n=n: braid_from_spec(n)) for n in range(2, 7)},
    "f4": lambda: braid_from_spec(4, f4_master(1, 1), f4_family(cmath.exp(0.7j))),
    "f6": lambda: braid_from_spec(6, f6_master(2, 1, 1), f6_family(cmath.exp(0.3j), cmath.exp(1.1j))),
    "nested22": lambda: braid_from_spec(4, nest(NestingSpec((NestingStage(2), NestingStage(2))))),
    "fixture_u1": lambda: braid_from_ansatz(fixture_u1_ansatz()),
    "fixture_u2": lambda: braid_from_ansatz(fixture_u2_ansatz()),
    "violation": diag_violation,
    **{f"random{n}": (lambda n=n: random_braid(n, 20 + n)) for n in (2, 3, 4)},
}


def nonmaster_braid(n, seed):
    """Hecke data with a large braid defect: an ansatz on a random M, with random weights."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    exponents = tuple(int(e) for e in rng.permutation(n) - n // 2)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    return braid_from_ansatz(TLAnsatz(m, exponents, v=v, w=w))


#: Hecke data: the ORACLE_BRAIDS that pass, and non-master ansaetze that fail.
HECKE_BRAIDS = {
    **{case: make for case, make in ORACLE_BRAIDS.items() if case != "violation" and case[:6] != "random"},
    **{f"nonmaster{n}": (lambda n=n: nonmaster_braid(n, n - 1)) for n in (2, 3, 4, 5)},
}
ALL_BRAIDS = {**ORACLE_BRAIDS, **HECKE_BRAIDS}


#: The ORACLE_BRAIDS that are not Hecke data, and so take the kernel route of ybe_residuals.
KERNEL_ROUTE = ("violation", "random2", "random3", "random4")


def assert_bounds_the_oracle(got, b, samples):
    """got is at least the oracle's residual at every sample, at most 5x their maximum, and fails."""
    oracle = [spectral_ybe_by_baxterize(b, [sample]) for sample in samples]
    assert all(got >= residual for residual in oracle)
    assert got <= 5 * max(oracle)
    assert got > baxter.SPECTRAL_ALLOWANCE * 1e-9


def spectral_ybe_by_baxterize(b, samples):
    """Reference: each spectral generator from baxterize, one inverse per call of it."""
    n = b.local_dim
    eye = identity(n)
    worst = 0.0
    for u, w in samples:
        r_u, r_w, r_uw = (baxterize(b, x) for x in (u, w, u * w))
        lhs = on_strands(r_u, on_strands(r_uw, kron(r_w, eye), (1, 2), n), (0, 1), n)
        rhs = on_strands(r_w, on_strands(r_uw, kron(eye, r_u), (0, 1), n), (1, 2), n)
        worst = max(worst, max_abs(lhs - rhs))
    return worst


def dense_mirror_difference(a, b, c, n):
    """A12 B23 C12 - C23 B12 A23 on all n^3 columns, composed with on_strands."""
    eye = identity(n)
    lhs = on_strands(a, on_strands(b, kron(c, eye), (1, 2), n), (0, 1), n)
    rhs = on_strands(c, on_strands(b, kron(eye, a), (0, 1), n), (1, 2), n)
    return lhs - rhs


def spectral_monomials(samples):
    """(samples x 8) coefficients u^(a+b) w^(b+c), columns (a, b, c) in _mirror_words' order."""
    u, w = np.array(samples, dtype=np.complex128).reshape(-1, 2).T
    signs = (1, -1)
    with np.errstate(all="ignore"):
        return np.stack([u ** (a + b) * w ** (b + c) for a in signs for b in signs for c in signs], axis=1)


def unpruned_spectral(samples, blocks):
    """Worst sample residual over every entry of the (8, n^5) word blocks, NaN if any is NaN."""
    mono = spectral_monomials(samples)
    with np.errstate(all="ignore"):
        return float(np.max([np.abs(mono @ d).max(initial=0.0) for d in blocks]))


def coefficient_bound(samples, blocks):
    """Largest sum_k max_s |m_k(u_s, w_s)| |C_k| of an entry of the blocks, over the seven coefficients.

    C_k is a word, except that D_-+- (word 5) is added to D_+-+ (word 2):
    both multiply u^0 w^0.
    """
    reach = np.delete(np.abs(spectral_monomials(samples)).max(axis=0), 5)
    fold = np.eye(8)[[0, 1, 2, 3, 4, 6, 7]]
    fold[2, 5] = 1
    return float(np.max([(reach[:, None] * np.abs(fold @ d)).sum(axis=0).max() for d in blocks]))


def kernel_residuals(b, samples, tol=1e-9):
    """ybe_residuals' kernel route, whatever the input: the mirror words of (R, -R^-1)."""
    u, w = np.array(samples, dtype=np.complex128).reshape(-1, 2).T
    return baxter._kernel_residuals(np.stack((b.r_check, -inverse(b.r_check, tol))), u, w)


def mirror_word_blocks(b):
    """Every block of _mirror_words on (R, -R^-1), as (8, n^5) arrays."""
    ops = np.stack((b.r_check, -inverse(b.r_check)))
    return [baxter._mirror_words(ops, k).reshape(8, -1).copy() for k in range(b.local_dim)]


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQFromNu:
    def test_loop_weight_four_is_degenerate_point(self):
        assert abs(q_from_nu(4) - 1) < 1e-12

    def test_loop_weight_three(self):
        assert abs(q_from_nu(3) - cmath.exp(1j * math.pi / 6)) < 1e-12

    def test_loop_weight_nine(self):
        assert abs(q_from_nu(9) - (3 + math.sqrt(5)) / 2) < 1e-12

    @pytest.mark.parametrize("nu", [2, 3, 3.5, 4, 9, 2 + 1j])
    def test_defining_identity(self, nu):
        q = q_from_nu(nu)
        assert abs(q + 1 / q - cmath.sqrt(nu)) < 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            q_from_nu(0)


class TestBraidFromTL:
    def test_zero_generator_gives_scalar_braid(self):
        b = braid_from_tl(zeros(4, 4), 3)
        np.testing.assert_allclose(b.r_check, q_from_nu(3) * identity(4), rtol=0, atol=1e-12)
        assert hecke_residual(b) <= 1e-10

    def test_fixture_u2(self):
        a = fixture_u2_ansatz()
        b = braid_from_tl(build_local_generator(a), a.alpha)
        # q + 1/q = sqrt(nu): the loop factor 3 is held by q alone.
        assert (b.q + 1 / b.q) ** 2 == pytest.approx(3.0)
        assert hecke_residual(b) <= 1e-10
        assert b.local_dim == 3

    def test_hecke_residual_is_the_loop_residual_over_nu(self):
        # H = (T^2 - nu T) / nu for any square T: identity(4) with nu = 3
        # gives 2/3. From a = 1e4 on, rounding in the ill-conditioned f4
        # ansatz puts the loop residual far past tol.
        assert hecke_residual(braid_from_tl(identity(4), 3)) == pytest.approx(2 / 3, rel=1e-6)
        for a, rel, atol in ((10, 0, 1e-12), (100, 0, 1e-12), (1e4, 1e-6, 0), (3e4, 1e-6, 0)):
            spec = f4_master(1, 1)
            ansatz = TLAnsatz(reconstruct_m(master_matrix(spec), f4_family(a), spec.lambdas), spec.exponents)
            t, nu = build_local_generator(ansatz), ansatz.alpha
            loop = max_abs(t @ t - nu * t) / abs(nu)
            assert hecke_residual(braid_from_tl(t, nu)) == pytest.approx(loop, rel=rel, abs=atol)
            if a >= 1e4:
                assert loop > 1e-3

    def test_non_square_dimension_rejected(self):
        b = braid_from_tl(zeros(4, 4), 3)
        with pytest.raises(ValueError):
            BraidData(b.q, zeros(6, 6)).local_dim


class TestHecke:
    @pytest.mark.parametrize("n", [2, 3])
    def test_reconstructed_generators(self, n):
        b = braid_from_spec(n)
        assert hecke_residual(b) <= 1e-10

    def test_hecke_gives_inverse_formula(self):
        # (R - q)(R + 1/q) = 0 implies R^{-1} = R - (q - 1/q) I.
        b = braid_from_spec(3)
        omega = b.q - 1 / b.q
        direct = inverse(b.r_check)
        np.testing.assert_allclose(direct, b.r_check - omega * identity(9), rtol=0, atol=1e-10)

    def test_json_round_trip(self):
        b = braid_from_spec(2)
        back = BraidData.from_dict(b.to_dict())
        assert set(b.to_dict()) == {"q", "r_check"}
        assert abs(back.q - b.q) == 0
        assert np.array_equal(back.r_check, b.r_check)


class TestCheckBraid:
    def test_identity_satisfies_braid(self):
        assert check_braid(identity(4)) <= 1e-15

    def test_flip_satisfies_braid(self):
        assert check_braid(flip_operator(2)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_reconstructed_braids(self, n):
        b = braid_from_spec(n)
        assert check_braid(b.r_check) <= 1e-9

    def test_fixture_u2_braid(self):
        a = fixture_u2_ansatz()
        b = braid_from_tl(build_local_generator(a), a.alpha)
        assert check_braid(b.r_check) <= 1e-9

    def test_generic_matrix_fails(self):
        rng = np.random.default_rng(16)
        r = as_matrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert check_braid(r) > 0.1

    def test_dimension_must_be_square(self):
        with pytest.raises(ValueError):
            check_braid(zeros(6, 6))


def closed_form(b, u):
    """(u - 1/u) R_check + ((q - 1/q)/u) I, the Hecke form of baxterize(b, u)."""
    omega = b.q - 1 / b.q
    return (u - 1 / u) * b.r_check + (omega / u) * identity(b.r_check.shape[0])


class TestBaxterize:
    def test_unit_spectral_parameter(self):
        b = braid_from_spec(2)
        omega = b.q - 1 / b.q
        r1 = baxterize(b, 1)
        np.testing.assert_allclose(r1, omega * identity(4), rtol=0, atol=1e-10)

    def test_agreement_with_closed_form(self):
        # baxterize(b, u) - closed form = R^-1 (R - q I)(R + I/q) / u: the
        # closed form agrees exactly as far as the Hecke relation holds.
        a = fixture_u2_ansatz()
        b = braid_from_tl(build_local_generator(a), a.alpha)
        assert hecke_residual(b) <= 1e-10
        for u in (2, 0.5, 1j, 0.3 - 0.7j):
            np.testing.assert_allclose(baxterize(b, u), closed_form(b, u), rtol=0, atol=1e-10)

    def test_zero_spectral_parameter_rejected(self):
        b = braid_from_spec(2)
        with pytest.raises(ValueError):
            baxterize(b, 0)

    def test_degenerate_loop_weight(self):
        # nu = 4 gives q = 1 and the closed form still matches.
        t = zeros(4, 4)
        b = braid_from_tl(t, 4)
        assert hecke_residual(b) <= 1e-12
        np.testing.assert_allclose(baxterize(b, 2 + 1j), closed_form(b, 2 + 1j), rtol=0, atol=1e-12)


class TestSpectralSamples:
    def test_deterministic_for_seed(self):
        assert spectral_samples(5, seed=42) == spectral_samples(5, seed=42)
        assert spectral_samples(5, seed=1) != spectral_samples(5, seed=2)

    def test_count(self):
        assert len(spectral_samples(7)) == 7

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed -1 is negative"):
            spectral_samples(5, seed=-1)

    def test_values_plausible(self):
        for u, w in spectral_samples(20):
            assert math.exp(-1) - 1e-9 <= abs(u) <= math.e + 1e-9
            assert math.exp(-1) - 1e-9 <= abs(w) <= math.e + 1e-9


class TestSpectralYbe:
    @pytest.mark.parametrize("n", [2, 3])
    def test_reconstructed_braids(self, n):
        b = braid_from_spec(n)
        assert check_spectral_ybe(b) <= 1e-8

    def test_fixture_u2(self):
        a = fixture_u2_ansatz()
        b = braid_from_tl(build_local_generator(a), a.alpha)
        assert check_spectral_ybe(b) <= 1e-8

    def test_deterministic(self):
        b = braid_from_spec(2)
        assert check_spectral_ybe(b) == check_spectral_ybe(b)

    def test_explicit_samples(self):
        b = braid_from_spec(2)
        residual = check_spectral_ybe(b, samples=[(1.0, 1.0)])
        # At u = w = 1 both sides are omega(q)^3 times the identity.
        assert residual <= 1e-12

    def test_braid_violation_shows_up(self):
        bad = BraidData(q_from_nu(3), as_matrix(np.diag([1, 2, 3, 4])))
        assert check_spectral_ybe(bad, samples=spectral_samples(5)) > 1e-3

    @pytest.mark.parametrize("source", ["spec2", "spec3", "fixture_u2", "violation"])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_one_inverse_and_residual_of_per_sample_baxterize(self, monkeypatch, source, seed):
        if source == "fixture_u2":
            a = fixture_u2_ansatz()
            b = braid_from_tl(build_local_generator(a), a.alpha)
        elif source == "violation":
            b = BraidData(q_from_nu(3), as_matrix(np.diag([1, 2, 3, 4])))
        else:
            b = braid_from_spec(int(source[-1]))
        samples = spectral_samples(20, seed)
        calls = []

        def counting_inverse(*args, **kwargs):
            calls.append(args)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(linalg, "inverse", counting_inverse)
        got = check_spectral_ybe(b, samples)
        assert len(calls) == 1
        if source == "violation":
            assert_bounds_the_oracle(got, b, samples)
        else:
            expected = spectral_ybe_by_baxterize(b, samples)
            assert abs(got - expected) <= 1e-9 * expected + oracle_floor(b, samples)

    @pytest.mark.parametrize(
        "samples", [[(0, 1.0)], [(1.0, 0)], [(1e-200, 1e-200)], [(1.0, 1.0), (0j, 2.0)]],
        ids=["u", "w", "uw_underflow", "second_sample"],
    )
    def test_zero_parameter_rejected(self, samples):
        with pytest.raises(ValueError, match="nonzero"):
            check_spectral_ybe(braid_from_spec(2), samples=samples)

    def test_non_finite_sample_residual_is_not_dropped(self):
        # At u = 1e-200 the monomial u^-2 overflows. The old loop kept the
        # running maximum over a NaN and reported 0.0, a pass.
        violating = check_spectral_ybe(diag_violation(), samples=[(1e-200, 1.0)])
        assert not math.isfinite(violating)
        assert not violating <= 1e-8
        good = braid_from_spec(3)
        samples = spectral_samples(5, seed=42)
        assert check_spectral_ybe(good, samples=samples) <= 1e-12
        mixed = check_spectral_ybe(good, samples=samples[:2] + [(1e-200, 1.0)] + samples[2:])
        assert not math.isfinite(mixed)
        assert not mixed <= 1e-8

    def test_no_samples_gives_zero(self):
        assert check_spectral_ybe(diag_violation(), samples=[]) == 0.0
        # A NaN word times the zero reach of no sample would be NaN.
        b = TestMirrorWordsNonFinite.overflow_in_last_block(2)
        with np.errstate(all="ignore"):
            got = ybe_residuals(b, [], tol=0)
        assert math.isnan(got.braid)
        assert got.spectral == 0.0

    def test_zero_hecke_parameter_rejected(self):
        with pytest.raises(ValueError, match="q must be nonzero"):
            BraidData(0, identity(4))


class TestSpectralYbeAgainstOracle:
    @pytest.mark.parametrize("case", list(ORACLE_BRAIDS))
    @pytest.mark.parametrize("sample_set", ["seed42", "corners"])
    def test_matches_per_sample_baxterize(self, case, sample_set):
        b = ORACLE_BRAIDS[case]()
        samples = spectral_samples(20, 42) if sample_set == "seed42" else CORNER_SAMPLES
        got = check_spectral_ybe(b, samples=samples)
        if case in KERNEL_ROUTE:
            assert_bounds_the_oracle(got, b, samples)
            return
        expected = spectral_ybe_by_baxterize(b, samples)
        # Rounding differs between the two orders of summation; beyond that
        # floor the residuals must agree to a relative 1e-9.
        assert abs(got - expected) <= 1e-9 * expected + oracle_floor(b, samples)
        assert got <= 1e-8

    @pytest.mark.parametrize("case", list(ALL_BRAIDS))
    @pytest.mark.parametrize("sample_set", ["seed42", "corners"])
    def test_kernel_route_bounds_every_sample(self, case, sample_set):
        b = ALL_BRAIDS[case]()
        samples = spectral_samples(20, 42) if sample_set == "seed42" else CORNER_SAMPLES
        got = kernel_residuals(b, samples).spectral
        if case in KERNEL_ROUTE or case.startswith("nonmaster"):
            assert_bounds_the_oracle(got, b, samples)
        else:
            assert all(got >= spectral_ybe_by_baxterize(b, [sample]) for sample in samples)
            assert got <= 1e-8

    @pytest.mark.parametrize("case", list(ORACLE_BRAIDS))
    def test_braid_residual_is_check_braid(self, case):
        b = ORACLE_BRAIDS[case]()
        assert ybe_residuals(b, samples=spectral_samples(3)).braid == check_braid(b.r_check)

    def test_one_inverse_and_kernel_calls_independent_of_samples(self, monkeypatch):
        # Not Hecke, so the spectral check takes the two-operator kernel.
        b = random_braid(6, 46)
        inverses, kernel_calls = [], []
        real_inverse, real_kernel = linalg.inverse, baxter._mirror_words

        def counting_inverse(*args, **kwargs):
            inverses.append(args)
            return real_inverse(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            kernel_calls.append(args)
            return real_kernel(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("baxter must not form dense three-strand products")

        monkeypatch.setattr(linalg, "inverse", counting_inverse)
        monkeypatch.setattr(baxter, "_mirror_words", counting_kernel)
        monkeypatch.setattr(linalg, "on_strands", refuse)
        for count in (5, 50):
            inverses.clear()
            kernel_calls.clear()
            check_spectral_ybe(b, samples=spectral_samples(count))
            # One inverse, then one kernel call per strand-0 column block.
            assert len(inverses) == 1
            assert [len(args[0]) for args in kernel_calls] == [2] * 6
        inverses.clear()
        kernel_calls.clear()
        check_braid(b.r_check)
        check_ybe(to_plain_r(b))
        assert inverses == []
        assert len(kernel_calls) == 12

    def test_peak_memory_not_above_the_per_sample_loop(self):
        b = braid_from_spec(6)
        samples = spectral_samples(20, 42)
        new = peak_bytes(lambda: check_spectral_ybe(b, samples=samples))
        old = peak_bytes(lambda: spectral_ybe_by_baxterize(b, samples))
        assert new <= old

    def test_peak_memory_not_above_the_per_sample_loop_on_the_kernel_route(self):
        b = random_braid(6, 46)
        samples = spectral_samples(20, 42)
        new = peak_bytes(lambda: check_spectral_ybe(b, samples=samples))
        old = peak_bytes(lambda: spectral_ybe_by_baxterize(b, samples))
        assert new <= old


class TestMirrorWordsAgainstOracle:
    @pytest.mark.parametrize("case", list(ORACLE_BRAIDS))
    def test_every_block_matches_the_dense_words(self, case):
        b = ORACLE_BRAIDS[case]()
        n = b.local_dim
        ops = np.stack((b.r_check, -inverse(b.r_check)))
        floor = oracle_floor(b, [(1.0, 1.0)])
        dense = {
            abc: dense_mirror_difference(ops[abc[0]], ops[abc[1]], ops[abc[2]], n)
            for abc in np.ndindex(2, 2, 2)
        }
        for k in range(n):
            words = baxter._mirror_words(ops, k)
            assert words.shape == (2, 2, 2, n**3, n * n)
            for abc, full in dense.items():
                block = full[:, k * n * n : (k + 1) * n * n]
                assert max_abs(words[abc] - block) <= floor

    @pytest.mark.parametrize("case", list(ORACLE_BRAIDS))
    def test_check_braid_matches_the_kron_defect(self, case):
        b = ORACLE_BRAIDS[case]()
        n = b.local_dim
        eye = identity(n)
        r12, r23 = kron(b.r_check, eye), kron(eye, b.r_check)
        dense = max_abs(r12 @ r23 @ r12 - r23 @ r12 @ r23)
        assert abs(check_braid(b.r_check) - dense) <= oracle_floor(b, [(1.0, 1.0)])

    def test_singular_r_check_is_checked(self):
        # A rank-one projector: no inverse, and not a braid solution.
        r = np.zeros((4, 4), dtype=complex)
        r[0, 0] = 1
        assert check_braid(r) == 0.0
        r[0, 3] = 1
        assert check_braid(r) == 1.0


class TestMirrorWordsNonFinite:
    @staticmethod
    def overflow_in_last_block(n):
        # R = diag(1, ..., 1, X): the defect entry (n-1, n-1, n-1) is X^3 - X^3
        # = inf - inf, and every other entry is finite (at most X^2).
        diag = np.ones(n * n)
        diag[-1] = 1e120
        return BraidData(q_from_nu(3), np.diag(diag))

    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_in_the_last_block_is_not_dropped(self, n):
        b = self.overflow_in_last_block(n)
        ops = b.r_check[None]
        with np.errstate(all="ignore"):
            assert np.isfinite(baxter._mirror_words(ops, n - 2)).all()
            assert not np.isfinite(baxter._mirror_words(ops, n - 1)).all()
            braid = check_braid(b.r_check)
            # tol = 0 admits the inverse: its condition estimate 1e120 is finite.
            ybe = ybe_residuals(b, samples=spectral_samples(3), tol=0)
        assert not math.isfinite(braid)
        assert not math.isfinite(ybe.braid)
        assert not math.isfinite(ybe.spectral)


class TestMirrorWordsMemory:
    @pytest.mark.parametrize("n, bound", [(8, 16 * 8**6), (12, 20 * 2**20)])
    def test_check_braid_peak(self, n, bound):
        # n = 8: below one n^6 complex array (the dense path: 16.9 MB);
        # n = 12: the dense path takes 191 MB.
        r = random_braid(n, 40 + n).r_check
        assert peak_bytes(lambda: check_braid(r)) < bound

    def test_ybe_residuals_peak_not_above_the_coefficient_form(self):
        # 3.45 MB: the peak of the earlier seven-coefficient form at n = 6, so
        # the CLI's peak memory cannot grow.
        b = braid_from_spec(6)
        samples = spectral_samples(20, 42)
        assert peak_bytes(lambda: ybe_residuals(b, samples)) <= 3.45e6

    def test_ybe_residuals_peak_not_above_the_coefficient_form_on_the_kernel_route(self):
        b = random_braid(6, 46)
        samples = spectral_samples(20, 42)
        assert peak_bytes(lambda: ybe_residuals(b, samples)) <= 3.45e6


class TestPrunedSamples:
    """The kernel route's coefficient bound, taken at every entry of every block: none is pruned.

    Hecke data take the kernel route only where called for it directly, or
    where their bounds do not decide, so these tests call it or give
    non-Hecke input.
    """

    @pytest.mark.parametrize("count", [1, 8, 9, 100])
    @pytest.mark.parametrize("case", list(ORACLE_BRAIDS))
    def test_equals_the_unpruned_evaluation(self, case, count):
        # The bound taken at every entry of the whole blocks, and so at least
        # every sample's residual at every entry.
        b = ORACLE_BRAIDS[case]()
        samples = spectral_samples(count, 42)
        got = kernel_residuals(b, samples).spectral
        blocks = mirror_word_blocks(b)
        assert got == pytest.approx(coefficient_bound(samples, blocks), rel=1e-12, abs=0)
        assert got >= unpruned_spectral(samples, blocks)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_peak_memory_is_twelve_words_per_entry(self, n):
        # The block's eight words and 4 n^5 of scratch, 12 n^5 entries (the
        # earlier kernel took 20 n^5); beyond them, R and -R^-1 and their
        # transposed copy (4 n^4), the seeds' column blocks, copied
        # transposed (2 n^3), and one numpy ufunc buffer.
        b = random_braid(n, 40 + n)
        samples = spectral_samples(20, 42)
        bound = 16 * (12 * n**5 + 4 * n**4 + 2 * n**3) + 16 * np.getbufsize() + 2**14
        assert peak_bytes(lambda: ybe_residuals(b, samples)) <= bound

    #: Entries of the two (8, 32) blocks of n = 2 words: LARGE sets the
    #: maximum in block 0, TINY is in block 1, and every other entry is small.
    LARGE, TINY = 5, 17

    @staticmethod
    def crafted_blocks(large, tiny):
        rng = np.random.default_rng(61)
        blocks = [1e-3 * (rng.normal(size=(8, 32)) + 1j * rng.normal(size=(8, 32))) for _ in range(2)]
        blocks[0][:, TestPrunedSamples.LARGE] = large
        blocks[1][:, TestPrunedSamples.TINY] = tiny
        return blocks

    @pytest.mark.parametrize(
        "large, tiny, sample, expect",
        [
            # A NaN word in the second block, after a finite maximum in the first.
            (1e3, [1e-3, 1e-3, 1e-3, np.nan, 1e-3, 1e-3, 1e-3, 1e-3], (2.0, 0.5), "nan"),
            # The first block's bound overflows to inf, and the NaN must still win.
            (1e307, [1e-3, 1e-3, 1e-3, np.nan, 1e-3, 1e-3, 1e-3, 1e-3], (2.0, 0.5), "nan"),
            (1e307, 1e-3, (2.0, 0.5), "inf"),
            # u^-2 overflows: the words it multiplies are zero at TINY, so
            # their terms there are inf * 0, and inf elsewhere.
            (1e3, [1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 0, 0], (1e-200, 1.0), "nan"),
        ],
        ids=["nan_word", "nan_after_overflow", "overflow", "overflowing_sample"],
    )
    def test_a_non_finite_entry_is_never_pruned(self, monkeypatch, large, tiny, sample, expect):
        blocks = self.crafted_blocks(large, tiny)

        def crafted_kernel(ops, k, work):
            words = work[: blocks[k].size].reshape(2, 2, 2, 8, 4)
            words.reshape(8, -1)[...] = blocks[k]
            return words

        samples = spectral_samples(8, 42) + [sample]
        full = unpruned_spectral(samples, blocks)
        monkeypatch.setattr(baxter, "_mirror_words", crafted_kernel)
        got = ybe_residuals(diag_violation(), samples).spectral
        is_expected = {"nan": math.isnan, "inf": math.isinf}[expect]
        assert is_expected(full)
        assert is_expected(got)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_blocks(self, n):
        # n = 1: the scratch is 4 complex entries, the seven magnitudes and the bound.
        b = BraidData(1j, [[2 + 1j]]) if n == 1 else random_braid(2, 5)
        for count in (1, 20):
            samples = spectral_samples(count, 7)
            blocks = mirror_word_blocks(b)
            got = ybe_residuals(b, samples).spectral
            assert got == pytest.approx(coefficient_bound(samples, blocks), rel=1e-12, abs=0)
            assert got >= unpruned_spectral(samples, blocks)


def kernel_counter(monkeypatch):
    """The stack size m of every _mirror_words call from now on."""
    calls, real = [], baxter._mirror_words

    def counting(ops, *args, **kwargs):
        calls.append(len(ops))
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(baxter, "_mirror_words", counting)
    return calls


def hecke_bounds(b, samples, tol=1e-9):
    u, w = np.array(samples, dtype=np.complex128).reshape(-1, 2).T
    return baxter._hecke_bounds(b, np.stack((b.r_check, -inverse(b.r_check))), u, w, tol)


class TestHeckeRoute:
    """Hecke data: both residuals from check_braid and the Hecke defect, without the two-operator kernel."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_strand_difference_is_the_dense_maximum(self, n):
        rng = np.random.default_rng(70 + n)
        h = as_matrix(rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))
        eye = identity(n)
        assert baxter._strand_difference(h, n) == max_abs(kron(h, eye) - kron(eye, h))
        hecke = baxter._hecke_defect(braid_from_spec(n) if n > 1 else BraidData(1j, [[1j]]))
        assert baxter._strand_difference(hecke, n) == max_abs(kron(hecke, eye) - kron(eye, hecke))

    @pytest.mark.parametrize("case", list(HECKE_BRAIDS))
    @pytest.mark.parametrize("sample_set", ["seed42", "corners"])
    def test_bounds_hold_at_every_sample(self, case, sample_set):
        b = HECKE_BRAIDS[case]()
        samples = spectral_samples(20, 42) if sample_set == "seed42" else CORNER_SAMPLES
        braid, spectral, upper, lower = hecke_bounds(b, samples)
        assert braid == check_braid(b.r_check)
        for s, sample in enumerate(samples):
            oracle = spectral_ybe_by_baxterize(b, [sample])
            assert lower[s] <= oracle <= upper[s]
            assert lower[s] <= spectral[s] <= upper[s]

    @pytest.mark.parametrize("case", list(HECKE_BRAIDS))
    @pytest.mark.parametrize("sample_set", ["seed42", "corners"])
    def test_same_verdict_as_the_kernel(self, monkeypatch, case, sample_set):
        b = HECKE_BRAIDS[case]()
        samples = spectral_samples(20, 42) if sample_set == "seed42" else CORNER_SAMPLES
        kernel = kernel_residuals(b, samples)
        calls = kernel_counter(monkeypatch)
        got = ybe_residuals(b, samples)
        # Decided without the two-operator kernel, and check_braid's braid residual.
        assert calls == [1] * b.local_dim
        assert got.braid == kernel.braid == check_braid(b.r_check)
        passes = not case.startswith("nonmaster")
        assert (got.spectral <= 1e-8) == (kernel.spectral <= 1e-8) == passes
        if not passes:
            # The kernel's value bounds every sample's residual, and J is that residual to 1e-12.
            assert got.spectral <= kernel.spectral <= 5 * got.spectral

    def test_one_inverse_whatever_the_sample_count(self, monkeypatch):
        b = braid_from_spec(6)
        inverses, real_inverse = [], linalg.inverse

        def counting_inverse(*args, **kwargs):
            inverses.append(args)
            return real_inverse(*args, **kwargs)

        monkeypatch.setattr(linalg, "inverse", counting_inverse)
        calls = kernel_counter(monkeypatch)
        for count in (0, 5, 50):
            inverses.clear()
            calls.clear()
            ybe_residuals(b, spectral_samples(count, 42) if count else [])
            assert len(inverses) == 1
            assert calls == [1] * 6

    @pytest.mark.parametrize("case", ["violation", "random2", "random3", "random4"])
    def test_non_hecke_input_falls_back_to_the_kernel(self, monkeypatch, case):
        b = ORACLE_BRAIDS[case]()
        samples = spectral_samples(20, 42)
        assert hecke_bounds(b, samples) is None
        kernel = kernel_residuals(b, samples)
        calls = kernel_counter(monkeypatch)
        assert ybe_residuals(b, samples) == kernel
        assert calls == [2] * b.local_dim

    def test_undecided_bounds_fall_back_to_the_kernel(self, monkeypatch):
        # With an allowance of 1e-14 the passing Fourier data's bounds straddle
        # it, so the kernel decides and its value is returned.
        b = braid_from_spec(3)
        samples = spectral_samples(20, 42)
        _, _, upper, lower = hecke_bounds(b, samples)
        assert lower.max() <= 1e-14 < upper.max()
        kernel = kernel_residuals(b, samples)
        calls = kernel_counter(monkeypatch)
        monkeypatch.setattr(baxter, "SPECTRAL_ALLOWANCE", 1e-14 / 1e-9)
        assert ybe_residuals(b, samples) == kernel
        assert calls[-3:] == [2] * 3

    def test_non_finite_braid_residual_falls_back(self, monkeypatch):
        # Exactly Hecke (eigenvalues q and -1/q), but q^3 overflows in the braid words.
        q = 1e120
        b = BraidData(q, np.diag([q, -1 / q, -1 / q, q]))
        samples = spectral_samples(3, 42)
        assert hecke_residual(b) == 0
        with np.errstate(all="ignore"):
            kernel = kernel_residuals(b, samples, tol=0)
            calls = kernel_counter(monkeypatch)
            got = ybe_residuals(b, samples, tol=0)
        assert calls == [1, 1, 2, 2]
        assert math.isnan(got.braid) and math.isnan(kernel.braid)
        assert math.isnan(got.spectral) == math.isnan(kernel.spectral)
        assert not got.spectral <= 1e-8

    @pytest.mark.parametrize(
        "sample", [(1e-200, 1.0), (1e200, 1.0), (1e160, 1e-160), (1e155, 1.0), (1e154, 1.0), (1e-77, 1e-77)]
    )
    def test_extreme_samples_give_the_kernels_result(self, sample):
        b = braid_from_spec(3)
        samples = spectral_samples(3, 42) + [sample]
        got, kernel = ybe_residuals(b, samples), kernel_residuals(b, samples)
        assert got.braid == kernel.braid
        assert got.spectral == kernel.spectral or (math.isnan(got.spectral) and math.isnan(kernel.spectral))

    def test_singular_hecke_data_is_refused(self):
        # Exactly Hecke, but max|R| * max|R^-1| = 1e12 reaches 1 / tol.
        q = 1e-6
        b = BraidData(q, np.diag([q, -1 / q, -1 / q, q]))
        assert hecke_residual(b) == 0
        with pytest.raises(linalg.SingularMatrixError):
            ybe_residuals(b, spectral_samples(3, 42))


class TestPlainYbe:
    def test_flip_braid_gives_identity_r(self):
        b = BraidData(1, flip_operator(2))
        r = to_plain_r(b)
        np.testing.assert_allclose(r, identity(4), rtol=0, atol=0)
        assert check_ybe(r) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_reconstructed_braids(self, n):
        b = braid_from_spec(n)
        assert check_ybe(to_plain_r(b)) <= 1e-9

    def test_agrees_with_braid_residual_on_braid_solutions(self):
        for n in (2, 3):
            b = braid_from_spec(n)
            delta = abs(check_braid(b.r_check) - check_ybe(to_plain_r(b)))
            assert delta <= 1e-12

    def test_agrees_with_braid_residual_off_solutions(self):
        # The two defects differ by permutation conjugation, so the residuals
        # agree even far away from actual solutions.
        rng = np.random.default_rng(17)
        for _ in range(5):
            vmat = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            wmat = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            proj = vmat @ inverse(as_matrix(wmat @ vmat)) @ wmat
            q = q_from_nu(3)
            r_check = as_matrix(q * identity(4) - (q + 1 / q) * proj)
            b = BraidData(q, r_check)
            assert hecke_residual(b) <= 1e-10
            braid = check_braid(r_check)
            ybe = check_ybe(to_plain_r(b))
            assert abs(braid - ybe) <= 1e-10 * max(1.0, braid)

    def test_flip_conjugation_structure(self):
        # R13 acting on site pair (1, 3) equals R12 conjugated by the flip
        # of the last two factors.
        n = 2
        b = braid_from_spec(n)
        r = np.asarray(to_plain_r(b))
        eye = np.asarray(identity(n))
        pi23 = np.asarray(kron(identity(n), flip_operator(n)))
        r12 = np.kron(r, eye)
        r13 = pi23 @ r12 @ pi23
        # Contract indices directly: R13[i a k, j b l] must act as R on the
        # outer pair and as the identity on the middle index.
        t = r13.reshape(n, n, n, n, n, n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        for a in range(n):
                            assert (
                                abs(t[i, a, k, j, a, l] - r[i * n + k, j * n + l])
                                < 1e-12
                            )
                        assert abs(t[i, 0, k, j, 1, l]) < 1e-12


class TestFlipOperator:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_double_loop(self, n):
        p = flip_operator(n)
        assert p.dtype == np.complex128
        assert np.array_equal(p, flip_by_loop(n))

    def test_two_by_two(self):
        p = flip_operator(2)
        expected = as_matrix(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_allclose(p, expected, rtol=0, atol=0)

    def test_involution(self):
        for n in (2, 3, 4):
            p = flip_operator(n)
            assert max_abs(p @ p - identity(n * n)) == 0

    def test_swaps_simple_tensors(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = np.asarray(flip_operator(3))
        assert np.allclose(p @ np.kron(x, y), np.kron(y, x))


class TestEndToEnd:
    def test_full_pipeline_from_master_spec(self):
        spec = fourier_master(3)
        m = reconstruct_m(master_matrix(spec), fourier(3), spec.lambdas)
        a = TLAnsatz(m, spec.exponents)
        report = verify_tl(a)
        assert report.max_residual <= 1e-9
        b = braid_from_tl(build_local_generator(a), a.alpha)
        assert hecke_residual(b) <= 1e-10
        assert check_braid(b.r_check) <= 1e-9
        assert check_spectral_ybe(b) <= 1e-8
        assert check_ybe(to_plain_r(b)) <= 1e-9
