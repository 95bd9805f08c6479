"""Tests for complex Hadamard matrices, equivalence moves, and constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad.hadamard import (
    EquivalenceMove,
    apply_equivalence,
    butson_order,
    butson_residual,
    chm_residual,
    dephase,
    dita,
    f4_family,
    f6_family,
    fourier,
    ghm_residual,
    is_chm,
    is_ghm,
    permutation_matrix,
    root_phases,
)
from tlhad.linalg import DEFAULT_TOL, as_matrix, diag, identity, kron, max_abs, unit_root


def random_unimodular(rng, n):
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))


class TestFourier:
    def test_size_one(self):
        np.testing.assert_allclose(fourier(1), as_matrix([[1]]), rtol=0, atol=0)

    def test_size_two(self):
        np.testing.assert_allclose(fourier(2), as_matrix([[1, 1], [1, -1]]), rtol=0, atol=1e-15)

    def test_size_three(self):
        w = unit_root(1, 3)
        expected = as_matrix([[1, 1, 1], [1, w, w * w], [1, w * w, w]])
        np.testing.assert_allclose(fourier(3), expected, rtol=0, atol=1e-15)

    def test_generalized_index(self):
        f = fourier(5, ell=2)
        for i in range(5):
            for j in range(5):
                assert abs(f[i, j] - unit_root(2 * i * j, 5)) < 1e-14

    def test_non_coprime_index_rejected(self):
        with pytest.raises(ValueError):
            fourier(4, ell=2)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            fourier(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_is_butson_of_order_n(self, n):
        verdict = is_ghm(fourier(n))
        assert verdict.is_chm and verdict.is_ghm
        assert verdict.butson_order == (n if n > 1 else 1)


class TestChm:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_fourier_matrices(self, n):
        assert is_chm(fourier(n))

    def test_unimodular_f4_member(self):
        assert is_chm(f4_family(1j))

    def test_non_unimodular_f4_member_fails(self):
        assert not is_chm(f4_family(2))

    def test_residual_zero_matrix(self):
        assert chm_residual(as_matrix([[0, 0], [0, 0]])) == pytest.approx(2.0)

    def test_residual_detects_row_correlation(self):
        u = as_matrix([[1, 1], [1, 1]])
        assert chm_residual(u) == pytest.approx(2.0)


class TestGhm:
    def test_fourier_three(self):
        v = is_ghm(fourier(3))
        assert v.is_ghm and v.is_chm
        assert v.max_residual < 1e-14

    def test_scaling_is_invisible_to_ghm(self):
        # GHM depends only on u entrywise times the transposed inverse,
        # so a global scale cancels.
        assert is_ghm(2 * fourier(3)).is_ghm

    def test_generic_invertible_matrix_is_not_ghm(self):
        v = is_ghm(as_matrix([[1, 1], [1, 2]]))
        assert not v.is_ghm
        assert v.max_residual > 0.5

    def test_f4_with_real_parameter_is_ghm_not_chm(self):
        v = is_ghm(f4_family(2))
        assert v.is_ghm and not v.is_chm
        assert v.butson_order is None

    def test_zero_entry_gives_infinite_residual(self):
        v = is_ghm(as_matrix([[1, 0], [1, 1]]))
        assert not v.is_ghm
        assert math.isinf(v.max_residual)

    def test_singular_matrix_gives_finite_residual(self):
        # u (u^{o-1})^t = [[2, 2], [2, 2]]: a defect of 2 off the diagonal.
        v = is_ghm(as_matrix([[1, 1], [1, 1]]))
        assert not v.is_ghm
        assert v.max_residual == ghm_residual(as_matrix([[1, 1], [1, 1]])) == 2.0

    @pytest.mark.parametrize("modulus", [10, 1e2, 1e4, 1e5, 1e6])
    def test_f4_residual_does_not_grow_with_conditioning(self, modulus):
        # cond(F4(a)) grows like |a|; the identity's sums of ratios do not.
        for a in (modulus, modulus * unit_root(1, 8)):
            assert ghm_residual(f4_family(a)) <= 1e-15

    def test_scaled_identity_is_not_ghm(self):
        assert not is_ghm(2 * identity(2)).is_ghm

    def test_chm_implies_ghm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = apply_equivalence(
                fourier(4),
                EquivalenceMove(
                    (0, 1, 2, 3),
                    tuple(random_unimodular(rng, 4)),
                    tuple(random_unimodular(rng, 4)),
                    (0, 1, 2, 3),
                ),
            )
            v = is_ghm(u)
            assert v.is_chm
            assert v.is_ghm


def inverse_form_residual(u):
    """max|n u[i, j] (u^-1)[j, i] - 1|, the GHM identity through an inverse:
    the reference whose verdict ghm_residual must give away from tol."""
    u = np.asarray(u)
    return max_abs(len(u) * u * np.linalg.inv(u).T - 1)


def _moved_ghm(family, perturb, rng):
    """A Fourier, F4, F6 or Dita GHM after an equivalence move with random
    permutations and non-unimodular diagonals; with perturb, one entry is
    then scaled by 1 + d, 1e-6 <= |d| <= 1, so it is no longer a GHM."""
    phase = lambda: unit_root(int(rng.integers(0, 360)), 360)
    if family == "fourier":
        n = int(rng.integers(2, 7))
        u = fourier(n, next(int(ell) for ell in rng.permutation(n) + 1 if math.gcd(int(ell), n) == 1))
    elif family == "f4":
        u = f4_family(10 ** rng.uniform(-2, 2) * phase())
    elif family == "f6":
        u = f6_family(10 ** rng.uniform(-1, 1) * phase(), 10 ** rng.uniform(-1, 1) * phase())
    else:
        u = dita(fourier(2), [fourier(3), fourier(3) @ diag([1, phase(), phase()])])
    n = len(u)
    left, right = 10 ** rng.uniform(-0.3, 0.3, size=(2, n)) * random_unimodular(rng, (2, n))
    perms = (tuple(int(i) for i in rng.permutation(n)) for _ in range(2))
    u = apply_equivalence(u, EquivalenceMove(next(perms), tuple(left), tuple(right), next(perms)))
    if perturb:
        i, j = rng.integers(0, n, size=2)
        u[i, j] *= 1 + 10 ** rng.uniform(-6, 0) * phase()
    return u


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fourier", "f4", "f6", "dita"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_verdict_is_the_inverse_forms(family, perturb, seed):
    u = _moved_ghm(family, perturb, np.random.default_rng(seed))
    product, reference = ghm_residual(u), inverse_form_residual(u)
    # Compared only where both residuals are 10x away from tol.
    if all(r <= DEFAULT_TOL / 10 or r >= 10 * DEFAULT_TOL for r in (product, reference)):
        assert (product <= DEFAULT_TOL) is (reference <= DEFAULT_TOL)
    assert (product <= DEFAULT_TOL) is (not perturb)


class TestButson:
    def test_fourier_three_is_butson_three(self):
        assert is_chm(fourier(3))
        assert butson_residual(fourier(3), 3) < 1e-14

    def test_real_hadamard_is_butson_two(self):
        u = as_matrix([[1, 1], [1, -1]])
        assert is_chm(u) and butson_residual(u, 2) <= DEFAULT_TOL

    def test_f4_with_tenth_root_is_not_butson_four(self):
        import cmath

        a = cmath.exp(1j * math.pi / 5)
        assert is_chm(f4_family(a))
        assert butson_residual(f4_family(a), 4) > DEFAULT_TOL

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            butson_residual(fourier(2), 0)

    def test_minimal_order_reported(self):
        # F4 at a = i is a fourth-root matrix and not a q-th-root matrix
        # for any q < 4.
        assert is_ghm(f4_family(1j)).butson_order == 4

    def test_butson_order_scan_stops_at_its_limit(self):
        assert butson_order(fourier(6), 1e-9, 36) == 6
        assert butson_order(fourier(6), 1e-9, 5) is None
        assert butson_order(f4_family(2), 1e-9, 48) is None

    def test_mixed_orders_give_their_lcm(self):
        # Entries of order 4 and 3: the least common root order is 12.
        u = as_matrix([[1, 1j], [unit_root(1, 3), 1]])
        assert butson_order(u, 1e-9, 12) == 12
        assert butson_order(u, 1e-9, 11) is None


class TestRootPhases:
    def test_reduced_fractions(self):
        phases = root_phases(fourier(6), 6)
        assert phases[2] == ((0, 1), (1, 3), (2, 3), (0, 1), (1, 3), (2, 3))
        assert phases[3] == ((0, 1), (1, 2)) * 3
        assert root_phases(fourier(6), 5) is None

    def test_not_a_root_of_unity(self):
        assert root_phases(f4_family(2), 48) is None
        assert root_phases(as_matrix([[1.5]]), 48) is None
        assert root_phases(as_matrix([[unit_root(1, 7) * (1 + 1e-8)]]), 48) is None
        assert root_phases(as_matrix([[unit_root(1, 7) * (1 + 1e-10)]]), 48) == (((1, 7),),)

    def test_cost_does_not_grow_with_the_limit(self):
        assert root_phases(fourier(5), 10**12) == root_phases(fourier(5), 5)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            root_phases(fourier(2), 0)


class TestEquivalenceMoves:
    def test_permutation_matrix(self):
        p = permutation_matrix((2, 0, 1))
        np.testing.assert_allclose(p, as_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), rtol=0, atol=0)

    def test_row_swap_preserves_ghm(self):
        move = EquivalenceMove((1, 0, 2), (1, 1, 1), (1, 1, 1), (0, 1, 2))
        swapped = apply_equivalence(fourier(3), move)
        assert is_ghm(swapped).is_ghm
        assert np.allclose(swapped[0], fourier(3)[1])
        assert np.allclose(swapped[1], fourier(3)[0])

    def test_unimodular_moves_preserve_chm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            perm1 = tuple(rng.permutation(n).tolist())
            perm2 = tuple(rng.permutation(n).tolist())
            move = EquivalenceMove(
                perm1,
                tuple(random_unimodular(rng, n)),
                tuple(random_unimodular(rng, n)),
                perm2,
            )
            assert is_chm(apply_equivalence(fourier(n), move))

    def test_move_validation(self):
        with pytest.raises(ValueError):
            EquivalenceMove((0, 0), (1, 1), (1, 1), (0, 1))
        with pytest.raises(ValueError):
            EquivalenceMove((0, 1), (1, 0), (1, 1), (0, 1))
        with pytest.raises(ValueError):
            EquivalenceMove((0, 1), (1, 1), (1, 1), (0, 2))

    def test_move_fields_become_tuples_of_ints_and_complex(self):
        move = EquivalenceMove(np.array([1, 0]), np.array([1, 1j]), [2.0, np.complex128(1)], (0, 1))
        assert move.left_perm == (1, 0) and all(type(p) is int for p in move.left_perm + move.right_perm)
        assert move.left_diag == (1, 1j) and all(type(z) is complex for z in move.left_diag + move.right_diag)
        assert move == EquivalenceMove((1, 0), (1, 1j), (2, 1), (0, 1))
        assert hash(EquivalenceMove((0, 1), np.array([1, 1]), (1, 1), (0, 1))) == hash(
            EquivalenceMove((0, 1), (1, 1), (1, 1), (0, 1))
        )


class TestDephase:
    def test_first_row_and_column_become_ones(self):
        rng = np.random.default_rng(6)
        u = apply_equivalence(
            fourier(4),
            EquivalenceMove(
                tuple(rng.permutation(4).tolist()),
                tuple(random_unimodular(rng, 4)),
                tuple(random_unimodular(rng, 4)),
                tuple(rng.permutation(4).tolist()),
            ),
        )
        d, move = dephase(u)
        assert np.allclose(d[0, :], 1.0)
        assert np.allclose(d[:, 0], 1.0)
        np.testing.assert_allclose(apply_equivalence(u, move), d, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_move_it_returns_on_random_ghms(self, seed):
        # Non-unimodular diagonals keep a GHM a GHM, but not a CHM.
        rng = np.random.default_rng(seed)
        a, b = np.exp(2j * math.pi * rng.random(2))
        base = [
            fourier(int(rng.integers(1, 9))),
            f4_family(a * rng.uniform(0.5, 2)),
            f6_family(a, b),
            dita(fourier(2), [f4_family(a), f4_family(b)]),
        ][seed % 4]
        n = base.shape[0]
        move = EquivalenceMove(
            tuple(rng.permutation(n).tolist()),
            tuple(random_unimodular(rng, n) * rng.uniform(0.5, 2, n)),
            tuple(random_unimodular(rng, n) * rng.uniform(0.5, 2, n)),
            tuple(rng.permutation(n).tolist()),
        )
        u = apply_equivalence(base, move)
        d, applied = dephase(u)
        assert applied.left_perm == applied.right_perm == tuple(range(n))
        assert applied.left_diag == tuple(complex(1 / z) for z in u[:, 0])
        assert applied.right_diag == tuple(complex(u[0, 0] / z) for z in u[0, :])
        np.testing.assert_allclose(apply_equivalence(u, applied), d, rtol=0, atol=1e-13)
        assert is_ghm(d).is_ghm

    def test_already_dephased_fixed_point(self):
        d, move = dephase(fourier(3))
        assert np.array_equal(d, fourier(3))
        assert move.left_perm == (0, 1, 2) and move.right_perm == (0, 1, 2)

    def test_preserves_ghm_verdict(self):
        rng = np.random.default_rng(7)
        base = dita(fourier(2), [f4_family(2), f4_family(0.5)])
        for _ in range(20):
            n = base.shape[0]
            move = EquivalenceMove(
                tuple(rng.permutation(n).tolist()),
                tuple(random_unimodular(rng, n)),
                tuple(random_unimodular(rng, n)),
                tuple(rng.permutation(n).tolist()),
            )
            scrambled = apply_equivalence(base, move)
            d, _ = dephase(scrambled)
            assert is_ghm(d).is_ghm == is_ghm(scrambled).is_ghm

    def test_zero_in_first_row_rejected(self):
        with pytest.raises(ValueError):
            dephase(as_matrix([[1, 0], [1, 1]]))


class TestF4Family:
    def test_real_point_is_butson_two(self):
        v = is_ghm(f4_family(1))
        assert v.is_chm and v.butson_order == 2

    def test_layout(self):
        u = f4_family(3)
        expected = as_matrix(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 3, -1, -3], [1, -3, -1, 3]]
        )
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-15)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            f4_family(0)

    @given(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
    @settings(max_examples=30)
    def test_unimodular_parameter_gives_chm(self, theta):
        import cmath

        assert is_chm(f4_family(cmath.exp(1j * theta)))


class TestF6Family:
    def test_unimodular_point_is_chm(self):
        assert is_chm(f6_family(1, 1))

    def test_random_unimodular_points_are_chm(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
            assert is_chm(f6_family(a, b))

    def test_non_unimodular_point_is_ghm_not_chm(self):
        v = is_ghm(f6_family(2, 1 / 3))
        assert v.is_ghm and not v.is_chm

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            f6_family(0, 1)
        with pytest.raises(ValueError):
            f6_family(1, 0)

    def test_block_structure(self):
        u = f6_family(2, 3)
        w = unit_root(1, 6)
        assert abs(u[3, 1] - 2) < 1e-14
        assert abs(u[3, 3] + 1) < 1e-14
        assert abs(u[4, 2] - 3 * w**4) < 1e-14
        assert abs(u[1, 4] - w**2) < 1e-14


class TestDita:
    def test_equal_blocks_reduce_to_kron(self):
        f2, f3 = fourier(2), fourier(3)
        built = dita(f2, [f3, f3])
        np.testing.assert_allclose(built, kron(f2, f3), rtol=0, atol=1e-15)

    def test_reproduces_f6_family(self):
        a, b = 2 + 0j, 0.5j
        blocks = [fourier(3), fourier(3) @ diag([1, a, b])]
        np.testing.assert_allclose(dita(fourier(2), blocks), f6_family(a, b), rtol=0, atol=1e-14)

    def test_reproduces_f4_family(self):
        a = 3 + 0j
        blocks = [fourier(2), fourier(2) @ diag([1, a])]
        np.testing.assert_allclose(dita(fourier(2), blocks), f4_family(a), rtol=0, atol=1e-14)

    def test_ghm_closure(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            scale = rng.uniform(0.25, 4.0, size=4)
            blocks = [f4_family(s) for s in scale[:2]]
            built = dita(fourier(2), blocks)
            assert is_ghm(built).is_ghm

    def test_block_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dita(fourier(2), [fourier(3)])

    def test_block_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dita(fourier(2), [fourier(3), fourier(2)])
