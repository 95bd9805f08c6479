"""Tests for master specs, the master condition, families, and obstructions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad.hadamard import fourier, is_chm, is_ghm
from tlhad.linalg import (
    approx_eq,
    as_matrix,
    hadamard_inverse,
    identity,
    max_abs,
    unit_root,
)
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


class TestMasterSpec:
    def test_basic_construction(self):
        spec = MasterSpec((1, -1), (0, 1))
        assert spec.lambdas == (1 + 0j, -1 + 0j)
        assert spec.exponents == (0, 1)

    def test_repeated_lambdas_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((1, 1), (0, 1))

    def test_nearly_repeated_lambdas_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((1, 1 + 1e-14), (0, 1))

    def test_repeated_exponents_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((1, -1), (2, 2))

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((0, 1), (0, 1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((1, -1), (0, -1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MasterSpec((1, -1, 1j), (0, 1))

    def test_normalized_shifts_and_sorts(self):
        spec = MasterSpec((1j, 1), (7, 3))
        norm = spec.normalized()
        assert norm.exponents == (0, 4)
        assert norm.lambdas == (1 + 0j, 1j)

    def test_json_round_trip(self):
        spec = f6_master(2, 1, 1)
        back = MasterSpec.from_dict(spec.to_dict())
        assert back.exponents == spec.exponents
        assert all(
            abs(a - b) == 0 for a, b in zip(back.lambdas, spec.lambdas)
        )


class TestMasterMatrix:
    def test_single_eigenvalue(self):
        assert approx_eq(
            master_matrix(MasterSpec((2,), (3,))), as_matrix([[8]]), 1e-14
        ).ok

    def test_fourier_two(self):
        assert approx_eq(master_matrix(fourier_master(2)), fourier(2), 1e-15).ok

    def test_fourier_three(self):
        assert approx_eq(master_matrix(fourier_master(3)), fourier(3), 1e-14).ok

    def test_entry_formula(self):
        spec = f4_master(2, 1)
        m = master_matrix(spec)
        for i in range(4):
            for j in range(4):
                assert abs(m[i, j] - spec.lambdas[i] ** spec.exponents[j]) < 1e-14


class TestMasterPolynomial:
    def test_value_at_one_is_size(self):
        for n in (1, 3, 6):
            spec = fourier_master(n)
            assert abs(master_polynomial_eval(spec.exponents, 1) - n) < 1e-12

    def test_geometric_sum(self):
        z = 0.5 + 0.25j
        direct = sum(z**a for a in range(4))
        assert abs(master_polynomial_eval(range(4), z) - direct) < 1e-13

    def test_array_argument(self):
        z = np.array([[0.5 + 0.25j, -1], [1j, 2]])
        values = master_polynomial_eval((0, 2, 5), z)
        assert values.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert abs(values[idx] - master_polynomial_eval((0, 2, 5), z[idx])) < 1e-14

    def test_overflowing_power_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            master_polynomial_eval((0, 2), 1e308)

    def test_duplicate_polynomial_vanishes_at_fifth_roots(self):
        # z^0 + z^2 + z^3 + z^4 + z^6 agrees with 1 + z + z^2 + z^3 + z^4
        # at every fifth root of unity, so it vanishes at the nontrivial ones.
        exponents = (0, 2, 3, 4, 6)
        for k in range(1, 5):
            assert abs(master_polynomial_eval(exponents, unit_root(k, 5))) <= 1e-12
        assert abs(master_polynomial_eval(exponents, 1) - 5) <= 1e-12


class TestMasterCondition:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_fourier_masters_pass(self, n):
        check = check_master_condition(fourier_master(n))
        assert check.ok
        assert check.max_residual <= 1e-9

    def test_residual_grid_shape(self):
        check = check_master_condition(fourier_master(3))
        assert len(check.residuals) == 3
        assert all(len(row) == 3 for row in check.residuals)

    def test_f4_master_passes(self):
        assert check_master_condition(f4_master(2, 1)).ok

    def test_generic_spec_fails(self):
        check = check_master_condition(MasterSpec((1, 2), (0, 1)))
        assert not check.ok
        assert check.max_residual > 0.5

    @pytest.mark.parametrize(
        "spec",
        [
            *(fourier_master(n, ell) for n, ell in ((2, 1), (5, 2), (8, 3))),
            f4_master(1, 1),
            f4_master(5, 3),
            f6_master(2, 1, 1),
            f6_master(60, 3, 5),
            f6_master(200, 7, 11),
            nest(NestingSpec((NestingStage(2, 1, (0, 1), (0, 0)), NestingStage(3, 2)))),
        ],
        ids=["fourier2", "fourier5_2", "fourier8_3", "f4_1_1", "f4_5_3", "f6_2_1_1",
             "f6_60_3_5", "f6_200_7_11", "nest_2x3"],
    )
    def test_agrees_with_scalar_loop(self, spec):
        # The vectorized residuals against p(lambda_i / lambda_j) taken one
        # ratio at a time, and against Python complex arithmetic one
        # exponent at a time. Python and numpy round the ratio and the power
        # differently, by about eps per factor, so that bound grows with the
        # exponents.
        n = spec.size
        lams = np.asarray(spec.lambdas)
        python_tol = 4 * n * max(spec.exponents) * 2.3e-16
        residuals = check_master_condition(spec).residuals
        for i, li in enumerate(spec.lambdas):
            for j, lj in enumerate(spec.lambdas):
                want = n * (i == j)
                scalar = abs(master_polynomial_eval(spec.exponents, lams[i] / lams[j]) - want)
                python = abs(sum((li / lj) ** e for e in spec.exponents) - want)
                assert abs(residuals[i, j] - scalar) <= 1e-14
                assert abs(residuals[i, j] - python) <= python_tol

    def test_agrees_with_inverse_form(self):
        # The condition p(lambda_i / lambda_j) = n delta_ij is equivalent to
        # the master matrix having inverse (1/n) times its transposed
        # Hadamard inverse, giving a second residual formula to compare.
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            lam = np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
            exps = rng.choice(20, size=n, replace=False)
            try:
                spec = MasterSpec(tuple(lam), tuple(int(e) for e in exps))
            except ValueError:
                continue
            om = master_matrix(spec)
            direct = check_master_condition(spec).max_residual
            gram = max_abs(
                hadamard_inverse(om) @ np.asarray(om).T - n * identity(n)
            )
            assert abs(direct - gram) < 1e-9 * max(1.0, direct)


class TestFourierMaster:
    def test_values(self):
        spec = fourier_master(4)
        assert spec.exponents == (0, 1, 2, 3)
        assert all(
            abs(lam - unit_root(a, 4)) < 1e-15
            for a, lam in enumerate(spec.lambdas)
        )

    def test_generalized_index(self):
        spec = fourier_master(5, ell=2)
        assert abs(spec.lambdas[1] - unit_root(2, 5)) < 1e-15
        assert check_master_condition(spec).ok

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            fourier_master(6, ell=3)

    def test_shifted_exponents_still_pass(self):
        spec = fourier_master(4)
        shifted = MasterSpec(spec.lambdas, tuple(a + 4 for a in spec.exponents))
        assert check_master_condition(shifted).ok


class TestF4Master:
    def test_smallest_member_matches_family(self):
        from tlhad.hadamard import f4_family

        spec = f4_master(1, 1)
        assert spec.exponents == (0, 1, 2, 3)
        assert approx_eq(master_matrix(spec), f4_family(1j), 1e-14).ok

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 1), (2, 3), (3, 3)])
    def test_master_condition(self, k, m):
        check = check_master_condition(f4_master(k, m))
        assert check.ok, check.max_residual

    def test_exponent_pattern(self):
        assert f4_master(3, 1).exponents == (0, 1, 6, 7)

    def test_phase_parameter(self):
        spec = f4_master(2, 3)
        assert abs(spec.lambdas[2] - cmath.exp(1j * math.pi * 3 / 4)) < 1e-15

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            f4_master(2, 2)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            f4_master(0, 1)


class TestF6Master:
    @pytest.mark.parametrize("k,r,s", [(2, 1, 1), (3, 1, 2), (3, 2, 1)])
    def test_master_condition(self, k, r, s):
        check = check_master_condition(f6_master(k, r, s))
        assert check.ok, check.max_residual

    def test_polynomial_vanishes_at_eigenvalue_ratios(self):
        spec = f6_master(2, 1, 1)
        for i, li in enumerate(spec.lambdas):
            for j, lj in enumerate(spec.lambdas):
                if i != j:
                    value = master_polynomial_eval(spec.exponents, li / lj)
                    assert abs(value) < 1e-12

    def test_master_matrix_is_ghm(self):
        assert is_ghm(master_matrix(f6_master(2, 1, 1))).is_ghm

    def test_rows_match_f6_family(self):
        from tlhad.hadamard import f6_family

        k, r, s = 3, 2, 1
        spec = f6_master(k, r, s)
        mu = cmath.exp(1j * math.pi / (3 * k))
        a, b = mu ** (3 * r + 1), mu ** (3 * s + 2)
        family = f6_family(a, b)
        om = master_matrix(spec)
        perm = (0, 2, 4, 1, 3, 5)
        assert approx_eq(as_matrix(om[list(perm)]), family, 1e-13).ok

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            f6_master(2, 0, 1)
        with pytest.raises(ValueError):
            f6_master(2, 1, 2)


class TestNesting:
    def test_single_stage_is_fourier(self):
        spec = nest(NestingSpec((NestingStage(5, 1),)))
        ref = fourier_master(5)
        assert spec.exponents == ref.exponents
        assert all(
            abs(a - b) < 1e-14 for a, b in zip(spec.lambdas, ref.lambdas)
        )

    def test_two_stage_product_identity(self):
        spec = nest(
            NestingSpec((NestingStage(2, 1), NestingStage(3, 1)))
        )
        assert len(spec.lambdas) == 6
        check = check_master_condition(spec)
        assert check.ok, check.max_residual

    def test_two_stage_exponents(self):
        spec = nest(NestingSpec((NestingStage(2, 1), NestingStage(3, 1))))
        assert spec.exponents == (0, 2, 4, 1, 3, 5)

    def test_matches_f4_exponent_set(self):
        spec = nest(NestingSpec((NestingStage(2, 2), NestingStage(2, 1))))
        assert set(spec.exponents) == set(f4_master(2, 1).exponents)
        assert check_master_condition(spec).ok

    def test_offset_vectors_preserve_condition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            stages = []
            for p in (2, 3):
                k = int(rng.integers(1, 3))
                g = tuple(int(x) for x in rng.integers(0, 4, size=p))
                f = tuple(int(x) for x in rng.integers(0, 4, size=p))
                stages.append(NestingStage(p, k, g, f))
            spec = nest(NestingSpec(tuple(stages)))
            check = check_master_condition(spec)
            assert check.ok, check.max_residual

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            NestingStage(1, 1)
        with pytest.raises(ValueError):
            NestingStage(2, 0)
        with pytest.raises(ValueError):
            NestingStage(2, 1, g=(0,))

    def test_json_round_trip(self):
        spec = NestingSpec(
            (NestingStage(2, 2, (1, 0), (0, 3)), NestingStage(3, 1))
        )
        back = NestingSpec.from_dict(spec.to_dict())
        assert back == spec


class TestPigeonhole:
    def test_h0_obstruction(self):
        obs = pigeonhole_obstruction(h0())
        assert obs is not None
        assert obs.root_order == 3
        assert obs.distinct_rows == 6

    def test_fourier_has_no_obstruction(self):
        assert pigeonhole_obstruction(fourier(3)) is None

    def test_non_unimodular_matrix_has_no_obstruction(self):
        assert pigeonhole_obstruction(h1(2)) is None

    def test_repeated_rows_do_not_obstruct(self):
        u = as_matrix([[1, 1], [1, 1]])
        assert pigeonhole_obstruction(u) is None


class TestSearch:
    def test_recovers_fourier_three(self):
        spec = search_master_representation(fourier(3), 4, 6)
        assert spec is not None
        assert spec.exponents == (0, 1, 2)
        assert approx_eq(master_matrix(spec), fourier(3), 1e-9).ok

    @pytest.mark.parametrize("n", range(2, 6))
    def test_recovers_fourier_masters(self, n):
        spec = search_master_representation(master_matrix(fourier_master(n)), n, n)
        assert spec is not None
        assert approx_eq(
            master_matrix(spec), master_matrix(fourier_master(n)), 1e-9
        ).ok

    def test_h0_has_no_representation(self):
        assert search_master_representation(h0(), 12, 12) is None

    def test_h1_at_two_has_no_representation(self):
        assert search_master_representation(h1(2), 12, 12) is None

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError):
            search_master_representation(fourier(2), 0, 4)
        with pytest.raises(ValueError):
            search_master_representation(fourier(2), 4, 0)

    def test_single_entry(self):
        spec = search_master_representation(as_matrix([[1]]), 1, 1)
        assert spec is not None and spec.exponents == (0,)


class TestNonMasterFixtures:
    def test_h0_is_chm(self):
        assert is_chm(h0())

    def test_h1_unimodular_point_is_chm(self):
        assert is_chm(h1(1j))

    def test_h1_at_two_is_not_ghm(self):
        v = is_ghm(h1(2))
        assert not v.is_ghm
        assert v.max_residual == pytest.approx(0.4714045207910318, rel=1e-9)

    def test_h1_generic_point_is_not_ghm(self):
        assert not is_ghm(h1(0.5 + 0.5j)).is_ghm

    def test_h0_entries_are_cube_roots(self):
        u = h0()
        for x in np.asarray(u).flat:
            assert min(abs(x - unit_root(k, 3)) for k in range(3)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_constructed_master_matrices_are_ghm(n, seed):
    # Any spec passing the master condition has a GHM master matrix.
    rng = np.random.default_rng(seed)
    lam = tuple(unit_root(int(k), n) for k in range(n))
    shift = int(rng.integers(0, 3))
    spec = MasterSpec(lam, tuple(a + shift for a in range(n)))
    if check_master_condition(spec).ok:
        assert is_ghm(master_matrix(spec)).is_ghm
