"""Tests for master specs, the master condition, families, and obstructions."""

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad.hadamard import (
    EquivalenceMove,
    apply_equivalence,
    butson_order,
    butson_residual,
    dephase,
    f4_family,
    f6_family,
    fourier,
    is_chm,
    is_ghm,
    root_phases,
)
from tlhad.linalg import (
    as_matrix,
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
    power_table,
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

    def test_json_round_trip(self):
        spec = f6_master(2, 1, 1)
        back = MasterSpec.from_dict(spec.to_dict())
        assert back.exponents == spec.exponents
        assert all(
            abs(a - b) == 0 for a, b in zip(back.lambdas, spec.lambdas)
        )


class TestMasterMatrix:
    def test_single_eigenvalue(self):
        np.testing.assert_allclose(
            master_matrix(MasterSpec((2,), (3,))), as_matrix([[8]]), rtol=0, atol=1e-14
        )

    def test_fourier_two(self):
        np.testing.assert_allclose(
            master_matrix(fourier_master(2)), fourier(2), rtol=0, atol=1e-15
        )

    def test_fourier_three(self):
        np.testing.assert_allclose(
            master_matrix(fourier_master(3)), fourier(3), rtol=0, atol=1e-14
        )

    def test_large_exponents_are_exact(self):
        # From exponent 100 on numpy's `**` would take exp(n log z).
        assert np.array_equal(master_matrix(MasterSpec((1, -1), (0, 2**63 + 1))), [[1, 1], [1, -1]])
        # An exponent past the float range, a negative one and an even one.
        table = power_table([-1, 1j], [10**400 + 1, -(10**7 + 1), 2000])
        assert np.array_equal(table, [[-1, -1, 1], [1j, -1j, 1]])
        assert np.array_equal(power_table(-1, np.arange(98, 102)), [1, -1, 1, -1])
        check = check_master_condition(MasterSpec((1, -1), (0, 10**7 + 1)))
        assert check.ok and check.max_residual == 0.0

    def test_small_exponents_are_exact(self):
        # Python's complex power multiplies out these integer exponents too,
        # and every product of these bases is exact.
        z = [-1, 1j, 2, 0.5, -2j]
        exponents = list(range(-60, 61))
        assert np.array_equal(power_table(z, exponents), [[complex(b) ** e for e in exponents] for b in z])

    def test_large_power_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            power_table(2, [10**400])
        with pytest.raises(ValueError, match="overflow"):
            power_table(0.5, [-2000])

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

    def test_ratio_scaled_domain(self):
        # Only the ratios enter: unscaled, 1e5^71 overflows.
        check = check_master_condition(MasterSpec((1e5, -1e5), (0, 71)))
        assert check.ok and check.max_residual == 0.0

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
        # The residuals against the exact phases, and against Python complex
        # arithmetic one exponent at a time. lambda_i = exp(2 pi i t_i / L)
        # exactly; a float lambda is within eps/2 of it, relative, and the
        # power z^e multiplies that by e, so entry (i, j) is within
        # eps * sum_a n_a of the exact sum, plus the rounding of its n terms.
        # Python and numpy round the ratio and the power differently, by
        # about eps per factor, so that bound grows with the exponents.
        n = spec.size
        eps = np.finfo(float).eps
        turns = [Fraction(cmath.phase(z) / (2 * math.pi) % 1).limit_denominator(10**4) for z in spec.lambdas]
        period = math.lcm(*(f.denominator for f in turns))
        t = [int(f * period) for f in turns]
        exact_tol = eps * (sum(spec.exponents) + 4 * n)
        python_tol = 4 * n * max(spec.exponents) * 2.3e-16
        residuals = check_master_condition(spec).residuals
        for i, li in enumerate(spec.lambdas):
            for j, lj in enumerate(spec.lambdas):
                want = n * (i == j)
                exact = abs(sum(unit_root((t[i] - t[j]) * e, period) for e in spec.exponents) - want)
                python = abs(sum((li / lj) ** e for e in spec.exponents) - want)
                assert abs(residuals[i, j] - exact) <= exact_tol
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
                (1 / om) @ np.asarray(om).T - n * identity(n)
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

    def test_master_matrix_agrees_with_fourier_to_rounding(self):
        # Powers of one root against one root per entry: bit-equal only at
        # n = 1 and 2; the largest gap, 3.0e-14, is at (26, 1).
        gaps = {
            (n, ell): max_abs(master_matrix(fourier_master(n, ell)) - fourier(n, ell))
            for n in range(1, 28)
            for ell in range(1, max(n, 2))
            if math.gcd(ell, n) == 1
        }
        assert max(gaps.values()) <= 1e-13
        assert sorted(key for key, gap in gaps.items() if gap == 0) == [(1, 1), (2, 1)]

    def test_shifted_exponents_still_pass(self):
        spec = fourier_master(4)
        shifted = MasterSpec(spec.lambdas, tuple(a + 4 for a in spec.exponents))
        assert check_master_condition(shifted).ok


class TestF4Master:
    def test_smallest_member_matches_family(self):
        from tlhad.hadamard import f4_family

        spec = f4_master(1, 1)
        assert spec.exponents == (0, 1, 2, 3)
        np.testing.assert_allclose(master_matrix(spec), f4_family(1j), rtol=0, atol=1e-14)

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
        np.testing.assert_allclose(as_matrix(om[list(perm)]), family, rtol=0, atol=1e-13)

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

    def test_stage_takes_any_integer_sequence(self):
        stage = NestingStage(np.int64(2), 1, np.array([0, 1]), [np.int64(3), 0])
        assert stage == NestingStage(2, 1, (0, 1), (3, 0))
        assert type(stage.p) is int and type(stage.g) is tuple and type(stage.g[1]) is int
        assert NestingStage(3, 1, np.array([], dtype=int)).g == (0, 0, 0)

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
        np.testing.assert_allclose(master_matrix(spec), fourier(3), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_recovers_fourier_masters(self, n):
        spec = search_master_representation(master_matrix(fourier_master(n)), n, n)
        assert spec is not None
        np.testing.assert_allclose(
            master_matrix(spec), master_matrix(fourier_master(n)), rtol=0, atol=1e-9
        )

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

    @pytest.mark.parametrize("bound", [10**15, 10**17])
    def test_root_order_bound_past_float_resolution(self, bound):
        # The float phase of w = exp(2 pi i / 3) is the fraction
        # 6004799503160661/18014398509481984, which these bounds admit;
        # it must still read as 1/3.
        assert root_phases(fourier(3), bound) == root_phases(fourier(3), 3)
        spec = search_master_representation(fourier(3), 4, bound)
        assert spec is not None and spec.exponents == (0, 1, 2)
        np.testing.assert_allclose(master_matrix(spec), fourier(3), rtol=0, atol=1e-9)


def snap_oracle(z, root_order_bound, tol):
    """The former per-entry snap: z = exp(2*pi*i*t/r) with r <= root_order_bound, or None."""
    if abs(abs(z) - 1.0) > tol:
        return None
    x = (cmath.phase(z) / (2 * math.pi)) % 1.0
    frac = Fraction(float(x)).limit_denominator(root_order_bound)
    t = frac.numerator % frac.denominator
    r = frac.denominator
    if abs(z - unit_root(t, r)) > tol:
        return None
    return t, r


def butson_order_oracle(u, tol, limit):
    """The former per-q scan: minimal q <= limit with butson_residual(u, q) <= tol."""
    return next((q for q in range(1, limit + 1) if butson_residual(u, q) <= tol), None)


def pigeonhole_oracle(u, tol, max_order):
    """The former float obstruction: Butson order from the scan, rows compared within tol."""
    if float(np.max(np.abs(np.abs(u) - 1.0))) > tol:
        return None
    order = butson_order_oracle(u, tol, max_order)
    if order is None:
        return None
    reps = []
    for row in u:
        if not any(max_abs(row - rep) <= tol for rep in reps):
            reps.append(row)
    return (order, len(reps)) if len(reps) > order else None


def _enumerated_search(u, exponent_bound, root_order_bound, tol=1e-9):
    """The former search, kept as the oracle: it tests every exponent permutation whole.

    Only its eigenvalues follow the current search: unit_root of the reduced phase.
    """
    u = as_matrix(u)
    n = u.shape[0]
    ones = np.ones(n)
    if max_abs(u[0, :] - ones) > tol or max_abs(u[:, 0] - ones) > tol:
        u, _ = dephase(u)
    if n == 1:
        return MasterSpec((1.0 + 0j,), (0,))
    lcm = math.lcm(*range(1, root_order_bound + 1))
    target = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            snapped = snap_oracle(u[i, j], root_order_bound, tol)
            if snapped is None:
                return None
            t, r = snapped
            target[i][j] = t * (lcm // r) % lcm
    cands = sorted(
        {t * (lcm // r) % lcm for r in range(1, root_order_bound + 1) for t in range(r)}
    )
    full_mask = (1 << len(cands)) - 1
    tables = []
    for i in range(n):
        row_tab = []
        for j in range(1, n):
            col_tab = [0] * (exponent_bound + 1)
            for e in range(1, exponent_bound + 1):
                mask = 0
                for ci, v in enumerate(cands):
                    if (v * e) % lcm == target[i][j]:
                        mask |= 1 << ci
                col_tab[e] = mask
            row_tab.append(col_tab)
        tables.append(row_tab)
    for tup in itertools.permutations(range(1, exponent_bound + 1), n - 1):
        if math.gcd(*tup) != 1:
            continue
        vals = []
        for row_tab in tables:
            mask = full_mask
            for j, e in enumerate(tup):
                mask &= row_tab[j][e]
            if not mask:
                break
            vals.append(cands[(mask & -mask).bit_length() - 1])
        else:
            turns = (Fraction(v, lcm) for v in vals)
            lambdas = tuple(unit_root(f.numerator, f.denominator) for f in turns)
            try:
                spec = MasterSpec(lambdas, (0,) + tup)
            except ValueError:
                continue
            if max_abs(master_matrix(spec) - u) <= tol:
                return spec
    return None


def _moved(u, seed):
    """u under seeded row/column permutations and diagonal phases (first column fixed)."""
    rng = np.random.default_rng(seed)
    n = u.shape[0]
    phases = lambda: tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(n))
    cols = (0, *(1 + rng.permutation(n - 1)))
    move = EquivalenceMove(tuple(rng.permutation(n)), phases(), phases(), cols)
    return apply_equivalence(u, move)


def _oracle_cases():
    cases = [("h0", h0())]
    cases += [(f"h1_w12^{k}", h1(unit_root(k, 12))) for k in range(12)]
    for n in range(2, 7):
        cases.append((f"fourier{n}_moved", _moved(fourier(n), n)))
        cases.append((f"fourier{n}_dephased", dephase(_moved(fourier(n, n - 1), 10 + n))[0]))
    cases.append(("f4_family", f4_family(unit_root(1, 4))))
    cases.append(("f4_master", master_matrix(f4_master(2, 1))))
    cases.append(("f6_family", f6_family(unit_root(1, 6), unit_root(1, 3))))
    cases.append(("f6_master", master_matrix(f6_master(2, 1, 1))))
    stages = (NestingStage(2, g=(0, 1)), NestingStage(2, f=(1, 0)))
    cases.append(("nest22", master_matrix(nest(NestingSpec(stages)))))
    stages = (NestingStage(2), NestingStage(3, g=(0, 0, 1)))
    cases.append(("nest23", master_matrix(nest(NestingSpec(stages)))))
    return cases


ORACLE_CASES = _oracle_cases()


def _butson_moved(u, q, seed):
    """u under seeded row/column permutations and diagonals of q-th roots of unity."""
    rng = np.random.default_rng(seed)
    n = u.shape[0]
    roots = lambda: tuple(unit_root(int(k), q) for k in rng.integers(0, q, size=n))
    perm = lambda: tuple(int(p) for p in rng.permutation(n))
    return apply_equivalence(u, EquivalenceMove(perm(), roots(), roots(), perm()))


BUTSON_MOVES = [
    (f"fourier{n}_q{q}", _butson_moved(fourier(n), q, 100 * n + q))
    for n in range(2, 7)
    for q in (2, 3, 4, 6, 8, 12)
] + [(f"h0_q{q}", _butson_moved(h0(), q, q)) for q in (2, 3)]
PHASE_LIMITS = (5, 12, 36, 48)


def _phase_verdicts(u, limit, tol=1e-9):
    phases = root_phases(u, limit, tol)
    obs = pigeonhole_obstruction(u, tol, limit)
    return phases, butson_order(u, tol, limit), obs and (obs.root_order, obs.distinct_rows)


def _oracle_verdicts(u, limit, tol=1e-9):
    snapped = tuple(tuple(snap_oracle(z, limit, tol) for z in row) for row in u)
    phases = None if any(None in row for row in snapped) else snapped
    return phases, butson_order_oracle(u, tol, limit), pigeonhole_oracle(u, tol, limit)


@pytest.mark.parametrize("limit", PHASE_LIMITS)
@pytest.mark.parametrize(
    "name, u", ORACLE_CASES + BUTSON_MOVES, ids=[name for name, _ in ORACLE_CASES + BUTSON_MOVES]
)
def test_phase_decisions_match_the_float_oracles(name, u, limit):
    assert _phase_verdicts(u, limit) == _oracle_verdicts(u, limit)


def test_phase_oracle_cases_reach_every_verdict():
    verdicts = [_phase_verdicts(u, 48) for _, u in ORACLE_CASES + BUTSON_MOVES]
    assert sum(phases is None for phases, _, _ in verdicts) == 6
    assert sum(order is not None for _, order, _ in verdicts) == 55
    assert sum(obs is not None for _, _, obs in verdicts) == 6
#: (exponent bound, root-order bound); the old search costs 0.1 s per case at 12/12.
ORACLE_BOUNDS = [(4, 4), (6, 12), (8, 8), (12, 6), (12, 12)]


@pytest.mark.parametrize("bounds", ORACLE_BOUNDS, ids=lambda b: f"{b[0]}/{b[1]}")
@pytest.mark.parametrize("name, u", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
def test_search_matches_the_enumeration(name, u, bounds):
    expected = _enumerated_search(u, *bounds)
    spec = search_master_representation(u, *bounds)
    if expected is None:
        assert spec is None
    else:
        assert spec is not None
        assert (spec.lambdas, spec.exponents) == (expected.lambdas, expected.exponents)


@pytest.mark.parametrize("name", ["h0", "h1_w12^1", "fourier6_moved", "nest23"])
def test_search_matches_the_enumeration_at_16(name):
    u = dict(ORACLE_CASES)[name]
    expected = _enumerated_search(u, 16, 16)
    spec = search_master_representation(u, 16, 16)
    assert (spec and (spec.lambdas, spec.exponents)) == (
        expected and (expected.lambdas, expected.exponents)
    )


def test_high_order_entries_cost_only_the_visited_nodes():
    # Entries of prime order 999983: Z_q has about 10^6 phases, none of them tabulated.
    p = 999983
    spec = MasterSpec((1, unit_root(1, p), unit_root(5, p)), (0, 1, 2))
    started = time.perf_counter()
    found = search_master_representation(master_matrix(spec), 4, p)
    assert time.perf_counter() - started < 1.0
    assert found is not None and found.exponents == (0, 1, 2)
    assert search_master_representation(master_matrix(spec), 4, p - 1) is None


@pytest.mark.parametrize("u", [h0(), h1(1j)], ids=["h0", "h1"])
def test_no_representation_at_20_and_fast(u):
    started = time.perf_counter()
    assert search_master_representation(u, 20, 20) is None
    # The full enumeration took about 2 s here for h0.
    assert time.perf_counter() - started < 1.0


class TestNonMasterFixtures:
    def test_h0_is_chm(self):
        assert is_chm(h0())

    def test_h1_unimodular_point_is_chm(self):
        assert is_chm(h1(1j))

    def test_h1_at_two_is_not_ghm(self):
        # Entry (2, 3) of u (u^{o-1})^t is sum_k u[2, k] / u[3, k]
        # = 1 - 1 + 1/a - a + a i - i/a = (1/a - a)(1 - i), at a = 2 of
        # modulus (3/2) sqrt(2) = 3/sqrt(2), the largest entry.
        v = is_ghm(h1(2))
        assert not v.is_ghm
        assert v.max_residual == pytest.approx(3 / math.sqrt(2), rel=1e-12)

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
