"""Tests for the dense complex matrix substrate."""

import ast
import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlhad import linalg
from tlhad.linalg import (
    Comparison,
    SingularMatrixError,
    approx_eq,
    as_matrix,
    complex_to_json,
    dagger,
    diag,
    hadamard_inverse,
    identity,
    inverse,
    kron,
    matrix_from_dict,
    matrix_to_dict,
    max_abs,
    on_strands,
    unit_root,
    zeros,
)


class TestAsMatrix:
    def test_coerces_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)
        assert m[1, 0] == 3 + 0j

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 2)))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, math.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_matrix([[complex(0, math.nan)]])


class TestConstructors:
    def test_identity(self):
        assert np.array_equal(identity(3), np.eye(3, dtype=np.complex128))

    def test_zeros(self):
        assert np.array_equal(zeros(2, 3), np.zeros((2, 3), dtype=np.complex128))

    def test_diag(self):
        d = diag([1j, 2])
        assert d[0, 0] == 1j and d[1, 1] == 2 and d[0, 1] == 0


class TestUnitRoot:
    def test_trivial(self):
        assert unit_root(0, 5) == 1

    def test_half_turn(self):
        assert abs(unit_root(1, 2) + 1) < 1e-15

    def test_cube_root_sum(self):
        s = unit_root(0, 3) + unit_root(1, 3) + unit_root(2, 3)
        assert abs(s) < 1e-15

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            unit_root(1, 0)

    @given(st.integers(-50, 50), st.integers(1, 24))
    def test_lies_on_unit_circle_with_correct_order(self, k, m):
        z = unit_root(k, m)
        assert abs(abs(z) - 1) < 1e-12
        assert abs(z**m - 1) < 1e-9


class TestArithmetic:
    def test_kron_matches_index_formula(self):
        rng = np.random.default_rng(0)
        a = as_matrix(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
        b = as_matrix(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        k = kron(a, b)
        assert k.shape == (6, 6)
        expected = zeros(6, 6)
        for i in range(2):
            for j in range(3):
                for p in range(3):
                    for q in range(2):
                        expected[i * 3 + p, j * 2 + q] = a[i, j] * b[p, q]
        assert approx_eq(k, expected, 1e-14).ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_on_strands_matches_kron_product(self, n):
        rng = np.random.default_rng(n)
        shape = (n * n, n * n)
        op = as_matrix(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        x = as_matrix(rng.normal(size=(n**3, n**3)) + 1j * rng.normal(size=(n**3, n**3)))
        eye = identity(n)
        swap23 = kron(eye, as_matrix(np.eye(n * n)[[j * n + i for i in range(n) for j in range(n)]]))
        embedded = {
            (0, 1): kron(op, eye),
            (1, 2): kron(eye, op),
            (0, 2): swap23 @ kron(op, eye) @ swap23,
        }
        for strands, full in embedded.items():
            assert approx_eq(on_strands(op, x, strands, n), full @ x, 1e-13).ok, strands

    def test_on_strands_rejects_bad_input(self):
        with pytest.raises(ValueError):
            on_strands(identity(4), identity(8), (0, 3), 2)
        with pytest.raises(ValueError):
            on_strands(identity(4), identity(4), (0, 1), 2)
        with pytest.raises(ValueError):
            on_strands(identity(9), identity(8), (0, 1), 2)

    def test_dagger(self):
        m = as_matrix([[1 + 2j, 3], [0, -1j]])
        d = dagger(m)
        assert d[0, 0] == 1 - 2j and d[1, 0] == 3 and d[1, 1] == 1j

    def test_max_abs(self):
        assert max_abs(as_matrix([[1, -2], [3j, 0]])) == 3.0


def _lu_inverse(a):
    """Reference: LU with partial pivoting, then substitution, one row at a time."""
    n = a.shape[0]
    lu = np.array(a, dtype=complex)
    perm = np.arange(n)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(lu[col:, col])))
        lu[[col, piv]] = lu[[piv, col]]
        perm[[col, piv]] = perm[[piv, col]]
        lu[col + 1:, col] /= lu[col, col]
        lu[col + 1:, col + 1:] -= np.outer(lu[col + 1:, col], lu[col, col + 1:])
    x = np.eye(n, dtype=complex)[perm]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


class TestInverse:
    def test_matches_python_lu(self):
        # Both factorize with partial pivoting but round in another order;
        # the tolerance is eps times the condition estimate, with room.
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 13):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            inv = inverse(m)
            cond = max_abs(m) * max_abs(inv)
            assert max_abs(inv - _lu_inverse(m)) <= 1e3 * 2.2e-16 * cond * max_abs(inv)

    def test_round_trip_on_well_conditioned_matrix(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 8):
            m = as_matrix(
                rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ) + n * identity(n)
            inv = inverse(m)
            assert approx_eq(m @ inv, identity(n), 1e-10).ok
            assert approx_eq(inv @ m, identity(n), 1e-10).ok

    def test_diagonal(self):
        inv = inverse(diag([2, 4j]))
        assert approx_eq(inv, diag([0.5, -0.25j]), 1e-15).ok

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(zeros(3, 3))

    def test_rank_deficient_is_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(as_matrix([[1, 2], [2, 4]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            inverse(zeros(2, 3))

    def test_near_singular_respects_tolerance(self):
        m = as_matrix([[1, 0], [0, 1e-14]])
        with pytest.raises(SingularMatrixError):
            inverse(m, tol=1e-9)
        loose = inverse(m, tol=1e-16)
        assert approx_eq(m @ loose, identity(2), 1e-7).ok

    def test_uniformly_small_matrix_is_not_singular(self):
        inv = inverse(diag([1e-12, 1e-12]))
        assert approx_eq(inv, diag([1e12, 1e12]), 1e-3).ok

    def test_ill_conditioned_is_singular_at_default_tol(self):
        # Every pivot is 1, but max|A| * max|A^-1| = 1e20 reaches 1 / tol.
        with pytest.raises(SingularMatrixError):
            inverse(as_matrix([[1, 1e10], [0, 1]]))

    def test_exactly_singular_at_zero_tol(self):
        for m in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
            with pytest.raises(SingularMatrixError):
                inverse(as_matrix(m), tol=0.0)


class TestHadamardInverse:
    def test_entrywise_reciprocal(self):
        m = as_matrix([[1, 2], [1j, -1]])
        h = hadamard_inverse(m)
        assert approx_eq(h, as_matrix([[1, 0.5], [-1j, -1]]), 1e-15).ok

    def test_involution(self):
        rng = np.random.default_rng(2)
        m = as_matrix(np.exp(1j * rng.uniform(0, 2 * math.pi, size=(4, 4))))
        assert approx_eq(hadamard_inverse(hadamard_inverse(m)), m, 1e-14).ok

    def test_zero_entry_reported_by_position(self):
        m = as_matrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            hadamard_inverse(m)


class TestApproxEq:
    def test_equal_within_tolerance(self):
        c = approx_eq(identity(2), identity(2) + 1e-12, 1e-9)
        assert isinstance(c, Comparison)
        assert c.ok and c.max_residual == pytest.approx(1e-12)

    def test_unequal(self):
        c = approx_eq(identity(2), zeros(2, 2), 1e-9)
        assert not c.ok and c.max_residual == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            approx_eq(identity(2), identity(3), 1e-9)


class TestJsonRoundTrip:
    def test_bit_identical_round_trip(self):
        entries = [
            [cmath.exp(1j * math.pi / 7), -1.0],
            [1e-300 + 1e300j, complex(0.1, -0.3)],
        ]
        m = as_matrix(entries)
        back = matrix_from_dict(matrix_to_dict(m))
        assert np.array_equal(m, back)

    def test_dict_shape(self):
        d = matrix_to_dict(as_matrix([[1j]]))
        assert d == {"rows": 1, "cols": 1, "entries": [[0.0, 1.0]]}

    def test_entries_are_row_major(self):
        d = matrix_to_dict(as_matrix([[1, 2], [3, 4]]))
        assert [pair[0] for pair in d["entries"]] == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_non_pair_entries(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 0.0]]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "cols": 1, "entries": [[math.nan, 0.0]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "entries": [[1.0, 0.0]]})

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 0, "cols": 1, "entries": []})

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": 1, "cols": 1, "entries": [[True, 0.0]]},
            {"rows": 1, "cols": 1, "entries": [[10**400, 0]]},
            {"rows": 1, "cols": 1, "entries": [[1.0, None]]},
            {"rows": 1.0, "cols": 1, "entries": [[1.0, 0.0]]},
            {"rows": True, "cols": 1, "entries": [[1.0, 0.0]]},
        ],
        ids=["bool_part", "huge_int_part", "null_part", "float_rows", "bool_rows"],
    )
    def test_rejects_parts_and_dims_of_the_wrong_json_type(self, doc):
        with pytest.raises(ValueError):
            matrix_from_dict(doc)

    def test_scalar_and_nested_pairs(self):
        assert complex_to_json(1 - 2j) == [1.0, -2.0]
        assert complex_to_json([(1j, 2)]) == [[[0.0, 1.0], [2.0, 0.0]]]


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_writer_matches_per_entry_pairs(rows, cols, seed):
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, rows, cols))
    parts[rng.random(size=parts.shape) < 0.2] = 0.0
    parts[rng.random(size=parts.shape) < 0.2] = -0.0
    m = np.zeros((rows, cols), dtype=np.complex128)
    m.real, m.imag = parts
    reference = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    # json.dumps tells -0.0 from 0.0, which == does not.
    assert json.dumps(matrix_to_dict(m)["entries"]) == json.dumps(reference)


def test_every_export_is_used_by_another_module():
    # A re-export from the package __init__ is not a use.
    package = Path(linalg.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name in ("linalg.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "linalg":
                used.update(alias.name for alias in node.names)
    assert sorted(set(linalg.__all__) - used) == []


@settings(max_examples=40)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_json_round_trip_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = as_matrix(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)
