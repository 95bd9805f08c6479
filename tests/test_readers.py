"""Tests for the input policy: every value the library is given is read by one of linalg's readers.

An integer is any __index__ value but a bool, taken exactly; a complex
scalar is a number with finite parts; a function that only reads a matrix
checks it where it lies. A refusal is a ValueError naming the argument.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tlhad
from tlhad import linalg
from tlhad.baxter import BraidData, baxterize, braid_from_tl, q_from_nu, spectral_samples
from tlhad.hadamard import (
    EquivalenceMove,
    butson_order,
    butson_residual,
    f4_family,
    f6_family,
    fourier,
    permutation_matrix,
    root_phases,
)
from tlhad.linalg import finite_complex, json_int, json_list
from tlhad.master import (
    MasterSpec,
    NestingStage,
    f4_master,
    f6_master,
    fourier_master,
    h0,
    h1,
    pigeonhole_obstruction,
    power_table,
    search_master_representation,
)
from tlhad.tlrep import TLAnsatz, check_master4, embed, fixture_u2, reconstruct_m, verify_tl_local

nan, inf = math.nan, math.inf

INTEGER = "must be an integer"
FINITE = "must be a complex number with finite parts"

#: Each call, and the start of the ValueError it raises: the name of the refused argument.
REFUSALS = {
    # Integers: floats, integral ones too, and bools are refused, never truncated.
    "spec_fractional_exponent": (lambda: MasterSpec((1, -1), (0.7, 1)), f"exponent 0 {INTEGER}"),
    "spec_bool_exponent": (lambda: MasterSpec((1, -1), (False, True)), f"exponent 0 {INTEGER}"),
    "stage_fractional_p": (lambda: NestingStage(2.9, 1.5), f"p {INTEGER}"),
    "stage_fractional_k": (lambda: NestingStage(2, 1.5), f"k {INTEGER}"),
    "stage_fractional_g": (lambda: NestingStage(2, 1, (0, 0.5)), f"g 1 {INTEGER}"),
    "ansatz_fractional_exponent": (lambda: TLAnsatz(np.eye(2), (0.2, 1.9)), f"exponent 0 {INTEGER}"),
    "ansatz_fractional_sites": (lambda: TLAnsatz(np.eye(2), (0, 1), sites=3.7), f"sites {INTEGER}"),
    "permutation_fractional": (lambda: permutation_matrix((0.5, 1)), f"perm 0 {INTEGER}"),
    "move_float_perm": (lambda: EquivalenceMove((0.0, 1), (1, 1), (1, 1), (0, 1)), f"left_perm 0 {INTEGER}"),
    "f4_master_float_k": (lambda: f4_master(1.0, 1), f"k {INTEGER}"),
    "f6_master_fractional_k": (lambda: f6_master(2.5, 1, 1), f"k {INTEGER}"),
    "unit_root_fractional_k": (lambda: linalg.unit_root(0.5, 3), f"k {INTEGER}"),
    "unit_root_float_m": (lambda: linalg.unit_root(1, 3.0), f"m {INTEGER}"),
    "fourier_float_n": (lambda: fourier(3.0), f"n {INTEGER}"),
    "fourier_master_fractional_n": (lambda: fourier_master(3.5), f"n {INTEGER}"),
    "spectral_samples_fractional_count": (lambda: spectral_samples(2.5, 1), f"count {INTEGER}"),
    "power_table_fractional_exponent": (lambda: power_table(2.0, (0.5,)), f"exponent 0 {INTEGER}"),
    "identity_float_n": (lambda: linalg.identity(2.0), f"n {INTEGER}"),
    "zeros_float_cols": (lambda: linalg.zeros(2, 2.0), f"cols {INTEGER}"),
    "embed_float_bond": (lambda: embed(np.eye(4), 1.0, 3, 2), f"i {INTEGER}"),
    "root_phases_float_limit": (lambda: root_phases(fourier(2), 12.0), f"limit {INTEGER}"),
    "butson_residual_float_q": (lambda: butson_residual(fourier(2), 2.0), f"q {INTEGER}"),
    "butson_order_float_limit": (lambda: butson_order(fourier(2), 1e-9, 12.0), f"limit {INTEGER}"),
    "pigeonhole_float_order": (lambda: pigeonhole_obstruction(h0(), max_order=48.0), f"max_order {INTEGER}"),
    "search_float_bound": (
        lambda: search_master_representation(fourier(2), 2.0, 2),
        f"exponent_bound {INTEGER}",
    ),
    # Complex scalars: NaN, infinities, bools and strings are refused.
    "move_nan_diagonal": (lambda: EquivalenceMove((0, 1), (nan, 1), (1, 1), (0, 1)), f"left_diag 0 {FINITE}"),
    "move_inf_diagonal": (lambda: EquivalenceMove((0, 1), (inf, 1), (1, 1), (0, 1)), f"left_diag 0 {FINITE}"),
    "spec_nan_eigenvalue": (lambda: MasterSpec((nan, 1), (0, 1)), f"eigenvalue 0 {FINITE}"),
    "braid_nan_q": (lambda: BraidData(nan, np.eye(4)), f"q {FINITE}"),
    "ansatz_nan_weight": (lambda: TLAnsatz(np.eye(2), (0, 1), v=(1, nan)), f"v 1 {FINITE}"),
    "ansatz_string_weight": (lambda: TLAnsatz(np.eye(2), (0, 1), w=("1", 1)), f"w 0 {FINITE}"),
    "f4_family_nan": (lambda: f4_family(nan), f"a {FINITE}"),
    "f6_family_inf": (lambda: f6_family(1, complex(0, inf)), f"b {FINITE}"),
    "h1_nan": (lambda: h1(complex(nan, 0)), f"a {FINITE}"),
    "h1_bool": (lambda: h1(True), f"a {FINITE}"),
    "reconstruct_m_nan_eigenvalue": (
        lambda: reconstruct_m(np.eye(2), np.eye(2), (1, nan)),
        f"eigenvalue 1 {FINITE}",
    ),
    "check_master4_nan_eigenvalue": (
        lambda: check_master4(np.eye(2), (1, nan), (0, 1)),
        f"eigenvalue 1 {FINITE}",
    ),
    "diag_nan": (lambda: linalg.diag((1, nan)), f"diagonal entry 1 {FINITE}"),
    "braid_from_tl_nan_nu": (lambda: braid_from_tl(np.eye(4), nan), f"nu {FINITE}"),
    "verify_tl_local_inf_nu": (lambda: verify_tl_local(fixture_u2(), inf, 3), f"nu {FINITE}"),
    "baxterize_nan_u": (lambda: baxterize(BraidData(q_from_nu(3), np.eye(4)), nan), f"u {FINITE}"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_is_a_value_error_naming_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


#: Python and numpy integers; the numpy ones as int(), the parent's cast, took them.
INTEGERS = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
)
#: Finite complex numbers, as Python and numpy scalars and as ints and floats.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COMPLEX = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    FINITE,
    FINITE.map(np.float64),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _bits(z: complex) -> tuple:
    return (z.real.hex(), z.imag.hex())


@given(INTEGERS, st.lists(INTEGERS, max_size=6))
def test_integer_readers_return_what_int_returned(x, xs):
    got = json_int(x, "x")
    assert type(got) is int and got == int(x)
    got = json_list(xs, "x", json_int)
    assert got == tuple(int(v) for v in xs) and all(type(v) is int for v in got)


@given(COMPLEX, st.lists(COMPLEX, max_size=6))
def test_complex_readers_return_what_complex_returned(z, zs):
    got = finite_complex(z, "z")
    assert type(got) is complex and _bits(got) == _bits(complex(z))
    got = json_list(zs, "z", finite_complex)
    assert [_bits(v) for v in got] == [_bits(complex(v)) for v in zs]
    assert all(type(v) is complex for v in got)


def test_sequence_reader_takes_arrays_and_iterators_and_names_the_first_bad_item():
    assert json_list(np.arange(3), "x", json_int) == (0, 1, 2)
    assert json_list(iter([1, 1j]), "z", finite_complex) == (1, 1j)
    cases = [
        (json_int, 5, "x list must be a sequence"),
        (json_int, (0, None, 1.5), "x 1 must be an integer"),
        (json_int, (0, 2**70, True), "x 2 must be an integer"),
        (finite_complex, None, "x list must be a sequence"),
        (finite_complex, (1, "2", nan), "x 1 must be a complex number"),
        (finite_complex, (1, 2, 10**400), "x 2 must be a complex number"),
        (finite_complex, np.array([1, 0]) == 1, "x 0 must be a complex number"),
    ]
    for read, bad, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            json_list(bad, "x", read)


# ------------------------------------------------------ the source scan --

SRC = Path(tlhad.__file__).parent

#: linalg's readers: the one place where a value given to the library is converted.
READER_FUNCTIONS = {"json_int", "finite_complex", "json_complex", "json_list"}
CONVERSIONS = {"int", "complex", "operator.index"}

#: The conversions elsewhere, none of a value given to the library: of numpy
#: results, of an exit code, and of the CLI's own text.
ALLOWED_CONVERSIONS = {
    ("baxter", "complex(a, bb)"),
    ("baxter", "complex(c, d)"),
    ("cli", "complex(text.strip().replace(' ', ''))"),
    ("cli", "int(part)"),
    ("cli", "int(exc.code)"),
    ("master", "complex(p)"),
    ("tlrep", "int(np.iinfo(np.intp).max)"),
    ("tlrep", "int(np.argmax(res))"),
    ("tlrep", "int(i)"),
    ("tlrep", "int(j)"),
    ("tlrep", "int(u)"),
}


def _scan():
    """(conversions, copies): each call that names int, complex or operator.index
    outside linalg's readers, and each as_matrix call on anything but a list
    literal outside a constructor, as (module, source text)."""
    conversions, copies = set(), set()
    for path in sorted(SRC.glob("*.py")):

        def visit(node, function, module=path.stem):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call) and not (module == "linalg" and function in READER_FUNCTIONS):
                named = {ast.unparse(part) for part in (node.func, *node.args)}
                if named & CONVERSIONS:
                    conversions.add((module, ast.unparse(node)))
                if ast.unparse(node.func).endswith("as_matrix") and function != "__init__":
                    if not isinstance(node.args[0], ast.List):
                        copies.add((module, ast.unparse(node)))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
    return conversions, copies


def test_values_are_converted_only_by_linalgs_readers():
    conversions, copies = _scan()
    assert sorted(conversions - ALLOWED_CONVERSIONS) == []
    # Each allowed conversion still exists, so the list names no stale exception.
    assert sorted(ALLOWED_CONVERSIONS - conversions) == []
    # A function that only reads a matrix checks it with linalg._finite_matrix.
    assert sorted(copies) == []
