"""Tests for the dense complex matrix substrate."""

import ast
import cmath
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlhad
from tlhad import linalg
from tlhad.hadamard import chm_residual, dephase, f4_family, f6_family, fourier, ghm_residual, root_phases
from tlhad.master import (
    f4_master,
    f6_master,
    fourier_master,
    master_matrix,
    search_master_representation,
)
from tlhad.tlrep import TLAnsatz, build_local_generator, check_master4, embed, reconstruct_m
from tlhad.linalg import (
    SingularMatrixError,
    as_matrix,
    complex_to_json,
    dagger,
    diag,
    identity,
    inverse,
    kron,
    local_dim,
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


#: The functions that only read their matrix, each called on a 3x3 input.
_F3 = fourier_master(3)
READERS = {
    "ghm_residual": ghm_residual,
    "chm_residual": chm_residual,
    "root_phases": lambda u: root_phases(u, 12),
    "dephase": dephase,
    "search_master_representation": lambda u: search_master_representation(u, 12, 12),
    "check_master4": lambda p: check_master4(p, _F3.lambdas, _F3.exponents),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
class TestReadOnlyInputs:
    """A function that only reads its matrix checks it where it lies."""

    def test_write_protected_input_is_read_and_left_as_it_was(self, read):
        u = fourier(3) * np.exp(1j * np.arange(3))[:, None]
        u.setflags(write=False)
        before = u.tobytes()
        read(u)
        assert u.tobytes() == before and not u.flags.writeable

    def test_nested_lists_read_as_the_array(self, read):
        u = fourier(3) * np.exp(1j * np.arange(3))
        assert repr(read(u.tolist())) == repr(read(u))

    @pytest.mark.parametrize(
        "bad",
        [[[1, 2], [3]], [[1, math.nan, 1]] * 3, [1, 1j, -1]],
        ids=["ragged_list", "nan_entry", "one_dimensional"],
    )
    def test_malformed_input_raises_the_as_matrix_error(self, read, bad):
        with pytest.raises(ValueError) as expected:
            as_matrix(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            read(bad)


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

    @given(st.integers(-50, 50), st.integers(1, 24))
    def test_any_integer_phase_gives_the_root_of_its_residue(self, k, m):
        assert unit_root(k + 10**30 * m, m) == unit_root(k, m) == unit_root(k % m, m)


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
        np.testing.assert_allclose(k, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_on_strands_matches_kron_product(self, n):
        rng = np.random.default_rng(n)
        shape = (n * n, n * n)
        op = as_matrix(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        x = as_matrix(rng.normal(size=(n**3, n**3)) + 1j * rng.normal(size=(n**3, n**3)))
        eye = identity(n)
        embedded = {
            (0, 1): kron(op, eye),
            (1, 2): kron(eye, op),
        }
        for strands, full in embedded.items():
            np.testing.assert_allclose(
                on_strands(op, x, strands, n), full @ x, rtol=0, atol=1e-13, err_msg=str(strands)
            )

    def test_on_strands_rejects_bad_input(self):
        with pytest.raises(ValueError):
            on_strands(identity(4), identity(8), (0, 3), 2)
        # Only neighbouring strands: the outer pair has no caller.
        with pytest.raises(ValueError, match="strands"):
            on_strands(identity(4), identity(8), (0, 2), 2)
        with pytest.raises(ValueError):
            on_strands(identity(4), identity(4), (0, 1), 2)
        with pytest.raises(ValueError):
            on_strands(identity(9), identity(8), (0, 1), 2)

    def test_local_dim(self):
        assert local_dim(identity(9)) == 3
        with pytest.raises(ValueError, match="generator must be square"):
            local_dim(zeros(4, 9), "generator")
        with pytest.raises(ValueError, match="generator dimension 8 is not a perfect square"):
            local_dim(identity(8), "generator")

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
            np.testing.assert_allclose(m @ inv, identity(n), rtol=0, atol=1e-10)
            np.testing.assert_allclose(inv @ m, identity(n), rtol=0, atol=1e-10)

    def test_diagonal(self):
        inv = inverse(diag([2, 4j]))
        np.testing.assert_allclose(inv, diag([0.5, -0.25j]), rtol=0, atol=1e-15)

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
        np.testing.assert_allclose(m @ loose, identity(2), rtol=0, atol=1e-7)

    def test_uniformly_small_matrix_is_not_singular(self):
        inv = inverse(diag([1e-12, 1e-12]))
        np.testing.assert_allclose(inv, diag([1e12, 1e12]), rtol=0, atol=1e-3)

    def test_ill_conditioned_is_singular_at_default_tol(self):
        # Every pivot is 1, but max|A| * max|A^-1| = 1e20 reaches 1 / tol.
        with pytest.raises(SingularMatrixError):
            inverse(as_matrix([[1, 1e10], [0, 1]]))

    def test_exactly_singular_at_zero_tol(self):
        for m in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
            with pytest.raises(SingularMatrixError):
                inverse(as_matrix(m), tol=0.0)


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


#: Parts that exercise float formatting: signed zeros, subnormals, the
#: extremes of the exponent range and integral values.
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
                 5e300, 1.0, -2.0, 3.0, 1e16, 0.1]
PARTS = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_vectors(draw):
    # Entries come from a pool of at most four, so most vectors repeat entries.
    pool = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=4))
    entries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=36))
    return np.array(entries, dtype=np.complex128)


def render(doc):
    """The whole text iterdumps writes for doc."""
    return "".join(linalg.iterdumps(doc))


def _strict(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestDumps:
    @settings(max_examples=150)
    @given(complex_vectors())
    def test_array_text_is_the_pairs_text(self, z):
        text = render(z)
        assert text == json.dumps(complex_to_json(z))
        assert _strict(text) == complex_to_json(z)

    @settings(max_examples=50)
    @given(complex_vectors(), st.data())
    def test_non_finite_part_raises(self, z, data):
        part = data.draw(st.sampled_from([z.real, z.imag]))
        part[data.draw(st.integers(0, z.size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        with pytest.raises(ValueError):
            render(z)
        with pytest.raises(ValueError):
            render({"m": z, "x": 1.0})

    def test_document_is_json_dumps_of_its_list_form(self):
        m = as_matrix([[1, -0.0], [2.5j, 1]])
        doc = {"z": linalg.matrix_payload(m), "a": [m[0], 0.5, None, "s"], "q": [1.0, -0.0]}
        expected = json.dumps(
            doc, sort_keys=True, allow_nan=False, default=lambda a: complex_to_json(a)
        )
        assert render(doc) == expected
        assert _strict(expected)["z"] == matrix_to_dict(m)

    def test_string_spelling_the_mark_is_written_as_itself(self):
        doc = {"s": linalg._ARRAY_MARK, "z": np.array([1j])}
        assert render(doc) == json.dumps(
            doc, sort_keys=True, default=lambda a: complex_to_json(a)
        )

    def test_other_objects_are_not_serializable(self):
        # The writer takes nonempty vectors only: matrix_payload's entries.
        for obj in ({1, 2}, np.zeros(0, dtype=np.complex128), np.zeros((0, 2)), np.zeros((2, 2))):
            with pytest.raises(TypeError):
                render({"s": obj})

    def test_payload_is_the_dict_with_array_entries(self):
        m = as_matrix([[1, 2j, 3]])
        payload = linalg.matrix_payload(m)
        assert (payload["rows"], payload["cols"]) == (1, 3)
        assert np.array_equal(payload["entries"], m.reshape(-1))
        assert json.loads(render(payload)) == matrix_to_dict(m)
        with pytest.raises(ValueError):
            linalg.matrix_payload(np.array([[np.inf]]))

    def test_payload_entries_are_the_matrix_itself(self):
        # The payload keeps a complex128 matrix without a copy; as_matrix,
        # whose results callers store, always copies.
        m = np.arange(6, dtype=np.complex128).reshape(2, 3)
        entries = linalg.matrix_payload(m)["entries"]
        assert np.shares_memory(entries, m) and np.array_equal(entries, m.reshape(-1))
        assert not np.shares_memory(as_matrix(m), m)
        for bad in (np.zeros((0, 2), dtype=np.complex128), np.zeros(3, dtype=np.complex128)):
            with pytest.raises(ValueError):
                linalg.matrix_payload(bad)


#: The four entries whose parts are both ±0; the writer gives each a fixed slot.
SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
NONZERO = st.builds(complex, PARTS, PARTS).filter(lambda z: z != 0)
CHUNK = linalg._CHUNK


@st.composite
def chunked_vectors(draw):
    """Vectors just under, at or just over one chunk, or of three chunks and a part.

    The pool holds the four ±0 pairs and other entries, or only one of the two kinds.
    """
    size = draw(st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]))
    others = draw(st.lists(NONZERO, min_size=1, max_size=4))
    pool = draw(st.sampled_from([SIGNED_ZEROS + others, SIGNED_ZEROS, others]))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=size)
    return np.array(pool, dtype=np.complex128)[picks]


class TestChunkedWriter:
    @settings(max_examples=40, deadline=None)
    @given(chunked_vectors())
    def test_pieces_join_to_the_pairs_text(self, z):
        expected = json.dumps(complex_to_json(z))
        assert render(z) == expected
        assert render({"b": z, "a": [z[:1], -0.0]}) == json.dumps(
            {"a": [complex_to_json(z[:1]), -0.0], "b": complex_to_json(z)}
        )

    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_an_array_is_written_a_chunk_of_entries_a_piece(self, size):
        z = np.full(size, 1 + 2j)
        pieces = list(linalg.iterdumps({"z": z}))
        entries = [piece.count("2.0") for piece in pieces if "2.0" in piece]
        assert entries == [min(CHUNK, size - start) for start in range(0, size, CHUNK)]

    @pytest.mark.parametrize("z", SIGNED_ZEROS + [1 - 0j, complex(-0.0, 2.5)])
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_scalar_and_single_entry_arrays(self, z, shape):
        # Only the vector is written; the CLI gives a matrix as matrix_payload's flat entries.
        a = np.full(shape, z, dtype=np.complex128)
        a.real, a.imag = z.real, z.imag
        if a.ndim != 1:
            with pytest.raises(TypeError):
                render(a)
            a = a.reshape(-1)
        assert render(a) == json.dumps(complex_to_json(a))

    @pytest.mark.parametrize("shape", [(3, 2, 700), (2, 2, 1, 1025), (CHUNK + 1, 1, 1)])
    def test_higher_dimensional_arrays(self, shape):
        # Refused before any piece is made; the same entries go as a vector.
        rng = np.random.default_rng(7)
        pool = np.array(SIGNED_ZEROS + [1.5 - 0j, complex(-0.0, 3.0)], dtype=np.complex128)
        z = pool[rng.integers(len(pool), size=shape)]
        with pytest.raises(TypeError):
            next(linalg.iterdumps({"z": z}))
        assert render(z.reshape(-1)) == json.dumps(complex_to_json(z.reshape(-1)))

    def test_signed_zeros_take_the_slot_of_their_sign_bits(self):
        flat = np.array(SIGNED_ZEROS * 2 + [1j, 1j, -1j], dtype=np.complex128)
        distinct, inverse = linalg._distinct(flat)
        assert inverse[:8].tolist() == [0, 1, 2, 3] * 2
        assert inverse[8] == inverse[9] and sorted(inverse[9:].tolist()) == [4, 5]
        assert np.array_equal(distinct[inverse].view(np.uint64), flat.view(np.uint64))

    @pytest.mark.parametrize(
        "build, n, sites",
        [
            (lambda: (f6_master(2, 1, 1), f6_family(cmath.exp(0.3j), cmath.exp(1.1j))), 6, 3),
            (lambda: (f4_master(1, 1), f4_family(cmath.exp(0.4j))), 4, 4),
            (lambda: (fourier_master(5), fourier(5)), 5, 3),
        ],
        ids=["f6_n6_s3", "f4_n4_s4", "fourier_n5_s3"],
    )
    def test_embedded_generators(self, build, n, sites):
        # The three documents build tl-embedded --site 2 writes in the CLI benchmark.
        spec, h = build()
        m = reconstruct_m(master_matrix(spec), h, spec.lambdas)
        local = build_local_generator(TLAnsatz(m, spec.exponents, sites=sites))
        z = embed(local, 2, sites, n)
        assert z.size == n ** (2 * sites)
        payload = linalg.matrix_payload(z)
        assert render(payload) == json.dumps(matrix_to_dict(z), sort_keys=True)


#: Package exports that nothing outside their own unit tests uses: no
#: other module, no CLI verb, no acceptance test and not the README
#: example. Each needs a user, or leaves tlhad.__all__; a new export with
#: no user fails the test below.
UNUSED_PACKAGE_EXPORTS = set()


def _uses(text):
    """(module, name) for each `module.name` and `from module import name` in text.

    module is the last part of the dotted name an import gives, so
    `import tlhad as t` makes `t.fourier` read ("tlhad", "fourier").
    """
    tree = ast.parse(text)
    alias = {
        a.asname or a.name: a.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            used.update((module, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add((alias.get(node.value.id, node.value.id), node.attr))
    return used


def test_every_export_is_used_by_another_module():
    # A re-export from the package __init__ is not a use.
    package = Path(linalg.__file__).parent
    uses = {path.stem: _uses(path.read_text()) for path in package.glob("*.py")}
    used = set().union(*(u for stem, u in uses.items() if stem not in ("linalg", "__init__")))
    assert sorted(name for name in linalg.__all__ if ("linalg", name) not in used) == []

    # Each package export is used by another module (the CLI included), by
    # the acceptance tests or by the README example.
    readme = (package.parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    acceptance = (package.parents[1] / "tests" / "test_acceptance.py").read_text()
    outside = _uses(example) | _uses(acceptance)
    home = {
        name: stem
        for stem in uses
        if stem != "__init__"
        for name in importlib.import_module(f"tlhad.{stem}").__all__
    }
    unused = set()
    for name in set(tlhad.__all__) - {"__version__"}:
        users = [outside] + [u for stem, u in uses.items() if stem not in (home[name], "__init__")]
        if not any({(home[name], name), ("tlhad", name)} & u for u in users):
            unused.add(name)
    assert sorted(unused) == sorted(UNUSED_PACKAGE_EXPORTS)


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


#: Parts of a parsed JSON pair as json.load gives them: floats and ints,
#: integers beyond 2^53 and beyond int64 included.
JSON_PARTS = st.one_of(PARTS, st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**63, 10**300]))


@settings(max_examples=80)
@given(st.lists(st.lists(JSON_PARTS, min_size=2, max_size=2), min_size=1, max_size=12))
def test_bulk_read_equals_the_per_entry_walk(entries):
    got = matrix_from_dict({"rows": 1, "cols": len(entries), "entries": entries})
    walked = np.array([linalg.json_complex(e, "entry") for e in entries], dtype=np.complex128)
    # Compare bits, so that -0.0 and 0.0 differ.
    assert got.shape == (1, len(entries))
    assert np.array_equal(got.reshape(-1).view(np.uint64), walked.view(np.uint64))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([True, 0.0], "pair of JSON numbers"),
        ([1.0, None], "pair of JSON numbers"),
        ([1.0, 0.0, 0.0], "pair of JSON numbers"),
        ((1.0, 0.0), None),
        ([10**400, 0], "beyond the floating-point range"),
        ([math.nan, 0.0], "finite parts"),
        ([0.0, -math.inf], "finite parts"),
    ],
    ids=["bool", "null", "triple", "tuple", "huge_int", "nan", "inf"],
)
def test_bulk_read_falls_back_to_name_the_first_bad_entry(bad, message):
    entries = [[1.0, 0.0], [0, 1], bad, [2.0, -0.0]]
    if message is None:
        # json.load gives no tuple, but the per-entry reader takes one.
        got = matrix_from_dict({"rows": 2, "cols": 2, "entries": entries})
        assert np.array_equal(got, as_matrix([[1, 1j], [1, 2]]))
        return
    for tail in ([], [[True, 1.0]]):
        doc = {"rows": 2, "cols": 2 + len(tail) // 2, "entries": entries + tail}
        with pytest.raises(ValueError, match=rf"entry 2 .*{message}"):
            matrix_from_dict(doc)
