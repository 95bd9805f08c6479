"""Tests for the behaviour of tlhad's record and value types.

The result records are NamedTuples; the specs, stages, nestings and moves
are immutable values with validating constructors; BraidData is immutable
and equal only to itself; TLAnsatz is a mutable plain class.
"""

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest

import tlhad
from tlhad import baxter, hadamard, master, tlrep


def _values():
    """Pairs of equal values built from different but equivalent arguments."""
    stage = master.NestingStage(2, 1, (0, 1))
    return {
        "spec": (master.MasterSpec((1, -1), (0, 1)), master.MasterSpec([1.0, -1 + 0j], np.array([0, 1]))),
        "stage": (stage, master.NestingStage(2, 1, [0, 1], ())),
        "nesting": (master.NestingSpec((stage,)), master.NestingSpec([master.NestingStage(2, g=(0, 1))])),
        "move": (
            hadamard.EquivalenceMove((1, 0), (1, 1j), (1, 1), (0, 1)),
            hadamard.EquivalenceMove([1, 0], np.array([1, 1j]), (1.0, 1.0), np.array([0, 1])),
        ),
    }


def _frozen():
    """One instance of every type that was a frozen dataclass, and the name of one field."""
    return {
        "spec": (master.MasterSpec((1, -1), (0, 1)), "lambdas"),
        "stage": (master.NestingStage(2), "g"),
        "nesting": (master.NestingSpec((master.NestingStage(2),)), "stages"),
        "move": (hadamard.EquivalenceMove((0, 1), (1, 1), (1, 1), (0, 1)), "left_diag"),
        "braid": (baxter.BraidData(1, np.eye(4)), "q"),
        "verdict": (hadamard.is_ghm(hadamard.fourier(2)), "is_ghm"),
        "obstruction": (master.PigeonholeObstruction(2, 3), "root_order"),
        "report": (tlrep.TLReport(0.0, 0.0, 0.0, 2 + 0j), "nu"),
    }


def test_no_exported_class_is_a_dataclass():
    modules = (tlhad, hadamard, master, tlrep, baxter)
    classes = {
        obj for module in modules for obj in (getattr(module, name) for name in module.__all__) if isinstance(obj, type)
    }
    assert {"BraidData", "TLAnsatz", "TLReport", "MasterSpec", "EquivalenceMove"} <= {c.__name__ for c in classes}
    assert not [c.__name__ for c in classes if dataclasses.is_dataclass(c)]


@pytest.mark.parametrize("kind", sorted(_frozen()))
def test_assigning_or_deleting_a_field_raises(kind):
    obj, field = _frozen()[kind]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("kind", sorted(_values()))
def test_equal_values_compare_and_hash_equal(kind):
    a, b = _values()[kind]
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")
    assert a != tuple(getattr(a, name) for name in type(a).__slots__)


@pytest.mark.parametrize("kind", sorted(_values()))
def test_copies_and_pickles_go_through_the_constructor(kind):
    a, _ = _values()[kind]
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and type(other) is type(a)


def test_values_differ_by_any_field():
    assert master.MasterSpec((1, -1), (0, 1)) != master.MasterSpec((1, -1), (1, 0))
    assert master.NestingStage(2, 1) != master.NestingStage(2, 2)
    assert hadamard.EquivalenceMove((0, 1), (1, 1), (1, 1), (0, 1)) != hadamard.EquivalenceMove(
        (0, 1), (1, 1), (1, -1), (0, 1)
    )


def test_records_are_tuples_of_their_fields():
    assert master.PigeonholeObstruction(2, 3) == (2, 3)
    report = tlrep.TLReport(1e-12, 2e-12, 0.0, 3 + 0j)
    loop, braid, commute, nu = report
    assert (loop, braid, commute, nu) == (1e-12, 2e-12, 0.0, 3 + 0j)
    assert report.max_residual == 2e-12 and report.ok()
    verdict = hadamard.is_ghm(hadamard.fourier(3))
    assert verdict[:3] == (True, True, 3)


def test_braid_data_is_weakly_referenceable_and_equal_only_to_itself():
    braid = baxter.BraidData(1, np.eye(4))
    ref = weakref.ref(braid)
    assert ref() is braid
    assert braid == braid and braid != baxter.BraidData(1, np.eye(4))
    assert copy.copy(braid).q == braid.q


def test_ansatz_is_mutable_and_equal_only_to_itself():
    ansatz = tlrep.TLAnsatz(np.eye(2), (0, 1))
    assert ansatz.v == (1, 1) and ansatz.sites == 3
    assert ansatz != tlrep.TLAnsatz(np.eye(2), (0, 1))
    ansatz.sites = 4
    assert ansatz.sites == 4
