"""The behaviour of the package's result records: construction, defaults,
equality, hash, repr, immutability and the checks of ``Circuit`` and
``Digraph``, pinned type by type."""

import copy
import pickle
from fractions import Fraction

import pytest

from ddcircuits import (
    AlreadyOptimal,
    Circuit,
    CircuitNeighbor,
    DdStep,
    Digraph,
    LpOptimal,
    NotCircuitNeighbor,
    Optimal,
    RatVec,
    UniquenessReport,
)
from ddcircuits.circuits import _trusted

G = Circuit((1, -1, 0))
X = RatVec([Fraction(1, 2), 3])


def test_reprs():
    assert repr(DdStep(G, Fraction(1, 2), 3)) == (
        "DdStep(g=Circuit(entries=(1, -1, 0)), alpha=Fraction(1, 2), improvement=3)"
    )
    # ``unique`` and ``objective`` are left out
    assert repr(LpOptimal(X, Fraction(-7, 2), True, X)) == (
        "LpOptimal(vertex=RatVec([1/2, 3]), value=Fraction(-7, 2))"
    )
    assert repr(Digraph(2, ((1, 2), (2, 1)))) == (
        "Digraph(nodes=2, arcs=((1, 2), (2, 1)), costs=None)"
    )
    assert repr(Optimal()) == "Optimal()"


def test_records_of_different_types_are_unequal():
    assert LpOptimal(G, Fraction(1, 2), 3) != DdStep(G, Fraction(1, 2), 3)
    # the same compared values under another type
    assert LpOptimal(True, None) != UniquenessReport(True, None)
    assert CircuitNeighbor(X) != NotCircuitNeighbor(X)
    assert Optimal() != AlreadyOptimal()


def test_equal_records_hash_equal():
    pairs = [
        (DdStep(Circuit((1, -1, 0)), Fraction(2, 4), 3), DdStep(G, Fraction(1, 2), 3)),
        (Digraph(2, ((1, 2),)), Digraph(2, ((1, 2),), None)),
        (Optimal(), Optimal()),
        # the hidden fields take part in neither equality nor hash
        (LpOptimal(X, 1, True, X), LpOptimal(RatVec([Fraction(1, 2), 3]), 1)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert DdStep(G, 1, 3) != DdStep(G, 1, 4)


def test_keywords_and_defaults():
    assert DdStep(g=G, improvement=3, alpha=1) == DdStep(G, 1, 3)
    assert DdStep(G, 1, improvement=3) == DdStep(G, 1, 3)
    assert Digraph(2, ((1, 2),)).costs is None
    assert Digraph(nodes=2, arcs=((1, 2),), costs=(1,)).costs == (1,)
    opt = LpOptimal(X, 1)
    assert opt.unique is False and opt.objective is None
    assert LpOptimal(X, 1, objective=X).objective == X
    bad = (lambda: DdStep(G, 1), lambda: DdStep(G, 1, 3, alpha=2), lambda: DdStep(G, 1, 3, 4))
    for call in bad:
        with pytest.raises(TypeError):
            call()


def test_fields_cannot_be_assigned_or_deleted():
    step = DdStep(G, 1, 3)
    with pytest.raises(AttributeError):
        step.alpha = 2
    with pytest.raises(AttributeError):
        del step.alpha
    with pytest.raises(AttributeError):
        step.extra = 1
    assert step.alpha == 1


def test_copies_are_equal():
    for record in (DdStep(G, Fraction(1, 2), 3), LpOptimal(X, 1, True, X), Optimal()):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(LpOptimal(X, 1, True, X))).unique is True


@pytest.mark.parametrize(
    "make",
    [lambda: Circuit((0, 0)), lambda: Circuit((2, 4)), lambda: Digraph(2, ((1, 1),))],
    ids=["zero-circuit", "non-coprime-circuit", "self-loop"],
)
def test_checks_run_on_construction(make):
    with pytest.raises(ValueError):
        make()


def test_trusted_skips_the_checks():
    assert _trusted((2, 4)).entries == (2, 4)
    assert _trusted((0, 0)).entries == (0, 0)
