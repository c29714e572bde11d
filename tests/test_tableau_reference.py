"""The split reading of the simplex against the artificial-column tableau
it replaced.

``lp._simplex`` stores no artificial columns, builds the phase-1 cost row
already priced out and takes B's rows from the integer image.  In the
split reading (``lp._solve`` with ``read_bounds=False``, the reading that
``solve_lp`` falls back to), each of its rows is a positive multiple of
the row the artificial-column tableau holds, with the artificial entries
dropped, so Bland's rule must make the same choices: here every outcome
(status, vertex, value, ray and the ``unique`` flag) and, at the end of
each phase, the status, the entering column and the basis must equal
those of ``oracles.artificial_column_lp`` on a seeded battery and on the
edge cases of the tableau build.  The bound reading is checked against
the split reading in ``test_bound_reading``.
"""

import random
from fractions import Fraction

import pytest

import ddcircuits.lp
from ddcircuits import LpInfeasible, LpOptimal, LpUnbounded, Polyhedron, RatVec
from ddcircuits.ratlin import RatMat

from instgen import (
    dense_polytope,
    dense_rational_system,
    gen_box,
    gen_circulation,
    gen_tulike,
)
from oracles import artificial_column_lp


def _recorded(monkeypatch, P, c):
    """The split reading's outcome for (P, c) and (status, entering
    column, basis) at the end of each of its Bland runs."""
    phases = []
    real = ddcircuits.lp._bland

    def spy(T, basis, ncols, *bounds):
        status, enter = real(T, basis, ncols, *bounds)
        phases.append((status, enter, tuple(basis)))
        return status, enter

    monkeypatch.setattr(ddcircuits.lp, "_bland", spy)
    out = ddcircuits.lp._solve(P, c, read_bounds=False)
    monkeypatch.setattr(ddcircuits.lp, "_bland", real)
    return out, phases


def _assert_same_as_reference(monkeypatch, P, c):
    out, phases = _recorded(monkeypatch, P, c)
    ref, ref_phases = artificial_column_lp(P, c)
    assert out == ref
    assert phases == ref_phases
    if isinstance(ref, LpOptimal):
        assert out.unique == ref.unique
    return out


def _objective(rng, n):
    return RatVec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])


def _battery():
    """(P, c): each generator's own objective and a random one."""
    rng = random.Random(2020)
    out = []
    for _ in range(60):
        for make in (gen_box, gen_tulike):
            P, c, _ = make(rng)
            out += [(P, c), (P, _objective(rng, P.n))]
        P, c, _ = gen_circulation(rng, max_nodes=5, max_arcs=8)
        out += [(P, c), (P, _objective(rng, P.n))]
        P, c, _ = dense_polytope(rng)
        out += [(P, c), (P, _objective(rng, P.n))]
        P = dense_rational_system(rng)
        out += [(P, RatVec([1] * P.n)), (P, _objective(rng, P.n))]
    return out


BATTERY = _battery()


@pytest.mark.parametrize("block", range(10))
def test_seeded_battery_matches_reference(monkeypatch, block):
    outcomes = set()
    for P, c in BATTERY[block::10]:
        outcomes.add(type(_assert_same_as_reference(monkeypatch, P, c)))
    assert LpOptimal in outcomes


def test_battery_reaches_every_outcome(monkeypatch):
    kinds = {type(artificial_column_lp(P, c)[0]) for P, c in BATTERY}
    assert kinds == {LpOptimal, LpUnbounded}


def _system(A, b, B, d, n=2):
    return Polyhedron(RatMat(A, cols=n), RatVec(b), RatMat(B, cols=n), RatVec(d))


BOX = [[1, 0], [0, 1], [-1, 0], [0, -1]]

EDGE_CASES = {
    "zero-A-row-b-zero": (_system([[0, 0], [1, 1]], [0, 1], BOX, [2, 2, 0, 0]), LpOptimal),
    "zero-A-row-b-nonzero": (_system([[0, 0]], [1], BOX, [2, 2, 0, 0]), LpInfeasible),
    "zero-B-row-d-negative": (_system([], [], BOX + [[0, 0]], [2, 2, 0, 0, -1]), LpInfeasible),
    "zero-B-row-d-zero": (_system([], [], BOX + [[0, 0]], [2, 2, 0, 0, 0]), LpOptimal),
    "zero-B-row-d-positive": (_system([], [], [[0, 0]] + BOX, [3, 2, 2, 0, 0]), LpOptimal),
    "duplicated-A-rows": (
        _system([[1, 1], [1, 1], [2, 2]], [1, 1, 2], BOX, [2, 2, 0, 0]),
        LpOptimal,
    ),
    "B-content-and-fractional-scale": (
        _system(
            [],
            [],
            [[4, 6], [Fraction(2, 3), Fraction(4, 3)], [Fraction(-3, 2), 0], [0, -3]],
            [12, Fraction(5, 2), Fraction(1, 2), Fraction(3, 4)],
        ),
        LpOptimal,
    ),
    "negative-d": (Polyhedron.box([1, 2], [3, 5]), LpOptimal),
    "infeasible": (_system([[1, 1]], [5], BOX, [2, 2, 0, 0]), LpInfeasible),
    "unbounded-slack-enters": (_system([], [], [[2, 1], [1, 0]], [2, 1]), LpUnbounded),
}

OBJECTIVES = ([1, 2], [-1, 1], [-2, 2], [0, 0])


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_case_matches_reference(monkeypatch, name):
    P, kind = EDGE_CASES[name]
    outcomes = [_assert_same_as_reference(monkeypatch, P, RatVec(c)) for c in OBJECTIVES]
    assert kind in {type(out) for out in outcomes}


def test_duplicated_rows_drive_artificials_out(monkeypatch):
    # a redundant copy of an equality row keeps its artificial basic at 0
    # after phase 1; the drive-out drops it, so phase 2 has fewer rows
    P, _ = EDGE_CASES["duplicated-A-rows"]
    _, phases = _recorded(monkeypatch, P, RatVec([1, 2]))
    (_, _, basis1), (_, _, basis2) = phases
    ncols = 2 * P.n + P.B.m
    assert any(j >= ncols for j in basis1)
    assert len(basis2) < len(basis1)


def test_slack_column_enters_on_the_unbounded_ray(monkeypatch):
    P, _ = EDGE_CASES["unbounded-slack-enters"]
    out, phases = _recorded(monkeypatch, P, RatVec([-2, 2]))
    status, enter, _ = phases[-1]
    assert status == "unbounded" and enter >= 2 * P.n
    assert out == LpUnbounded(RatVec([0, -1]))
