"""``solve_lp`` against the artificial-column tableau it replaced.

``lp._simplex`` reads the +-e_j rows of B as bounds, stores no artificial
columns, builds the phase-1 cost row already priced out and takes B's
rows from the integer image.  ``oracles.artificial_column_lp`` is the
split reading it grew from: every coordinate split, a slack for every
row of B and an artificial column for every row.  The two tableaux pivot
on different problems, so they agree on what any correct solver must
report, not on their pivots: here, on a seeded battery and on the edge
cases of the tableau build, the status and the optimal value must be the
same, the vertex must be the same wherever either tableau proves the
optimum unique, and every unbounded ray must be certified (Ar = 0,
Br <= 0, c.r < 0), checked with the rational A and B.  The drive-out of
artificials left basic by a redundant row, and a slack column that
enters on the unbounded ray, are checked on the one tableau.
"""

import random
from fractions import Fraction

import pytest

import ddcircuits.lp
from ddcircuits import LpInfeasible, LpOptimal, LpUnbounded, Polyhedron, RatVec, solve_lp
from ddcircuits.ratlin import RatMat, coprime_integer_entries

from instgen import (
    dense_polytope,
    dense_rational_system,
    gen_box,
    gen_circulation,
    gen_tulike,
)
from oracles import artificial_column_lp


def assert_certified_ray(P, c, r):
    """r is an improving ray of min c over P: A r = 0, B r <= 0, c.r < 0."""
    assert P.A.matvec(r).is_zero()
    assert all(e <= 0 for e in P.B.matvec(r))
    assert c.dot(r) < 0


def assert_matches_reference(P, c):
    """``solve_lp(P, c)`` against ``artificial_column_lp``: the same status
    and value, the same vertex where either proves the optimum unique, and
    a certified ray.  Returns ``solve_lp``'s outcome."""
    out = solve_lp(P, c)
    ref, _ = artificial_column_lp(P, c)
    assert type(out) is type(ref)
    if isinstance(out, LpUnbounded):
        assert_certified_ray(P, c, out.direction)
    elif isinstance(out, LpOptimal):
        assert out.value == ref.value
        if out.unique or ref.unique:
            assert out.vertex == ref.vertex
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
def test_seeded_battery_matches_reference(block):
    outcomes = set()
    for P, c in BATTERY[block::10]:
        outcomes.add(type(assert_matches_reference(P, c)))
    assert LpOptimal in outcomes


def test_battery_reaches_every_outcome():
    kinds = {type(solve_lp(P, c)) for P, c in BATTERY}
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
    # the reference's slack column enters on its ray at c = (-2, 2)
    "unbounded-slack-enters": (_system([], [], [[2, 1], [1, 0]], [2, 1]), LpUnbounded),
}

OBJECTIVES = ([1, 2], [-1, 1], [-2, 2], [0, 0])


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_case_matches_reference(name):
    P, kind = EDGE_CASES[name]
    outcomes = [assert_matches_reference(P, RatVec(c)) for c in OBJECTIVES]
    assert kind in {type(out) for out in outcomes}


def test_duplicated_rows_drive_artificials_out(monkeypatch):
    # a redundant copy of an equality row keeps its artificial basic at 0
    # after phase 1; the drive-out drops it, so phase 2 has fewer rows
    phases = []
    real = ddcircuits.lp._bland

    def spy(T, basis, ncols, *bounds):
        out = real(T, basis, ncols, *bounds)
        phases.append((ncols, tuple(basis)))
        return out

    monkeypatch.setattr(ddcircuits.lp, "_bland", spy)
    P, _ = EDGE_CASES["duplicated-A-rows"]
    assert isinstance(solve_lp(P, RatVec([1, 2])), LpOptimal)
    (ncols, basis1), (_, basis2) = phases
    assert any(j >= ncols for j in basis1)
    assert len(basis2) < len(basis1)


def test_unbounded_slack_enters_ray():
    # The tableau reads x_1 <= 1 as a bound and splits x_2, so its ray at
    # c = (1, 2) is not the reference's; both are improving rays.
    P, _ = EDGE_CASES["unbounded-slack-enters"]
    c = RatVec([1, 2])
    assert solve_lp(P, c) == LpUnbounded(RatVec([-1, 0]))
    assert artificial_column_lp(P, c)[0] == LpUnbounded(RatVec([0, -1]))
    for r in ([-1, 0], [0, -1]):
        assert_certified_ray(P, c, RatVec(r))


def test_slack_column_enters_on_the_unbounded_ray():
    # x_1 - x_2 <= -1 keeps its slack, x_2 <= 0 is a bound and x_1 is split:
    # at c = (1, -1) only the slack can enter, and nothing stops it
    P = _system([], [], [[1, -1], [0, 1]], [-1, 0])
    c = RatVec([1, -1])
    status, tab, enter = ddcircuits.lp._simplex(
        P._a_image, P._b_image, coprime_integer_entries(c.entries)
    )
    assert status == "unbounded" and tab.split == [0]
    assert enter >= P.n + len(tab.split)
    out = assert_matches_reference(P, c)
    assert out == LpUnbounded(RatVec([-1, 0]))
