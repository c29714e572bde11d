import random
from fractions import Fraction

import pytest

from ddcircuits import (
    AlreadyOptimal,
    CircuitNeighbor,
    LpOptimal,
    LpUnboundedError,
    NotCircuitNeighbor,
    NotUnique,
    Polyhedron,
    RatVec,
    decide_ocnp,
    decompose,
    enumerate_circuits,
    solve_lp,
    verify_unique,
)
from ddcircuits.circuits import Circuit
from ddcircuits.ratlin import RatMat, coprime_integer_entries

from instgen import dense_polytope, gen_box, gen_circulation
from oracles import canonical_orientation

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])
C = RatVec([-1, -2])


def brute_force_is_circuit_neighbor(P, xstar, x0) -> bool:
    d = xstar - x0
    if d.is_zero():
        return False
    if not P.A.matvec(d).is_zero():
        return False
    canon = canonical_orientation(P, Circuit(coprime_integer_entries(d.entries)))
    return canon.entries in {c.entries for c in enumerate_circuits(P)}


class TestVerdicts:
    def test_circuit_neighbor(self):
        verdict = decide_ocnp(UNIT_SQUARE, C, RatVec([0, 1]))
        assert verdict == CircuitNeighbor(RatVec([1, 1]))

    def test_not_circuit_neighbor(self):
        verdict = decide_ocnp(UNIT_SQUARE, C, RatVec([0, 0]))
        assert verdict == NotCircuitNeighbor(RatVec([1, 1]))

    def test_already_optimal(self):
        assert decide_ocnp(UNIT_SQUARE, C, RatVec([1, 1])) == AlreadyOptimal()

    def test_not_unique_surfaced(self):
        verdict = decide_ocnp(UNIT_SQUARE, RatVec([-1, 0]), RatVec([0, 0]))
        assert isinstance(verdict, NotUnique)
        assert not verdict.report.unique

    def test_scaling_invariance(self):
        for x0 in (RatVec([0, 1]), RatVec([0, 0]), RatVec([1, 1])):
            base = decide_ocnp(UNIT_SQUARE, C, x0)
            scaled = decide_ocnp(UNIT_SQUARE, 3 * C, x0)
            assert type(base) is type(scaled)

    def test_unbounded_lp_reported(self):
        half_line = Polyhedron(
            RatMat([], cols=1), RatVec([]), RatMat([[-1]]), RatVec([0])
        )
        with pytest.raises(LpUnboundedError):
            decide_ocnp(half_line, RatVec([-1]), RatVec([0]))

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError):
            decide_ocnp(UNIT_SQUARE, C, RatVec([5, 5]))


def oracle_checked_verdict(P, c, x0):
    """decide_ocnp's verdict from x0, checked against the brute-force
    oracle, or None when the LP has no unique optimum to check."""
    out = solve_lp(P, c)
    if not isinstance(out, LpOptimal):
        return None
    if not verify_unique(P, c, out.vertex).unique:
        return None
    verdict = decide_ocnp(P, c, x0)
    expected = brute_force_is_circuit_neighbor(P, out.vertex, x0)
    if isinstance(verdict, AlreadyOptimal):
        assert out.vertex == x0
    elif isinstance(verdict, CircuitNeighbor):
        assert expected and verdict.xstar == out.vertex
    elif isinstance(verdict, NotCircuitNeighbor):
        assert not expected and verdict.xstar == out.vertex
    else:
        raise AssertionError("unique instance produced NotUnique")
    return verdict


class TestOracleAgreement:
    def test_seeded_instances(self):
        rng = random.Random(5150)
        checked = 0
        for _ in range(30):
            P, c, x0 = gen_box(rng) if rng.random() < 0.6 else gen_circulation(rng)
            checked += oracle_checked_verdict(P, c, x0) is not None
        assert checked >= 20
        # dense_polytope's x0 has thirds and its B usually a denominator, so
        # x0's slack is over a denominator other than x0's own.  Each of
        # these draws has a unique optimum and is checked twice: from x0,
        # which is not a circuit step from x*, and from x* less the first
        # term of the conformal sum of x* - x0, which is.
        rng = random.Random(5150)
        for _ in range(20):
            P, c, x0 = dense_polytope(rng)
            assert isinstance(oracle_checked_verdict(P, c, x0), NotCircuitNeighbor)
            xstar = solve_lp(P, c).vertex
            alpha, g = decompose(P, xstar - x0).terms[0]
            assert isinstance(oracle_checked_verdict(P, c, xstar - alpha * g.vec), CircuitNeighbor)
