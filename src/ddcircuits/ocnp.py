"""The optimal circuit-neighbor decision for LPs with a unique optimum.

Question: is there an optimum x* such that x* - x0 is a circuit
direction?  With a unique optimum the only candidate is x* itself, so the
decision reduces to one LP solve, a uniqueness verification, and one
extreme-ray rank check on x* - x0.  The verification reads the LP's final
reduced costs first (Mangasarian, LAA 1979) and needs no second LP when
they prove x* unique; only a degenerate or non-unique optimum falls back
to the active-set walk and the tangent-cone LP.  Uniqueness is never
assumed: when verification fails the verdict is NotUnique and no answer
is attempted, since the multi-optimum variant of the question is
intractable in general.
The decision works in ints: x0 as the (X0, D0) of its feasibility check
(``polyhedron._feasible_slack``), x* as the ints over one denominator
that the LP formed it from (the hidden field ``LpOptimal._ints``), and
x* - x0 as their int difference, which goes to the circuit test's int
core (``circuits._is_circuit``) made primitive.  x* is handed out as a
Fraction vector only in the verdict.
"""

from __future__ import annotations

from typing import Union

from .circuits import _is_circuit
from .errors import LpUnboundedError
from .lp import LpOptimal, LpUnbounded, UniquenessReport, solve_lp, verify_unique
from .polyhedron import Point, Polyhedron, _feasible_slack
from .ratlin import RatVec, _primitive
from .record import Record


class AlreadyOptimal(Record):
    """x0 itself is the unique optimum (x* - x0 = 0)."""

    __slots__ = ()


class CircuitNeighbor(Record):
    __slots__ = ("xstar",)
    xstar: Point


class NotCircuitNeighbor(Record):
    __slots__ = ("xstar",)
    xstar: Point


class NotUnique(Record):
    __slots__ = ("report",)
    report: UniquenessReport


OcnpVerdict = Union[AlreadyOptimal, CircuitNeighbor, NotCircuitNeighbor, NotUnique]


def decide_ocnp(P: Polyhedron, c: RatVec, x0: Point) -> OcnpVerdict:
    """Decide whether the unique optimum is one circuit step away from x0.

    x0 must be feasible and the LP bounded; an unbounded LP raises
    LpUnboundedError.  The verdict is invariant under positive
    scaling of c.  With x0 = X0/D0 from its feasibility check and
    x* = X/D, x* - x0 is Z / (D*D0) for Z = X*D0 - X0*D: x0 is the
    optimum when Z = 0, and otherwise x* - x0 is a circuit direction
    exactly when Z, made primitive, is a circuit.
    """
    slack = _feasible_slack(P, x0)
    if slack is None:
        raise ValueError("the starting point is not feasible")
    outcome = solve_lp(P, c)
    if isinstance(outcome, LpUnbounded):
        raise LpUnboundedError("the LP is unbounded; no optimum exists")
    assert isinstance(outcome, LpOptimal)
    report = verify_unique(P, c, outcome.vertex, optimum=outcome)
    if not report.unique:
        return NotUnique(report)
    X0, _, D0 = slack
    X, D = outcome._ints
    Z = [a * D0 - b * D for a, b in zip(X, X0)]
    if not any(Z):
        return AlreadyOptimal()
    if _is_circuit(P, _primitive(Z)):
        return CircuitNeighbor(outcome.vertex)
    return NotCircuitNeighbor(outcome.vertex)
