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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .circuits import is_circuit_direction
from .errors import LpUnboundedError
from .lp import LpOptimal, LpUnbounded, UniquenessReport, solve_lp, verify_unique
from .polyhedron import Point, Polyhedron, is_feasible
from .ratlin import RatVec


@dataclass(frozen=True)
class AlreadyOptimal:
    """x0 itself is the unique optimum (x* - x0 = 0)."""


@dataclass(frozen=True)
class CircuitNeighbor:
    xstar: Point


@dataclass(frozen=True)
class NotCircuitNeighbor:
    xstar: Point


@dataclass(frozen=True)
class NotUnique:
    report: UniquenessReport


OcnpVerdict = Union[AlreadyOptimal, CircuitNeighbor, NotCircuitNeighbor, NotUnique]


def decide_ocnp(P: Polyhedron, c: RatVec, x0: Point) -> OcnpVerdict:
    """Decide whether the unique optimum is one circuit step away from x0.

    x0 must be feasible and the LP bounded; an unbounded LP raises
    LpUnboundedError.  The verdict is invariant under positive
    scaling of c.
    """
    if not is_feasible(P, x0):
        raise ValueError("the starting point is not feasible")
    outcome = solve_lp(P, c)
    if isinstance(outcome, LpUnbounded):
        raise LpUnboundedError("the LP is unbounded; no optimum exists")
    assert isinstance(outcome, LpOptimal)
    report = verify_unique(P, c, outcome.vertex, optimum=outcome)
    if not report.unique:
        return NotUnique(report)
    direction = outcome.vertex - x0
    if direction.is_zero():
        return AlreadyOptimal()
    if is_circuit_direction(P, direction):
        return CircuitNeighbor(outcome.vertex)
    return NotCircuitNeighbor(outcome.vertex)
