"""Deepest-descent circuit steps: exact oracle, dimension-factor
approximation, steepest-descent comparator, and the augmentation loop.

The exact step scans every circuit in its improving orientation (a
desk-scale, enumeration-backed oracle) and keeps the feasible step
maximizing the improvement -c.(alpha g).  The approximate step never
enumerates: it solves the LP once, conformally decomposes x* - x0, picks
the term with the best objective contribution and extends it to its
maximal feasible length by the exact step's scan over that one circuit,
which guarantees at least 1/(n - rank A) of the exact improvement.  It
reads the terms as the decomposition finds them and stops once no later
term can win: every term t has c.t <= 0, so the terms still to come,
which sum to the residual r, each contribute at least c.r, and a best
contribution below c.r is final.  x* does not depend on the iterate, so
augmentation in approx mode solves the LP once per run and decomposes
x* - x from every iterate x.  The steepest-descent comparator minimizes
c.g / |g|_1 and carries no approximation claim.  All four entry points
go through one gate, ``_rule``, which checks the mode and the start and
prepares the rule once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .circuits import Circuit, enumerate_circuits, DEFAULT_WORK_BUDGET
from .conformal import _terms
from .errors import IterationCapExceeded, LpUnboundedError
from .lp import LpOptimal, LpUnbounded, solve_lp
from .polyhedron import Point, Polyhedron, _image, _ratio_test, _slack, is_feasible
from .ratlin import Rat, RatVec, _int_vector


@dataclass(frozen=True)
class DdStep:
    """A feasible improving circuit step taken at maximal length.

    ``g`` is the direction actually stepped (c.g < 0), which may be the
    negation of the canonical enumeration representative.
    """

    g: Circuit
    alpha: Rat
    improvement: Rat


@dataclass(frozen=True)
class Optimal:
    """No feasible improving circuit step exists from the query point."""


@dataclass(frozen=True)
class UnboundedImprovement:
    """An improving circuit with no finite maximal step length."""

    g: Circuit


StepOutcome = Union[DdStep, Optimal, UnboundedImprovement]

_STEP_RULES = ("exact", "approx", "steepest")


def _rule(
    P: Polyhedron, c: RatVec, x0: Point, mode: str, work_budget: int
) -> Callable[[Point], StepOutcome]:
    """The step rule ``mode`` as a function of a feasible iterate.

    The one gate of the step rules: it checks the mode and the start x0
    once and does the rule's per-run work once: c as ints over one
    denominator for every mode, the circuit list for ``exact`` and
    ``steepest`` and the LP optimum for ``approx``.  An unbounded LP raises
    LpUnboundedError; the LP is never infeasible, since x0 is feasible.
    """
    if mode not in _STEP_RULES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_STEP_RULES}")
    if not is_feasible(P, x0):
        raise ValueError("the starting point is not feasible")
    cint = _int_vector(c)  # c = C / den
    if mode == "approx":
        optimum = solve_lp(P, c)
        if isinstance(optimum, LpUnbounded):
            raise LpUnboundedError("the LP is unbounded; no deepest-descent step exists")
        assert isinstance(optimum, LpOptimal)
        return lambda x: _approx_step(P, cint, x, optimum)
    circuits = enumerate_circuits(P, work_budget=work_budget)
    key = _deepest if mode == "exact" else _steepest
    return lambda x: _scan(P, cint, x, circuits, key)


def exact_dd_step(
    P: Polyhedron,
    c: RatVec,
    x0: Point,
    *,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> StepOutcome:
    """The deepest-descent step from x0, by exhaustive circuit scan.

    Among all circuits g (either orientation) with c.g < 0 and a positive
    maximal feasible step, returns the one whose improvement -c.(alpha g)
    is largest; ties go to the earliest circuit in canonical order (at
    most one orientation of a circuit improves).  Returns Optimal when no
    improving feasible circuit exists and UnboundedImprovement as soon as
    an improving circuit has no finite step length.
    """
    return _rule(P, c, x0, "exact", work_budget)(x0)


def approx_dd_step(P: Polyhedron, c: RatVec, x0: Point) -> Union[DdStep, Optimal]:
    """Dimension-factor approximate deepest-descent step (no enumeration).

    Solves the LP, conformally decomposes x* - x0, picks the term with
    the smallest c.(alpha g) (ties to the earliest in canonical circuit
    order) and extends it to the maximal feasible step.  The improvement
    is at least 1/(n - rank A) of the exact deepest descent improvement.
    The decomposition stops early, with the same choice: x* is optimal and
    x* - t feasible for every term t, so c.t <= 0, and the terms not yet
    found each contribute at least c.r, with r the residual left.  Once
    the best contribution is strictly below c.r, no later term beats or
    ties it.  An unbounded LP raises LpUnboundedError.
    """
    return _rule(P, c, x0, "approx", DEFAULT_WORK_BUDGET)(x0)


def _approx_step(
    P: Polyhedron, cint: tuple[list[int], int], x0: Point, optimum: LpOptimal
) -> Union[DdStep, Optimal]:
    """``approx_dd_step`` from the LP optimum of (P, c), without its checks.

    ``cint`` is c as ints over one denominator, (C, den) with c = C / den,
    x0 must be feasible and ``optimum`` the LP's.  The best term has the
    smallest key (c.(alpha g), g.entries), the term ``min`` picks from the
    full decomposition in canonical order.  Every term t has c.t <= 0
    (x* - t is feasible and x* optimal), so each term still to come gains
    at least c.r, with r the residual left; once the best gain is below
    c.r, no later term beats or ties it and the walk stops.  The best term
    g is then extended by the deepest-descent scan over g alone: c.g < 0
    and x0 + alpha*g is feasible with alpha > 0, so the scan neither flips
    nor skips it and returns its maximal step.
    """
    z = optimum.vertex - x0
    if z.is_zero():
        return Optimal()
    C, den = cint
    Z, dz = zint = _int_vector(z)
    rest = Fraction(_dot(C, Z), den * dz)  # c.z
    best_key = None
    for alpha, g in _terms(P, zint):
        gain = alpha * Fraction(_dot(C, g.entries), den)
        rest -= gain
        if best_key is None or (gain, g.entries) < best_key:
            best_key, best_g = (gain, g.entries), g
        if best_key[0] < rest:
            break
    if best_key[0] >= 0:
        # x0 is already optimal (possible only with multiple optima).
        return Optimal()
    step = _scan(P, cint, x0, [best_g], _deepest)
    if not isinstance(step, DdStep):  # pragma: no cover - would contradict a bounded LP
        raise AssertionError("the best term gives no maximal step under a bounded LP")
    return step


def steepest_descent_step(
    P: Polyhedron,
    c: RatVec,
    x0: Point,
    *,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> StepOutcome:
    """Benchmark comparator: minimize c.g / |g|_1, then step maximally.

    Only circuits with c.g < 0 and a positive feasible step are
    considered; ties go to canonical order.  Enumeration-backed, desk
    scale only, no approximation guarantee.
    """
    return _rule(P, c, x0, "steepest", work_budget)(x0)


def _deepest(slope: Rat, beta: Rat, g: Circuit) -> Rat:
    return beta * slope


def _steepest(slope: Rat, beta: Rat, g: Circuit) -> Rat:
    return slope / g.l1


def _dot(C: Sequence[int], g: Sequence[int]) -> int:
    """The int dot product C.g."""
    return sum(a * b for a, b in zip(C, g) if a)


def _scan(
    P: Polyhedron, cint: tuple[list[int], int], x0: Point, circuits: list[Circuit], key
) -> StepOutcome:
    """The feasible improving circuit step with the smallest key.

    ``key(c.g, beta, g)`` ranks a step of maximal length beta along g.
    Since c.(-g) = -c.g, at most one orientation of a circuit improves:
    the sign of c.g picks it, and its slope and B g are computed once.
    Ties go to the earliest circuit.  x0 must be feasible.  c comes as
    ints over one denominator, ``cint`` = (C, den) with c = C / den, and
    the slope is an int dot product with C; the ratio test reads the int
    slack of x0, and only a step of positive length forms Fractions, for
    beta, the slope and the key.
    """
    C, den = cint
    _, S, D = _slack(P, x0)
    best: Optional[DdStep] = None
    best_key = None
    for g in circuits:
        slope = _dot(C, g.entries)
        if slope == 0:
            continue
        bg = _image(P, g.entries)
        if slope > 0:
            g, slope, bg = -g, -slope, [-a for a in bg]
        j = _ratio_test(S, bg)
        if j is None:
            return UnboundedImprovement(g)
        if S[j] == 0:
            continue
        beta, slope = Fraction(S[j], D * bg[j]), Fraction(slope, den)
        k = key(slope, beta, g)
        if best is None or k < best_key:
            best, best_key = DdStep(g, beta, -beta * slope), k
    return best if best is not None else Optimal()


@dataclass(frozen=True)
class AugmentationTrace:
    """The steps and iterates of one augmentation run.

    The objective strictly decreases along ``iterates`` and, when the run
    terminated normally, the final iterate is optimal.
    """

    steps: tuple[DdStep, ...]
    iterates: tuple[Point, ...]
    mode: str

    @property
    def final(self) -> Point:
        return self.iterates[-1]


def augment(
    P: Polyhedron,
    c: RatVec,
    x0: Point,
    mode: str = "exact",
    *,
    max_iters: int = 10_000,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> AugmentationTrace:
    """Iterate the selected step rule from x0 until no step improves.

    Records every step and every iterate (the first iterate is x0, so a
    run from an optimal point has an empty step list).  ``max_iters``
    caps the steps taken: a run that needs one more step after taking
    that many raises IterationCapExceeded with the partial trace attached.
    An unbounded improving direction raises LpUnboundedError.  Approx
    mode solves the LP once per run, not once per step: every step
    decomposes x* - x against the same optimum x*.
    """
    step = _rule(P, c, x0, mode, work_budget)
    steps: list[DdStep] = []
    iterates: list[Point] = [x0]
    x, cx = x0, c.dot(x0)
    while True:
        res = step(x)
        if isinstance(res, Optimal):
            return AugmentationTrace(tuple(steps), tuple(iterates), mode)
        if isinstance(res, UnboundedImprovement):
            raise LpUnboundedError("improving circuit with unbounded step length")
        if len(steps) == max_iters:
            raise IterationCapExceeded(
                f"augmentation did not converge within {max_iters} iterations",
                AugmentationTrace(tuple(steps), tuple(iterates), mode),
            )
        new_x = x + res.alpha * res.g.vec
        new_cx = c.dot(new_x)
        if new_cx >= cx:  # pragma: no cover - steps always improve
            raise AssertionError("augmentation step failed to decrease the objective")
        steps.append(res)
        iterates.append(new_x)
        x, cx = new_x, new_cx
