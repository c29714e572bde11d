"""Deepest-descent circuit steps: exact oracle, dimension-factor
approximation, and the augmentation loop.

The exact step scans every circuit in its improving orientation (a
desk-scale, enumeration-backed oracle) and keeps the feasible step
maximizing the improvement -c.(alpha g).  The circuits, their slopes and
their images under B do not depend on the iterate, so the gate builds
them into a table once per run, and each step's scan does only the
ratio tests.  Each circuit comes out of the enumeration with its products
with the representatives of B's parallel classes, and its image is read
off them, row by row through its class and sign, with no product with
B.  The approximate step never
enumerates: it solves the LP once, conformally decomposes x* - x0, picks
the term with the best objective contribution and extends it to its
maximal feasible length by the exact step's scan over that one circuit,
which guarantees at least 1/(n - rank A) of the exact improvement.  It
reads the terms as the decomposition finds them and stops once no later
term can win: every term t has c.t <= 0, so the terms still to come,
which sum to the residual r, each contribute at least c.r, and a best
contribution below c.r is final.  x* does not depend on the iterate, so
augmentation in approx mode solves the LP once per run and decomposes
x* - x from every iterate x.  All three entry points go through one
gate, ``_rule``, which checks the mode and the start and prepares the
rule once per run.

The rules and the augmentation loop carry the iterate in the int form of
``polyhedron._slack``, (X, S, D) with x = X/D and slack S/D, from the
start to the end of a run: x0's slack is computed once, by the gate's
feasibility check; each step moves (X, S, D) by the rank-one step of
``polyhedron._move`` to the row the scan's ratio test made tight, with
the image the scan computed; and c.x is the int C.X over den*D.  The
approximate rule holds x* as ints over one denominator and forms x* - x
in ints, and compares its terms' gains as int fractions by
cross-multiplication.  Fractions are made only for each step's alpha and
improvement and for each recorded iterate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence, Union

from .circuits import Circuit, _circuits, DEFAULT_WORK_BUDGET
from .conformal import _terms
from .errors import IterationCapExceeded, LpUnboundedError
from .lp import LpOptimal, LpUnbounded, solve_lp
from .polyhedron import (
    Classes,
    Point,
    Polyhedron,
    _classes,
    _feasible_slack,
    _image,
    _move,
    _point,
    _ratio_test,
)
from .ratlin import Rat, RatVec, _int_vector
from .record import Record


class DdStep(Record):
    """A feasible improving circuit step taken at maximal length.

    ``g`` is the direction actually stepped (c.g < 0), which may be the
    negation of the canonical enumeration representative.
    """

    __slots__ = ("g", "alpha", "improvement")
    g: Circuit
    alpha: Rat
    improvement: Rat


class Optimal(Record):
    """No feasible improving circuit step exists from the query point."""

    __slots__ = ()


class UnboundedImprovement(Record):
    """An improving circuit with no finite maximal step length."""

    __slots__ = ("g",)
    g: Circuit


StepOutcome = Union[DdStep, Optimal, UnboundedImprovement]

_STEP_RULES = ("exact", "approx")

# An iterate x in the int form of ``polyhedron._slack``: (X, S, D) with
# x = X/D and slack S/D in row units.
Iterate = tuple[list[int], list[int], int]

# A rule's answer at an iterate: the outcome and, for a DdStep, the image
# of its circuit and the row that limits the step, which ``_move`` reads.
RuleResult = tuple[StepOutcome, Optional[tuple[list[int], int]]]

# An entry of the exact rule's scan table: a circuit in its improving
# orientation, its slope C.g < 0 with c = C / den, and its image B g.
ScanEntry = tuple[Circuit, int, list[int]]


def _rule(
    P: Polyhedron, c: RatVec, x0: Point, mode: str, work_budget: int
) -> tuple[Callable[[Iterate], RuleResult], Iterate, tuple[list[int], int]]:
    """The step rule ``mode`` as a function of a feasible int iterate, the
    start x0 as one, and c as ints over one denominator, (C, den) with
    c = C / den.

    The one gate of the step rules: it checks the mode and the start x0
    once and does the rule's per-run work once: x0's slack, which is both
    the feasibility check and the first iterate, c in ints for every mode,
    for ``exact`` the scan table of ``_scan`` (``_table``), and, for
    ``approx``, the LP optimum x* as ints over one denominator and B's
    parallel classes with A's block over them (``polyhedron._classes``),
    where each decomposition starts.  An unbounded LP raises
    LpUnboundedError; the LP is never infeasible, since x0 is feasible.
    """
    if mode not in _STEP_RULES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_STEP_RULES}")
    start = _feasible_slack(P, x0)
    if start is None:
        raise ValueError("the starting point is not feasible")
    cint = _int_vector(c)  # c = C / den
    if mode == "approx":
        optimum = solve_lp(P, c)
        if isinstance(optimum, LpUnbounded):
            raise LpUnboundedError("the LP is unbounded; no deepest-descent step exists")
        assert isinstance(optimum, LpOptimal)
        xstar, classes = optimum._ints, _classes(P)
        return (lambda it: _approx_step(P, cint, it, xstar, classes)), start, cint
    table = _table(P, cint[0], work_budget)
    return (lambda it: _scan(cint, it, table)), start, cint


def _table(P: Polyhedron, C: Sequence[int], work_budget: int) -> list[ScanEntry]:
    """The exact rule's scan table for the int objective C: each circuit of
    the enumeration with C.g != 0, in its improving orientation, with its
    slope and image.  The circuits come with their products with B's class
    representatives (``circuits._circuits``), and the image is read off
    them, (B g)_i = s_i p[k_i] with the class and sign of row i, so no
    circuit is multiplied by B."""
    classes = _classes(P)
    rows = classes[2]
    table = []
    for g, prods in _circuits(P, classes, work_budget):
        slope = _dot(C, g.entries)
        if slope:
            if slope > 0:
                g, slope, prods = -g, -slope, [-a for a in prods]
            table.append((g, slope, [s * prods[k] for k, s in rows]))
    return table


def _first_step(P: Polyhedron, c: RatVec, x0: Point, mode: str, work_budget: int) -> StepOutcome:
    """The outcome of the step rule ``mode`` at x0."""
    step, start, _ = _rule(P, c, x0, mode, work_budget)
    return step(start)[0]


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
    return _first_step(P, c, x0, "exact", work_budget)


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
    return _first_step(P, c, x0, "approx", DEFAULT_WORK_BUDGET)


def _approx_step(
    P: Polyhedron,
    cint: tuple[list[int], int],
    it: Iterate,
    xstar: tuple[list[int], int],
    classes: Classes,
) -> RuleResult:
    """``approx_dd_step`` at the int iterate ``it``, without its checks.

    ``cint`` is c as ints over one denominator, (C, den) with c = C / den,
    ``it`` a feasible iterate (X, S, D) and ``xstar`` the LP optimum x* of
    (P, c) as ints over one denominator, (Xs, Ds); ``classes`` are B's
    parallel classes with A's block, ``polyhedron._classes(P)``.
    z = x* - x is (Xs*D - X*Ds) / (Ds*D), put in lowest terms by one gcd,
    which is ``ratlin._int_vector(z)``.  The best term has the smallest key
    (c.(alpha g), g.entries), the term ``min`` picks from the full
    decomposition in canonical order.  Every term t has c.t <= 0 (x* - t
    is feasible and x* optimal), so each term still to come gains at least
    c.r, with r the residual left; once the best gain is below c.r, no
    later term beats or ties it and the walk stops.  The gains and c.r are
    held as int pairs (numerator, positive denominator), each gain taken
    off c.r in lowest terms by one gcd, and compared by cross-multiplication.
    The best term g is then extended by the deepest-descent scan over a
    one-entry table: c.g < 0 and x + alpha*g is feasible with alpha > 0,
    so g is in its improving orientation and the scan does not skip it,
    and it returns g's maximal step.
    """
    X, _, D = it
    Xs, Ds = xstar
    Z = [a * D - b * Ds for a, b in zip(Xs, X)]
    if not any(Z):
        return Optimal(), None
    dz = Ds * D
    common = gcd(dz, *Z)
    if common > 1:
        Z, dz = [e // common for e in Z], dz // common
    C, den = cint
    rn, rd = _dot(C, Z), den * dz  # c.r = rn / rd, from r = z
    best_g = None
    for alpha, g in _terms(P, (Z, dz), classes):
        gn, gd = alpha.numerator * _dot(C, g.entries), alpha.denominator * den  # c.(alpha g)
        rn, rd = rn * gd - gn * rd, rd * gd
        common = gcd(rn, rd)
        rn, rd = rn // common, rd // common
        if best_g is None or (gn * bd, g.entries) < (bn * gd, best_g.entries):
            best_g, bn, bd = g, gn, gd
        if bn * rd < rn * bd:
            break
    if bn >= 0:
        # x is already optimal (possible only with multiple optima).
        return Optimal(), None
    entry = (best_g, _dot(C, best_g.entries), _image(P._b_image, best_g.entries))
    res = _scan(cint, it, [entry])
    if not isinstance(res[0], DdStep):  # pragma: no cover - would contradict a bounded LP
        raise AssertionError("the best term gives no maximal step under a bounded LP")
    return res


def _dot(C: Sequence[int], g: Sequence[int]) -> int:
    """The int dot product C.g."""
    return sum(a * b for a, b in zip(C, g) if a)


def _scan(cint: tuple[list[int], int], it: Iterate, table: list[ScanEntry]) -> RuleResult:
    """The feasible circuit step of maximal length with the largest
    improvement -c.(beta g), over the circuits of ``table``.

    Each entry is (g, slope, B g): a circuit in its improving orientation,
    its int slope C.g < 0 and its image, made once per run, so the scan
    does the ratio tests only.  A later circuit replaces the best only
    when it improves strictly more, so ties go to the earliest entry.
    ``it`` is a feasible iterate (X, S, D), and c comes as ints over one
    denominator, ``cint`` = (C, den) with c = C / den.  The ratio test
    reads the int slack S, and only a step of positive length forms
    Fractions, for beta and its improvement.  A DdStep comes with its
    image B g and limiting row, so the move along it tests no ratio again.
    """
    den = cint[1]
    _, S, D = it
    best: Optional[DdStep] = None
    limit = None
    for g, slope, bg in table:
        j = _ratio_test(S, bg)
        if j is None:
            return UnboundedImprovement(g), None
        if S[j] == 0:
            continue
        beta = Fraction(S[j], D * bg[j])
        gain = beta * Fraction(-slope, den)
        if best is None or gain > best.improvement:
            best, limit = DdStep(g, beta, gain), (bg, j)
    return (best, limit) if best is not None else (Optimal(), None)


class AugmentationTrace(Record):
    """The steps and iterates of one augmentation run.

    The objective strictly decreases along ``iterates`` and, when the run
    terminated normally, the final iterate is optimal.
    """

    __slots__ = ("steps", "iterates", "mode")
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
    decomposes x* - x against the same optimum x*.  The loop carries the
    iterate as (X, S, D) and c.x as the int C.X over den*D, moves it by
    ``polyhedron._move`` along each step, and makes a RatVec only for
    each recorded iterate.
    """
    step, it, (C, _) = _rule(P, c, x0, mode, work_budget)
    steps: list[DdStep] = []
    iterates: list[Point] = [x0]
    cx = _dot(C, it[0])  # c.x = cx / (den * D)
    while True:
        res, limit = step(it)
        if isinstance(res, Optimal):
            return AugmentationTrace(tuple(steps), tuple(iterates), mode)
        if isinstance(res, UnboundedImprovement):
            raise LpUnboundedError("improving circuit with unbounded step length")
        if len(steps) == max_iters:
            raise IterationCapExceeded(
                f"augmentation did not converge within {max_iters} iterations",
                AugmentationTrace(tuple(steps), tuple(iterates), mode),
            )
        moved = X, _, D = _move(*it, res.g.entries, *limit)
        moved_cx = _dot(C, X)
        if moved_cx * it[2] >= cx * D:  # pragma: no cover - steps always improve
            raise AssertionError("augmentation step failed to decrease the objective")
        steps.append(res)
        iterates.append(_point(X, D))
        it, cx = moved, moved_cx
