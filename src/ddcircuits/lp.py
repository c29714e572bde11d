"""Exact LP solving over pointed polyhedra: two-phase primal simplex.

Free variables are split into nonnegative positive and negative parts and
every inequality row receives a slack variable.  Both phases pivot under
the smallest-index anti-cycling rule (smallest eligible entering column;
ratio ties broken by smallest basic variable index), so the solver always
terminates and is fully deterministic.

The tableau is an integer one: each row, the cost rows included, is
scaled to coprime integers and pivoted with ``ratlin._pivot``, so row i is
a positive multiple of its unit-basis form and its basic entry is
positive.  The entering test reads only signs of the cost row; the ratio
test compares rhs_i / a_i with rhs_k / a_k as rhs_i * a_k against
rhs_k * a_i; phase 1 is infeasible when an artificial basic row keeps a
positive right-hand side.  These are the decisions of the unit-basis
tableau, so the pivots are the same.  The vertex and the unbounded ray
divide each row's entries by its basic entry.

The reported optimum is always a vertex of the *original* polyhedron.
A basic solution of the split formulation can project to a non-vertex
point (the split system has more vertices than the original one), so the
solver finishes with purification: ``polyhedron._walk`` moves along a
kernel direction of the active system until one more independent row
becomes active, while the active rows have rank below n.  Each move keeps
feasibility and the objective value, and raises the active rank, so at
most n moves reach a true vertex.

Uniqueness of an optimum is first read off the final phase-2 tableau
(Mangasarian, "Uniqueness of solution in linear programming", LAA 1979;
Appa, JORS 2002).  Every other optimum of the split problem raises some
nonbasic variable from 0, and one with a positive reduced cost makes the
objective worse.  So when every nonbasic reduced cost is positive, except
the twin x-_j or x+_j of a basic split variable (its reduced cost is 0,
and raising it leaves x unchanged), the optimum is unique; ``LpOptimal``
records this as ``unique``.  A free variable with both halves nonbasic has
reduced costs r and -r and fails the test, as it should.  Degenerate
optima can be unique with a zero reduced cost, so a failed test decides
nothing, and ``verify_unique`` falls back to the general check.  There,
let I be the B-rows active at x*.  The optimal face is {x*} exactly when
the cone {w : Aw = 0, c.w = 0, B_I w <= 0} is {0}.  If [A; B_I] has a
kernel, x* is not a vertex and the walk's first move already leaves it
within the optimal face.  Otherwise the cone is pointed, and one LP over
its slice -1^T B_I w <= 1 maximizes -1^T B_I w, a quantity that is
positive on every nonzero cone vector; its optimum is 0 exactly when the
cone is {0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .polyhedron import (
    Point,
    Polyhedron,
    _extend_active,
    _image,
    _move,
    _point,
    _ratio_test,
    _slack,
    _walk,
    is_feasible,
)
from .ratlin import Rat, RatMat, RatVec, _pivot, coprime_integer_entries


@dataclass(frozen=True)
class LpOptimal:
    """An optimal vertex and its value.

    ``unique`` is True when the final simplex tableau proves the optimum
    unique (every nonbasic reduced cost positive); False means the tableau
    does not decide it.  It takes no part in equality or repr.
    """

    vertex: Point
    value: Rat
    unique: bool = field(default=False, compare=False, repr=False)


@dataclass(frozen=True)
class LpUnbounded:
    direction: RatVec


@dataclass(frozen=True)
class LpInfeasible:
    pass


LpOutcome = Union[LpOptimal, LpUnbounded, LpInfeasible]


@dataclass(frozen=True)
class UniquenessReport:
    """Whether the optimal face is a single point; a witness otherwise.

    When ``unique`` is false the witness is feasible, attains the same
    objective value, and differs from the optimum it was checked against.
    """

    unique: bool
    witness: Optional[Point]


def _bland(T: list[list[int]], basis: list[int], ncols: int):
    """Minimize the cost row T[-1] over the integer constraint rows T[:-1].

    The right-hand side is the last column, and only the first ``ncols``
    columns may enter.  Each row is a positive multiple of its unit-basis
    form, so a column may enter when its cost entry is negative, and row
    i's ratio rhs_i / a_i is compared with the best row's by
    cross-multiplication.  Returns ('optimal', None) or ('unbounded',
    entering column).
    """
    m = len(T) - 1
    while True:
        cost = T[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave, rhs_best, a_best = i, T[i][-1], a
                    continue
                lhs, rhs = T[i][-1] * a_best, rhs_best * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, rhs_best, a_best = i, T[i][-1], a
        if leave is None:
            return "unbounded", enter
        _pivot(T, leave, enter)
        basis[leave] = enter


def _unique_by_reduced_costs(cost: list[int], basis: list[int], n: int) -> bool:
    """Whether an optimal phase-2 cost row proves the optimum unique.

    Columns are [x+ | x- | slacks].  Every nonbasic reduced cost must be
    positive, except that of a basic split variable's twin (x-_j for a
    basic x+_j, and back), which is 0 and leaves x unchanged.
    """
    skip = set(basis)
    skip.update((j + n) % (2 * n) for j in basis if j < 2 * n)
    return all(r > 0 for j, r in enumerate(cost) if j not in skip)


def _purify_to_vertex(P: Polyhedron, c: RatVec, x: Point) -> Point:
    """Walk within the optimal face until the active system has rank n.

    x is the simplex's feasible point; its slack is computed once and every
    move keeps x feasible, so the walk runs no membership checks.
    """
    X, S, D = _slack(P, x)
    moved = False
    for X, _, D, w in _walk(P, None, X, S, D, _extend_active(P, P._a_echelon, S)):
        moved = True
        if sum(a * b for a, b in zip(c, w) if b) != 0:
            raise AssertionError(
                "purification direction changes the objective; solver invariant broken"
            )
    return _point(X, D) if moved else x


def solve_lp(P: Polyhedron, c: RatVec) -> LpOutcome:
    """Minimize c over P exactly.

    Returns an optimal vertex with its value, a certified unbounded
    improving ray (Ar = 0, Br <= 0, c.r < 0), or infeasibility.  P is
    pointed, as every Polyhedron is, so an optimum is attained at a vertex.
    """
    if c.dim != P.n:
        raise ValueError(f"objective has dimension {c.dim}, expected {P.n}")
    n, m_b = P.n, P.B.m
    ncols = 2 * n + m_b
    m = P.A.m + m_b

    # One integer tableau: a row [x+ | x- | slacks | artificials | rhs] per
    # constraint, scaled to coprime integers with a nonnegative right-hand
    # side, then the cost row.  Phase 1 starts from the artificial basis
    # and minimizes their sum.
    T: list[list[int]] = []
    for i, (row, rhs) in enumerate(zip(P.A.entries + P.B.entries, P.b.entries + P.d.entries)):
        unit = [1 if k == i else 0 for k in range(m)]
        line = list(row) + [-a for a in row] + unit[P.A.m :] + [rhs]
        if rhs < 0:
            line = [-a for a in line]
        T.append(list(coprime_integer_entries(line[:-1] + unit + line[-1:])))
    T.append([0] * ncols + [1] * m + [0])
    basis = [ncols + i for i in range(m)]
    for i, jb in enumerate(basis):  # price out the basis
        _pivot(T, i, jb)
    status, _ = _bland(T, basis, ncols)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below by 0
        raise AssertionError("phase-1 objective reported unbounded")
    if any(T[i][-1] > 0 for i in range(m) if basis[i] >= ncols):
        return LpInfeasible()

    # Drive artificials out of the basis; rows they cannot leave are redundant.
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            j = next((j for j in range(ncols) if T[i][j] != 0), None)
            if j is None:
                continue
            _pivot(T, i, j)
            basis[i] = j
        keep.append(i)
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective over the split variables.
    T = [T[i][:ncols] + T[i][-1:] for i in keep]
    cost = coprime_integer_entries(c.entries + tuple(-a for a in c.entries))
    T.append(list(cost) + [0] * (m_b + 1))
    for i, jb in enumerate(basis):
        _pivot(T, i, jb)
    status, enter = _bland(T, basis, ncols)

    # Row i reads its basic variable basis[i] after division by its entry.
    if status == "unbounded":
        ray = [Fraction(0)] * ncols
        ray[enter] = Fraction(1)
        for i, jb in enumerate(basis):
            ray[jb] = Fraction(-T[i][enter], T[i][jb])
        direction = RatVec(ray[j] - ray[n + j] for j in range(n))
        return LpUnbounded(direction)

    w = [Fraction(0)] * ncols
    for i, jb in enumerate(basis):
        w[jb] = Fraction(T[i][-1], T[i][jb])
    x = RatVec(w[j] - w[n + j] for j in range(n))
    x = _purify_to_vertex(P, c, x)
    return LpOptimal(x, c.dot(x), _unique_by_reduced_costs(T[-1][:ncols], basis, n))


def verify_unique(
    P: Polyhedron, c: RatVec, xstar: Point, *, optimum: Optional[LpOptimal] = None
) -> UniquenessReport:
    """Decide whether xstar is the only optimum of min c over P.

    ``optimum`` is the caller's ``solve_lp(P, c)`` outcome; without it the
    LP is solved here once to learn the optimal value.  Passing an
    infeasible or non-optimal xstar is a usage error (ValueError).  P is
    pointed, as every Polyhedron is.

    When xstar is the optimal vertex and its tableau's reduced costs
    proved it unique (``optimum.unique``, which only ``solve_lp`` sets),
    the answer is unique with no further work; for the caller's own
    vertex only its value is compared, since the solver built it
    feasible.  Otherwise, with I the B-rows active at xstar: a
    nonzero kernel vector w of [A; B_I] means xstar is not a vertex, and
    the witness is the end of the active-set walk's first move, where the
    ray from xstar along w (or -w) leaves P.  Else one LP minimizes
    (1^T B_I).w over the pointed region {w : Aw = 0, c.w = 0, B_I w <= 0,
    -1^T B_I w <= 1}.  Its optimum is 0 exactly when xstar is unique; else
    its vertex w is a nonzero direction of the optimal face, and the
    witness is xstar + max_step*w, or xstar + w when the optimal face is
    unbounded along w.
    """
    own_vertex = optimum is not None and optimum.unique and xstar == optimum.vertex
    if not own_vertex and not is_feasible(P, xstar):
        raise ValueError("xstar is not feasible")
    if optimum is None:
        optimum = solve_lp(P, c)
        if not isinstance(optimum, LpOptimal):
            raise ValueError("xstar cannot be optimal: the LP has no optimum")
    if optimum.value != c.dot(xstar):
        raise ValueError("xstar is not optimal for the given objective")
    if optimum.unique and xstar == optimum.vertex:
        return UniquenessReport(True, None)

    X, S, D = _slack(P, xstar)
    for X1, _, D1, _ in _walk(P, None, X, S, D, _extend_active(P, P._a_echelon, S)):
        return UniquenessReport(False, _point(X1, D1))

    B_I = [row for row, s in zip(P.B.entries, S) if s == 0]
    row_sum = RatVec(sum((row[k] for row in B_I), Fraction(0)) for k in range(P.n))
    cone = Polyhedron(
        RatMat(P.A.entries + (c.entries,), cols=P.n),
        RatVec.zeros(P.A.m + 1),
        RatMat(B_I + [(-row_sum).entries], cols=P.n),
        RatVec([0] * len(B_I) + [1]),
    )
    out = solve_lp(cone, row_sum)
    if not isinstance(out, LpOptimal):  # pragma: no cover - the region is a polytope containing 0
        raise AssertionError("the tangent-cone LP has no optimum")
    if out.value == 0:
        return UniquenessReport(True, None)
    w = out.vertex  # nonzero, with A w = 0
    W = coprime_integer_entries(w.entries)  # a positive multiple of w
    image = _image(P, W)
    j = _ratio_test(S, image)
    if j is None:
        return UniquenessReport(False, xstar + w)
    X, _, D = _move(X, S, D, W, image, j)
    return UniquenessReport(False, _point(X, D))
