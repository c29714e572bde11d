"""Exact LP solving over pointed polyhedra: two-phase primal simplex.

Free variables are split into nonnegative positive and negative parts and
every inequality row receives a slack variable.  Both phases pivot under
the smallest-index anti-cycling rule (smallest eligible entering column;
ratio ties broken by smallest basic variable index), so the solver always
terminates and is fully deterministic.

The tableau is an integer one, with the columns [x+ | x- | slacks | rhs]
and no artificial columns.  Row i starts as a positive multiple of U_i,
the row [a_i | -a_i | e_i | rhs_i] with a nonnegative right-hand side
that its artificial column makes basic with entry 1.  Every row comes
from the polyhedron's integer images of A and B, in one loop, as
s_i [q_i | -q_i | e_i/s_i | rhs_i/s_i] times a positive factor, where a
row of A has no slack column e_i, so no row of the system is read as
Fractions.  Each row is pivoted with ``ratlin._pivot``, so it stays a
positive multiple of its unit-basis form and its basic entry is
positive.  An artificial column never enters and no rule reads its
entries, so it is not stored; while artificial i is basic, its label
``ncols + i`` stays in the basis for the ratio test's ties and the
phase-1 checks.  The phase-1 cost row is built already priced out, as
minus the sum of the U_i (times the lcm of their factors), and the
phase-2 cost row is reduced against each basic row alone
(``ratlin._combine``): the rows a price-out pivot would also visit are 0
in the basic column.  The entering test reads only signs of the cost
row; the ratio test compares rhs_i / a_i with rhs_k / a_k as
rhs_i * a_k against rhs_k * a_i; phase 1 is infeasible when an
artificial basic row keeps a positive right-hand side.  These are the
decisions of the unit-basis tableau with its artificial columns, so the
pivots are the same.  The vertex and the unbounded ray are read from the
rows whose basic column is one of x+ or x-, each divided by its basic
entry.

The reported optimum is always a vertex of the *original* polyhedron.
A basic solution of the split formulation can project to a non-vertex
point (the split system has more vertices than the original one), so an
optimum the tableau leaves open goes through purification:
``polyhedron._walk`` moves along a kernel direction of the active system
until one more independent row becomes active, while the active rows
have rank below n.  Each move keeps feasibility and the objective value,
and raises the active rank, so at most n moves reach a true vertex.  An
optimum the tableau proves unique (below) skips the walk: its optimal
face is the single point x, a face of dimension 0 of the pointed P, and
so a vertex.

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
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .polyhedron import (
    UNBOUNDED,
    Point,
    Polyhedron,
    _extend_active,
    _feasible_slack,
    _IntImage,
    _max_step,
    _point,
    _slack,
    _walk,
)
from .ratlin import (
    Rat,
    RatVec,
    _combine,
    _int_vector,
    _pivot,
    coprime_integer_entries,
)


@dataclass(frozen=True)
class LpOptimal:
    """An optimal vertex and its value.

    ``unique`` is True when the final simplex tableau proves the optimum
    unique (every nonbasic reduced cost positive); False means the tableau
    does not decide it.  ``objective`` is the c that ``solve_lp`` minimized,
    None for an optimum built by hand.  Neither takes part in equality or
    repr.
    """

    vertex: Point
    value: Rat
    unique: bool = field(default=False, compare=False, repr=False)
    objective: Optional[RatVec] = field(default=None, compare=False, repr=False)


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

    Runs only for an optimum the tableau leaves open: one it proves unique
    is the whole optimal face, a single point, and so already a vertex.
    x is the simplex's feasible point; its slack is computed once and every
    move keeps x feasible, so the walk runs no membership checks.
    """
    X, S, D = _slack(P, x)
    for X, _, D, w in _walk(P, None, X, S, D, _extend_active(P, P._a_echelon, S)):
        if sum(a * b for a, b in zip(c, w) if b) != 0:
            raise AssertionError(
                "purification direction changes the objective; solver invariant broken"
            )
    return _point(X, D)


def _simplex(
    a_image: _IntImage, b_image: _IntImage, cost: Sequence[int]
) -> tuple[str, list[list[int]], list[int], Optional[int]]:
    """The two-phase simplex in ints: (status, T, basis, enter) with status
    'infeasible', 'optimal' or 'unbounded' and, unless infeasible, the final
    phase-2 tableau, its basis and the unbounded entering column.

    The constraint rows are those of A, then those of B, each from its
    polyhedron's integer image; the columns are [x+ | x- | slacks | rhs]
    and ``cost`` is the phase-2 cost of x+ and x-.  Each row is U_i times
    a positive factor, where U_i is the row [a_i | -a_i | e_i | rhs_i]
    with a nonnegative right-hand side that the artificial column i would
    make basic with entry 1; a row of A has no slack column.  The
    artificial columns are not stored: they never enter and no rule reads
    them; only their labels ``ncols + i`` stay in the basis while basic.
    """
    n = len(cost) // 2
    m_b = len(b_image.rows)
    ncols = 2 * n + m_b
    lines = []
    for image, slack in ((a_image, None), (b_image, 2 * n)):
        for i, (nonzeros, bound, (sn, sd)) in enumerate(
            zip(image.nonzeros, image.bounds, image.scales)
        ):
            # U_i = s_i * [q_i | -q_i | e_i / s_i | bound_i / den], times den * sd.
            f, w = image.den * sn, image.den * sd
            line = [0] * (ncols + 1)
            for j, a in nonzeros:
                line[j], line[n + j] = f * a, -f * a
            if slack is not None:
                line[slack + i] = w
            line[-1] = sn * bound
            lines.append((line, w))

    # Phase 1 minimizes the sum of the artificials.  Priced out against the
    # artificial basis, its cost row is minus the sum of the U_i, here
    # times the lcm L of the factors.
    L = lcm(*[w for _, w in lines])  # a list, as in ``ratlin._int_vector``
    T: list[list[int]] = []
    phase1 = [0] * (ncols + 1)
    for line, w in lines:
        if line[-1] < 0:
            line = [-a for a in line]
        k = L // w
        for j, a in enumerate(line):
            if a:
                phase1[j] -= k * a
        g = gcd(*line)
        if g > 1:
            line = [a // g for a in line]
        T.append(line)
    m = len(T)
    g = gcd(*phase1)
    T.append([a // g for a in phase1] if g > 1 else phase1)
    basis = [ncols + i for i in range(m)]
    status, _ = _bland(T, basis, ncols)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below by 0
        raise AssertionError("phase-1 objective reported unbounded")
    T.pop()
    if any(T[i][-1] > 0 for i in range(m) if basis[i] >= ncols):
        return "infeasible", T, basis, None

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
    T = [T[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective, reduced against each basic row.
    row2 = list(cost) + [0] * (m_b + 1)
    for row, jb in zip(T, basis):
        f = row2[jb]
        if f:
            row2 = _combine(row2, row[jb], f, [(j, b) for j, b in enumerate(row) if b])
    T.append(row2)
    status, enter = _bland(T, basis, ncols)
    return status, T, basis, enter


def solve_lp(P: Polyhedron, c: RatVec) -> LpOutcome:
    """Minimize c over P exactly.

    Returns an optimal vertex with its value, a certified unbounded
    improving ray (Ar = 0, Br <= 0, c.r < 0), or infeasibility.  P is
    pointed, as every Polyhedron is, so an optimum is attained at a vertex.
    """
    if c.dim != P.n:
        raise ValueError(f"objective has dimension {c.dim}, expected {P.n}")
    n = P.n
    cost = coprime_integer_entries([*c.entries] + [-a for a in c.entries])
    status, T, basis, enter = _simplex(P._a_image, P._b_image, cost)
    if status == "infeasible":
        return LpInfeasible()

    # Row i reads its basic variable basis[i] after division by its entry;
    # only the columns of x+ and x- are read.
    split = 2 * n
    if status == "unbounded":
        ray = [Fraction(0)] * split
        if enter < split:
            ray[enter] = Fraction(1)
        for i, jb in enumerate(basis):
            if jb < split:
                ray[jb] = Fraction(-T[i][enter], T[i][jb])
        return LpUnbounded(RatVec(ray[j] - ray[n + j] for j in range(n)))

    w = [Fraction(0)] * split
    for i, jb in enumerate(basis):
        if jb < split:
            w[jb] = Fraction(T[i][-1], T[i][jb])
    x = RatVec(w[j] - w[n + j] for j in range(n))
    unique = _unique_by_reduced_costs(T[-1][:-1], basis, n)
    if not unique:
        x = _purify_to_vertex(P, c, x)
    return LpOptimal(x, c.dot(x), unique, c)


def verify_unique(
    P: Polyhedron, c: RatVec, xstar: Point, *, optimum: Optional[LpOptimal] = None
) -> UniquenessReport:
    """Decide whether xstar is the only optimum of min c over P.

    ``optimum`` is the caller's ``solve_lp(P, c)`` outcome; without it the
    LP is solved here once to learn the optimal value.  Passing an
    infeasible or non-optimal xstar is a usage error (ValueError).  P is
    pointed, as every Polyhedron is.

    When the caller's ``optimum`` is ``solve_lp``'s own for this c (its
    ``objective`` is c), xstar is its vertex and the tableau's reduced
    costs proved it unique (``optimum.unique``), the answer is unique with
    no further work: the solver built xstar feasible and of value
    ``optimum.value``.  A hand-built optimum carries no objective, so its
    ``unique`` is not trusted and xstar is checked as for any other
    optimum; so is an xstar whose LP is solved here, after its check.
    Otherwise, with I the B-rows active at xstar: a nonzero kernel vector
    w of [A; B_I] means xstar is not a vertex, and the witness is the end
    of the active-set walk's first move, where the ray from xstar along w
    (or -w) leaves P.  Else one LP minimizes (1^T B_I).w over the pointed
    region {w : Aw = 0, c.w = 0, B_I w <= 0, -1^T B_I w <= 1}.  Its
    optimum is 0 exactly when xstar is unique; else its vertex w is a
    nonzero direction of the optimal face, and the witness is
    xstar + max_step*w, or xstar + w when the optimal face is unbounded
    along w.  The slack of xstar is computed once, by the feasibility
    check, and serves the walk and ``max_step``'s step.  The cone's rows
    come from the integer images of A and B, as ints.
    """
    proven = optimum is not None and optimum.unique and optimum.objective == c
    if proven and xstar == optimum.vertex:
        return UniquenessReport(True, None)
    slack = _feasible_slack(P, xstar)
    if slack is None:
        raise ValueError("xstar is not feasible")
    if optimum is None:
        optimum = solve_lp(P, c)
        if not isinstance(optimum, LpOptimal):
            raise ValueError("xstar cannot be optimal: the LP has no optimum")
    if optimum.value != c.dot(xstar):
        raise ValueError("xstar is not optimal for the given objective")

    X, S, D = slack
    for end, _, den, _ in _walk(P, None, X, S, D, _extend_active(P, P._a_echelon, S)):
        return UniquenessReport(False, _point(end, den))

    a_rows, b_rows = (
        [([sn * a for a in q], sd) for q, (sn, sd) in zip(image.rows, image.scales)]
        for image in (P._a_image, P._b_image)
    )
    B_I = [row for row, s in zip(b_rows, S) if s == 0]
    L = lcm(*[sd for _, sd in B_I])
    N = [sum(row[k] * (L // sd) for row, sd in B_I) for k in range(P.n)]
    common = gcd(L, *N)  # 1^T B_I = N / L over its least common denominator
    N, L = [e // common for e in N], L // common
    cone = Polyhedron._from_ints(
        P.n,
        a_rows + [_int_vector(c)],
        [(0, 1)] * (len(a_rows) + 1),
        B_I + [([-e for e in N], L)],
        [(0, 1)] * len(B_I) + [(1, 1)],
    )
    out = solve_lp(cone, _point(N, L))
    if not isinstance(out, LpOptimal):  # pragma: no cover - the region is a polytope containing 0
        raise AssertionError("the tangent-cone LP has no optimum")
    if out.value == 0:
        return UniquenessReport(True, None)
    w = out.vertex  # nonzero, with A w = 0
    beta = _max_step(P, S, D, w)
    return UniquenessReport(False, xstar + (w if beta is UNBOUNDED else beta * w))
