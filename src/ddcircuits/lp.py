"""Exact LP solving over pointed polyhedra: a two-phase primal simplex on
one integer tableau, run once per LP.

A row of B's integer image with one nonzero is +-e_j, since its row is
primitive, so it bounds x_j; the tightest lower and upper bound of each
coordinate are kept, and the other rows of B keep their slacks.  A
coordinate with a lower bound l is shifted to it (x_j = l + y_j, with
y_j <= u - l under an upper bound u); one with only an upper bound u is
reflected (x_j = u - y_j); one with neither is split (x_j = y+_j - y-_j).
When a bound is read, the variables are scaled by B's den, so that every
bound is an int, and each row is scaled by its own image's den, so that
every right-hand side is one.

Both phases pivot under the smallest-index rule, extended to upper
bounds (the upper-bounding technique of G. B. Dantzig, "Linear
Programming and Extensions", 1963).  The entering column is the smallest
with a negative cost entry.  It rises until a basic variable falls to 0,
a basic variable reaches its upper bound, or the column reaches its own
bound; the least step wins, and ties go to the smallest variable index,
the entering column's own included.  A variable at its upper bound u is
held complemented, as u - y, so every nonbasic variable is at 0 and the
entering test reads only signs.  A flip complements the entering column
and keeps the basis; a variable that leaves at its upper bound is
complemented in its row, the only one where it is nonzero, before the
pivot.  This is Bland's rule on the problem with the explicit rows
y + y' = u, so it terminates.

The tableau is an integer one, with the variable and slack columns, the
rhs, and no artificial columns.  Row i starts as a positive multiple of
U_i, the row of the system in the tableau's variables, with its slack
e_i (none for a row of A) and a nonnegative right-hand side that its
artificial column makes basic with entry 1.  Every row comes from the
polyhedron's integer images of A and B, in one loop, as s_i times its
primitive row in the tableau's variables, plus its slack, times a
positive factor, so no row of the system is read as Fractions.  Each
row is pivoted with ``ratlin._pivot``, so it stays a positive multiple
of its unit-basis form and its basic entry is positive.  An artificial
column never enters and no rule reads its entries, so it is not stored;
while artificial i is basic, its label ``ncols + i`` stays in the basis
for the ratio test's ties and the phase-1 checks.  The phase-1 cost row
is built already priced out, as minus the sum of the U_i (times the lcm
of their factors), and the phase-2 cost row is reduced against each
basic row alone (``ratlin._combine``): the rows a price-out pivot would
also visit are 0 in the basic column.  The entering test reads only
signs of the cost row; the ratio test compares rhs_i / a_i with
rhs_k / a_k as rhs_i * a_k against rhs_k * a_i; phase 1 is infeasible
when an artificial basic row keeps a positive right-hand side.  These
are the decisions of the unit-basis tableau with its artificial columns,
so the pivots are the same.

``solve_lp`` runs this simplex once and reads its answer off the one
final tableau: infeasible when two bounds contradict (l > u) or phase 1
keeps an artificial positive; an unbounded ray when nothing stops the
entering column; else the tableau's vertex.  The vertex and the ray are
read from the rows whose basic column is a variable, each divided by its
basic entry, and then the complements, signs, shifts and splits are
undone.

The reported optimum is always a vertex of the *original* polyhedron.
A basic solution of the tableau's problem can project to a non-vertex
point: a split coordinate with both halves nonbasic is 0, which no row of
P makes active.  So an optimum the tableau leaves open goes through
purification: ``polyhedron._walk`` moves along a vector of the kernel of
the active system, held as a block of columns, until one more
independent row becomes active and cuts the block, while the kernel is
not trivial.  The walk starts from ``polyhedron._block`` of the B-rows
active at the point, which drops each coordinate an active bound row
fixes, so a point at which active bounds fix every coordinate starts
from the empty block, with no elimination.  Each move keeps feasibility and the
objective value, and cuts a column, so at most n moves reach a true
vertex.  An optimum the
tableau proves unique (below) skips the walk: its optimal face is the
single point x, a face of dimension 0 of the pointed P, and so a vertex.

Uniqueness of an optimum is first read off the final phase-2 tableau
(Mangasarian, "Uniqueness of solution in linear programming", LAA 1979;
Appa, JORS 2002).  Every other optimum of the tableau's problem moves
some nonbasic variable off its bound, and one with a positive reduced
cost (in the complemented columns: negative at an upper bound) makes the
objective worse.  So when every nonbasic reduced cost is positive, except
the twin y-_j or y+_j of a basic split variable (its reduced cost is 0,
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

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence, Union

from .polyhedron import (
    UNBOUNDED,
    Point,
    Polyhedron,
    _active,
    _block,
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
    _primitive,
)
from .record import Record


class LpOptimal(
    Record,
    defaults={"unique": False, "objective": None, "_ints": None},
    hidden=("unique", "objective", "_ints"),
):
    """An optimal vertex and its value.

    ``unique`` is True when the one final simplex tableau proves the
    optimum unique (every nonbasic reduced cost positive, a basic split
    variable's twin aside).  False means the tableau does not decide it.
    ``objective`` is the c that ``solve_lp`` minimized, None for an
    optimum built by hand.  ``_ints`` is the vertex as ``solve_lp`` formed
    it, ints (X, D) over one denominator with vertex = X / D, None for an
    optimum built by hand.  None of the three takes part in equality, hash
    or repr.
    """

    __slots__ = ("vertex", "value", "unique", "objective", "_ints")
    vertex: Point
    value: Rat
    unique: bool
    objective: Optional[RatVec]
    _ints: Optional[tuple[list[int], int]]


class LpUnbounded(Record):
    __slots__ = ("direction",)
    direction: RatVec


class LpInfeasible(Record):
    __slots__ = ()


LpOutcome = Union[LpOptimal, LpUnbounded, LpInfeasible]


class UniquenessReport(Record):
    """Whether the optimal face is a single point; a witness otherwise.

    When ``unique`` is false the witness is feasible, attains the same
    objective value, and differs from the optimum it was checked against.
    """

    __slots__ = ("unique", "witness")
    unique: bool
    witness: Optional[Point]


class _Tableau(NamedTuple):
    """A final simplex tableau and how its columns read x.

    Column j < n is sign_j * (X_j - offset_j) for the scaled coordinate
    X_j = scale * x_j, and column n + p is the negative part of the split
    coordinate split[p], whose column is its positive part.  The slack
    columns follow.  A column in ``flipped`` holds its
    variable's complement upper[k] - y_k.
    """

    T: list[list[int]]
    basis: list[int]
    signs: list[int]
    offsets: list[int]
    split: list[int]
    scale: int
    upper: dict[int, int]
    flipped: set[int]


def _flip(T: list[list[int]], k: int, u: int, flipped: set[int]) -> None:
    """Complement column k of the rows T: its variable y becomes u - y, so
    each row with entry a there gets -a there and rhs - a*u.  The content
    of a row does not change, and rows are rebound, never changed in place."""
    for i, row in enumerate(T):
        a = row[k]
        if a:
            row = list(row)
            row[k], row[-1] = -a, row[-1] - a * u
            T[i] = row
    flipped.symmetric_difference_update((k,))


def _bland(
    T: list[list[int]], basis: list[int], ncols: int, upper: dict[int, int], flipped: set[int]
):
    """Minimize the cost row T[-1] over the integer constraint rows T[:-1],
    each variable k between 0 and ``upper[k]`` where it has one.

    The right-hand side is the last column, and only the first ``ncols``
    columns may enter.  Each row is a positive multiple of its unit-basis
    form, so a column may enter when its cost entry is negative.  Row i
    with entry a in the entering column stops it at rhs_i / a when a > 0
    (its basic variable falls to 0), and at (u * b_i - rhs_i) / -a when
    a < 0 and its basic variable, with basic entry b_i, has upper bound u;
    the column's own bound stops it at upper[enter].  Steps are compared
    by cross-multiplication, ties going to the smallest variable index.
    The entering column at its own bound is complemented (``_flip``,
    which updates ``flipped``); a variable leaving at its upper bound is
    complemented in its row before the pivot.  Returns ('optimal', None)
    or ('unbounded', entering column).
    """
    m = len(T) - 1
    while True:
        cost = T[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        if enter in upper:
            leave, num_best, den_best, label = -1, upper[enter], 1, enter
        for i in range(m):
            row = T[i]
            a = row[enter]
            if a > 0:
                num, den = row[-1], a
            elif a < 0 and basis[i] in upper:
                jb = basis[i]
                num, den = upper[jb] * row[jb] - row[-1], -a
            else:
                continue
            if leave is not None:
                lhs, rhs = num * den_best, num_best * den
                if lhs > rhs or (lhs == rhs and basis[i] > label):
                    continue
            leave, num_best, den_best, label = i, num, den, basis[i]
        if leave is None:
            return "unbounded", enter
        if leave < 0:
            _flip(T, enter, upper[enter], flipped)
            continue
        row = T[leave]
        if row[enter] < 0:
            jb = basis[leave]
            row = list(row)
            row[jb], row[-1] = -row[jb], row[-1] - row[jb] * upper[jb]
            T[leave] = row
            flipped.symmetric_difference_update((jb,))
        _pivot(T, leave, enter)
        basis[leave] = enter


def _unique_by_reduced_costs(
    cost: list[int], basis: list[int], n: int, split: Sequence[int]
) -> bool:
    """Whether an optimal phase-2 cost row proves the optimum unique.

    Column n + p is the negative part of the split coordinate split[p],
    whose column is its positive part.  Every nonbasic reduced cost must
    be positive, except that of a basic split variable's twin, which is 0
    and leaves x unchanged.
    """
    skip = set(basis)
    for p, j in enumerate(split):
        if j in skip or n + p in skip:
            skip.update((j, n + p))
    return all(r > 0 for j, r in enumerate(cost) if j not in skip)


def _purify_to_vertex(P: Polyhedron, c: RatVec, x: Point) -> tuple[Point, list[int], int]:
    """Walk within the optimal face until the active system has rank n:
    the vertex reached, with its int form (X, D), x = X/D, from the walk.

    Runs only for an optimum the tableau leaves open: one it proves unique
    is the whole optimal face, a single point, and so already a vertex.
    x is the simplex's feasible point; its slack is computed once and every
    move keeps x feasible, so the walk runs no membership checks.
    """
    X, S, D = _slack(P, x)
    for X, _, D, w in _walk(P, False, X, S, D, _block(P, _active(S), range(len(S)))):
        if sum(a * b for a, b in zip(c, w) if b) != 0:
            raise AssertionError(
                "purification direction changes the objective; solver invariant broken"
            )
    return _point(X, D), X, D


def _simplex(
    a_image: _IntImage, b_image: _IntImage, C: Sequence[int]
) -> tuple[str, Optional[_Tableau], Optional[int]]:
    """The two-phase simplex in ints: (status, tableau, enter) with status
    'infeasible', 'optimal' or 'unbounded' and, unless infeasible, the final
    phase-2 tableau and the unbounded entering column.

    The rows of B's image with one nonzero are read as bounds, and
    contradictory bounds end as 'infeasible' with no tableau.  The
    constraint rows are those of A, then the other rows of B, each from its
    polyhedron's integer image, in the scaled variables X = scale * x
    (scale 1 when no bound is read).  ``C`` is the objective as coprime
    ints.  Each row is U_i times the positive factor den * sd * scale,
    where U_i is s_i times the row's primitive row in the tableau's
    variables, plus its slack e_i, with a nonnegative right-hand side that
    the artificial column i would make basic with entry 1; a row of A has
    no slack column.  The artificial columns are not stored: they never
    enter and no rule reads them; only their labels ``ncols + i`` stay in
    the basis while basic.
    """
    n = len(C)
    lows: list[Optional[int]] = [None] * n  # x_j >= lows[j] / b_image.den
    highs: list[Optional[int]] = [None] * n  # x_j <= highs[j] / b_image.den
    kept = []  # the rows of B that keep their slack
    for i, nonzeros in enumerate(b_image.nonzeros):
        if len(nonzeros) == 1:
            ((j, a),) = nonzeros  # a = +-1: the row is primitive
            t = b_image.bounds[i]
            if a > 0:
                highs[j] = t if highs[j] is None else min(highs[j], t)
            else:
                lows[j] = -t if lows[j] is None else max(lows[j], -t)
        else:
            kept.append(i)
    if any(l is not None and u is not None and l > u for l, u in zip(lows, highs)):
        return "infeasible", None, None
    scale = b_image.den if len(kept) < len(b_image.rows) else 1

    signs, offsets, split, upper = [], [], [], {}
    for j, (l, u) in enumerate(zip(lows, highs)):
        if l is not None:
            signs.append(1)
            offsets.append(l)
            if u is not None:
                upper[j] = u - l
        elif u is not None:
            signs.append(-1)
            offsets.append(u)
        else:
            signs.append(1)
            offsets.append(0)
            split.append(j)
    twin = {j: n + p for p, j in enumerate(split)}
    nvars = n + len(split)
    ncols = nvars + len(kept)

    lines = []
    rows = [(a_image, i, None) for i in range(len(a_image.rows))]
    rows += [(b_image, i, nvars + k) for k, i in enumerate(kept)]
    for image, i, slack in rows:
        # The row s_i q_i . x (+ slack) = s_i bound_i / den, with s_i = sn / sd
        # and x_j = (offset_j + sign_j y_j - y-_j) / scale, times den * sd * scale.
        sn, sd = image.scales[i]
        f, w = image.den * sn, image.den * sd * scale
        line = [0] * (ncols + 1)
        shift = 0
        for j, a in image.nonzeros[i]:
            line[j] = f * a * signs[j]
            shift += a * offsets[j]
            if j in twin:
                line[twin[j]] = -f * a
        if slack is not None:
            line[slack] = w
        line[-1] = sn * (image.bounds[i] * scale - image.den * shift)
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
    flipped: set[int] = set()
    status, _ = _bland(T, basis, ncols, upper, flipped)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded below by 0
        raise AssertionError("phase-1 objective reported unbounded")
    T.pop()
    if any(T[i][-1] > 0 for i in range(m) if basis[i] >= ncols):
        return "infeasible", None, None

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

    # Phase 2: the real objective, on the complemented columns negated, and
    # reduced against each basic row.
    row2 = [a * s for a, s in zip(C, signs)] + [-C[j] for j in split] + [0] * (len(kept) + 1)
    for k in flipped:
        row2[k] = -row2[k]
    for row, jb in zip(T, basis):
        f = row2[jb]
        if f:
            row2 = _combine(row2, row[jb], f, [(j, b) for j, b in enumerate(row) if b])
    T.append(row2)
    status, enter = _bland(T, basis, ncols, upper, flipped)
    tableau = _Tableau(T, basis, signs, offsets, split, scale, upper, flipped)
    return status, tableau, enter


def _to_x(tab: _Tableau, y: list[tuple[int, int]], at: int) -> tuple[list[int], int]:
    """(X, D): x = X/D from the values num / den > 0 of the tableau's
    variables, with their complements, shifts, signs and splits undone,
    as ints over D = L * scale with L the lcm of the dens.  ``at`` is 1
    for a point and 0 for a direction, which has no shift."""
    n = len(tab.signs)
    for k in tab.flipped:
        num, den = y[k]
        y[k] = (at * tab.upper[k] * den - num, den)
    L = lcm(*[den for _, den in y])
    X = [
        (at * o * den + s * num) * (L // den)
        for o, s, (num, den) in zip(tab.offsets, tab.signs, y)
    ]
    for p, j in enumerate(tab.split):
        num, den = y[n + p]
        if num:
            X[j] -= num * (L // den)
    return X, L * tab.scale


def _vertex(tab: _Tableau) -> tuple[Point, list[int], int]:
    """The point x of a tableau's basic solution, with its int form (X, D),
    x = X/D: each basic variable is its row's rhs over its basic entry,
    each nonbasic one 0."""
    y = [(0, 1)] * (len(tab.signs) + len(tab.split))
    for row, jb in zip(tab.T, tab.basis):
        if jb < len(y):
            y[jb] = (row[-1], row[jb])
    X, D = _to_x(tab, y, 1)
    return _point(X, D), X, D


def _ray(tab: _Tableau, enter: int) -> RatVec:
    """The unbounded ray of a tableau whose column ``enter`` nothing stops:
    that variable moves by 1 and each basic one by minus its row's entry
    over its basic entry."""
    y = [(0, 1)] * (len(tab.signs) + len(tab.split))
    if enter < len(y):
        y[enter] = (1, 1)
    for row, jb in zip(tab.T, tab.basis):
        if jb < len(y):
            y[jb] = (-row[enter], row[jb])
    return _point(*_to_x(tab, y, 0))


def solve_lp(P: Polyhedron, c: RatVec) -> LpOutcome:
    """Minimize c over P exactly, with one run of the simplex.

    Returns an optimal vertex with its value, a certified unbounded
    improving ray (Ar = 0, Br <= 0, c.r < 0), or infeasibility.  P is
    pointed, as every Polyhedron is, so an optimum is attained at a vertex.
    c is read once as ints over one denominator, c = C/den; the simplex
    takes C made primitive, and the value of the vertex x = X/D is C.X over
    den*D, with (X, D) as the tableau or the purifying walk hands it over.
    """
    if c.dim != P.n:
        raise ValueError(f"objective has dimension {c.dim}, expected {P.n}")
    C, den = _int_vector(c)
    status, tab, enter = _simplex(P._a_image, P._b_image, _primitive(C))
    if status == "infeasible":
        return LpInfeasible()
    if status == "unbounded":
        return LpUnbounded(_ray(tab, enter))
    x, X, D = _vertex(tab)
    unique = _unique_by_reduced_costs(tab.T[-1][:-1], tab.basis, P.n, tab.split)
    if not unique:
        x, X, D = _purify_to_vertex(P, c, x)
    value = Fraction(sum(a * b for a, b in zip(C, X) if a), den * D)
    return LpOptimal(x, value, unique, c, (X, D))


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
    for end, _, den, _ in _walk(P, False, X, S, D, _block(P, _active(S), range(len(S)))):
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
