"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the code paths they verify: uniqueness comes
from probing every coordinate of the optimal face rather than from the
tangent cone, and cycle indicators come from a plain graph walk, not from
any kernel or cone computation.  The determinant oracles use no
elimination at all: determinants by cofactor expansion, rank as the order
of the largest nonzero minor, circuits as signed maximal minors, and
vertices as the feasible solutions of square subsystems by Cramer's
rule, and the flats the circuit scan visits as the closed row sets whose
greedy basis leaves room for a circuit.  The artificial-column simplex is
the split reading ``lp`` built before it read the +-e_j rows of B as
bounds and took B's rows from the integer image: every coordinate split,
a slack per row of B, one artificial column per row, a price-out pivot
per basic row in each phase, and the rows scaled from their Fractions.
Augmentation in each mode is the plain loop over that mode's public
single step, which checks each iterate, prepares its rule afresh (the LP
in approx mode, the circuit list in exact mode) and moves the point with
RatVec arithmetic.  The dense elimination step, column step and product
form every term, zeros included; they are the references for the
zero-skipping, fraction-free versions in ``ratlin``.  The Fraction ratio test, walk and conformal
terms are the references for the int forms in ``polyhedron`` and
``conformal``: they carry every point, slack and step length as
Fractions, take the slack d - Bx and the image Bw with the rational B,
not in row units, and read each kernel from ``kernel_basis`` of the
rational rows of A and of the tight rows of B, not from the walk's
column steps.  The incidence matrix of a digraph is read from its arc
list, and the tangent cone of ``verify_unique`` is built from the
rational views of A and B.  The steps from a 0/1 flow on a circulation
are the directed cycles of its residual digraph, found by the same plain
graph walk as the cycle indicators.  The row reader reads each token of
a line on its own, by its own pattern, into a Fraction.
"""

import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from ddcircuits import (
    AugmentationTrace,
    Digraph,
    IterationCapExceeded,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    LpUnboundedError,
    Optimal,
    ParseError,
    Polyhedron,
    RatVec,
    UNBOUNDED,
    UnboundedImprovement,
    approx_dd_step,
    exact_dd_step,
    is_feasible,
    solve_lp,
)
from ddcircuits.circuits import Circuit
from ddcircuits.lp import _purify_to_vertex, _unique_by_reduced_costs
from ddcircuits.ratlin import (
    RatMat,
    _pivot,
    coprime_integer_entries,
    kernel_basis,
    sign_normalized,
)


def brute_force_vertices(P: Polyhedron) -> list[RatVec]:
    """All vertices of P: the feasible solutions of the nonsingular n-row
    subsystems of [A; B] x = [b; d], each by ``cramer``.  Cofactor
    determinants cost n! terms, so this is for n <= 4."""
    rows = P.A.entries + P.B.entries
    rhs = P.b.entries + P.d.entries
    seen = set()
    for combo in combinations(range(len(rows)), P.n):
        x = cramer([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is not None and is_feasible(P, RatVec(x)):
            seen.add(tuple(x))
    return [RatVec(v) for v in sorted(seen)]


def min_over_vertices(P: Polyhedron, c: RatVec) -> Fraction:
    verts = brute_force_vertices(P)
    assert verts, "brute-force oracle found no vertices"
    return min(c.dot(v) for v in verts)


def probe_unique(P: Polyhedron, c: RatVec, xstar: RatVec) -> tuple[bool, RatVec | None]:
    """Uniqueness of the optimum xstar by 2n coordinate probes of the optimal face.

    The face {x in P : c.x = c.xstar} is a single point exactly when
    minimizing and maximizing every coordinate over it returns xstar's
    coordinate each time.  Returns (unique, witness); an unbounded probe
    direction r gives the witness xstar + r.
    """
    face = Polyhedron(
        RatMat(P.A.entries + (c.entries,), cols=P.n),
        RatVec([*P.b, c.dot(xstar)]),
        P.B,
        P.d,
    )
    for i in range(P.n):
        unit = RatVec([1 if k == i else 0 for k in range(P.n)])
        for obj, target in ((unit, xstar[i]), (-unit, -xstar[i])):
            probe = solve_lp(face, obj)
            if isinstance(probe, LpUnbounded):
                return False, xstar + probe.direction
            assert isinstance(probe, LpOptimal)
            if probe.value != target:
                return False, probe.vertex
    return True, None


def incidence_matrix(G: Digraph) -> RatMat:
    """Node-arc incidence of G as Fractions: +1 at the tail and -1 at the
    head of every arc, one column per arc in arc order."""
    rows = [[Fraction(0)] * G.m for _ in range(G.nodes)]
    for j, (tail, head) in enumerate(G.arcs):
        rows[tail - 1][j] += 1
        rows[head - 1][j] -= 1
    return RatMat(rows, cols=G.m)


def tangent_cone(P: Polyhedron, c: RatVec, xstar: RatVec) -> tuple[Polyhedron, RatVec]:
    """The region and objective of ``verify_unique``'s tangent-cone LP at
    xstar, built from the rational views: {w : Aw = 0, c.w = 0, B_I w <= 0,
    -1^T B_I w <= 1} with I the B-rows tight at xstar, and 1^T B_I."""
    B_I = [row for row, d in zip(P.B.entries, P.d) if sum(a * x for a, x in zip(row, xstar)) == d]
    row_sum = RatVec([sum((row[k] for row in B_I), Fraction(0)) for k in range(P.n)])
    cone = Polyhedron(
        RatMat(P.A.entries + (c.entries,), cols=P.n),
        RatVec.zeros(P.A.m + 1),
        RatMat(B_I + [(-row_sum).entries], cols=P.n),
        RatVec([0] * len(B_I) + [1]),
    )
    return cone, row_sum


# The public single step of each augmentation mode.
PUBLIC_STEPS = {
    "exact": exact_dd_step,
    "approx": approx_dd_step,
}


def per_step_augment(
    P: Polyhedron, c: RatVec, x0: RatVec, mode: str, *, max_iters: int = 10_000
) -> AugmentationTrace:
    """Augmentation that calls the public single step of ``mode`` at every
    iterate, and so prepares the rule again for every step.

    Same contract as ``augment(P, c, x0, mode, max_iters=...)``: a run
    that needs one more step after ``max_iters`` raises
    IterationCapExceeded with the partial trace attached, and an improving
    circuit with no finite step raises LpUnboundedError.
    """
    steps, iterates, x = [], [x0], x0
    while True:
        res = PUBLIC_STEPS[mode](P, c, x)
        if isinstance(res, Optimal):
            return AugmentationTrace(tuple(steps), tuple(iterates), mode)
        if isinstance(res, UnboundedImprovement):
            raise LpUnboundedError("improving circuit with unbounded step length")
        if len(steps) == max_iters:
            raise IterationCapExceeded(
                f"augmentation did not converge within {max_iters} iterations",
                AugmentationTrace(tuple(steps), tuple(iterates), mode),
            )
        x = x + res.alpha * res.g.vec
        steps.append(res)
        iterates.append(x)


def det(rows) -> Fraction:
    """Determinant of a square matrix by cofactor expansion along row 0."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def cramer(rows, rhs) -> list[Fraction] | None:
    """The solution of the square system rows x = rhs by Cramer's rule,
    x_j = det(rows with column j replaced by rhs) / det(rows), or None
    when det(rows) = 0."""
    rows = [tuple(row) for row in rows]
    full = det(rows)
    if full == 0:
        return None
    return [
        det([row[:j] + (b,) + row[j + 1 :] for row, b in zip(rows, rhs)]) / full
        for j in range(len(rows))
    ]


def minor_rank(rows, ncols: int) -> int:
    """Rank as the order of the largest nonzero minor."""
    rows = [tuple(row) for row in rows]
    for k in range(min(len(rows), ncols), 0, -1):
        for rsel in combinations(rows, k):
            for csel in combinations(range(ncols), k):
                if det([[row[j] for j in csel] for row in rsel]) != 0:
                    return k
    return 0


def minor_kernel_vector(rows, ncols: int) -> list[Fraction]:
    """Signed maximal minors of ncols - 1 rows: entry j is (-1)^j times the
    minor without column j.

    By Laplace expansion the vector is orthogonal to every row, and it is
    nonzero exactly when the rows are independent, so it then spans their
    kernel.
    """
    rows = [tuple(row) for row in rows]
    return [(-1) ** j * det([row[:j] + row[j + 1 :] for row in rows]) for j in range(ncols)]


def coprime(values) -> tuple[int, ...]:
    """A nonzero rational vector scaled to coprime integers, same orientation."""
    den = 1
    for v in values:
        den = lcm(den, Fraction(v).denominator)
    ints = [int(Fraction(v) * den) for v in values]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


def minor_circuits(P: Polyhedron) -> list[tuple[int, ...]]:
    """All circuits of (A, B) of a pointed system, from signed minors.

    Every n - 1 independent rows of [A; B] span a one-dimensional kernel,
    given by their signed maximal minors v; v is a circuit when Av = 0.
    Every circuit g arises so, from n - 1 independent rows of A and of the
    B-rows vanishing on g.  Sign: first nonzero entry of Bv positive.
    """
    found = set()
    for rows in combinations(P.A.entries + P.B.entries, P.n - 1):
        v = minor_kernel_vector(rows, P.n)
        if all(e == 0 for e in v) or not P.A.matvec(RatVec(v)).is_zero():
            continue
        bv = P.B.matvec(RatVec(v))
        first = next(e for e in bv if e != 0)
        found.add(coprime(v if first > 0 else [-e for e in v]))
    return sorted(found)


def ppc_flat_count(P: Polyhedron) -> int:
    """The number of flats the circuit scan visits, from minor ranks.

    The flats are the closed sets of the rows of [A; B] that contain A,
    over the first row of each parallel class of B's nonzero rows (the
    representatives 0..M-1).  A flat of rank rank(A) + t is visited when
    t <= k = n - 1 - rank(A) and its greedy basis b_1 < ... < b_t (the
    representatives that raise the rank, taken in order) leaves enough
    representatives for a circuit: t = 0 or b_t + (k - t) < M.  Each such
    basis is tried as a subset: it must be independent modulo A, and the
    greedy basis of its closure must be itself.  No flat is visited when
    k < 0.
    """
    n, a_rows = P.n, list(P.A.entries)
    reps = []
    for row in P.B.entries:
        if any(row) and all(minor_rank([rep, row], n) == 2 for rep in reps):
            reps.append(row)
    rank_a = minor_rank(a_rows, n)
    k, m = n - 1 - rank_a, len(reps)
    count = 0
    for t in range(k + 1):
        for basis in combinations(range(m), t):
            if t and basis[-1] + (k - t) >= m:
                continue
            chosen = a_rows + [reps[b] for b in basis]
            if minor_rank(chosen, n) != rank_a + t:
                continue
            flat = [j for j in range(m) if minor_rank(chosen + [reps[j]], n) == rank_a + t]
            greedy = []
            for j in flat:
                if minor_rank(a_rows + [reps[b] for b in greedy + [j]], n) > rank_a + len(greedy):
                    greedy.append(j)
            count += tuple(greedy) == basis
    return count


def undirected_cycle_indicators(G: Digraph) -> list[tuple[int, ...]]:
    """Canonical +/-1 arc indicators of all simple undirected cycles.

    Every arc is usable in either direction; a traversal along the arc
    contributes +1, against it -1.  Cycles need at least two distinct
    arcs and distinct vertices.  Indicators are sign-normalized so the
    lowest-indexed arc on the cycle gets +1, and the list is sorted.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(G.nodes + 1)]
    for idx, (tail, head) in enumerate(G.arcs):
        adjacency[tail].append((head, idx))
        adjacency[head].append((tail, idx))

    found: dict[frozenset, tuple[int, ...]] = {}

    def indicator(steps: list[tuple[int, int, int]]) -> tuple[int, ...]:
        vec = [0] * G.m
        for u, v, idx in steps:
            vec[idx] = 1 if G.arcs[idx] == (u, v) else -1
        for e in vec:
            if e > 0:
                return tuple(vec)
            if e < 0:
                return tuple(-a for a in vec)
        raise AssertionError("empty cycle")

    def walk(start, node, used, visited, steps):
        for other, idx in adjacency[node]:
            if idx in used:
                continue
            if other == start and len(steps) >= 1:
                key = frozenset(used | {idx})
                if key not in found:
                    found[key] = indicator(steps + [(node, other, idx)])
            elif other > start and other not in visited:
                walk(
                    start,
                    other,
                    used | {idx},
                    visited | {other},
                    steps + [(node, other, idx)],
                )

    for start in range(1, G.nodes + 1):
        walk(start, start, frozenset(), {start}, [])
    return sorted(found.values())


def directed_simple_cycles(G: Digraph) -> list[tuple[int, ...]]:
    """All simple directed cycles, each as a sorted tuple of arc indices."""
    by_tail: list[list[tuple[int, int]]] = [[] for _ in range(G.nodes + 1)]
    for idx, (tail, head) in enumerate(G.arcs):
        by_tail[tail].append((head, idx))
    cycles: set[tuple[int, ...]] = set()

    def walk(start, node, visited, path):
        for head, idx in by_tail[node]:
            if head == start:
                cycles.add(tuple(sorted(path + [idx])))
            elif head > start and head not in visited:
                walk(start, head, visited | {head}, path + [idx])

    for start in range(1, G.nodes + 1):
        walk(start, start, {start}, [])
    return sorted(cycles)


def residual_cycles(G: Digraph, weights, x) -> list[tuple[tuple[int, ...], Fraction]]:
    """The directed cycles of the residual digraph of the 0/1 flow x on G,
    each as its signed arc indicator g and its residual weight w.g.

    Arc j runs forward where x_j = 0 and reversed where x_j = 1, so x + g
    is a 0/1 flow again for every such cycle; the cycles come from
    ``directed_simple_cycles`` of that digraph."""
    assert all(e in (0, 1) for e in x), "x is not a 0/1 flow"
    arcs = tuple(arc if e == 0 else arc[::-1] for arc, e in zip(G.arcs, x))
    out = []
    for cycle in directed_simple_cycles(Digraph(G.nodes, arcs)):
        g = [0] * G.m
        for j in cycle:
            g[j] = 1 if x[j] == 0 else -1
        out.append((tuple(g), sum((weights[j] * g[j] for j in cycle), Fraction(0))))
    return out


def dense_pivot(rows, r: int, col: int) -> None:
    """``ratlin._pivot`` by the dense formula: every entry of the pivot row
    is divided and every entry of the other rows is updated, zeros too."""
    pr = rows[r]
    piv = pr[col]
    if piv != 1:
        pr = [a / piv for a in pr]
        rows[r] = pr
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = [a - f * b for a, b in zip(row, pr)]


def dense_cut(block, r: int) -> list:
    """``ratlin._cut`` by the unit-pivot Fraction column step: the first
    column with a nonzero entry in row r is divided by that entry, and
    every other column col becomes col - col[r] * that column, zeros too."""
    s = next(t for t, col in enumerate(block) if col[r])
    pivot = [Fraction(a) / block[s][r] for a in block[s]]
    return [[a - col[r] * b for a, b in zip(col, pivot)] for t, col in enumerate(block) if t != s]


def positive_multiple(row, ref) -> bool:
    """Is ``row`` ``ref`` times a positive rational (both may be zero)?
    This is how an integer row of the fraction-free step stands for the
    Fraction step's row."""
    j = next((j for j, b in enumerate(ref) if b), None)
    if j is None:
        return not any(row)
    ratio = Fraction(row[j]) / ref[j]
    return ratio > 0 and all(a == ratio * b for a, b in zip(row, ref))


def dense_matvec(M: RatMat, v: RatVec) -> RatVec:
    """M v with every product formed, zeros included."""
    return RatVec(sum((a * b for a, b in zip(row, v.entries)), Fraction(0)) for row in M.entries)


def fraction_step_length(slack, image):
    """The largest beta with slack - beta*image >= 0, or UNBOUNDED: each
    row with image_j > 0 caps beta at the Fraction slack_j / image_j and
    the smallest cap wins."""
    caps = [s / a for s, a in zip(slack, image) if a > 0]
    return min(caps) if caps else UNBOUNDED


def _signed(signs, values):
    return list(values) if signs is None else [s * e for s, e in zip(signs, values)]


def fraction_walk(P: Polyhedron, signs, x: RatVec):
    """``polyhedron._walk`` on Fractions: yields (x, w) after each move.

    The slack of x is d - Bx on P and -sigma_i (Bx)_i on the cone of the
    row signs sigma, and the image of w is B w (signed on the cone), all
    with the rational B; each move goes the ``fraction_step_length`` of
    them.  The kernel vectors at each point are ``kernel_basis`` of A
    stacked on the rows of B with zero slack there, as rational rows.
    """
    cone = signs is not None
    bx = P.B.matvec(x)
    slack = [-e for e in _signed(signs, bx)] if cone else list(P.d - bx)
    for moves in range(P.n + 1):
        tight = [row for row, s in zip(P.B.entries, slack) if s == 0]
        ker = [v.entries for v in kernel_basis(RatMat(P.A.entries + tuple(tight), cols=P.n))]
        if len(ker) == (1 if cone else 0):
            return
        assert moves < P.n, "the reference walk exceeded n moves"
        w = ker[0]
        if cone and sign_normalized(coprime_integer_entries(x.entries)) == w:
            w = ker[1]
        image = _signed(signs, P.B.matvec(RatVec(w)))
        t = fraction_step_length(slack, image)
        if t is UNBOUNDED:
            w, image = tuple(-a for a in w), [-a for a in image]
            t = fraction_step_length(slack, image)
        x = x + t * RatVec(w)
        slack = [s - t * a for s, a in zip(slack, image)]
        yield x, w


def fraction_terms(P: Polyhedron, z: RatVec) -> list:
    """The terms (alpha, g) of ``conformal._terms`` in walk order, by the
    Fraction walk on the sign cone of z: the residual -r and its slack are
    Fractions, and alpha is the ``fraction_step_length`` of the slack and
    the signed image of the circuit."""
    bz = P.B.matvec(z)
    signs = [-1 if e < 0 else 1 for e in bz]
    u_res, slack = -z, [abs(e) for e in bz]
    terms = []
    while not u_res.is_zero():
        u = u_res
        for u, _ in fraction_walk(P, signs, u):
            pass
        g = -Circuit(coprime_integer_entries(u.entries))
        sg = _signed(signs, P.B.matvec(g.vec))
        alpha = fraction_step_length(slack, sg)
        u_res = u_res + alpha * g.vec
        slack = [s - alpha * a for s, a in zip(slack, sg)]
        terms.append((alpha, g))
    return terms


def _recorded_bland(T, basis, ncols, phases):
    """Bland's rule on the integer tableau, as ``lp._bland``; appends
    (status, entering column or None, basis) to ``phases`` at the end."""
    m = len(T) - 1
    while True:
        cost = T[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            phases.append(("optimal", None, tuple(basis)))
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
            phases.append(("unbounded", enter, tuple(basis)))
            return "unbounded", enter
        _pivot(T, leave, enter)
        basis[leave] = enter


def artificial_column_lp(P: Polyhedron, c: RatVec):
    """(outcome, phases): ``solve_lp`` on the artificial-column tableau, and
    (status, entering column, basis) at the end of each Bland run.

    Each row [x+ | x- | slacks | artificials | rhs] is scaled from its
    Fractions to coprime ints with a nonnegative right-hand side; phase 1
    prices out the artificial basis and phase 2 its basis by a ``_pivot``
    per basic row."""
    n, m_b = P.n, P.B.m
    ncols = 2 * n + m_b
    m = P.A.m + m_b
    phases = []
    T = []
    for i, (row, rhs) in enumerate(zip(P.A.entries + P.B.entries, P.b.entries + P.d.entries)):
        unit = [1 if k == i else 0 for k in range(m)]
        line = list(row) + [-a for a in row] + unit[P.A.m :] + [rhs]
        if rhs < 0:
            line = [-a for a in line]
        T.append(list(coprime_integer_entries(line[:-1] + unit + line[-1:])))
    T.append([0] * ncols + [1] * m + [0])
    basis = [ncols + i for i in range(m)]
    for i, jb in enumerate(basis):
        _pivot(T, i, jb)
    _recorded_bland(T, basis, ncols, phases)
    if any(T[i][-1] > 0 for i in range(m) if basis[i] >= ncols):
        return LpInfeasible(), phases
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
    T = [T[i][:ncols] + T[i][-1:] for i in keep]
    cost = coprime_integer_entries(c.entries + tuple(-a for a in c.entries))
    T.append(list(cost) + [0] * (m_b + 1))
    for i, jb in enumerate(basis):
        _pivot(T, i, jb)
    status, enter = _recorded_bland(T, basis, ncols, phases)
    if status == "unbounded":
        ray = [Fraction(0)] * ncols
        ray[enter] = Fraction(1)
        for i, jb in enumerate(basis):
            ray[jb] = Fraction(-T[i][enter], T[i][jb])
        return LpUnbounded(RatVec(ray[j] - ray[n + j] for j in range(n))), phases
    w = [Fraction(0)] * ncols
    for i, jb in enumerate(basis):
        w[jb] = Fraction(T[i][-1], T[i][jb])
    x = _purify_to_vertex(P, c, RatVec(w[j] - w[n + j] for j in range(n)))
    unique = _unique_by_reduced_costs(T[-1][:ncols], basis, n, range(n))
    return LpOptimal(x, c.dot(x), unique), phases


# A rational token: an optional minus, ASCII digits p and optionally "/" and
# ASCII digits q; the groups are the minus, p and q.
_RATIONAL_TOKEN = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def fraction_row(line_no: int, line: str, count, what: str) -> list[Fraction]:
    """The reference of ``polyhedron._parse_row``: the rationals on
    ``line`` as Fractions, each token read on its own, or the ParseError
    the row parser raises, with its message, line and column.

    The tokens are the runs of non-whitespace.  A count other than
    ``count`` is placed at the first token too many, or one past the line.
    A token is placed at its first character when it is malformed, when q
    is 0 and when p or q has more digits than the interpreter's limit on
    converting text to int; q is read before p."""
    toks = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
    if count is not None and len(toks) != count:
        col = len(line) + 1 if len(toks) < count else toks[count][0]
        raise ParseError(f"expected {count} rationals for {what}, found {len(toks)}", line_no, col)
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    out = []
    for col, tok in toks:
        match = _RATIONAL_TOKEN.fullmatch(tok)
        if match is None:
            raise ParseError(f"malformed rational {tok!r}", line_no, col)
        minus, p, q = match.groups()
        q = q or "1"
        if 0 < limit < len(q):
            raise ParseError(f"a number may have at most {limit} digits", line_no, col)
        if not q.strip("0"):
            raise ParseError(f"zero denominator in {tok!r}", line_no, col)
        if 0 < limit < len(p):
            raise ParseError(f"a number may have at most {limit} digits", line_no, col)
        value = Fraction(int(p), int(q))
        out.append(-value if minus else value)
    return out
