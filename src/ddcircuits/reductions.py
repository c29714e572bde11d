"""Hardness-style benchmark instances: circulation LPs from digraphs.

A digraph with arcs indexed 1..m gets perturbed arc costs 1 + 2^(-i),
which makes every simple cycle cost lie in [len, len + 1) and makes all
cycle costs (in fact all arc-subset costs) pairwise distinct while
preserving the by-arc-count ordering.  The circulation polytope
{x : Ax = 0, 0 <= x <= 1} over the node-arc incidence matrix, with the
negated perturbed costs as objective, is then a totally unimodular
0/1-LP with a unique optimum whose deepest-descent step from the zero
flow is exactly the unit flow along the maximum-cost directed cycle.
An exponential cycle-enumeration oracle certifies that correspondence
on desk-scale graphs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .circuits import DEFAULT_WORK_BUDGET, Circuit
from .ddstep import DdStep, Optimal, exact_dd_step
from .errors import ParseError, SizeGuardExceeded
from .polyhedron import (
    Instance,
    Point,
    Polyhedron,
    _box_rows,
    _data_lines,
    _located,
    _parse_header,
    _point,
    _read_text,
    _tokens,
)
from .ratlin import Rat, _int_vector, parse_count, parse_rat
from .record import Record

MAX_ORACLE_NODES = 8


class Digraph(Record, defaults={"costs": None}):
    """A directed graph with 1-indexed nodes and an ordered arc list.

    The arc order is significant: the cost perturbation depends on it, so
    relabeling arcs changes which cycle wins ties.  Parallel arcs are
    allowed (they get distinct indices); self-loops are rejected.
    """

    __slots__ = ("nodes", "arcs", "costs")
    nodes: int
    arcs: tuple[tuple[int, int], ...]
    costs: Optional[tuple[Rat, ...]]

    def __post_init__(self):
        if self.nodes < 0:
            raise ValueError("node count must be nonnegative")
        for tail, head in self.arcs:
            _check_arc(self.nodes, tail, head)
        if self.costs is not None and len(self.costs) != len(self.arcs):
            raise ValueError("cost vector length must equal the arc count")

    @property
    def m(self) -> int:
        return len(self.arcs)


def _check_arc(nodes: int, tail: int, head: int) -> None:
    """Reject an arc that leaves the node range 1..nodes or is a self-loop."""
    if not (1 <= tail <= nodes and 1 <= head <= nodes):
        raise ValueError(f"arc ({tail}, {head}) leaves the node range 1..{nodes}")
    if tail == head:
        raise ValueError(f"self-loop at node {tail} is not allowed")


def perturb_costs(G: Digraph) -> Digraph:
    """Endow an unweighted (or unit-cost) digraph with costs 1 + 2^(-i).

    The i-th arc (1-based) gets cost 1 + 2^(-i), so each cost has a
    denominator dividing 2^m, every cycle with k arcs costs between k
    (inclusive) and k + 1 (exclusive), distinct arc subsets always have
    distinct total costs, and a cycle with more arcs always costs more.
    Each cost is made as one Fraction, (2^i + 1) / 2^i.
    """
    if G.costs is not None and any(c != 1 for c in G.costs):
        raise ValueError("perturb_costs requires an unweighted or unit-cost digraph")
    costs = tuple([Fraction(2**i + 1, 2**i) for i in range(1, G.m + 1)])
    return Digraph(G.nodes, G.arcs, costs)


def _incidence_rows(G: Digraph) -> list[list[int]]:
    """The node-arc incidence matrix as int rows: +1 at the tail, -1 at
    the head of every arc."""
    rows = [[0] * G.m for _ in range(G.nodes)]
    for j, (tail, head) in enumerate(G.arcs):
        rows[tail - 1][j] = 1
        rows[head - 1][j] = -1
    return rows


class ReductionInstance(Record):
    """A circulation LP built from a digraph, plus its zero starting flow."""

    __slots__ = ("instance", "x0", "source")
    instance: Instance
    x0: Point
    source: Digraph


def build_reduction(G: Digraph) -> ReductionInstance:
    """Circulation LP with perturbed negated costs over the unit-capacity network.

    Equalities: flow conservation A x = 0 over the incidence matrix;
    inequalities: the box 0 <= x <= 1 (B = [I; -I], d = (1...1, 0...0));
    objective: the negated perturbed costs; start: the zero flow.  The
    resulting system is pointed, totally unimodular, and has a unique
    optimum.  The rows go to the polyhedron as ints, and the objective is
    made from the ints -(2^m + 2^(m-i)) over 2^m, the negated costs over
    their common denominator.
    """
    if G.m == 0:
        raise ValueError("the reduction needs at least one arc")
    m = G.m
    weighted = perturb_costs(G)
    a_rows, b = [(row, 1) for row in _incidence_rows(G)], [(0, 1)] * G.nodes
    P = Polyhedron._from_ints(m, a_rows, b, _box_rows(m), [(1, 1)] * m + [(0, 1)] * m)
    objective = _point([-(2**m + 2 ** (m - i)) for i in range(1, m + 1)], 2**m)
    return ReductionInstance(Instance(P, objective), _point([0] * m, 1), weighted)


def longest_cycle_oracle(G: Digraph) -> Optional[tuple[tuple[int, ...], Rat]]:
    """Exhaustive maximum-cost simple directed cycle, or None if acyclic.

    Enumerates every simple directed cycle (distinct nodes; with parallel
    or antiparallel arcs a two-node cycle needs two distinct arcs) and
    returns the best one as (sorted arc indices, total cost).  Ties break
    toward the lexicographically smallest arc set; with perturbed costs
    ties cannot occur.  Unweighted graphs count arcs.  The costs are read
    once as ints over their common denominator, the cycles are compared by
    int sums, and the answer is the one Fraction made.  The node guard,
    ``MAX_ORACLE_NODES``, keeps the enumeration at desk scale.
    """
    if G.nodes > MAX_ORACLE_NODES:
        raise SizeGuardExceeded(
            f"cycle oracle limited to {MAX_ORACLE_NODES} nodes, got {G.nodes}"
        )
    costs, den = _int_vector(G.costs) if G.costs is not None else ([1] * G.m, 1)
    by_tail: list[list[tuple[int, int]]] = [[] for _ in range(G.nodes + 1)]
    for idx, (tail, head) in enumerate(G.arcs):
        by_tail[tail].append((head, idx))

    # Each cycle is walked once, from its smallest node; the best key is the least.
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for start in range(1, G.nodes + 1):
        stack = [(start, (start,), ())]  # (node, path nodes, path arcs)
        while stack:
            node, visited, path = stack.pop()
            for head, idx in by_tail[node]:
                if head == start:
                    arcs = path + (idx,)
                    key = (-sum([costs[i] for i in arcs]), tuple(sorted(arcs)))
                    best = key if best is None else min(best, key)
                elif head > start and head not in visited:
                    stack.append((head, visited + (head,), path + (idx,)))
    if best is None:
        return None
    return best[1], Fraction(-best[0], den)


def verify_correspondence(
    G: Digraph, *, work_budget: int = DEFAULT_WORK_BUDGET
) -> bool:
    """Does the exact dd-step from the zero flow match the longest cycle?

    Builds the reduction, takes the exact deepest-descent step from 0,
    and compares it with the one step the oracle predicts: the unit flow
    on the maximum-cost cycle, a circuit that is the cycle's 0/1
    indicator, at step length 1, whose improvement is the cycle's cost.
    An acyclic graph passes when the step finds the zero flow optimal.
    The oracle runs first, so a graph beyond its node guard is rejected
    before the exponential circuit enumeration starts.
    """
    if G.m == 0:
        return longest_cycle_oracle(G) is None
    reduction = build_reduction(G)
    oracle = longest_cycle_oracle(reduction.source)
    P = reduction.instance.polyhedron
    c = reduction.instance.objective
    step = exact_dd_step(P, c, reduction.x0, work_budget=work_budget)
    if oracle is None:
        return isinstance(step, Optimal)
    cycle_arcs, cycle_cost = oracle
    indicator = [0] * G.m
    for j in cycle_arcs:
        indicator[j] = 1
    return step == DdStep(Circuit(tuple(indicator)), 1, cycle_cost)


# ---------------------------------------------------------------------------
# Graph file format: line 1 is "|V| m"; then m lines "tail head [cost]" with
# 1-indexed nodes and rational costs.  Blank lines and '#' comments are
# ignored.  Either every arc line carries a cost or none does.
# ---------------------------------------------------------------------------

def parse_digraph_text(text: str) -> Digraph:
    lines = _data_lines(text, "graph")
    nodes, m = _parse_header(*lines[0], "|V| m")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} arc lines, found {len(lines) - 1}", lines[-1][0], 1)
    arcs: list[tuple[int, int]] = []
    costs: list[Fraction] = []
    has_costs: Optional[bool] = None  # set by the first arc line
    for no, line in lines[1:]:
        toks = _tokens(line)
        if len(toks) not in (2, 3):
            raise ParseError("arc line must be 'tail head [cost]'", no, 1)
        if has_costs is not None and has_costs != (len(toks) == 3):
            raise ParseError("either every arc line has a cost or none does", no, 1)
        has_costs = len(toks) == 3
        tail, head = (_located(parse_count, no, col, tok) for col, tok in toks[:2])
        _located(_check_arc, no, toks[0][0], nodes, tail, head)
        arcs.append((tail, head))
        if has_costs:
            costs.append(_located(parse_rat, no, *toks[2]))
    return Digraph(nodes, tuple(arcs), tuple(costs) if has_costs else None)


def load_digraph(path) -> Digraph:
    return parse_digraph_text(_read_text(path))


def format_digraph(G: Digraph) -> str:
    out = [f"{G.nodes} {G.m}"]
    for j, (tail, head) in enumerate(G.arcs):
        if G.costs is not None:
            out.append(f"{tail} {head} {G.costs[j]}")
        else:
            out.append(f"{tail} {head}")
    return "\n".join(out) + "\n"
