"""Deterministic seeded instance generators and exhaustive digraph catalogs."""

import random
from fractions import Fraction
from itertools import combinations

from ddcircuits import Digraph, NotPointedError, Polyhedron, RatVec, build_reduction
from ddcircuits.ratlin import RatMat


def all_arcs(nodes: int) -> list[tuple[int, int]]:
    """Every arc (i, j) with i != j on nodes 1..nodes, in row order."""
    return [(i, j) for i in range(1, nodes + 1) for j in range(1, nodes + 1) if i != j]


def exhaustive_digraphs(node_counts=(2, 3), max_arcs=None):
    """Every labeled digraph (no self-loops, at least one arc) at the given sizes."""
    for nodes in node_counts:
        pairs = all_arcs(nodes)
        top = len(pairs) if max_arcs is None else min(max_arcs, len(pairs))
        for m in range(1, top + 1):
            for combo in combinations(pairs, m):
                yield Digraph(nodes, combo)


def random_digraph(rng: random.Random, min_nodes, max_nodes, max_arcs) -> Digraph:
    nodes = rng.randint(min_nodes, max_nodes)
    pairs = all_arcs(nodes)
    m = rng.randint(2, min(max_arcs, len(pairs)))
    return Digraph(nodes, tuple(rng.sample(pairs, m)))


def verify_class_digraphs(rng: random.Random, node_counts=(5, 6), per_class=2):
    """``per_class`` digraphs for each (|V|, m) with |V| <= m <= 2|V|: the
    graph class the correspondence check is benchmarked on, drawn as
    uniform samples of m distinct arcs."""
    out = []
    for nodes in node_counts:
        pairs = all_arcs(nodes)
        for m in range(nodes, min(2 * nodes, len(pairs)) + 1):
            out += [Digraph(nodes, tuple(rng.sample(pairs, m))) for _ in range(per_class)]
    return out


def complete_digraph(nodes: int) -> Digraph:
    return Digraph(nodes, tuple(all_arcs(nodes)))


def _nonzero_int(rng: random.Random, lo=-4, hi=4) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return v


def gen_box(rng: random.Random):
    """A box with rational bounds, an all-nonzero objective (unique optimum),
    and a feasible corner-or-midpoint start."""
    n = rng.randint(2, 4)
    lows = [Fraction(rng.randint(-3, 0), rng.choice((1, 2))) for _ in range(n)]
    highs = [low + Fraction(rng.randint(1, 4), rng.choice((1, 2))) for low in lows]
    P = Polyhedron.box(lows, highs)
    c = RatVec([_nonzero_int(rng) for _ in range(n)])
    x0 = RatVec(
        [rng.choice((lo, hi, (lo + hi) / 2)) for lo, hi in zip(lows, highs)]
    )
    return P, c, x0


def gen_circulation(rng: random.Random, max_nodes=4, max_arcs=6):
    """A perturbed-cost circulation LP from a random digraph, started at zero."""
    graph = random_digraph(rng, 3, max_nodes, max_arcs)
    reduction = build_reduction(graph)
    return (
        reduction.instance.polyhedron,
        reduction.instance.objective,
        reduction.x0,
    )


def gen_tulike(rng: random.Random):
    """A small {-1,0,1} equality system over an integral box, feasible by
    construction (the right-hand side comes from a sampled interior point)."""
    n = rng.randint(2, 4)
    m_a = rng.randint(1, 2)
    rows = []
    for _ in range(m_a):
        row = [rng.choice((-1, 0, 1)) for _ in range(n)]
        if all(v == 0 for v in row):
            row[rng.randrange(n)] = 1
        rows.append(row)
    A = RatMat(rows, cols=n)
    highs = [Fraction(rng.randint(1, 3)) for _ in range(n)]
    x_hat = RatVec([Fraction(rng.randint(0, int(h))) for h in highs])
    box = Polyhedron.box([0] * n, highs)
    P = Polyhedron(A, A.matvec(x_hat), box.B, box.d)
    c = RatVec([_nonzero_int(rng) for _ in range(n)])
    return P, c, x_hat


def perturbed_objective(c: RatVec) -> RatVec:
    """Tiny power-of-two tilt used to retry instances whose optimum ties."""
    return RatVec(
        [e + Fraction(1, 2 ** (i + 3)) for i, e in enumerate(c.entries)]
    )


def mixed_instances(seed: int, count: int):
    """A deterministic stream mixing boxes, circulations, and TU-like systems."""
    rng = random.Random(seed)
    makers = (gen_box, gen_circulation, gen_tulike)
    out = []
    for i in range(count):
        out.append(makers[i % len(makers)](rng))
    return out


def dense_rational_system(rng: random.Random) -> Polyhedron:
    """A pointed system in n <= 4 variables with a dense, non-TU rational B
    of n + 2 rows (the last a negative multiple of the first) and zero or
    one dense equality rows."""
    while True:
        n = rng.randint(2, 4)

        def row():
            return [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                for _ in range(n)
            ]

        a_rows = [row() for _ in range(rng.randint(0, 1))]
        b_rows = [row() for _ in range(n + 1)]
        b_rows.append([Fraction(-3, 2) * e for e in b_rows[0]])
        try:
            return Polyhedron(
                RatMat(a_rows, cols=n),
                RatVec([0] * len(a_rows)),
                RatMat(b_rows),
                RatVec([1] * len(b_rows)),
            )
        except NotPointedError:
            continue


def dense_polytope(rng: random.Random):
    """A box cut by n dense non-TU rational rows and one dense equality,
    all with the start point x0 strictly inside the cuts."""
    n = rng.randint(3, 4)

    def rat(nonzero=False):
        while True:
            p = rng.randint(-4, 4)
            if p or not nonzero:
                return Fraction(p, rng.randint(1, 5))

    upper = [rng.randint(2, 4) for _ in range(n)]
    x0 = RatVec([Fraction(rng.randint(1, 3 * u - 1), 3) for u in upper])
    dense = RatMat([[rat() for _ in range(n)] for _ in range(n)], cols=n)
    eq = RatMat([[rat(nonzero=True) for _ in range(n)]], cols=n)
    box = Polyhedron.box([0] * n, upper)
    slack = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(n)]
    d = RatVec(list(box.d.entries) + [e + s for e, s in zip(dense.matvec(x0), slack)])
    P = Polyhedron(eq, eq.matvec(x0), RatMat(box.B.entries + dense.entries, cols=n), d)
    return P, RatVec([rat(nonzero=True) for _ in range(n)]), x0
