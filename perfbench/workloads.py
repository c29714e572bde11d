"""Seeded workloads: instance generators, the timed op, and independent checks.

Each workload cycles through a fixed list of size classes.  A pool of
``rounds`` rounds holds one instance of every class per round, in class
order, so every prefix of whole rounds has the same size mix whatever the
seed.  The program sees only the generated instances.

Every check here is independent of the code it checks but one:
feasibility, objective values and directed cycles are recomputed with
plain ``Fraction`` arithmetic and a graph walk, while ``augment-dense``
compares its final value with the program's own ``solve_lp``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


# ---------------------------------------------------------------------------
# Shared helpers (benchmark-side, no program code).
# ---------------------------------------------------------------------------


def _random_arcs(rng: random.Random, nodes: int, m: int) -> tuple[tuple[int, int], ...]:
    """``m`` distinct arcs without self-loops, as ``cli._random_digraph`` draws them."""
    pairs = [(i, j) for i in range(1, nodes + 1) for j in range(1, nodes + 1) if i != j]
    return tuple(rng.sample(pairs, m))


def _arc_classes(node_counts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(nodes, arcs) classes with |V| <= arcs <= 2|V| (capped at the simple-digraph limit)."""
    out = []
    for nodes in node_counts:
        upper = min(2 * nodes, nodes * (nodes - 1))
        out.extend((nodes, m) for m in range(nodes, upper + 1))
    return tuple(out)


def _perturbed_costs(m: int) -> list[Fraction]:
    """Arc i (1-based) costs 1 + 2^-i, the circulation reduction's perturbation."""
    return [1 + Fraction(1, 2 ** i) for i in range(1, m + 1)]


def _directed_cycles(nodes: int, arcs) -> list[tuple[int, ...]]:
    """Arc-index sets of every simple directed cycle, each found once from its lowest node."""
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(nodes + 1)]
    for idx, (tail, head) in enumerate(arcs):
        out_arcs[tail].append((head, idx))
    cycles = []

    def walk(start, node, visited, path):
        for head, idx in out_arcs[node]:
            if head == start:
                cycles.append(tuple(sorted(path + [idx])))
            elif head > start and head not in visited:
                walk(start, head, visited | {head}, path + [idx])

    for start in range(1, nodes + 1):
        walk(start, start, {start}, [])
    return cycles


def _is_one_simple_cycle(arcs, support: tuple[int, ...]) -> bool:
    """Do the arcs in ``support`` form a single simple directed cycle?"""
    if not support:
        return False
    succ: dict[int, int] = {}
    indeg: dict[int, int] = {}
    for idx in support:
        tail, head = arcs[idx]
        if tail in succ:
            return False
        succ[tail] = head
        indeg[head] = indeg.get(head, 0) + 1
    if set(succ) != set(indeg) or any(v != 1 for v in indeg.values()):
        return False
    start = next(iter(succ))
    node, steps = succ[start], 1
    while node != start:
        node, steps = succ[node], steps + 1
    return steps == len(support)


def _forest_key(nodes: int, arcs) -> tuple[int, int]:
    """(components, spanning forests) of the underlying undirected multigraph.

    The forest count is the product over components of the matrix-tree
    determinant of the component's reduced Laplacian.
    """
    comp = list(range(nodes + 1))

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for tail, head in arcs:
        comp[find(tail)] = find(head)
    groups: dict[int, list[int]] = {}
    for v in range(1, nodes + 1):
        groups.setdefault(find(v), []).append(v)
    forests = 1
    for members in groups.values():
        rest = members[1:]
        pos = {v: i for i, v in enumerate(rest)}
        lap = [[Fraction(0)] * len(rest) for _ in rest]
        for tail, head in arcs:
            for a, b in ((tail, head), (head, tail)):
                if a in pos:
                    lap[pos[a]][pos[a]] += 1
                    if b in pos:
                        lap[pos[a]][pos[b]] -= 1
        det = Fraction(1)
        for col in range(len(rest)):
            piv = next(r for r in range(col, len(rest)) if lap[r][col] != 0)
            lap[col], lap[piv] = lap[piv], lap[col]
            det *= lap[col][col] * (1 if piv == col else -1)
            for r in range(col + 1, len(rest)):
                f = lap[r][col] / lap[col][col]
                for j in range(col, len(rest)):
                    lap[r][j] -= f * lap[col][j]
        forests *= int(det)
    return len(groups), forests


def _parse_rats(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split()]


def _rat_text(values) -> str:
    return " ".join(str(v) for v in values)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """One seeded workload.  Subclasses define the classes, generator, op and check.

    ``default_rounds`` sizes the pool so that one pass holds at least 100
    ops; ``trace_rounds`` is the fixed op count of the traced pass, so that
    call counts repeat exactly for a seed.
    """

    name = ""
    op_text = ""
    classes: tuple = ()
    default_rounds = 1
    trace_rounds = 1

    def generate(self, seed: int, rounds: int, mods, workdir: str) -> list[Any]:
        """The pool: round r holds the r-th draw of every class, in class order."""
        rng = random.Random(f"{self.name}:{seed}")
        columns = [self.draw(rng, cls, rounds) for cls in self.classes]
        return [
            self.build(columns[k][r], r * len(self.classes) + k, mods, workdir)
            for r in range(rounds)
            for k in range(len(self.classes))
        ]

    def draw(self, rng, cls, count: int) -> list[Any]:
        return [self.sample(rng, cls) for _ in range(count)]

    def sample(self, rng, cls):  # pragma: no cover - abstract
        raise NotImplementedError

    def build(self, spec, index: int, mods, workdir: str):  # pragma: no cover - abstract
        raise NotImplementedError

    def op(self, mods, inst) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def canonical(self, result) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, mods, inst, result) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


def _balanced_strata(count: int) -> list[int]:
    """The stratum of each of ``count`` rounds, so that prefixes of rounds stay balanced.

    Strata s and ``count - 1 - s`` are paired and run back to back; the
    pairs follow the van der Corput order (binary digit reversal), so 8
    gives 0 7 2 5 1 6 3 4.  Every even prefix has the mean stratum of the
    whole pool, and later pairs fill the gaps that earlier pairs left.
    """

    def reversed_bits(r: int) -> float:
        value, weight = 0.0, 0.5
        while r:
            value += weight * (r & 1)
            r, weight = r >> 1, weight / 2
        return value

    order = []
    for low in sorted(range((count + 1) // 2), key=reversed_bits):
        order.append(low)
        if count - 1 - low != low:
            order.append(count - 1 - low)
    return order


class _CirculationWorkload(Workload):
    """Random digraphs per (nodes, arcs) class, stratified by spanning-forest count.

    Enumeration and simplex work grow with the number of spanning forests,
    so a plain sample of a few graphs per class moves the pool's latency
    quantiles from seed to seed.  Each class draws ``STRATA`` candidates
    per pool slot and ranks them by (components, spanning forests); slot s
    gets the middle candidate of the s-th consecutive block of ``STRATA``.
    Rounds take the slots in a balanced order, so a run that stops after
    any number of rounds still covers the ranking about evenly.
    """

    STRATA = 6

    def draw(self, rng, cls, count):
        nodes, m = cls
        candidates = [_random_arcs(rng, nodes, m) for _ in range(self.STRATA * count)]
        ranked = sorted(candidates, key=lambda arcs: _forest_key(nodes, arcs))
        middle = self.STRATA // 2
        return [(nodes, ranked[s * self.STRATA + middle]) for s in _balanced_strata(count)]


@dataclass
class _CirculationLp:
    path: str
    nodes: int
    arcs: tuple[tuple[int, int], ...]
    costs: list[Fraction]  # the LP objective: negated perturbed arc costs


class OcnpCirculation(_CirculationWorkload):
    name = "ocnp-circulation"
    op_text = 'cli.main(["ocnp", FILE, "--from", "zeros", "--format", "json"])'
    classes = _arc_classes((3, 4))
    default_rounds = 12
    trace_rounds = 4

    def build(self, spec, index, mods, workdir):
        nodes, arcs = spec
        m = len(arcs)
        costs = [-w for w in _perturbed_costs(m)]
        lines = [f"{m} {nodes} {2 * m}"]
        for v in range(1, nodes + 1):
            lines.append(_rat_text(1 if t == v else -1 if h == v else 0 for t, h in arcs))
        lines.append(_rat_text([0] * nodes))
        for sign in (1, -1):
            for i in range(m):
                lines.append(_rat_text(sign if j == i else 0 for j in range(m)))
        lines.append(_rat_text([1] * m + [0] * m))
        lines.append(_rat_text(costs))
        path = os.path.join(workdir, f"lp{index:04d}.txt")
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        return _CirculationLp(path, nodes, arcs, costs)

    def op(self, mods, inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(["ocnp", inst.path, "--from", "zeros", "--format", "json"])
        return code, out.getvalue()

    def canonical(self, result):
        code, stdout = result
        return f"{code}\n{stdout}".encode()

    def check(self, mods, inst, result):
        code, stdout = result
        if code not in (0, 1, 2):
            return False
        doc = json.loads(stdout)
        cycles = _directed_cycles(inst.nodes, inst.arcs)
        verdict = doc["verdict"]
        if verdict == "already-optimal":
            return code == 2 and not cycles
        if verdict not in ("circuit-neighbor", "not-circuit-neighbor") or not cycles:
            return False
        x = _parse_rats(doc["xstar"])
        if len(x) != len(inst.arcs) or any(v not in (0, 1) for v in x):
            return False
        for v in range(1, inst.nodes + 1):
            flow = sum(x[j] for j, (t, _) in enumerate(inst.arcs) if t == v) - sum(
                x[j] for j, (_, h) in enumerate(inst.arcs) if h == v
            )
            if flow != 0:
                return False
        value = _dot(inst.costs, x)
        if any(value > sum(inst.costs[j] for j in cyc) for cyc in cycles):
            return False
        support = tuple(j for j, v in enumerate(x) if v != 0)
        single = _is_one_simple_cycle(inst.arcs, support)
        return (verdict == "circuit-neighbor") == single and code == (0 if single else 1)


@dataclass
class _Graph:
    nodes: int
    arcs: tuple[tuple[int, int], ...]
    digraph: Any


class VerifyCirculation(_CirculationWorkload):
    name = "verify-circulation"
    op_text = "reductions.verify_correspondence(G)"
    classes = _arc_classes((5, 6))
    default_rounds = 8
    trace_rounds = 4

    def build(self, spec, index, mods, workdir):
        nodes, arcs = spec
        return _Graph(nodes, arcs, mods.reductions.Digraph(nodes, arcs))

    def op(self, mods, inst):
        return mods.reductions.verify_correspondence(inst.digraph)

    def canonical(self, result):
        return f"{result!r}\n".encode()

    def check(self, mods, inst, result):
        return result is True


@dataclass
class _DenseLp:
    A: list[list[Fraction]]
    b: list[Fraction]
    B: list[list[Fraction]]
    d: list[Fraction]
    c: list[Fraction]
    xhat: list[Fraction]
    P: Any
    c_vec: Any
    x_vec: Any


def _small_rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    """p/q with |p| <= 5 and 1 <= q <= 7."""
    while True:
        p = rng.randint(-5, 5)
        if p or not nonzero:
            return Fraction(p, rng.randint(1, 7))


class AugmentDense(Workload):
    name = "augment-dense"
    op_text = 'ddstep.augment(P, c, xhat, "approx")'
    classes = (4, 5, 6)
    default_rounds = 34
    trace_rounds = 12

    def sample(self, rng, n):
        upper = [rng.randint(2, 6) for _ in range(n)]
        xhat = [Fraction(rng.randint(1, 3 * u - 1), 3) for u in upper]
        dense = [[_small_rat(rng) for _ in range(n)] for _ in range(n)]
        slack = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(n)]
        eq = [_small_rat(rng, nonzero=True) for _ in range(n)]
        unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        A = [eq]
        b = [_dot(eq, xhat)]
        B = unit + [[-e for e in row] for row in unit] + dense
        d = [Fraction(u) for u in upper] + [Fraction(0)] * n + [
            _dot(row, xhat) + s for row, s in zip(dense, slack)
        ]
        c = [_small_rat(rng, nonzero=True) for _ in range(n)]
        return A, b, B, d, c, xhat

    def build(self, spec, index, mods, workdir):
        A, b, B, d, c, xhat = spec
        n = len(c)
        rl = mods.ratlin
        P = mods.polyhedron.Polyhedron(rl.RatMat(A, cols=n), rl.RatVec(b), rl.RatMat(B, cols=n), rl.RatVec(d))
        return _DenseLp(A, b, B, d, c, xhat, P, rl.RatVec(c), rl.RatVec(xhat))

    def op(self, mods, inst):
        return mods.ddstep.augment(inst.P, inst.c_vec, inst.x_vec, "approx")

    def canonical(self, result):
        lines = [result.mode] + [_rat_text(x.entries) for x in result.iterates]
        return ("\n".join(lines) + "\n").encode()

    def check(self, mods, inst, result):
        iterates = [list(x.entries) for x in result.iterates]
        if not iterates or iterates[0] != inst.xhat or len(iterates) != len(result.steps) + 1:
            return False
        for x in iterates:
            if any(_dot(row, x) != rhs for row, rhs in zip(inst.A, inst.b)):
                return False
            if any(_dot(row, x) > rhs for row, rhs in zip(inst.B, inst.d)):
                return False
        values = [_dot(inst.c, x) for x in iterates]
        if any(later >= earlier for earlier, later in zip(values, values[1:])):
            return False
        best = mods.lp.solve_lp(inst.P, inst.c_vec)
        return isinstance(best, mods.lp.LpOptimal) and best.value == values[-1]


WORKLOADS = {w.name: w for w in (OcnpCirculation(), VerifyCirculation(), AugmentDense())}
