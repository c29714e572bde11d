"""Command-line front end with bit-exact, reproducible I/O.

One command per process, no network access, no configuration beyond an
optional work-budget override.  Data goes to stdout (or the requested
output file); diagnostics go to stderr.  Each command builds one
document and prints it through ``_emit``, as a sorted JSON line or as
text that mirrors it.  Every number printed is a rational string or an
integer; floating point never appears.

Exit codes:
  0   success (for ``ocnp``: the optimum is a circuit neighbor)
  1   ``ocnp``: not a circuit neighbor / ``verify``: correspondence failed
  2   ``ocnp``: the starting point is already the unique optimum
  3   ``ocnp``: the LP optimum is not unique
  4   ``solve``: the LP is infeasible
  5   the LP (or the improvement) is unbounded
  64  usage error: bad command line or DDCIRCUITS_WORK_BUDGET (read only
      by the commands that take ``--work-budget``), malformed
      file, malformed point, bad dimensions, a starting point that is
      not feasible
  65  the system is not pointed
  66  a size guard rejected the instance (work budget exceeded)
  70  the augmentation iteration cap was hit
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .circuits import DEFAULT_WORK_BUDGET, enumerate_circuits
from .conformal import decompose, format_conformal
from .ddstep import DdStep, Optimal, UnboundedImprovement, approx_dd_step, augment, exact_dd_step
from .errors import (
    IterationCapExceeded,
    LpUnboundedError,
    NotPointedError,
    ParseError,
    SizeGuardExceeded,
)
from .lp import LpInfeasible, LpUnbounded, solve_lp, verify_unique
from .ocnp import AlreadyOptimal, CircuitNeighbor, NotCircuitNeighbor, NotUnique, decide_ocnp
from .polyhedron import (
    Instance,
    _read_text,
    format_instance,
    format_point,
    load_instance,
    parse_point_text,
)
from .ratlin import _RAT_RE, RatVec, parse_count, parse_int, rank
from .reductions import (
    build_reduction,
    load_digraph,
    longest_cycle_oracle,
    verify_correspondence,
    Digraph,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ALREADY_OPTIMAL = 2
EXIT_NOT_UNIQUE = 3
EXIT_INFEASIBLE = 4
EXIT_UNBOUNDED = 5
EXIT_USAGE = 64
EXIT_NOT_POINTED = 65
EXIT_SIZE_GUARD = 66
EXIT_ITERATION_CAP = 70

# Exit code of each exception main() reports; the first matching type wins.
_EXIT_CODES = {
    ParseError: EXIT_USAGE,
    NotPointedError: EXIT_NOT_POINTED,
    SizeGuardExceeded: EXIT_SIZE_GUARD,
    LpUnboundedError: EXIT_UNBOUNDED,
    IterationCapExceeded: EXIT_ITERATION_CAP,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
}

class _UsageError(Exception):
    """A command line argparse rejected; reported with EXIT_USAGE."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on a bad command line, which is the ocnp
    # "already the unique optimum" code; raise so main() can exit 64.
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _argument(read):
    """The token reader ``read`` as an argparse type, which reports the
    reader's own message instead of argparse's fallback naming the type."""

    def convert(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _text(value) -> str:
    """A document value as text: a list as its items joined by spaces, a
    flag as ``yes``/``no``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return " ".join(str(item) for item in value)
    return str(value)


def _lines(doc: dict) -> str:
    """One ``key: value`` line per entry of ``doc``, in insertion order."""
    return "".join(f"{key}: {_text(value)}\n" for key, value in doc.items())


def _csv(header, rows) -> str:
    # no field holds a comma, a quote or a line break, so none needs quoting
    lines = [",".join(header)] + [",".join([_text(value) for value in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, doc: dict, text: str | None = None) -> None:
    """Write a command's output to its ``-o`` file, or else to stdout.

    With ``--format json`` the output is ``doc`` as one sorted JSON line;
    otherwise it is ``text``, by default ``_lines(doc)``.
    """
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True) + "\n"
    elif text is None:
        text = _lines(doc)
    _write_text(getattr(args, "output", "-"), text)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)


def _load_point(value: str, n: int) -> RatVec:
    """``zeros``, an inline point (every token has the form of a rational),
    or else the path of a one-line point file.

    An inline point never reads a file, even one named like it.
    """
    if value == "zeros":
        return RatVec.zeros(n)
    tokens = value.split()
    if not tokens or not all(_RAT_RE.fullmatch(tok) for tok in tokens):
        value = _read_text(value)
    return parse_point_text(value, expected_dim=n)


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    outcome = solve_lp(inst.polyhedron, inst.objective)
    if isinstance(outcome, LpInfeasible):
        _emit(args, {"status": "infeasible"})
        return EXIT_INFEASIBLE
    if isinstance(outcome, LpUnbounded):
        _emit(args, {"status": "unbounded", "direction": format_point(outcome.direction)})
        return EXIT_UNBOUNDED
    report = verify_unique(
        inst.polyhedron, inst.objective, outcome.vertex, optimum=outcome
    )
    doc = {
        "status": "optimal",
        "x": format_point(outcome.vertex),
        "value": str(outcome.value),
        "unique": report.unique,
    }
    if not report.unique:
        doc["witness"] = format_point(report.witness)
    _emit(args, doc)
    return EXIT_OK


def cmd_circuits(args) -> int:
    inst = load_instance(args.file)
    circuits = enumerate_circuits(inst.polyhedron, work_budget=args.work_budget)
    doc = {"circuits": [list(c.entries) for c in circuits]}
    _emit(args, doc, "".join(f"{c.to_text()}\n" for c in circuits))
    return EXIT_OK


def _step_result(args, res) -> int:
    if isinstance(res, Optimal):
        _emit(args, {"status": "optimal"})
        return EXIT_OK
    if isinstance(res, UnboundedImprovement):
        _emit(args, {"status": "unbounded-improvement", "circuit": list(res.g.entries)})
        return EXIT_UNBOUNDED
    assert isinstance(res, DdStep)
    doc = {
        "status": "step",
        "circuit": list(res.g.entries),
        "alpha": str(res.alpha),
        "improvement": str(res.improvement),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_ddstep(args) -> int:
    inst = load_instance(args.file)
    x0 = _load_point(args.from_point, inst.polyhedron.n)
    if args.mode == "exact":
        res = exact_dd_step(
            inst.polyhedron, inst.objective, x0, work_budget=args.work_budget
        )
    else:
        res = approx_dd_step(inst.polyhedron, inst.objective, x0)
    return _step_result(args, res)


def cmd_ocnp(args) -> int:
    inst = load_instance(args.file)
    x0 = _load_point(args.from_point, inst.polyhedron.n)
    verdict = decide_ocnp(inst.polyhedron, inst.objective, x0)
    if isinstance(verdict, CircuitNeighbor):
        _emit(args, {"verdict": "circuit-neighbor", "xstar": format_point(verdict.xstar)})
        return EXIT_OK
    if isinstance(verdict, NotCircuitNeighbor):
        _emit(args, {"verdict": "not-circuit-neighbor", "xstar": format_point(verdict.xstar)})
        return EXIT_FAIL
    if isinstance(verdict, AlreadyOptimal):
        _emit(args, {"verdict": "already-optimal"})
        return EXIT_ALREADY_OPTIMAL
    assert isinstance(verdict, NotUnique)
    doc = {"verdict": "not-unique"}
    if verdict.report.witness is not None:
        doc["witness"] = format_point(verdict.report.witness)
    _emit(args, doc)
    return EXIT_NOT_UNIQUE


def cmd_decompose(args) -> int:
    inst = load_instance(args.file)
    n = inst.polyhedron.n
    start = _load_point(args.from_point, n)
    target = _load_point(args.to_point, n)
    total = decompose(inst.polyhedron, target - start)
    doc = {
        "terms": [
            {"alpha": str(alpha), "circuit": list(g.entries)} for alpha, g in total.terms
        ]
    }
    _emit(args, doc, format_conformal(total))
    return EXIT_OK


_TRACE_COLUMNS = ("iteration", "circuit", "alpha", "improvement", "objective_after")


def cmd_augment(args) -> int:
    inst = load_instance(args.file)
    c = inst.objective
    x0 = _load_point(args.from_point, inst.polyhedron.n)
    trace = augment(
        inst.polyhedron,
        c,
        x0,
        args.mode,
        max_iters=args.max_iters,
        work_budget=args.work_budget,
    )
    rows = [
        (i, list(step.g.entries), str(step.alpha), str(step.improvement), str(c.dot(x)))
        for i, (step, x) in enumerate(zip(trace.steps, trace.iterates[1:]), start=1)
    ]
    if args.trace is not None:
        _write_text(args.trace, _csv(_TRACE_COLUMNS, rows))
    doc = {
        "steps": len(trace.steps),
        "final": format_point(trace.final),
        "objective": str(c.dot(trace.final)),
    }
    text = _lines(doc)  # the trace is JSON-only on stdout
    doc["trace"] = [dict(zip(_TRACE_COLUMNS, row)) for row in rows]
    _emit(args, doc, text)
    return EXIT_OK


def _instance_doc(inst: Instance) -> dict:
    P = inst.polyhedron
    return {
        "n": P.n,
        "m_A": P.A.m,
        "m_B": P.B.m,
        "A": [[str(e) for e in row] for row in P.A.entries],
        "b": [str(e) for e in P.b],
        "B": [[str(e) for e in row] for row in P.B.entries],
        "d": [str(e) for e in P.d],
        "c": [str(e) for e in inst.objective],
    }


def cmd_reduce(args) -> int:
    instance = build_reduction(load_digraph(args.file)).instance
    _emit(args, {"instance": _instance_doc(instance)}, format_instance(instance))
    return EXIT_OK


def cmd_longest_cycle(args) -> int:
    result = longest_cycle_oracle(load_digraph(args.file))
    if result is None:
        _emit(args, {"status": "no-cycle"}, "no-cycle\n")
        return EXIT_OK
    arcs, cost = result
    cycle = {"arcs": [a + 1 for a in arcs], "cost": str(cost)}
    _emit(args, {"status": "cycle", **cycle}, _lines(cycle))
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = verify_correspondence(load_digraph(args.file), work_budget=args.work_budget)
    _emit(args, {"correspondence": ok}, f"correspondence: {'ok' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_FAIL


def _node_count(token: str) -> int:
    """A node count for ``bench``: a graph needs two nodes for an arc,
    since self-loops are rejected."""
    nodes = parse_count(token)
    if nodes < 2:
        raise ValueError(f"a graph needs at least 2 nodes to have an arc, got {nodes}")
    return nodes


def _random_digraph(rng: random.Random, nodes: int) -> Digraph:
    pairs = [(i, j) for i in range(1, nodes + 1) for j in range(1, nodes + 1) if i != j]
    upper = min(2 * nodes, len(pairs))
    m = rng.randint(min(nodes, upper), upper)
    arcs = tuple(rng.sample(pairs, m))
    return Digraph(nodes, arcs)


_BENCH_COLUMNS = (
    "graph_id",
    "|V|",
    "m",
    "exact_improvement",
    "approx_improvement",
    "ratio",
    "n_minus_rankA",
    "exact_iters",
    "approx_iters",
)


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    records = []
    for trial in range(args.trials):
        graph = _random_digraph(rng, args.nodes)
        reduction = build_reduction(graph)
        P = reduction.instance.polyhedron
        c = reduction.instance.objective
        x0 = reduction.x0
        # the first step of each run is the single step from x0
        exact = augment(P, c, x0, "exact", work_budget=args.work_budget).steps
        approx = augment(P, c, x0, "approx").steps
        exact_imp = exact[0].improvement if exact else 0
        approx_imp = approx[0].improvement if approx else 0
        ratio = "NA" if approx_imp == 0 else str(exact_imp / approx_imp)
        records.append(
            (
                f"g{args.seed}_{trial}",
                graph.nodes,
                graph.m,
                str(exact_imp),
                str(approx_imp),
                ratio,
                P.n - rank(P.A),
                len(exact),
                len(approx),
            )
        )
    doc = {"rows": [dict(zip(_BENCH_COLUMNS, rec)) for rec in records]}
    _emit(args, doc, _csv(_BENCH_COLUMNS, records))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing changes only the namespace it returns, never the parser, so
    in-process callers that run ``main`` many times share one tree.
    """
    parser = _ArgumentParser(
        prog="ddcircuits",
        description="Exact-rational circuit-step toolkit for pointed polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, budget=False):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        if budget:  # only the commands that can enumerate circuits read a budget
            p.add_argument(
                "--work-budget",
                type=_argument(parse_count),
                help="work budget for enumeration-backed oracles, in flats "
                "visited by the circuit scan, each circuit included "
                "(default: $DDCIRCUITS_WORK_BUDGET, else the built-in budget)",
            )

    p = sub.add_parser("solve", help="solve the LP: optimum, value, uniqueness")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("circuits", help="enumerate all circuits (desk scale)")
    p.add_argument("file")
    add_common(p, budget=True)
    p.set_defaults(handler=cmd_circuits)

    p = sub.add_parser("ddstep", help="one deepest-descent step from a point")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True, metavar="PT")
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    add_common(p, budget=True)
    p.set_defaults(handler=cmd_ddstep)

    p = sub.add_parser("ocnp", help="decide the optimal circuit-neighbor question")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True, metavar="PT")
    add_common(p)
    p.set_defaults(handler=cmd_ocnp)

    p = sub.add_parser("decompose", help="conformal decomposition of (to - from)")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True, metavar="PT")
    p.add_argument("--to", dest="to_point", required=True, metavar="PT")
    add_common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("augment", help="iterate circuit steps to optimality")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True, metavar="PT")
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--trace", metavar="OUT.csv", help="write the step trace as CSV")
    p.add_argument("--max-iters", type=_argument(parse_count), default=10_000)
    add_common(p, budget=True)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("reduce", help="build the circulation LP of a digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-", metavar="FILE.lp")
    add_common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("longest-cycle", help="maximum-cost simple directed cycle")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_longest_cycle)

    p = sub.add_parser("verify", help="check the dd-step / longest-cycle match")
    p.add_argument("file")
    add_common(p, budget=True)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="random digraph benchmark, reproducible CSV")
    p.add_argument("--nodes", type=_argument(_node_count), required=True, metavar="K")
    p.add_argument("--trials", type=_argument(parse_count), required=True, metavar="T")
    p.add_argument("--seed", type=_argument(parse_int), required=True, metavar="S")
    p.add_argument("-o", "--output", default="-", metavar="OUT.csv")
    add_common(p, budget=True)
    p.set_defaults(handler=cmd_bench)

    return parser


def _default_budget() -> int:
    raw = os.environ.get("DDCIRCUITS_WORK_BUDGET")
    if raw is None:
        return DEFAULT_WORK_BUDGET
    try:
        return parse_count(raw)
    except ValueError as exc:
        raise ValueError(f"DDCIRCUITS_WORK_BUDGET: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        if "work_budget" in vars(args) and args.work_budget is None:
            args.work_budget = _default_budget()
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
