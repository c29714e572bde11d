"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
assertion is an exact rational comparison; there are no tolerances.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from ddcircuits import (
    DdStep,
    Digraph,
    LpOptimal,
    Optimal,
    approx_dd_step,
    augment,
    build_reduction,
    decompose,
    decide_ocnp,
    enumerate_circuits,
    exact_dd_step,
    solve_lp,
    verify_correspondence,
    verify_unique,
)
from ddcircuits.cli import _random_digraph, main
from ddcircuits.ocnp import AlreadyOptimal, CircuitNeighbor, NotCircuitNeighbor
from ddcircuits.circuits import Circuit
from ddcircuits.ratlin import coprime_integer_entries, rank
from ddcircuits.reductions import perturb_costs
from fractions import Fraction

from instgen import (
    exhaustive_digraphs,
    mixed_instances,
    perturbed_objective,
    random_digraph,
)
from oracles import canonical_orientation, directed_simple_cycles, undirected_cycle_indicators
from test_ddstep import _assert_contracts


def _report(number: int, title: str, violations: list, detail: str = "") -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} {title}: {status}{suffix}")
    assert not violations, violations[:3]


def _catalog():
    graphs = list(exhaustive_digraphs(node_counts=(2, 3)))
    graphs += list(exhaustive_digraphs(node_counts=(4,), max_arcs=5))
    return graphs


@pytest.fixture(scope="session")
def ratio_battery():
    """Shared per-instance artifacts for criteria 3, 4, and 7 and the
    convergence tests, among them the exact and approx augmentation from x0."""
    battery = []
    for P, c, x0 in mixed_instances(seed=424242, count=200):
        lp_out = solve_lp(P, c)
        assert isinstance(lp_out, LpOptimal)
        z = lp_out.vertex - x0
        battery.append(
            {
                "P": P,
                "c": c,
                "x0": x0,
                "lp": lp_out,
                "exact": exact_dd_step(P, c, x0),
                "approx": approx_dd_step(P, c, x0),
                "dec": decompose(P, z) if not z.is_zero() else None,
                "traces": {mode: augment(P, c, x0, mode) for mode in ("exact", "approx")},
            }
        )
    return battery


def test_criterion_1_circuit_cycle_correspondence():
    rng = random.Random(10101)
    graphs = _catalog() + [random_digraph(rng, 3, 5, 8) for _ in range(100)]
    violations = []
    for g in graphs:
        P = build_reduction(g).instance.polyhedron
        got = [c.entries for c in enumerate_circuits(P)]
        expected = undirected_cycle_indicators(g)
        if got != expected:
            violations.append((g, got, expected))
    _report(1, "circuit-cycle correspondence", violations, f"{len(graphs)} graphs")


def test_criterion_2_ocnp_oracle_equivalence():
    collected = []
    for P, c, x0 in mixed_instances(seed=777000, count=400):
        if len(collected) == 200:
            break
        out = solve_lp(P, c)
        if not isinstance(out, LpOptimal):
            continue
        if verify_unique(P, c, out.vertex).unique:
            collected.append((P, c, x0, out.vertex))
            continue
        tilted = perturbed_objective(c)
        out2 = solve_lp(P, tilted)
        if isinstance(out2, LpOptimal) and verify_unique(P, tilted, out2.vertex).unique:
            collected.append((P, tilted, x0, out2.vertex))
    assert len(collected) == 200, "instance generator fell short"

    violations = []
    for P, c, x0, xstar in collected:
        verdict = decide_ocnp(P, c, x0)
        d = xstar - x0
        if d.is_zero():
            expected_kind = AlreadyOptimal
        else:
            canon = canonical_orientation(P, Circuit(coprime_integer_entries(d.entries)))
            members = {circ.entries for circ in enumerate_circuits(P)}
            expected_kind = (
                CircuitNeighbor if canon.entries in members else NotCircuitNeighbor
            )
        if type(verdict) is not expected_kind:
            violations.append((P, c.entries, x0.entries, type(verdict).__name__))
    _report(2, "OCNP oracle equivalence", violations, "200 instances")


def test_criterion_3_approximation_ratio(ratio_battery):
    violations = []
    nontrivial = 0
    for item in ratio_battery:
        P, exact, approx, dec = item["P"], item["exact"], item["approx"], item["dec"]
        factor = P.n - rank(P.A)
        if isinstance(exact, Optimal):
            if not isinstance(approx, Optimal):
                violations.append(("optimal mismatch", item["c"].entries))
            continue
        nontrivial += 1
        if not isinstance(approx, DdStep):
            violations.append(("missing approx step", item["c"].entries))
            continue
        if approx.improvement * factor < exact.improvement:
            violations.append(
                ("ratio", str(exact.improvement), str(approx.improvement), factor)
            )
        if dec is None:
            violations.append(("missing decomposition", item["c"].entries))
            continue
        if len(dec.terms) > factor:
            violations.append(("term count", len(dec.terms), factor))
        total = item["x0"] - item["x0"]
        for alpha, g in dec.terms:
            total = total + alpha * g.vec
        if total != item["lp"].vertex - item["x0"]:
            violations.append(("reconstruction", item["c"].entries))
    assert nontrivial >= 80, "not enough nontrivial instances"
    _report(
        3,
        "dimension-factor approximation ratio",
        violations,
        f"200 instances, {nontrivial} nontrivial",
    )


def test_criterion_4_gap_bound(ratio_battery):
    violations = []
    for item in ratio_battery:
        P, c, x0 = item["P"], item["c"], item["x0"]
        factor = P.n - rank(P.A)
        gap = c.dot(x0) - item["lp"].value
        best = (
            item["exact"].improvement
            if isinstance(item["exact"], DdStep)
            else Fraction(0)
        )
        if best * factor < gap:
            violations.append((str(best), str(gap), factor))
    _report(4, "averaging gap bound", violations, "200 instances")


def test_criterion_5_perturbation_clauses():
    rng = random.Random(55055)
    graphs = _catalog() + [random_digraph(rng, 3, 6, 10) for _ in range(100)]
    violations = []
    for g in graphs:
        weighted = perturb_costs(g)
        seen_costs = []
        for cyc in directed_simple_cycles(weighted):
            cost = sum((weighted.costs[i] for i in cyc), Fraction(0))
            if not (len(cyc) <= cost < len(cyc) + 1):
                violations.append(("range", g, cyc, str(cost)))
            if (2 ** weighted.m) % cost.denominator != 0:
                violations.append(("encoding", g, cyc, str(cost)))
            seen_costs.append((len(cyc), cost))
        if len({c for _, c in seen_costs}) != len(seen_costs):
            violations.append(("distinctness", g))
        for la, ca in seen_costs:
            for lb, cb in seen_costs:
                if la > lb and not ca > cb:
                    violations.append(("order", g, la, lb))
    _report(5, "cost perturbation clauses", violations, f"{len(graphs)} graphs")


def test_criterion_6_ddstep_longest_cycle_match():
    rng = random.Random(60606)
    graphs = _catalog() + [random_digraph(rng, 3, 6, 10) for _ in range(100)]
    violations = []
    for g in graphs:
        if not verify_correspondence(g):
            violations.append(g)
    _report(6, "dd-step / longest-cycle match", violations, f"{len(graphs)} graphs")


def test_criterion_7_convergence(ratio_battery):
    violations = []
    max_iters = 0
    max_budget = 0
    for item in ratio_battery:
        P, c, trace = item["P"], item["c"], item["traces"]["exact"]
        if c.dot(trace.final) != item["lp"].value:
            violations.append(("suboptimal endpoint", c.entries))
        values = [c.dot(x) for x in trace.iterates]
        if not all(a > b for a, b in zip(values, values[1:])):
            violations.append(("non-monotone", c.entries))
        bits = 0
        for vec in (P.b, c, P.d):
            for e in vec:
                bits += abs(e.numerator).bit_length() + e.denominator.bit_length()
        max_iters = max(max_iters, len(trace.steps))
        max_budget = max(max_budget, P.n * max(bits, 1))
    _report(
        7,
        "exact augmentation convergence",
        violations,
        f"200 runs, max iterations {max_iters}, max n*bits {max_budget}",
    )


# The smallest k * improvement / gap over every exact and approx step of
# the ratio battery, per factor k = n - rank A.  The paper's argument needs
# only 1; a weaker step rule that still meets it falls below these.
CONTRACTION_FLOORS = {1: Fraction(1), 2: Fraction(1), 3: Fraction(4, 3), 4: Fraction(4, 3)}


def test_every_step_contracts_the_gap(ratio_battery):
    """k * improvement >= gap on every exact and approx augmentation step.

    x* - x splits into at most k conformal terms, so the best term gains at
    least gap/k, and the approximate step extends it to its maximal length;
    an exact dd-step gains at least as much.  So gap' <= (1 - 1/k) * gap.
    """
    worst = {}
    violations = []
    for item in ratio_battery:
        P, c = item["P"], item["c"]
        k = P.n - rank(P.A)
        for mode, trace in item["traces"].items():
            for step, x in zip(trace.steps, trace.iterates):
                ratio = k * step.improvement / (c.dot(x) - item["lp"].value)
                if ratio < 1:
                    violations.append((mode, c.entries, x.entries, str(ratio)))
                worst[mode, k] = min(worst.get((mode, k), ratio), ratio)
    assert not violations, violations[:3]
    assert sorted(worst) == [(mode, k) for mode in ("approx", "exact") for k in CONTRACTION_FLOORS]
    assert all(ratio >= CONTRACTION_FLOORS[k] for (_, k), ratio in worst.items()), worst


def _iteration_bound_holds(k, c, value, trace) -> bool:
    """Whether a run of T >= 1 exact or approx steps has
    g <= ((k-1)/k)^(T-1) * gap0, with gap0 the gap at x0, g the gap before
    the last step and k = n - rank A, and T <= 1 at k = 1; a run of no
    steps holds it."""
    T = len(trace.steps)
    if T == 0:
        return True
    gap0 = c.dot(trace.iterates[0]) - value
    g = c.dot(trace.iterates[T - 1]) - value
    return g <= Fraction(k - 1, k) ** (T - 1) * gap0 and (k > 1 or T == 1)


def test_iteration_count_is_bounded(ratio_battery):
    """A run of T >= 1 exact or approx steps has g <= ((k-1)/k)^(T-1) * gap0,
    with gap0 the gap at x0, g the gap before the last step and
    k = n - rank A: each of the T - 1 steps before it keeps at most
    (1 - 1/k) of the gap.  This is T <= k ln(gap0/g) + 1 without logarithms,
    and at k = 1 the first step reaches x*, so T <= 1."""
    violations = []
    longest = {}
    for item in ratio_battery:
        P, c, value = item["P"], item["c"], item["lp"].value
        k = P.n - rank(P.A)
        for mode, trace in item["traces"].items():
            T = len(trace.steps)
            if not _iteration_bound_holds(k, c, value, trace):
                violations.append((mode, k, T, str(c.dot(trace.iterates[0]) - value)))
            longest[mode, k] = max(longest.get((mode, k), 0), T)
    assert not violations, violations[:3]
    # the bound is exercised past a single step at every k > 1
    assert all(T >= 2 for (_, k), T in longest.items() if k > 1), longest


# The ``bench`` settings of the golden fixtures: (nodes, trials, seed).
BENCH_SETTINGS = ((4, 3, 7), (5, 2, 1))


def test_bench_runs_contract_the_gap(capsys):
    """Every step of ``bench``'s exact and approx runs, on the graphs it
    draws for the golden settings, meets k * improvement >= gap, and each
    run the iteration bound.  The graphs are drawn again as ``bench`` draws
    them, and each run's step count is the one ``bench`` reports."""
    steps = 0
    for nodes, trials, seed in BENCH_SETTINGS:
        argv = ["bench", "--nodes", str(nodes), "--trials", str(trials), "--seed", str(seed)]
        assert main([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        rng = random.Random(seed)
        for row in rows:
            reduction = build_reduction(_random_digraph(rng, nodes))
            P, c = reduction.instance.polyhedron, reduction.instance.objective
            k, value = P.n - rank(P.A), solve_lp(P, c).value
            for mode in ("exact", "approx"):
                trace = augment(P, c, reduction.x0, mode)
                assert len(trace.steps) == row[f"{mode}_iters"]
                _assert_contracts(P, c, trace)
                assert _iteration_bound_holds(k, c, value, trace), (seed, row["graph_id"], mode)
                steps += len(trace.steps)
    assert steps > 0


SQUARE_TEXT = "2 0 4\n1 0\n0 1\n-1 0\n0 -1\n1 1 0 0\n-1 -2\n"
TRIANGLE_TEXT = "3 3\n1 2\n2 3\n3 1\n"


def _battery_transcript(workdir: str, hashseed: str) -> tuple[bytes, list[str]]:
    """The battery's stdout and exit codes as one transcript, and the
    commands that did not exit 0: every one of them succeeds."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    commands = [
        ["solve", "square.lp"],
        ["solve", "square.lp", "--format", "json"],
        ["circuits", "square.lp"],
        ["ddstep", "square.lp", "--from", "0 0", "--mode", "exact"],
        ["ddstep", "square.lp", "--from", "0 0", "--mode", "approx"],
        ["ocnp", "square.lp", "--from", "0 1"],
        ["decompose", "square.lp", "--from", "0 0", "--to", "1 1"],
        ["augment", "square.lp", "--from", "0 0", "--trace", "-"],
        ["reduce", "triangle.graph"],
        ["longest-cycle", "triangle.graph"],
        ["verify", "triangle.graph"],
        ["bench", "--nodes", "4", "--trials", "5", "--seed", "11"],
    ]
    blob, failed = b"", []
    for cmd in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "ddcircuits", *cmd],
            capture_output=True,
            cwd=workdir,
            env=env,
        )
        blob += b"$ " + " ".join(cmd).encode() + b"\n"
        blob += proc.stdout + f"exit={proc.returncode}\n".encode()
        if proc.returncode != 0:
            failed.append(f"{' '.join(cmd)}: exit {proc.returncode}")
    return blob, failed


def test_criterion_8_determinism(tmp_path):
    (tmp_path / "square.lp").write_text(SQUARE_TEXT)
    (tmp_path / "triangle.graph").write_text(TRIANGLE_TEXT)
    first, violations = _battery_transcript(str(tmp_path), "0")
    second, failed = _battery_transcript(str(tmp_path), "1")
    violations += failed
    if first != second:
        violations.append("byte mismatch between runs")
    _report(8, "byte-identical double run", violations, f"{len(first)} bytes")
