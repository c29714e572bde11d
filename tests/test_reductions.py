import random
from fractions import Fraction

import pytest

import ddcircuits.reductions

from ddcircuits import (
    Circuit,
    DdStep,
    Digraph,
    LpOptimal,
    ParseError,
    RatVec,
    SizeGuardExceeded,
    augment,
    build_reduction,
    exact_dd_step,
    longest_cycle_oracle,
    perturb_costs,
    solve_lp,
    verify_correspondence,
    verify_unique,
)
from ddcircuits.cli import main
from ddcircuits.ddstep import Optimal, UnboundedImprovement
from ddcircuits.reductions import format_digraph, parse_digraph_text
from ddcircuits.ratlin import RatMat

from instgen import exhaustive_digraphs, random_digraph
from oracles import directed_simple_cycles, incidence_matrix, residual_cycles

TRIANGLE = Digraph(3, ((1, 2), (2, 3), (3, 1)))
COMPLETE3 = Digraph(3, ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)))
TWO_TWO_CYCLES = Digraph(4, ((1, 2), (2, 1), (3, 4), (4, 3)))


class TestDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Digraph(2, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, ((1, 3),))

    @pytest.mark.parametrize(
        "nodes, arcs, costs, message",
        [
            pytest.param(-1, (), None, "node count must be nonnegative", id="negative-nodes"),
            pytest.param(2, ((1, 2),), (1, 2), "cost vector length", id="cost-count"),
        ],
    )
    def test_rejects_bad_shape(self, nodes, arcs, costs, message):
        with pytest.raises(ValueError, match=message):
            Digraph(nodes, arcs, costs)

    def test_allows_parallel_arcs(self):
        g = Digraph(2, ((1, 2), (1, 2)))
        assert g.m == 2


class TestPerturbCosts:
    def test_triangle_costs(self):
        assert perturb_costs(TRIANGLE).costs == (
            Fraction(3, 2),
            Fraction(5, 4),
            Fraction(9, 8),
        )

    def test_single_arc(self):
        assert perturb_costs(Digraph(2, ((1, 2),))).costs == (Fraction(3, 2),)

    def test_unit_costs_accepted(self):
        g = Digraph(2, ((1, 2), (2, 1)), (Fraction(1), Fraction(1)))
        assert perturb_costs(g).costs == (Fraction(3, 2), Fraction(5, 4))

    def test_general_costs_rejected(self):
        g = Digraph(2, ((1, 2), (2, 1)), (Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            perturb_costs(g)

    def test_denominators_divide_power_of_two(self):
        g = perturb_costs(random_digraph(random.Random(9), 4, 6, 10))
        for cost in g.costs:
            assert (2 ** g.m) % cost.denominator == 0

    def test_two_disjoint_two_cycles(self):
        costs = perturb_costs(TWO_TWO_CYCLES).costs
        assert costs[0] + costs[1] == Fraction(11, 4)  # 2 + 3/4
        assert costs[2] + costs[3] == Fraction(35, 16)  # 2 + 3/16


class TestBuildReduction:
    def test_incidence_convention(self):
        A = incidence_matrix(TRIANGLE)
        assert A.entries[0] == (Fraction(1), Fraction(0), Fraction(-1))
        assert A.entries[1] == (Fraction(-1), Fraction(1), Fraction(0))

    def test_triangle_structure(self):
        red = build_reduction(TRIANGLE)
        P = red.instance.polyhedron
        assert P.A == incidence_matrix(TRIANGLE)
        assert P.b == RatVec([0, 0, 0])
        assert P.d == RatVec([1, 1, 1, 0, 0, 0])
        assert red.instance.objective == RatVec(
            [Fraction(-3, 2), Fraction(-5, 4), Fraction(-9, 8)]
        )
        assert red.x0 == RatVec([0, 0, 0])
        assert red.source.arcs == TRIANGLE.arcs

    def test_unique_optimum(self):
        red = build_reduction(TRIANGLE)
        out = solve_lp(red.instance.polyhedron, red.instance.objective)
        assert isinstance(out, LpOptimal)
        assert verify_unique(
            red.instance.polyhedron, red.instance.objective, out.vertex
        ).unique

    def test_acyclic_optimum_is_zero(self):
        red = build_reduction(Digraph(2, ((1, 2),)))
        out = solve_lp(red.instance.polyhedron, red.instance.objective)
        assert out == LpOptimal(RatVec([0]), Fraction(0))
        res = exact_dd_step(red.instance.polyhedron, red.instance.objective, red.x0)
        assert res == Optimal()

    def test_rejects_arcless_graph(self):
        with pytest.raises(ValueError):
            build_reduction(Digraph(3, ()))


class TestLongestCycleOracle:
    def test_triangle(self):
        assert longest_cycle_oracle(perturb_costs(TRIANGLE)) == (
            (0, 1, 2),
            Fraction(31, 8),
        )

    def test_acyclic(self):
        assert longest_cycle_oracle(Digraph(3, ((1, 2), (1, 3), (2, 3)))) is None

    def test_complete_three_nodes(self):
        # the first 3-cycle beats every 2-cycle and the other 3-cycle
        cycle, cost = longest_cycle_oracle(perturb_costs(COMPLETE3))
        assert cycle == (0, 1, 2)
        assert cost == Fraction(31, 8)
        all_cycles = directed_simple_cycles(COMPLETE3)
        assert len(all_cycles) == 5

    def test_matches_exhaustive_maximum(self):
        rng = random.Random(31337)
        for _ in range(20):
            g = perturb_costs(random_digraph(rng, 3, 5, 8))
            expected = None
            for cyc in directed_simple_cycles(g):
                total = sum((g.costs[i] for i in cyc), Fraction(0))
                if expected is None or total > expected[1]:
                    expected = (cyc, total)
            assert longest_cycle_oracle(g) == expected

    def test_unweighted_counts_arcs(self):
        assert longest_cycle_oracle(COMPLETE3) == ((0, 1, 2), Fraction(3))

    def test_size_guard(self):
        big = Digraph(9, tuple((i, i + 1) for i in range(1, 9)))
        with pytest.raises(SizeGuardExceeded):
            longest_cycle_oracle(big)


class TestCorrespondence:
    def test_named_graphs(self):
        for g in (TRIANGLE, COMPLETE3, TWO_TWO_CYCLES):
            assert verify_correspondence(g)

    def test_acyclic_vacuous(self):
        assert verify_correspondence(Digraph(3, ((1, 2), (1, 3), (2, 3))))

    def test_arcless_graph_vacuous(self):
        assert verify_correspondence(Digraph(2, ()))

    @pytest.mark.parametrize(
        "graph, step",
        [
            pytest.param(
                TRIANGLE, DdStep(Circuit((1, 1, 1)), Fraction(2), Fraction(31, 4)), id="alpha-not-one"
            ),
            pytest.param(
                TRIANGLE, DdStep(Circuit((2, 1, 1)), Fraction(1), Fraction(31, 8)), id="entry-not-zero-one"
            ),
            pytest.param(
                TRIANGLE, DdStep(Circuit((1, 1, 0)), Fraction(1), Fraction(11, 4)), id="support-not-the-cycle"
            ),
            pytest.param(
                Digraph(3, ((1, 2), (2, 3), (1, 3))),
                DdStep(Circuit((1, 1, -1)), Fraction(1), Fraction(1)),
                id="step-without-a-cycle",
            ),
            pytest.param(
                TRIANGLE, DdStep(Circuit((1, 1, 1)), Fraction(1), Fraction(3)), id="improvement-not-the-cost"
            ),
            pytest.param(TRIANGLE, Optimal(), id="optimal-despite-a-cycle"),
            pytest.param(
                TRIANGLE, UnboundedImprovement(Circuit((1, 1, 1))), id="unbounded-improvement"
            ),
        ],
    )
    def test_step_that_is_not_the_cycle_fails(self, graph, step, monkeypatch):
        monkeypatch.setattr(ddcircuits.reductions, "exact_dd_step", lambda *args, **kwargs: step)
        assert not verify_correspondence(graph)

    def test_exhaustive_small_catalog(self):
        for g in exhaustive_digraphs(node_counts=(2, 3)):
            assert verify_correspondence(g), g

    def test_oracle_guard_runs_before_the_enumeration(self, tmp_path, monkeypatch, capsys):
        # a graph beyond the oracle's node guard is rejected without an
        # exact dd-step; a guard of 3 nodes stands in for the real 8
        monkeypatch.setattr(ddcircuits.reductions, "MAX_ORACLE_NODES", 3)

        def no_step(*args, **kwargs):
            raise AssertionError("the dd-step ran before the oracle's size guard")

        monkeypatch.setattr(ddcircuits.reductions, "exact_dd_step", no_step)
        square = Digraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
        with pytest.raises(SizeGuardExceeded, match="limited to 3 nodes, got 4"):
            verify_correspondence(square)
        path = tmp_path / "square.graph"
        path.write_text(format_digraph(square))
        assert main(["verify", str(path)]) == 66
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cycle oracle limited to 3 nodes, got 4" in captured.err


def _check_residual_steps(graph) -> int:
    """Check every step of exact ``augment`` from the zero flow against
    the residual-cycle oracle; return the number of steps.

    From a 0/1 flow x a circuit moves exactly when it is a directed cycle
    of the residual digraph, at step 1, improving by its residual weight.
    Sums of distinct 2^-i can tie, so the chosen circuit is checked to be
    among the maximizers, not to be a particular one."""
    red = build_reduction(graph)
    P, c = red.instance.polyhedron, red.instance.objective
    weights = [-e for e in c]
    trace = augment(P, c, red.x0)
    for step, x, moved in zip(trace.steps, trace.iterates, trace.iterates[1:]):
        cycles = residual_cycles(graph, weights, x)
        best = max(w for _, w in cycles)
        assert step.alpha == 1
        assert moved == x + step.g.vec and all(e in (0, 1) for e in moved)
        assert step.improvement == best > 0
        assert step.g.entries in {g for g, w in cycles if w == best}
    assert all(w <= 0 for _, w in residual_cycles(graph, weights, trace.final))
    return len(trace.steps)


class TestResidualCycles:
    def test_every_exact_step_is_a_heaviest_residual_cycle(self):
        rng = random.Random(21)
        graphs = list(exhaustive_digraphs(node_counts=(2, 3)))
        graphs += [random_digraph(rng, 4, 5, 12) for _ in range(80)]
        steps = [_check_residual_steps(graph) for graph in graphs]
        assert 0 in steps and max(steps) >= 3

    def test_oracle_reverses_arcs_of_the_flow(self):
        # on the triangle carrying its cycle, the residual cycle runs
        # backwards and gives the cost back
        weights = [-e for e in build_reduction(TRIANGLE).instance.objective]
        assert residual_cycles(TRIANGLE, weights, [0, 0, 0]) == [((1, 1, 1), Fraction(31, 8))]
        assert residual_cycles(TRIANGLE, weights, [1, 1, 1]) == [((-1, -1, -1), Fraction(-31, 8))]


class TestPerturbedCycleCosts:
    def test_catalog(self):
        rng = random.Random(2024)
        graphs = list(exhaustive_digraphs(node_counts=(2, 3))) + [
            random_digraph(rng, 4, 6, 10) for _ in range(25)
        ]
        for g in graphs:
            weighted = perturb_costs(g)
            costs = []
            for cyc in directed_simple_cycles(weighted):
                total = sum((weighted.costs[i] for i in cyc), Fraction(0))
                assert len(cyc) <= total < len(cyc) + 1
                costs.append((len(cyc), total))
            assert len({c for _, c in costs}) == len(costs)
            for la, ca in costs:
                for lb, cb in costs:
                    if la > lb:
                        assert ca > cb


GRAPH_TEXT = "3 3\n1 2\n2 3\n3 1\n"


class TestGraphFormat:
    def test_parse(self):
        assert parse_digraph_text(GRAPH_TEXT) == TRIANGLE

    def test_roundtrip_unweighted(self):
        assert parse_digraph_text(format_digraph(TRIANGLE)) == TRIANGLE

    def test_roundtrip_weighted(self):
        g = perturb_costs(TRIANGLE)
        assert parse_digraph_text(format_digraph(g)) == g

    def test_bad_cost_position(self):
        with pytest.raises(ParseError) as err:
            parse_digraph_text("2 1\n1 2 3/0\n")
        assert err.value.line == 2
        assert err.value.column == 5

    def test_header_token_count_names_the_fields(self):
        with pytest.raises(ParseError) as err:
            parse_digraph_text("3 3 3\n1 2\n2 3\n3 1\n")
        assert str(err.value) == "line 1, column 1: header must be '|V| m', found 3 tokens"

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_digraph_text("3 3\n1 2\n2 3\n")

    def test_mixed_cost_presence(self):
        with pytest.raises(ParseError):
            parse_digraph_text("2 2\n1 2 1\n2 1\n")

    def test_arc_line_token_count(self):
        with pytest.raises(ParseError, match="^line 2, column 1: arc line must be"):
            parse_digraph_text("2 1\n1\n")

    def test_self_loop_reported(self):
        with pytest.raises(ParseError):
            parse_digraph_text("2 1\n1 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "# g\n3 3\n1 2\n2 3\n3 9\n",
                "line 5, column 1: arc (3, 9) leaves the node range 1..3",
                id="head-out-of-range",
            ),
            pytest.param(
                "2 1\n 1 1\n", "line 2, column 2: self-loop at node 1 is not allowed", id="self-loop"
            ),
            pytest.param(
                "2 1\n0 2 1/2\n",
                "line 2, column 1: arc (0, 2) leaves the node range 1..2",
                id="tail-zero-with-cost",
            ),
        ],
    )
    def test_bad_arc_reported_at_its_line(self, text, message):
        # at the arc's own line and its first token, not at the header
        with pytest.raises(ParseError) as err:
            parse_digraph_text(text)
        assert str(err.value) == message
