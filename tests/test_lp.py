import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ddcircuits import (
    Digraph,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    Polyhedron,
    RatVec,
    UNBOUNDED,
    UniquenessReport,
    build_reduction,
    is_feasible,
    max_step,
    solve_lp,
    verify_unique,
)
import ddcircuits.lp
from ddcircuits.lp import _purify_to_vertex, _unique_by_reduced_costs
from ddcircuits.polyhedron import active_rows
from ddcircuits.ratlin import RatMat

from instgen import (
    dense_polytope,
    exhaustive_digraphs,
    gen_box,
    gen_circulation,
    gen_tulike,
    mixed_instances,
    random_digraph,
)
from oracles import (
    brute_force_vertices,
    min_over_vertices,
    minor_rank,
    probe_unique,
    tangent_cone,
)

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])
HALF_LINE = Polyhedron(RatMat([], cols=1), RatVec([]), RatMat([[-1]]), RatVec([0]))
TRIANGLE = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance
# min -x2 over the strip {0 <= x2 <= 1, x1 >= 0}: the optimal face is a ray
STRIP = Polyhedron(
    RatMat([], cols=2),
    RatVec([]),
    RatMat([[0, 1], [0, -1], [-1, 0]]),
    RatVec([1, 0, 0]),
)


def _assert_vertex(P, x):
    act = active_rows(P, x)
    assert minor_rank(P.A.entries + tuple(P.B.entries[j] for j in act), P.n) == P.n


class TestSolveLp:
    def test_square_corner(self):
        out = solve_lp(UNIT_SQUARE, RatVec([-1, -1]))
        assert out == LpOptimal(RatVec([1, 1]), Fraction(-2))
        _assert_vertex(UNIT_SQUARE, out.vertex)

    def test_half_line_unbounded(self):
        out = solve_lp(HALF_LINE, RatVec([-1]))
        assert isinstance(out, LpUnbounded)
        r = out.direction
        assert HALF_LINE.B.matvec(r)[0] <= 0
        assert RatVec([-1]).dot(r) < 0

    def test_triangle_circulation(self):
        out = solve_lp(TRIANGLE.polyhedron, TRIANGLE.objective)
        assert out == LpOptimal(RatVec([1, 1, 1]), Fraction(-31, 8))

    def test_objective_dimension_checked(self):
        with pytest.raises(ValueError, match="objective has dimension 1, expected 2"):
            solve_lp(UNIT_SQUARE, RatVec([1]))

    def test_infeasible(self):
        P = Polyhedron(
            RatMat([], cols=1), RatVec([]), RatMat([[1], [-1]]), RatVec([0, -1])
        )  # x <= 0 and x >= 1
        assert solve_lp(P, RatVec([-1])) == LpInfeasible()

    def test_equality_constrained(self):
        P = Polyhedron(
            RatMat([[1, 1]]), RatVec([1]), UNIT_SQUARE.B, UNIT_SQUARE.d
        )
        out = solve_lp(P, RatVec([-1, 0]))
        assert out == LpOptimal(RatVec([1, 0]), Fraction(-1))
        _assert_vertex(P, out.vertex)

    def test_zero_objective_still_returns_vertex(self):
        # the split formulation alone would stop at the interior point 0
        diamond = Polyhedron(
            RatMat([], cols=2),
            RatVec([]),
            RatMat([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
            RatVec([1, 1, 1, 1]),
        )
        out = solve_lp(diamond, RatVec([0, 0]))
        assert isinstance(out, LpOptimal)
        _assert_vertex(diamond, out.vertex)

    def test_equality_only_system(self):
        # m_B = 0: the feasible region is the single point (1, 1)
        P = Polyhedron(
            RatMat([[1, 0], [0, 1]]), RatVec([1, 1]), RatMat([], cols=2), RatVec([])
        )
        out = solve_lp(P, RatVec([5, -3]))
        assert out == LpOptimal(RatVec([1, 1]), Fraction(2))
        assert verify_unique(P, RatVec([5, -3]), out.vertex).unique

    def test_contradictory_equalities(self):
        P = Polyhedron(
            RatMat([[1, 0], [1, 0]]),
            RatVec([0, 1]),
            RatMat([[0, 1], [0, -1]]),
            RatVec([1, 0]),
        )
        assert solve_lp(P, RatVec([1, 1])) == LpInfeasible()

    def test_redundant_equality_rows(self):
        # duplicated and scaled copies of one row exercise artificial removal
        box = Polyhedron.box([0, 0], [1, 1])
        P = Polyhedron(
            RatMat([[1, 1], [1, 1], [2, 2]]), RatVec([1, 1, 2]), box.B, box.d
        )
        out = solve_lp(P, RatVec([-1, 0]))
        assert out == LpOptimal(RatVec([1, 0]), Fraction(-1))

    def test_degenerate_vertex(self):
        # three inequalities meet at (1, 0); ratio ties exercise the
        # smallest-index leaving rule
        P = Polyhedron(
            RatMat([], cols=2),
            RatVec([]),
            RatMat([[1, 1], [1, -1], [1, 0], [-1, 0], [0, 1], [0, -1]]),
            RatVec([1, 1, 1, 1, 1, 1]),
        )
        out = solve_lp(P, RatVec([-1, 0]))
        assert out == LpOptimal(RatVec([1, 0]), Fraction(-1))
        _assert_vertex(P, out.vertex)

    def test_deterministic(self):
        a = solve_lp(TRIANGLE.polyhedron, TRIANGLE.objective)
        b = solve_lp(TRIANGLE.polyhedron, TRIANGLE.objective)
        assert a == b


@pytest.mark.parametrize(
    "c, x",
    [
        pytest.param((0, 0), (Fraction(1, 2), Fraction(1, 2)), id="centre-zero-objective"),
        pytest.param((0, -1), (Fraction(1, 2), 1), id="top-edge-midpoint"),
    ],
)
def test_purification_moves_to_a_vertex(c, x):
    # an optimal point that is not a vertex: the walk must move and keep the value
    c, x = RatVec(c), RatVec(x)
    vertex, X, D = _purify_to_vertex(UNIT_SQUARE, c, x)
    assert vertex == RatVec(Fraction(e, D) for e in X)
    assert vertex != x
    assert is_feasible(UNIT_SQUARE, vertex)
    _assert_vertex(UNIT_SQUARE, vertex)
    assert c.dot(vertex) == c.dot(x)


class TestOracleAgreement:
    def test_value_matches_vertex_enumeration(self):
        rng = random.Random(4821)
        for _ in range(25):
            P, c, _ = gen_box(rng) if rng.random() < 0.5 else gen_tulike(rng)
            out = solve_lp(P, c)
            if isinstance(out, LpOptimal):
                assert out.value == min_over_vertices(P, c)
                assert out.vertex.entries in {
                    v.entries for v in brute_force_vertices(P)
                }


class TestVerifyUnique:
    def test_unique_corner(self):
        report = verify_unique(UNIT_SQUARE, RatVec([-1, -1]), RatVec([1, 1]))
        assert report.unique and report.witness is None

    def test_edge_not_unique(self):
        report = verify_unique(UNIT_SQUARE, RatVec([-1, 0]), RatVec([1, 0]))
        assert not report.unique
        assert report.witness == RatVec([1, 1])

    def test_witness_is_optimal(self):
        c = RatVec([-1, 0])
        report = verify_unique(UNIT_SQUARE, c, RatVec([1, 0]))
        assert is_feasible(UNIT_SQUARE, report.witness)
        assert c.dot(report.witness) == c.dot(RatVec([1, 0]))

    def test_triangle_unique(self):
        report = verify_unique(
            TRIANGLE.polyhedron, TRIANGLE.objective, RatVec([1, 1, 1])
        )
        assert report.unique

    def test_unbounded_face_detected(self):
        c = RatVec([0, -1])
        report = verify_unique(STRIP, c, RatVec([0, 1]))
        assert not report.unique
        assert is_feasible(STRIP, report.witness)
        assert c.dot(report.witness) == Fraction(-1)

    def test_non_optimal_rejected(self):
        with pytest.raises(ValueError):
            verify_unique(UNIT_SQUARE, RatVec([-1, -1]), RatVec([0, 0]))

    def test_lp_without_optimum_rejected(self):
        with pytest.raises(ValueError, match="the LP has no optimum"):
            verify_unique(HALF_LINE, RatVec([-1]), RatVec([0]))

    def test_infeasible_rejected(self):
        x = RatVec([2, 2])
        # also with a hand-built optimum at that point
        for optimum in (None, LpOptimal(x, Fraction(-4))):
            with pytest.raises(ValueError):
                verify_unique(UNIT_SQUARE, RatVec([-1, -1]), x, optimum=optimum)

    def test_own_unique_vertex_is_not_rechecked(self, monkeypatch):
        checked = []
        real = ddcircuits.lp._feasible_slack

        def counting(P, x):
            checked.append(x)
            return real(P, x)

        monkeypatch.setattr(ddcircuits.lp, "_feasible_slack", counting)
        c = RatVec([-1, -1])
        out = solve_lp(UNIT_SQUARE, c)
        assert out.unique
        assert verify_unique(UNIT_SQUARE, c, out.vertex, optimum=out).unique
        assert checked == []
        # a hand-built optimum's claim is not trusted: the point is checked
        # and the value compared
        with pytest.raises(ValueError):
            verify_unique(
                UNIT_SQUARE, c, out.vertex, optimum=LpOptimal(out.vertex, Fraction(-1), unique=True)
            )
        # any other path checks the point
        assert verify_unique(UNIT_SQUARE, c, out.vertex).unique
        hand_built = LpOptimal(out.vertex, out.value)
        assert verify_unique(UNIT_SQUARE, c, out.vertex, optimum=hand_built).unique
        assert checked == [out.vertex, out.vertex, out.vertex]

    def test_hand_built_unique_claim_outside_p_is_rejected(self):
        c, x = RatVec([-1, -1]), RatVec([2, 2])
        with pytest.raises(ValueError, match="^xstar is not feasible$"):
            verify_unique(UNIT_SQUARE, c, x, optimum=LpOptimal(x, c.dot(x), unique=True))

    def test_hand_built_unique_claim_on_an_edge_is_rechecked(self):
        c, x = RatVec([-1, 0]), RatVec([1, 0])
        claimed = LpOptimal(x, Fraction(-1), unique=True)
        report = verify_unique(UNIT_SQUARE, c, x, optimum=claimed)
        assert report == verify_unique(UNIT_SQUARE, c, x)
        assert report == UniquenessReport(False, RatVec([1, 1]))

    def test_unique_claim_for_another_objective_is_rechecked(self):
        # solve_lp's own proof for c' = (-1, -1) says nothing about c = (-1, 0)
        c, other = RatVec([-1, 0]), RatVec([-1, -1])
        out = solve_lp(UNIT_SQUARE, other)
        assert out.unique and c.dot(out.vertex) == -1
        claimed = LpOptimal(out.vertex, Fraction(-1), unique=True, objective=other)
        assert verify_unique(UNIT_SQUARE, c, out.vertex, optimum=claimed) == UniquenessReport(
            False, RatVec([1, 0])
        )


def _tie_prone(rng, c):
    """Zero some objective entries and round others to +-1, so optima often tie."""
    out = []
    for e in c:
        r = rng.random()
        out.append(0 if r < 0.2 else (e > 0) - (e < 0) if r < 0.5 else e)
    return RatVec(out)


class TestVerifyUniqueAgainstProbes:
    """Both uniqueness paths against the 2n-probe oracle of tests/oracles.py."""

    def _check(self, P, c, xstar):
        """Check xstar twice: with the ``solve_lp`` outcome, which may take
        the reduced-cost shortcut, and with a hand-built optimum, which
        carries no tableau verdict and forces the walk and tangent-cone LP."""
        out = solve_lp(P, c)
        unique, _ = probe_unique(P, c, xstar)
        # xstar and out.vertex share the optimal face
        assert unique or not out.unique
        reports = [
            verify_unique(P, c, xstar, optimum=optimum)
            for optimum in (out, LpOptimal(out.vertex, out.value))
        ]
        for report in reports:
            assert report.unique == unique
            if unique:
                assert report.witness is None
            else:
                assert is_feasible(P, report.witness)
                assert c.dot(report.witness) == c.dot(xstar)
                assert report.witness != xstar
                # the witness ends the maximal step from xstar, or is one
                # unit along an unbounded direction of the optimal face
                assert max_step(P, xstar, report.witness - xstar) in (1, UNBOUNDED)
        assert reports[0] == reports[1] == verify_unique(P, c, xstar)
        return reports[0]

    def test_seeded_boxes_and_circulations(self):
        rng = random.Random(20791)
        not_unique = 0
        for i in range(40):
            P, c, _ = (gen_box if i % 2 == 0 else gen_circulation)(rng)
            c = _tie_prone(rng, c)
            out = solve_lp(P, c)
            assert isinstance(out, LpOptimal)
            report = self._check(P, c, out.vertex)
            if not report.unique:
                not_unique += 1
                # the midpoint of two optima is an optimal non-vertex point
                self._check(P, c, (out.vertex + report.witness) * Fraction(1, 2))
        assert 6 <= not_unique <= 20

    def test_midpoint_of_optimal_edge(self):
        report = self._check(UNIT_SQUARE, RatVec([-1, 0]), RatVec([1, Fraction(1, 2)]))
        assert not report.unique

    def test_unbounded_optimal_face(self):
        c = RatVec([0, -1])
        assert not self._check(STRIP, c, RatVec([0, 1])).unique
        assert not self._check(STRIP, c, RatVec([3, 1])).unique

    def test_caller_optimum_must_match(self):
        with pytest.raises(ValueError):
            verify_unique(
                UNIT_SQUARE,
                RatVec([-1, -1]),
                RatVec([1, 0]),
                optimum=LpOptimal(RatVec([1, 0]), Fraction(-2)),
            )


def test_tangent_cone_is_built_from_the_images(monkeypatch):
    """The cone ``verify_unique`` hands to ``solve_lp`` equals the one built
    from the rational views (``oracles.tangent_cone``), region and objective.
    A hand-built optimum carries no tableau verdict, and the solver's vertex
    leaves no kernel to walk, so each check below reaches the cone LP."""
    cones = []
    real = ddcircuits.lp.solve_lp

    def capturing(P, c):
        cones.append((P, c))
        return real(P, c)

    monkeypatch.setattr(ddcircuits.lp, "solve_lp", capturing)
    rng = random.Random(3131)
    battery = mixed_instances(seed=3130, count=45) + [dense_polytope(rng) for _ in range(15)]
    reached = 0
    for P, c, _ in battery:
        for objective in (c, _tie_prone(rng, c)):
            out = real(P, objective)
            assert isinstance(out, LpOptimal)
            cones.clear()
            verify_unique(P, objective, out.vertex, optimum=LpOptimal(out.vertex, out.value))
            assert len(cones) == 1
            assert cones[0] == tangent_cone(P, objective, out.vertex)
            reached += 1
    assert reached == 120


@given(
    st.sampled_from([gen_box, gen_circulation, dense_polytope]),
    st.integers(0, 2**32 - 1),
)
def test_tableau_uniqueness_is_sound(gen, seed):
    rng = random.Random(seed)
    P, c, _ = gen(rng)
    c = _tie_prone(rng, c)
    out = solve_lp(P, c)
    assert isinstance(out, LpOptimal)
    if out.unique:
        assert probe_unique(P, c, out.vertex)[0]


def test_reductions_are_proved_unique_by_the_tableau():
    """The reduced costs alone settle the unique optimum of every perturbed
    circulation LP here, so ``ocnp`` solves one LP per instance."""
    rng = random.Random(5)
    graphs = list(exhaustive_digraphs((2, 3)))
    graphs += [random_digraph(rng, 3, 5, 9) for _ in range(40)]
    assert len(graphs) == 106
    for graph in graphs:
        inst = build_reduction(graph).instance
        assert solve_lp(inst.polyhedron, inst.objective).unique


def test_only_an_open_optimum_is_purified(monkeypatch):
    """``solve_lp`` walks an optimum to a vertex only when its reduced costs
    leave uniqueness open; one they prove unique is a vertex already."""
    walked = []
    real = ddcircuits.lp._purify_to_vertex

    def spy(P, c, x):
        walked.append(x)
        return real(P, c, x)

    monkeypatch.setattr(ddcircuits.lp, "_purify_to_vertex", spy)
    rng = random.Random(2727)
    battery = mixed_instances(seed=2726, count=60) + [dense_polytope(rng) for _ in range(20)]
    verdicts = []
    for P, c, _ in battery:
        for objective in (c, _tie_prone(rng, c)):
            walked.clear()
            out = solve_lp(P, objective)
            assert isinstance(out, LpOptimal)
            assert len(walked) == (0 if out.unique else 1)
            if out.unique:
                _assert_vertex(P, out.vertex)
            verdicts.append(out.unique)
    assert True in verdicts and False in verdicts


class TestReducedCostShortcut:
    """Where the tableau cannot decide, the shortcut declines and the full
    check answers."""

    def test_degenerate_unique_apex(self, monkeypatch):
        # square pyramid over [-1, 1]^2 with apex (0, 0, 1): four facets meet there
        pyramid = Polyhedron(
            RatMat([], cols=3),
            RatVec([]),
            RatMat([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]),
            RatVec([0, 1, 1, 1, 1]),
        )
        c = RatVec([0, 0, -1])
        final = []  # the cost row and basis of each simplex phase
        real = ddcircuits.lp._bland

        def spy(T, basis, ncols, *bounds):
            status = real(T, basis, ncols, *bounds)
            final.append((T[-1][:ncols], list(basis)))
            return status

        monkeypatch.setattr(ddcircuits.lp, "_bland", spy)
        out = solve_lp(pyramid, c)
        cost, basis = final[-1]
        assert out.vertex == RatVec([0, 0, 1])
        # a nonbasic slack column (index >= 2n) keeps reduced cost 0
        assert [j for j in range(6, len(cost)) if j not in basis and cost[j] == 0]
        assert not out.unique
        report = verify_unique(pyramid, c, out.vertex, optimum=out)
        assert report == UniquenessReport(True, None)
        assert probe_unique(pyramid, c, out.vertex)[0]

    def test_free_coordinate_with_both_halves_nonbasic(self):
        # Hand-built cost rows: the smallest-index rule favours the x
        # columns and seldom ends with both halves of a coordinate
        # nonbasic.  Columns are x+_1 x+_2 x-_1 x-_2 s_1 s_2, and x_2's
        # halves cost r and -r, so no r passes.
        for r in (-1, 0, 1):
            assert not _unique_by_reduced_costs([0, r, 0, -r, 0, 3], [0, 4], 2, range(2))
        assert _unique_by_reduced_costs([0, 0, 0, 0, 2, 3], [0, 3], 2, range(2))

    def test_non_vertex_point_skips_the_shortcut(self):
        c = RatVec([-1, 0])
        out = solve_lp(UNIT_SQUARE, c)
        midpoint = RatVec([1, Fraction(1, 2)])
        # even an optimum that claims uniqueness is not trusted for another point
        for optimum in (out, LpOptimal(out.vertex, out.value, unique=True)):
            report = verify_unique(UNIT_SQUARE, c, midpoint, optimum=optimum)
            assert not report.unique
            assert is_feasible(UNIT_SQUARE, report.witness)
            assert c.dot(report.witness) == c.dot(midpoint)
