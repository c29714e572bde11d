import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ddcircuits.ddstep

from ddcircuits import (
    Circuit,
    DdStep,
    Digraph,
    IterationCapExceeded,
    LpOptimal,
    LpUnbounded,
    LpUnboundedError,
    Optimal,
    Polyhedron,
    RatVec,
    UnboundedImprovement,
    approx_dd_step,
    augment,
    build_reduction,
    decompose,
    enumerate_circuits,
    exact_dd_step,
    max_step,
    solve_lp,
    verify_unique,
)
from ddcircuits.circuits import DEFAULT_WORK_BUDGET
from ddcircuits.conformal import _terms
from ddcircuits.ddstep import _table
from ddcircuits.polyhedron import UNBOUNDED, _classes, _image, _slack
from ddcircuits.ratlin import RatMat, _int_vector, rank

from instgen import (
    dense_polytope,
    gen_box,
    gen_circulation,
    mixed_instances,
    verify_class_digraphs,
)
from oracles import per_step_augment
from test_dense_reference import _enumeration_systems

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])
TRIANGLE = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance
TWO_TRIANGLES = build_reduction(
    Digraph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))
).instance
HALF_LINE = Polyhedron(RatMat([], cols=1), RatVec([]), RatMat([[-1]]), RatVec([0]))


class TestExactStep:
    def test_triangle_from_zero(self):
        step = exact_dd_step(
            TRIANGLE.polyhedron, TRIANGLE.objective, RatVec([0, 0, 0])
        )
        assert step == DdStep(Circuit((1, 1, 1)), Fraction(1), Fraction(31, 8))

    def test_already_optimal(self):
        assert exact_dd_step(UNIT_SQUARE, RatVec([-1, -1]), RatVec([1, 1])) == Optimal()

    def test_picks_larger_improvement(self):
        step = exact_dd_step(UNIT_SQUARE, RatVec([-3, -1]), RatVec([0, 0]))
        assert step.g.entries == (1, 0)
        assert step.alpha == 1
        assert step.improvement == 3

    def test_unbounded_improvement(self):
        res = exact_dd_step(HALF_LINE, RatVec([-1]), RatVec([0]))
        assert isinstance(res, UnboundedImprovement)
        assert res.g.entries == (1,)

    def test_dominates_every_feasible_circuit_step(self):
        for P, c, x0 in mixed_instances(seed=2233, count=15):
            res = exact_dd_step(P, c, x0)
            best = res.improvement if isinstance(res, DdStep) else Fraction(0)
            for circ in enumerate_circuits(P):
                for g in (circ, -circ):
                    if c.dot(g.vec) >= 0:
                        continue
                    beta = max_step(P, x0, g.vec)
                    assert beta is not UNBOUNDED
                    assert best >= -beta * c.dot(g.vec)

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError):
            exact_dd_step(UNIT_SQUARE, RatVec([-1, -1]), RatVec([2, 2]))


class TestApproxStep:
    def test_matches_exact_on_square(self):
        step = approx_dd_step(UNIT_SQUARE, RatVec([-3, -1]), RatVec([0, 0]))
        assert step.g.entries == (1, 0)
        assert step.alpha == 1
        assert step.improvement == 3

    def test_matches_exact_on_triangle(self):
        step = approx_dd_step(
            TRIANGLE.polyhedron, TRIANGLE.objective, RatVec([0, 0, 0])
        )
        assert (step.g.entries, step.alpha, step.improvement) == (
            (1, 1, 1),
            Fraction(1),
            Fraction(31, 8),
        )

    def test_optimal_start(self):
        assert approx_dd_step(UNIT_SQUARE, RatVec([-1, -1]), RatVec([1, 1])) == Optimal()

    def test_unbounded_lp_reported(self):
        with pytest.raises(LpUnboundedError):
            approx_dd_step(HALF_LINE, RatVec([-1]), RatVec([0]))

    def test_ratio_guarantee(self):
        for P, c, x0 in mixed_instances(seed=880, count=30):
            exact = exact_dd_step(P, c, x0)
            approx = approx_dd_step(P, c, x0)
            if isinstance(exact, Optimal):
                assert isinstance(approx, Optimal)
                continue
            factor = P.n - rank(P.A)
            assert isinstance(approx, DdStep)
            assert approx.improvement * factor >= exact.improvement

    def test_gap_bound(self):
        for P, c, x0 in mixed_instances(seed=881, count=30):
            exact = exact_dd_step(P, c, x0)
            out = solve_lp(P, c)
            assert isinstance(out, LpOptimal)
            gap = c.dot(x0) - out.value
            factor = P.n - rank(P.A)
            best = exact.improvement if isinstance(exact, DdStep) else Fraction(0)
            assert best * factor >= gap


def _assert_contracts(P, c, trace):
    """k * improvement >= gap on every step of an exact or approx ``trace``,
    with k = n - rank A and gap = c.x - c.x* at the step's iterate: x* - x
    splits into at most k conformal terms, so the best one gains at least
    gap / k, and either step gains at least as much."""
    k = P.n - rank(P.A)
    value = solve_lp(P, c).value
    for step, x in zip(trace.steps, trace.iterates):
        assert k * step.improvement >= c.dot(x) - value


def _full_rule(P, c, x, optimum):
    """The approximate step read off the whole decomposition: the first
    term of ``decompose``'s canonical order with the smallest c.(alpha g),
    then its maximal step."""
    z = optimum.vertex - x
    if z.is_zero():
        return Optimal()
    alpha, g = min(decompose(P, z).terms, key=lambda term: c.dot(term[0] * term[1].vec))
    slope = c.dot(g.vec)
    if alpha * slope >= 0:
        return Optimal()
    beta = max_step(P, x, g.vec)
    return DdStep(g, beta, -beta * slope)


def _recording(walked):
    """A stand-in for ``_terms`` that appends each term it yields to walked."""

    def recording(P, zint, classes):
        for term in _terms(P, zint, classes):
            walked.append(term)
            yield term

    return recording


def _walked_terms(P, c, x, optimum):
    """``_approx_step``'s outcome and the terms it read, in walk order."""
    walked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddcircuits.ddstep, "_terms", _recording(walked))
        res, _ = ddcircuits.ddstep._approx_step(
            P, _int_vector(c), _slack(P, x), _int_vector(optimum.vertex), _classes(P)
        )
    return res, walked


def _check_early_stop(P, c, x, optimum):
    res, walked = _walked_terms(P, c, x, optimum)
    assert res == _full_rule(P, c, x, optimum)
    z = optimum.vertex - x
    if z.is_zero():
        assert walked == []
        return res
    every = list(_terms(P, _int_vector(z), _classes(P)))
    assert walked == every[: len(walked)]

    def key(term):
        return (c.dot(term[0] * term[1].vec), term[1].entries)

    best = min(map(key, walked))
    assert all(best < key(term) for term in every[len(walked):])
    return res


@given(
    st.sampled_from([gen_box, gen_circulation, dense_polytope]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_early_stop_picks_the_full_decompositions_term(gen, seed, data):
    """Tie-prone costs (zero entries, +-1 entries and so equal gains), along
    the whole augmentation from the start, and from optimal starts other
    than x*, where every gain is 0."""
    P, c, x0 = gen(random.Random(seed))
    c = RatVec([data.draw(st.sampled_from([0, 1, -1, e])) for e in c])
    optimum = solve_lp(P, c)
    assert isinstance(optimum, LpOptimal)
    trace = augment(P, c, x0, "approx")
    _assert_contracts(P, c, trace)
    outcomes = [_check_early_stop(P, c, x, optimum) for x in trace.iterates]
    assert outcomes == [*trace.steps, Optimal()]
    report = verify_unique(P, c, optimum.vertex, optimum=optimum)
    if not report.unique:
        for other in (report.witness, (optimum.vertex + report.witness) * Fraction(1, 2)):
            assert _check_early_stop(P, c, other, optimum) == Optimal()


def test_early_stop_on_equal_gains():
    # both unit terms of the square gain -1; the earliest circuit wins, and
    # the first term alone cannot settle it
    c, x = RatVec([-1, -1]), RatVec([0, 0])
    res, walked = _walked_terms(UNIT_SQUARE, c, x, solve_lp(UNIT_SQUARE, c))
    assert res == DdStep(Circuit((0, 1)), Fraction(1), Fraction(1))
    assert len(walked) == 2
    # the same tie across alpha denominators: on [0, 1/2] x [0, 1] the terms
    # are (1, (0, 1)) and then (1/2, (1, 0)), and both gain -1
    box, c = Polyhedron.box([0, 0], [Fraction(1, 2), 1]), RatVec([-2, -1])
    res, walked = _walked_terms(box, c, x, solve_lp(box, c))
    assert walked == [(Fraction(1), Circuit((0, 1))), (Fraction(1, 2), Circuit((1, 0)))]
    assert res == DdStep(Circuit((0, 1)), Fraction(1), Fraction(1))


# Terms the approximate step reads over the augmentations of the 40
# ``dense_polytope(random.Random(1))`` instances, and the terms of the full
# decompositions of x* - x at the same iterates.
APPROX_WALKED_TERMS = 146
APPROX_FULL_TERMS = 196


def test_early_stop_walks_fewer_terms(monkeypatch):
    walked = []
    monkeypatch.setattr(ddcircuits.ddstep, "_terms", _recording(walked))
    rng = random.Random(1)
    full = 0
    for _ in range(40):
        P, c, x0 = dense_polytope(rng)
        xstar = solve_lp(P, c).vertex
        trace = augment(P, c, x0, "approx")
        _assert_contracts(P, c, trace)
        full += sum(len(decompose(P, xstar - x).terms) for x in trace.iterates if x != xstar)
    assert (len(walked), full) == (APPROX_WALKED_TERMS, APPROX_FULL_TERMS)


@pytest.mark.parametrize("rule", [exact_dd_step])
def test_ties_go_to_earliest_circuit(rule):
    # both unit steps of the square improve by 1
    step = rule(UNIT_SQUARE, RatVec([-1, -1]), RatVec([0, 0]))
    assert step == DdStep(Circuit((0, 1)), Fraction(1), Fraction(1))


@pytest.mark.parametrize("rule", [exact_dd_step])
def test_circuit_with_zero_slope_is_no_step(rule):
    # (0, 1) has a positive step but c.g = 0; (1, 0) improves but is blocked
    assert rule(UNIT_SQUARE, RatVec([-1, 0]), RatVec([1, 0])) == Optimal()


class TestAugment:
    def test_square_two_steps(self):
        trace = augment(UNIT_SQUARE, RatVec([-3, -1]), RatVec([0, 0]), "exact")
        assert len(trace.steps) == 2
        _assert_contracts(UNIT_SQUARE, RatVec([-3, -1]), trace)
        assert trace.final == RatVec([1, 1])
        assert trace.iterates == (RatVec([0, 0]), RatVec([1, 0]), RatVec([1, 1]))

    def test_empty_trace_at_optimum(self):
        trace = augment(UNIT_SQUARE, RatVec([-3, -1]), RatVec([1, 1]), "exact")
        assert trace.steps == ()
        assert trace.iterates == (RatVec([1, 1]),)

    def test_two_cycles_larger_improvement_first(self):
        trace = augment(
            TWO_TRIANGLES.polyhedron, TWO_TRIANGLES.objective, RatVec.zeros(6), "exact"
        )
        assert [s.g.entries for s in trace.steps] == [
            (1, 1, 1, 0, 0, 0),
            (0, 0, 0, 1, 1, 1),
        ]
        assert [s.improvement for s in trace.steps] == [
            Fraction(31, 8),
            Fraction(199, 64),
        ]
        _assert_contracts(TWO_TRIANGLES.polyhedron, TWO_TRIANGLES.objective, trace)

    def test_approx_mode_reaches_optimum(self):
        c = RatVec([-3, -1])
        trace = augment(UNIT_SQUARE, c, RatVec([0, 0]), "approx")
        assert trace.final == RatVec([1, 1])
        _assert_contracts(UNIT_SQUARE, c, trace)

    def test_strict_decrease(self):
        c = TWO_TRIANGLES.objective
        trace = augment(TWO_TRIANGLES.polyhedron, c, RatVec.zeros(6), "exact")
        values = [c.dot(x) for x in trace.iterates]
        assert all(a > b for a, b in zip(values, values[1:]))
        _assert_contracts(TWO_TRIANGLES.polyhedron, c, trace)

    def test_iteration_cap(self):
        with pytest.raises(IterationCapExceeded) as err:
            augment(UNIT_SQUARE, RatVec([-3, -1]), RatVec([0, 0]), "exact", max_iters=1)
        assert len(err.value.trace.steps) == 1
        _assert_contracts(UNIT_SQUARE, RatVec([-3, -1]), err.value.trace)

    def test_bad_mode(self):
        for mode in ("fastest", "steepest"):
            with pytest.raises(ValueError, match="^unknown mode"):
                augment(UNIT_SQUARE, RatVec([-1, -1]), RatVec([0, 0]), mode)


@pytest.mark.parametrize(
    "rule",
    [
        pytest.param(exact_dd_step, id="exact"),
        pytest.param(approx_dd_step, id="approx"),
        pytest.param(lambda P, c, x0: augment(P, c, x0, "exact"), id="augment-exact"),
        pytest.param(lambda P, c, x0: augment(P, c, x0, "approx"), id="augment-approx"),
    ],
)
def test_every_rule_rejects_an_infeasible_start(rule):
    with pytest.raises(ValueError, match="^the starting point is not feasible$"):
        rule(UNIT_SQUARE, RatVec([-1, -1]), RatVec([2, 2]))


def approx_instances():
    rng = random.Random(4041)
    return mixed_instances(seed=4040, count=18) + [dense_polytope(rng) for _ in range(6)]


def unbounded_instances():
    """Unbounded LPs with a feasible start: every mode raises at its first step."""
    wedge = Polyhedron(
        RatMat([], cols=2), RatVec([]), RatMat([[-1, 0], [0, -1], [1, -1]]), RatVec([0, 0, 1])
    )
    ray = Polyhedron(
        RatMat([[1, -1, 0]]),
        RatVec([0]),
        RatMat([[-1, 0, 0], [0, 0, -1], [0, 0, 1]]),
        RatVec([0, 0, 2]),
    )
    return [
        (HALF_LINE, RatVec([-1]), RatVec([3])),
        (wedge, RatVec([-1, -2]), RatVec([1, 0])),
        (wedge, RatVec([1, -1]), RatVec([0, 0])),
        (ray, RatVec([-1, 0, 1]), RatVec([1, 1, 2])),
    ]


MODES = ("exact", "approx")


class TestAugmentAgainstPerStep:
    """``augment`` against ``oracles.per_step_augment``, which calls the
    public single step of the mode at every iterate."""

    @pytest.mark.parametrize("mode", MODES)
    def test_same_steps_and_iterates(self, mode):
        for P, c, x0 in approx_instances():
            trace = augment(P, c, x0, mode)
            assert trace == per_step_augment(P, c, x0, mode)
            _assert_contracts(P, c, trace)
            opt = solve_lp(P, c)
            assert c.dot(trace.final) == opt.value
            if verify_unique(P, c, opt.vertex, optimum=opt).unique:
                assert trace.final == opt.vertex

    @pytest.mark.parametrize("mode", MODES)
    def test_iteration_cap_gives_same_partial_trace(self, mode):
        for P, c, x0 in approx_instances():
            taken = len(augment(P, c, x0, mode).steps)
            for cap in range(taken):
                with pytest.raises(IterationCapExceeded) as err:
                    augment(P, c, x0, mode, max_iters=cap)
                with pytest.raises(IterationCapExceeded) as ref:
                    per_step_augment(P, c, x0, mode, max_iters=cap)
                assert err.value.trace == ref.value.trace
                assert len(err.value.trace.steps) == cap
                _assert_contracts(P, c, err.value.trace)
            assert augment(P, c, x0, mode, max_iters=taken) == per_step_augment(
                P, c, x0, mode, max_iters=taken
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_unbounded_lp_raises_in_both(self, mode):
        for P, c, x0 in unbounded_instances():
            assert isinstance(solve_lp(P, c), LpUnbounded)
            for cap in (0, 10_000):
                with pytest.raises(LpUnboundedError):
                    augment(P, c, x0, mode, max_iters=cap)
                with pytest.raises(LpUnboundedError):
                    per_step_augment(P, c, x0, mode, max_iters=cap)

    def test_one_lp_per_run(self, monkeypatch):
        calls = []

        def counting_solve_lp(P, c):
            calls.append(1)
            return solve_lp(P, c)

        monkeypatch.setattr(ddcircuits.ddstep, "solve_lp", counting_solve_lp)
        runs = 0
        for P, c, x0 in approx_instances():
            calls.clear()
            trace = augment(P, c, x0, "approx")
            if len(trace.steps) >= 2:
                runs += 1
                assert len(calls) == 1
        assert runs >= 5


# The RatVec methods that compute with Fractions, operators included.
RATVEC_ARITHMETIC = ("dot", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


@pytest.mark.parametrize("mode", MODES)
def test_ratvec_arithmetic_does_not_grow_with_the_steps(mode, monkeypatch):
    """The loop carries its iterate in ints, so a whole run makes the same
    RatVec arithmetic as one capped before its first move: only the rule's
    set-up computes with RatVecs, and the steps do not."""
    calls = []
    for name in RATVEC_ARITHMETIC:

        def counting(*args, _real=getattr(RatVec, name)):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(RatVec, name, counting)
    moving = 0
    for P, c, x0 in approx_instances():
        calls.clear()
        try:
            augment(P, c, x0, mode, max_iters=0)
        except IterationCapExceeded:
            pass
        first = len(calls)
        calls.clear()
        moving += len(augment(P, c, x0, mode).steps) >= 2
        assert len(calls) == first
    assert moving >= 5


def test_reduction_steps_are_unit_zero_one():
    # from the zero flow, every improving circuit of a circulation LP is a
    # 0/1 vector and its maximal step length is exactly 1
    for inst in (TRIANGLE, TWO_TRIANGLES):
        P, c = inst.polyhedron, inst.objective
        x0 = RatVec.zeros(P.n)
        for circ in enumerate_circuits(P):
            for g in (circ, -circ):
                if c.dot(g.vec) >= 0:
                    continue
                beta = max_step(P, x0, g.vec)
                if beta == 0:
                    continue
                assert beta == 1
                assert all(e in (0, 1) for e in g.entries)


# sha256 over the repr of ``exact_dd_step`` from the zero flow on the
# circulation LPs of ``verify_class_digraphs(random.Random(3636))``, the
# graph class of the benchmark's correspondence check, each outcome as
# (circuit entries, alpha, improvement) in text or the outcome's class name.
# Recorded before the exact rule's table read each circuit's image off its
# products with B's class representatives.
EXACT_STEP_DIGEST = "65467e279fd1cc864ccd9ff571ee54524d3576a70bda19f9b02883b9e6492b86"


def test_exact_steps_from_the_zero_flow_digest():
    keys = []
    for G in verify_class_digraphs(random.Random(3636)):
        red = build_reduction(G)
        res = exact_dd_step(red.instance.polyhedron, red.instance.objective, red.x0)
        if isinstance(res, DdStep):
            keys.append((res.g.entries, str(res.alpha), str(res.improvement)))
        else:
            keys.append(type(res).__name__)
    assert sum(isinstance(key, tuple) for key in keys) == 22
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == EXACT_STEP_DIGEST


def test_table_images_are_the_products_with_b():
    # each image in the exact rule's table is expanded from the circuit's
    # products with the class representatives; it is B g all the same, on
    # B with a zero row and a same-sign parallel row too
    B = RatMat([[1, 0], [0, 0], [0, 1], [-1, 0], [2, 0], [0, -1]])
    parallel = Polyhedron(RatMat([], cols=2), RatVec([]), B, RatVec([1, 1, 1, 0, 2, 0]))
    systems = [parallel, *_enumeration_systems().values()]
    systems += [build_reduction(G).instance.polyhedron for G in verify_class_digraphs(random.Random(36))]
    rng = random.Random(3600)
    entries = 0
    for P in systems:
        C = [rng.choice((-3, -1, 1, 2)) for _ in range(P.n)]
        circuits = enumerate_circuits(P)
        table = _table(P, C, DEFAULT_WORK_BUDGET)
        assert [g if g in circuits else -g for g, _, _ in table] == [
            g for g in circuits if sum(a * b for a, b in zip(C, g.entries))
        ]
        for g, slope, bg in table:
            assert slope == sum(a * b for a, b in zip(C, g.entries)) < 0
            assert bg == _image(P._b_image, g.entries)
        entries += len(table)
    assert entries == 346
