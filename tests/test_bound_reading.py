"""The bound reading of the simplex against its split reading.

``solve_lp`` runs the tableau that reads the +-e_j rows of B as bounds
first, and returns its result only when its reduced costs prove the
optimum unique; every other outcome comes from the split reading, which
reads no row as a bound.  Here the bound reading's own status, value and
vertex must agree with the split reading's on every catalogue, battery and
seeded family, each with its own objective and one in {-1, 0, 1}^n, and
each optimum it proves unique must be confirmed by ``verify_unique``'s
general check.  The edge cases of the bound reading (tightest bounds, fixed,
reflected and split coordinates, contradictory bounds, zero rows, bound
rows with content) are compared with the split reading one by one, Bland's
rule with bound flips must terminate on Klee-Minty cubes and on systems
whose right-hand sides are all 0, and the pivot and flip counts on the
scale circulations are pinned.
"""

import random
from fractions import Fraction

import pytest

import ddcircuits.lp
from ddcircuits import (
    Digraph,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    NotPointedError,
    Polyhedron,
    RatVec,
    UniquenessReport,
    build_reduction,
    is_feasible,
    solve_lp,
    verify_unique,
)
from ddcircuits.lp import _solve, _unique_by_reduced_costs, _vertex
from ddcircuits.ratlin import RatMat, coprime_integer_entries

from instgen import (
    all_arcs,
    dense_polytope,
    dense_rational_system,
    exhaustive_digraphs,
    gen_box,
    gen_circulation,
    gen_tulike,
    mixed_instances,
)

STATUS = {"optimal": LpOptimal, "unbounded": LpUnbounded, "infeasible": LpInfeasible}


def _bound_reading(P, c):
    """The bound reading's status, its tableau's point and whether its
    reduced costs prove that point the unique optimum."""
    status, tab, _ = ddcircuits.lp._simplex(
        P._a_image, P._b_image, coprime_integer_entries(c.entries), read_bounds=True
    )
    if status != "optimal":
        return status, None, False
    unique = _unique_by_reduced_costs(tab.T[-1][:-1], tab.basis, P.n, tab.split)
    return status, _vertex(tab), unique


def _compare(P, c):
    """Check the bound reading against the split reading and ``solve_lp``
    against both; return whether the bound reading proved the optimum
    unique, None for an LP with no optimum."""
    split = _solve(P, c, read_bounds=False)
    status, x, unique = _bound_reading(P, c)
    assert STATUS[status] is type(split)
    out = solve_lp(P, c)
    assert out == split
    if status != "optimal":
        return None
    assert is_feasible(P, x)
    assert c.dot(x) == split.value
    if unique:
        assert x == split.vertex
        assert verify_unique(P, c, x) == UniquenessReport(True, None)
    assert out.unique == (unique or split.unique)
    return unique


def _signs(rng, n):
    return RatVec([rng.choice((-1, 0, 1)) for _ in range(n)])


def _families():
    """(name, P, c): every catalogue, battery and seeded family, each with
    its own objective and a tie-prone one in {-1, 0, 1}^n."""
    rng = random.Random(2828)
    out = []
    for graph in exhaustive_digraphs((2, 3), max_arcs=4):
        inst = build_reduction(graph).instance
        out.append(("catalogue", inst.polyhedron, inst.objective))
    for P, c, _ in mixed_instances(seed=2829, count=60):
        out.append(("mixed", P, c))
    for _ in range(20):
        for name, make in (("box", gen_box), ("tulike", gen_tulike), ("dense", dense_polytope)):
            P, c, _ = make(rng)
            out.append((name, P, c))
        P, c, _ = gen_circulation(rng, max_nodes=5, max_arcs=8)
        out.append(("circulation", P, c))
        P = dense_rational_system(rng)
        out.append(("rational", P, RatVec([1] * P.n)))
    with_ties = [(name, P, _signs(rng, P.n)) for name, P, _ in out]
    return out + with_ties


FAMILIES = _families()


@pytest.mark.parametrize("block", range(8))
def test_bound_reading_matches_split_reading(block):
    verdicts = [_compare(P, c) for _, P, c in FAMILIES[block::8]]
    assert True in verdicts and False in verdicts


def test_families_reach_every_branch():
    names = {name for name, _, _ in FAMILIES}
    assert names == {"catalogue", "mixed", "box", "tulike", "dense", "circulation", "rational"}
    kinds = {type(solve_lp(P, c)) for _, P, c in FAMILIES}
    assert kinds == {LpOptimal, LpUnbounded}


def _system(B, d, A=(), b=(), n=2):
    return Polyhedron(RatMat(list(A), cols=n), RatVec(list(b)), RatMat(B, cols=n), RatVec(d))


BOX = [[1, 0], [0, 1], [-1, 0], [0, -1]]
OBJECTIVES = ([1, 2], [-1, 1], [-2, -1], [1, -1], [0, 0], [0, -1])


def _tableau(P, c=(1, 1)):
    return ddcircuits.lp._simplex(
        P._a_image, P._b_image, coprime_integer_entries(RatVec(c).entries), read_bounds=True
    )[1]


def _compare_all(P, kind):
    for c in OBJECTIVES:
        _compare(P, RatVec(c))
    assert kind in {type(solve_lp(P, RatVec(c))) for c in OBJECTIVES}


def test_tightest_of_two_upper_bounds_wins():
    P = _system([[1, 0], [1, 0]] + BOX[1:], [3, 2, 2, 0, 0])
    tab = _tableau(P)
    assert tab.split == [] and tab.upper == {0: 2, 1: 2} and len(tab.T[0]) == 3
    _compare_all(P, LpOptimal)
    assert solve_lp(P, RatVec([-1, 0])).vertex == RatVec([2, 0])


def test_fixed_coordinate():
    P = _system(BOX, [1, 2, -1, 0])  # x_1 = 1
    assert _tableau(P).upper == {0: 0, 1: 2}
    _compare_all(P, LpOptimal)
    assert solve_lp(P, RatVec([-1, -1])).vertex == RatVec([1, 2])


def test_coordinate_with_only_an_upper_bound_is_reflected():
    # x_1 <= 2, 0 <= x_2 <= 1 and x_1 + x_2 >= -3
    P = _system([[1, 0], [0, 1], [0, -1], [-1, -1]], [2, 1, 0, 3])
    tab = _tableau(P)
    assert tab.signs == [-1, 1] and tab.offsets == [2, 0] and tab.upper == {1: 1}
    _compare_all(P, LpOptimal)
    assert solve_lp(P, RatVec([1, -1])).vertex == RatVec([-4, 1])


def test_free_coordinate_is_split_and_its_twin_skipped():
    # x_1 free; x_1 + x_2 <= 2, x_2 - x_1 <= 2 and x_2 >= 0
    P = _system([[1, 1], [-1, 1], [0, -1]], [2, 2, 0])
    c = RatVec([0, -1])
    status, tab, _ = ddcircuits.lp._simplex(
        P._a_image, P._b_image, coprime_integer_entries(c.entries), read_bounds=True
    )
    assert status == "optimal" and tab.split == [0]
    # one half of x_1 (column 0 or its twin, column 2) is basic at 0, and
    # the other's reduced cost is 0 and skipped
    (half,) = {0, 2} & set(tab.basis)
    assert tab.T[-1][2 - half] == 0
    assert _unique_by_reduced_costs(tab.T[-1][:-1], tab.basis, P.n, tab.split)
    assert solve_lp(P, c) == LpOptimal(RatVec([0, 2]), Fraction(-2))
    _compare_all(P, LpOptimal)


def test_contradictory_bounds_fall_back_to_the_split_reading(monkeypatch):
    P = _system(BOX + [[1, 1]], [1, 1, -2, 0, 5])  # x_1 >= 2 > 1 >= x_1
    status = ddcircuits.lp._simplex(P._a_image, P._b_image, (1, 1), read_bounds=True)
    assert status == ("infeasible", None, None)
    readings = []
    real = ddcircuits.lp._solve

    def spy(P, c, read_bounds):
        readings.append(read_bounds)
        return real(P, c, read_bounds)

    monkeypatch.setattr(ddcircuits.lp, "_solve", spy)
    assert solve_lp(P, RatVec([1, 1])) == LpInfeasible()
    assert readings == [True, False]


@pytest.mark.parametrize(
    "d, kind", [([2, 2, 0, 0, -1], LpInfeasible), ([2, 2, 0, 0, 0], LpOptimal)]
)
def test_zero_row_of_b(d, kind):
    P = _system(BOX + [[0, 0]], d)
    status, tab, _ = ddcircuits.lp._simplex(P._a_image, P._b_image, (1, 1), read_bounds=True)
    assert STATUS[status] is kind
    if tab is not None:
        assert len(tab.T[0]) == 2 + 1 + 1  # y_1, y_2, the zero row's slack, rhs
    _compare_all(P, kind)


def test_bound_row_with_content_and_rational_scale():
    # 2 x_1 <= 3, -(3/2) x_1 <= 1/2, (2/3) x_2 <= 5/2 and x_2 >= -3/4
    P = _system(
        [[2, 0], [Fraction(-3, 2), 0], [0, Fraction(2, 3)], [0, -4], [1, 1]],
        [3, Fraction(1, 2), Fraction(5, 2), 3, 4],
    )
    tab = _tableau(P)
    lows = [Fraction(o, tab.scale) for o in tab.offsets]
    assert lows == [Fraction(-1, 3), Fraction(-3, 4)]
    assert {j: Fraction(u, tab.scale) for j, u in tab.upper.items()} == {
        0: Fraction(3, 2) - Fraction(-1, 3),
        1: Fraction(15, 4) - Fraction(-3, 4),
    }
    _compare_all(P, LpOptimal)
    assert solve_lp(P, RatVec([-1, 0])).vertex[0] == Fraction(3, 2)


def _counting(monkeypatch, limit=1000):
    """Count ``lp._pivot`` and ``lp._flip`` calls, failing when one run of
    ``lp._simplex`` takes more than ``limit`` of them instead of cycling."""
    counts = {"_pivot": 0, "_flip": 0}
    steps = [0]
    real_simplex = ddcircuits.lp._simplex

    def simplex(*args, **kwargs):
        steps[0] = 0
        return real_simplex(*args, **kwargs)

    for name in counts:
        real = getattr(ddcircuits.lp, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            steps[0] += 1
            assert steps[0] <= limit, "the simplex did not terminate"
            return real(*args)

        monkeypatch.setattr(ddcircuits.lp, name, counted)
    monkeypatch.setattr(ddcircuits.lp, "_simplex", simplex)
    return counts


def _klee_minty(n, bounded):
    """The Klee-Minty cube in dimension n with the objective that walks all
    its 2^n vertices under Dantzig's rule.  With ``bounded`` it is the
    form 0 <= x_1 <= 1, x_{j-1}/3 <= x_j <= 1 - x_{j-1}/3, whose first
    coordinate is a box; otherwise sum_{j<i} 2^{i-j+1} x_j + x_i <= 5^i,
    x >= 0, whose rows beyond x >= 0 all have content."""
    if bounded:
        B = [[1] + [0] * (n - 1), [-1] + [0] * (n - 1)]
        for j in range(1, n):
            row = [0] * n
            row[j - 1], row[j] = Fraction(1, 3), -1
            B.append(row)
            row = [0] * n
            row[j - 1], row[j] = Fraction(1, 3), 1
            B.append(row)
        d = [1, 0] + [0, 1] * (n - 1)
        c = RatVec([0] * (n - 1) + [-1])
    else:
        B = [[2 ** (i - j + 1) if j < i else int(i == j) for j in range(n)] for i in range(n)]
        B += [[-int(i == j) for j in range(n)] for i in range(n)]
        d = [5 ** (i + 1) for i in range(n)] + [0] * n
        c = RatVec([-(2 ** (n - 1 - j)) for j in range(n)])
    return _system(B, d, n=n), c


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("bounded", [False, True])
def test_klee_minty_terminates(monkeypatch, n, bounded):
    P, c = _klee_minty(n, bounded)
    counts = _counting(monkeypatch)
    assert _compare(P, c) is True
    assert counts["_pivot"] > 0
    top = solve_lp(P, c).vertex
    assert top[n - 1] == (1 if bounded else 5**n)


def _degenerate(rng):
    """A pointed system whose right-hand sides are all 0: bounds x_j <= 0
    or -x_j <= 0 on some coordinates and dense rows through the origin."""
    while True:
        n = rng.randint(2, 5)
        B = [[sign * int(i == j) for i in range(n)] for j in range(n) for sign in (1, -1)]
        B = [row for row in B if rng.random() < 0.6]
        B += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(n, 2 * n + 2))]
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        try:
            return _system(B, [0] * len(B), A, [0] * len(A), n=n)
        except NotPointedError:
            continue


def _beale():
    """Beale's LP (1955), which cycles under Dantzig's rule: min -3/4 x_1 +
    20 x_2 - 1/2 x_3 + 6 x_4 over two degenerate rows, x_3 <= 1 and x >= 0."""
    B = [
        [Fraction(1, 4), -8, -1, 9],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0],
    ] + [[-int(i == j) for j in range(4)] for i in range(4)]
    c = RatVec([Fraction(-3, 4), 20, Fraction(-1, 2), 6])
    return _system(B, [0, 0, 1, 0, 0, 0, 0], n=4), c


def test_degenerate_systems_terminate(monkeypatch):
    P, c = _beale()
    _counting(monkeypatch)
    assert solve_lp(P, c) == LpOptimal(RatVec([1, 0, 1, 0]), Fraction(-5, 4))
    assert _compare(P, c) is not None
    rng = random.Random(2830)
    outcomes = set()
    for _ in range(60):
        P = _degenerate(rng)
        for c in (RatVec([rng.randint(-2, 2) for _ in range(P.n)]), _signs(rng, P.n)):
            _compare(P, c)
            outcomes.add(type(solve_lp(P, c)))
    assert outcomes == {LpOptimal, LpUnbounded}


# The scale circulations: V nodes, 2V arcs from ``random.Random(V).sample``
# of the ordered pairs, the default perturbed costs.  (pivots, bound flips)
# of one ``solve_lp``, which the bound reading answers alone, and the pivots
# of the split reading on the same LP.
SCALE_COUNTS = {10: ((22, 4), 124), 20: ((44, 0), 294)}


@pytest.mark.parametrize("V", SCALE_COUNTS)
def test_scale_circulation_counts(monkeypatch, V):
    graph = Digraph(V, tuple(random.Random(V).sample(all_arcs(V), 2 * V)))
    inst = build_reduction(graph).instance
    P, c = inst.polyhedron, inst.objective
    counts = _counting(monkeypatch)
    out = solve_lp(P, c)
    bound = (counts["_pivot"], counts["_flip"])
    counts.update(_pivot=0, _flip=0)
    split = _solve(P, c, read_bounds=False)
    assert out == split and out.unique
    assert (bound, counts["_pivot"]) == SCALE_COUNTS[V]
    assert counts["_flip"] == 0
