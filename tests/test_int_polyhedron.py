"""The int path and the rational path build the same polyhedron.

The instance parser and the circulation reduction hand a Polyhedron its
rows as ints (``Polyhedron._from_ints``); the public constructor takes
RatMat and RatVec and converts them itself.  For every catalogue, golden
and battery instance and for the seeded generators, both paths must give
equal polyhedra with equal hashes, equal views A, b, B and d, and equal
int cores: every field of the integer images of A and of B, and the
block of A's kernel.  The twin on the rational side is read here with
plain ``Fraction`` from the text, independently of the package's parser.
Construction reads pointedness from the +-e_j rows of B where they bound
every coordinate, and by elimination elsewhere; the two must agree.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import ddcircuits.circuits
import ddcircuits.polyhedron
import ddcircuits.ratlin
from ddcircuits import (
    Instance,
    NotPointedError,
    Polyhedron,
    RatVec,
    build_reduction,
    format_instance,
    load_instance,
    parse_instance_text,
    parse_point_text,
)
from ddcircuits.polyhedron import _a_block
from ddcircuits.ratlin import RatMat, _kernel
from ddcircuits.reductions import parse_digraph_text

from instgen import (
    dense_polytope,
    dense_rational_system,
    exhaustive_digraphs,
    gen_box,
    gen_circulation,
    gen_tulike,
    mixed_instances,
    verify_class_digraphs,
)
from oracles import incidence_matrix, minor_rank
from test_golden import GRAPHS, INSTANCES

# Edge rows: tokens "2/4" and "-0/3", a zero row of A and one of B, a B
# row of content 2 (s = 2) and one with s = 2/3, and negative bounds.
EDGE_TEXT = (
    "3 2 6\n"
    "2/4 -0/3 1\n"
    "0 0 0\n"
    "-1/2 -0/7\n"
    "2 4 6\n"
    "2/3 4/3 0\n"
    "0 0 0\n"
    "-1 0 0\n"
    "0 -6/4 0\n"
    "0 0 -1\n"
    "-3 4/6 0 -2 -1/3 5\n"
    "1 -2/4 0\n"
)
NO_EQUALITIES = "1 0 2\n2\n-1\n4 0\n1\n"  # m_A = 0, d_1 / s_1 = 4/2 = 2
NO_INEQUALITIES = "2 2 0\n1 0\n0 1\n3 -4/6\n1 1\n"  # m_B = 0
EDGE_CASES = {"edge-rows": EDGE_TEXT, "m_A=0": NO_EQUALITIES, "m_B=0": NO_INEQUALITIES}


def rational_instance(text: str) -> Instance:
    """The instance of ``text`` built with ``Fraction`` and the public
    constructor, as the file format describes it."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n, m_a, m_b = (int(tok) for tok in rows[0])
    values = [[Fraction(tok) for tok in row] for row in rows[1:]]
    A, values = values[:m_a], values[m_a:]
    b, values = (values[0], values[1:]) if m_a else ([], values)
    B, values = values[:m_b], values[m_b:]
    d, values = (values[0], values[1:]) if m_b else ([], values)
    (c,) = values
    P = Polyhedron(RatMat(A, cols=n), RatVec(b), RatMat(B, cols=n), RatVec(d))
    return Instance(P, RatVec(c))


def rational_twin(P: Polyhedron) -> Polyhedron:
    """P built again by the public constructor from its views."""
    return Polyhedron(
        RatMat(P.A.entries, cols=P.n), RatVec(P.b.entries), RatMat(P.B.entries, cols=P.n),
        RatVec(P.d.entries),
    )


def assert_image(image, M: RatMat, v: RatVec) -> None:
    """An integer image checked with Fraction against the rational rows M
    and right-hand sides v, (A, b) or (B, d): M_i = s_i q_i with q_i
    primitive and s_i > 0 in lowest terms, and the bounds v_i / s_i over
    their least common denominator."""
    assert len(image.rows) == M.m
    ratios = []
    for q, (sn, sd), row, d_i in zip(image.rows, image.scales, M.entries, v):
        s = Fraction(sn, sd)
        assert s > 0 and (s.numerator, s.denominator) == (sn, sd)
        assert gcd(*q) == (1 if any(q) else 0)
        assert tuple(s * a for a in q) == row
        ratios.append(d_i / s)
    assert image.den == lcm(*(r.denominator for r in ratios))
    assert [Fraction(t, image.den) for t in image.bounds] == ratios
    assert image.nonzeros == tuple(tuple((j, a) for j, a in enumerate(q) if a) for q in image.rows)


def assert_same(P: Polyhedron, Q: Polyhedron) -> None:
    """P and Q are equal in every form; Q's views are the reference for
    the integer images."""
    assert_image(P._a_image, Q.A, Q.b)
    assert_image(P._b_image, Q.B, Q.d)
    assert P == Q and Q == P
    assert hash(P) == hash(Q)
    assert (P.n, P.A, P.b, P.B, P.d) == (Q.n, Q.A, Q.b, Q.B, Q.d)
    assert _a_block(P) == _a_block(Q)
    for image, other in ((P._a_image, Q._a_image), (P._b_image, Q._b_image)):
        for field in image._fields:
            assert getattr(image, field) == getattr(other, field), field


def assert_round_trip(inst: Instance) -> None:
    text = format_instance(inst)
    back = parse_instance_text(text)
    assert back == inst
    assert format_instance(back) == text
    assert_same(back.polyhedron, inst.polyhedron)


def _parsed_cases():
    texts = dict(INSTANCES)
    texts.update(EDGE_CASES)
    for name, graph in GRAPHS.items():
        reduction = build_reduction(parse_digraph_text(graph))
        texts[f"reduce-{name}"] = format_instance(reduction.instance)
    return sorted(texts.items())


PARSED_CASES = _parsed_cases()


@pytest.mark.parametrize("name,text", PARSED_CASES, ids=[name for name, _ in PARSED_CASES])
def test_parsed_matches_rational(name, text):
    try:
        expected = rational_instance(text)
    except NotPointedError:
        with pytest.raises(NotPointedError):
            parse_instance_text(text)
        return
    parsed = parse_instance_text(text)
    assert parsed.objective == expected.objective
    assert_same(parsed.polyhedron, expected.polyhedron)
    assert_round_trip(parsed)


def test_edge_rows_image():
    """The image of the edge rows, by hand: B_i = s_i q_i, bounds d_i / s_i."""
    P = parse_instance_text(EDGE_TEXT).polyhedron
    image = P._b_image
    assert image.rows == ((1, 2, 3), (1, 2, 0), (0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert image.scales == ((2, 1), (2, 3), (1, 1), (1, 1), (3, 2), (1, 1))
    # d / s = (-3/2, 1, 0, -2, -2/9, 5) over 18
    assert (image.bounds, image.den) == ((-27, 18, 0, -36, -4, 90), 18)
    # A = (1/2, 0, 1; 0, 0, 0) = (1/2) (1, 0, 2); 1 (0, 0, 0), b / s = (-1, 0)
    image = P._a_image
    assert (image.rows, image.scales, image.bounds, image.den) == (
        ((1, 0, 2), (0, 0, 0)), ((1, 2), (1, 1)), (-1, 0), 1
    )
    assert P.A == RatMat([[Fraction(1, 2), 0, 1], [0, 0, 0]])
    assert P.b == RatVec([Fraction(-1, 2), 0])
    assert P.d == RatVec([-3, Fraction(2, 3), 0, -2, Fraction(-1, 3), 5])


def test_bounds_in_lowest_terms():
    image = parse_instance_text(NO_EQUALITIES).polyhedron._b_image
    assert (image.rows, image.scales, image.bounds, image.den) == (
        ((1,), (-1,)), ((2, 1), (1, 1)), (2, 0), 1
    )


def test_equality_and_hash_read_no_view():
    """Equality and hash compare the images, which are canonical, and build
    no Fraction view; a row scaled by 2, with its bound, is another system."""
    P, Q = (parse_instance_text(NO_EQUALITIES).polyhedron for _ in range(2))
    scaled = parse_instance_text("1 0 2\n1\n-1\n2 0\n1\n").polyhedron
    assert P == Q and hash(P) == hash(Q) and P != scaled
    for R in (P, Q, scaled):
        assert (R._A, R._b, R._B, R._d) == (None,) * 4
    assert P.B != scaled.B


def test_point_tokens_are_reduced():
    assert parse_point_text("2/4 -0/3 -6/4 7") == RatVec(
        [Fraction(1, 2), 0, Fraction(-3, 2), 7]
    )


def _reduction_graphs():
    graphs = list(exhaustive_digraphs(node_counts=(2, 3)))
    graphs += list(exhaustive_digraphs(node_counts=(4,), max_arcs=5))
    return graphs + verify_class_digraphs(random.Random(22), per_class=1)


def test_reductions_match_rational():
    for G in _reduction_graphs():
        inst = build_reduction(G).instance
        P = inst.polyhedron
        m = G.m
        box = [[int(i == j) for j in range(m)] for i in range(m)]
        expected = Polyhedron(
            incidence_matrix(G),
            RatVec.zeros(G.nodes),
            RatMat(box + [[-e for e in row] for row in box], cols=m),
            RatVec([1] * m + [0] * m),
        )
        assert_same(P, expected)
        assert inst.objective == RatVec([-(1 + Fraction(1, 2 ** i)) for i in range(1, m + 1)])
        assert_round_trip(inst)


def _generated():
    rng = random.Random(2022)
    out = [P for P, _, _ in mixed_instances(seed=424242, count=200)]
    out += [gen(rng)[0] for gen in (gen_box, gen_circulation, gen_tulike) for _ in range(10)]
    out += [dense_rational_system(rng) for _ in range(20)]
    out += [dense_polytope(rng)[0] for _ in range(20)]
    return out


def test_generated_match_both_ways():
    """Every generated polyhedron, whichever path built it, equals its twin
    from the public constructor and its twin from the parser."""
    for P in _generated():
        assert_same(P, rational_twin(P))
        inst = Instance(P, RatVec([1] * P.n))
        assert_same(parse_instance_text(format_instance(inst)).polyhedron, P)
        assert_round_trip(inst)


def test_box_matches_rational():
    P = Polyhedron.box([Fraction(-1, 2), 0, -3], [1, Fraction(4, 6), Fraction(-5, 2)])
    expected = Polyhedron(
        RatMat([], cols=3),
        RatVec([]),
        RatMat([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        RatVec([1, Fraction(2, 3), Fraction(-5, 2), Fraction(1, 2), 0, 3]),
    )
    assert_same(P, expected)


def test_box_needs_a_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        Polyhedron.box([], [])


def test_views_are_read_only():
    P = parse_instance_text(NO_EQUALITIES).polyhedron
    for name in ("A", "b", "B", "d"):
        with pytest.raises(AttributeError):
            setattr(P, name, None)


def _bounds_every_coordinate(B: RatMat, n: int) -> bool:
    """Whether the rows of B with one nonzero entry, read as Fractions,
    have their nonzero in every column."""
    units = [[j for j, a in enumerate(row) if a] for row in B.entries]
    return {cols[0] for cols in units if len(cols) == 1} == set(range(n))


def test_bound_rows_agree_with_elimination_on_the_catalogue():
    """On every catalogue system whose bound rows cover every coordinate,
    so that construction runs no elimination for pointedness, the
    elimination check finds rank [A; B] = n too; both kinds occur."""
    systems = _generated() + [build_reduction(G).instance.polyhedron for G in _reduction_graphs()]
    kinds = set()
    for P in systems:
        bounded = _bounds_every_coordinate(P.B, P.n)
        kinds.add(bounded)
        if bounded:
            assert _kernel(P._a_image.rows + P._b_image.rows, P.n) == []
    assert kinds == {True, False}


def test_pointedness_matches_minor_rank():
    """Small systems with bound rows on a random set of coordinates, some
    rows with two or more nonzeros and maybe an equality: construction
    raises NotPointedError exactly when rank [A; B] < n by minors."""
    rng = random.Random(3030)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        B = []
        for j in rng.sample(range(n), rng.randint(0, n)):
            B.append([rng.choice((1, -1, Fraction(1, 2))) * (k == j) for k in range(n)])
        B += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        rng.shuffle(B)
        pointed = minor_rank(A + B, n) == n
        outcomes.add((pointed, _bounds_every_coordinate(RatMat(B, cols=n), n)))
        args = RatMat(A, cols=n), RatVec([0] * len(A)), RatMat(B, cols=n), RatVec([1] * len(B))
        if pointed:
            assert Polyhedron(*args).n == n
        else:
            with pytest.raises(NotPointedError):
                Polyhedron(*args)
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize(
    "text, pointed",
    [
        pytest.param("3 0 4\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n1 1 1 1\n1 1 1\n", False, id="free"),
        pytest.param("3 0 5\n1 0 0\n0 -1 0\n0 1 0\n1 1 0\n-2 0 0\n1 1 1 1 1\n1 1 1\n", False, id="pair"),
        pytest.param("3 0 4\n1 0 0\n0 1 0\n0 1 1\n0 -1 0\n1 1 1 1\n1 1 1\n", True, id="row"),
        pytest.param("3 1 3\n1 0 -1\n0\n1 0 0\n-1 0 0\n0 1 0\n1 1 1\n1 1 1\n", True, id="equality"),
    ],
)
def test_a_coordinate_without_bound_row(text, pointed):
    """x_3 has no bound row, and the rows through it (none, one with
    two nonzeros in B, one in A) decide by elimination whether the system
    holds a line; the parser and the public constructor agree."""
    if pointed:
        assert_same(parse_instance_text(text).polyhedron, rational_instance(text).polyhedron)
    else:
        for read in (parse_instance_text, rational_instance):
            with pytest.raises(NotPointedError):
                read(text)


def test_circulations_run_no_pointedness_elimination(monkeypatch, tmp_path):
    """Loading a circulation file and building a reduction build no kernel
    and cut no block: the box rows bound every arc, and A's block is built
    only when a kernel is read."""
    calls = []

    def spy(name, real):
        def spied(*args):
            calls.append(name)
            return real(*args)

        return spied

    for module in (ddcircuits.ratlin, ddcircuits.polyhedron, ddcircuits.circuits):
        for name in ("_kernel", "_cut"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    path = tmp_path / "lp.txt"
    graphs = verify_class_digraphs(random.Random(5), per_class=1)
    for G in graphs:
        path.write_text(format_instance(build_reduction(G).instance), encoding="ascii")
        load_instance(path)
    assert graphs and calls == []
    _a_block(load_instance(path).polyhedron)
    assert calls[0] == "_kernel"
