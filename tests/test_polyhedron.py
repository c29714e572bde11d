import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from ddcircuits import (
    Instance,
    NotPointedError,
    ParseError,
    Polyhedron,
    RatVec,
    UNBOUNDED,
    active_rows,
    build_reduction,
    Digraph,
    format_instance,
    format_point,
    is_feasible,
    load_instance,
    max_step,
    parse_instance_text,
    parse_point_text,
)
from ddcircuits.conformal import _terms
from ddcircuits.polyhedron import (
    _a_block,
    _active,
    _image,
    _point,
    _ratio_test,
    _slack,
    _tighten,
    _walk,
)
from ddcircuits.ratlin import RatMat, _int_vector, coprime_integer_entries, kernel_basis
from instgen import dense_polytope, dense_rational_system, gen_box, gen_circulation
from oracles import fraction_terms, fraction_walk

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])
TRIANGLE = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance.polyhedron

HALF_LINE = Polyhedron(
    RatMat([], cols=1), RatVec([]), RatMat([[-1]]), RatVec([0])
)  # {x >= 0} in R^1

# {x1 <= 0} in R^2 and its instance file: the x2 axis is a line inside it
HALF_PLANE_SYSTEM = (RatMat([], cols=2), RatVec([]), RatMat([[1, 0]]), RatVec([0]))
HALF_PLANE_TEXT = "2 0 1\n1 0\n0\n-1 -1\n"


class TestPointedness:
    """Every Polyhedron is pointed: the constructor is the one place that
    rejects a system containing a line, whichever way the system comes in."""

    def test_unit_square(self):
        P = UNIT_SQUARE
        assert Polyhedron(P.A, P.b, P.B, P.d) == P

    def test_half_plane_contains_line(self):
        with pytest.raises(NotPointedError) as info:
            Polyhedron(*HALF_PLANE_SYSTEM)
        assert "allow_non_pointed" not in str(info.value)

    def test_constructor_rejects_non_pointed(self):
        # rank [A; B] = 1 < 2 with an equality row in place of the inequality
        with pytest.raises(NotPointedError):
            Polyhedron(RatMat([[1, 1]]), RatVec([1]), RatMat([[2, 2]]), RatVec([3]))

    def test_triangle_circulation(self):
        # the box rows alone have rank n
        P = TRIANGLE
        assert Polyhedron(P.A, P.b, P.B, P.d) == P

    def test_load_rejects_non_pointed(self, tmp_path):
        path = tmp_path / "half_plane.lp"
        path.write_text(HALF_PLANE_TEXT)
        with pytest.raises(NotPointedError):
            load_instance(path)


class TestConstruction:
    @pytest.mark.parametrize(
        "A, b, B, d, message",
        [
            pytest.param(RatMat([[1]]), [0], RatMat([[1, 0]]), [1], "A has 1 columns but B has 2", id="columns"),
            pytest.param(RatMat([], cols=0), [], RatMat([], cols=0), [], "at least 1", id="no-variables"),
            pytest.param(RatMat([[1, 0]]), [], RatMat([[1, 0], [0, 1]]), [1, 1], "b has 0 entries", id="b-length"),
            pytest.param(RatMat([], cols=2), [], RatMat([[1, 0], [0, 1]]), [1], "d has 1 entries", id="d-length"),
        ],
    )
    def test_dimensions_checked(self, A, b, B, d, message):
        with pytest.raises(ValueError, match=message):
            Polyhedron(A, RatVec(b), B, RatVec(d))

    def test_box_bounds_must_agree(self):
        with pytest.raises(ValueError, match="same dimension"):
            Polyhedron.box([0, 0], [1])


class TestFeasibility:
    def test_square_inside(self):
        assert is_feasible(UNIT_SQUARE, RatVec([Fraction(1, 2), Fraction(1, 2)]))

    def test_square_outside(self):
        assert not is_feasible(UNIT_SQUARE, RatVec([1, 2]))

    def test_triangle_unit_flow(self):
        assert is_feasible(TRIANGLE, RatVec([1, 1, 1]))

    def test_equality_violation(self):
        assert not is_feasible(TRIANGLE, RatVec([1, 0, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_feasible(UNIT_SQUARE, RatVec([1]))


class TestActiveRows:
    def test_origin_of_square(self):
        # rows 2 and 3 encode x1 >= 0, x2 >= 0 in box order [I; -I]
        assert active_rows(UNIT_SQUARE, RatVec([0, 0])) == (2, 3)

    def test_interior(self):
        assert active_rows(UNIT_SQUARE, RatVec([Fraction(1, 2), Fraction(1, 2)])) == ()

    def test_zero_flow_activates_lower_bounds(self):
        assert active_rows(TRIANGLE, RatVec([0, 0, 0])) == (3, 4, 5)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            active_rows(UNIT_SQUARE, RatVec([2, 0]))


class TestMaxStep:
    def test_axis(self):
        assert max_step(UNIT_SQUARE, RatVec([0, 0]), RatVec([1, 0])) == 1

    def test_diagonal(self):
        assert max_step(UNIT_SQUARE, RatVec([0, 0]), RatVec([1, 1])) == 1

    def test_unbounded(self):
        assert max_step(HALF_LINE, RatVec([0]), RatVec([1])) is UNBOUNDED

    def test_zero_direction(self):
        assert max_step(UNIT_SQUARE, RatVec([0, 0]), RatVec([0, 0])) == 0

    def test_rational_step(self):
        assert max_step(
            UNIT_SQUARE, RatVec([Fraction(1, 3), 0]), RatVec([2, 0])
        ) == Fraction(1, 3)

    def test_requires_kernel_direction(self):
        with pytest.raises(ValueError):
            max_step(TRIANGLE, RatVec([0, 0, 0]), RatVec([1, 0, 0]))

    def test_requires_feasible_start(self):
        with pytest.raises(ValueError):
            max_step(UNIT_SQUARE, RatVec([3, 0]), RatVec([1, 0]))

    def test_requires_matching_dimension(self):
        with pytest.raises(ValueError, match="direction has dimension 1, expected 2"):
            max_step(UNIT_SQUARE, RatVec([0, 0]), RatVec([1]))


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_max_step_is_maximal(x1, x2, g1, g2):
    x0 = RatVec([x1, x2])
    g = RatVec([g1, g2])
    beta = max_step(UNIT_SQUARE, x0, g)
    assert beta is not UNBOUNDED
    assert is_feasible(UNIT_SQUARE, x0 + beta * g)
    if not g.is_zero():
        for eps in (Fraction(1, 7), Fraction(1, 101)):
            assert not is_feasible(UNIT_SQUARE, x0 + (beta + eps) * g)
        if beta > 0:
            # the endpoint gains an active row the open segment never had
            bg = UNIT_SQUARE.B.matvec(g)
            endpoint = active_rows(UNIT_SQUARE, x0 + beta * g)
            assert any(bg[j] > 0 for j in endpoint)


SYSTEMS = {
    "dense": dense_rational_system,
    "polytope": lambda rng: dense_polytope(rng)[0],
    "box": lambda rng: gen_box(rng)[0],
    "circulation": lambda rng: gen_circulation(rng)[0],
}


def _vector(rng: random.Random, n: int, integral: bool) -> RatVec:
    """Random rationals; the first entry is not an integer unless ``integral``."""
    entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    if integral:
        entries = [Fraction(e.numerator) for e in entries]
    else:
        entries[0] += Fraction(1, rng.choice((2, 3, 5)))
    return RatVec(entries)


def _system_at(rng: random.Random, kind: str, integral_x: bool) -> tuple[Polyhedron, RatVec]:
    """A system of ``kind`` whose B gains a row with content > 1, a
    non-integral row and a zero row, and a point x of it, not integral
    unless ``integral_x``, at which d makes a random subset of the rows
    tight."""
    base = SYSTEMS[kind](rng)
    n = base.n
    q = coprime_integer_entries(base.B.entries[0])
    rows = list(base.B.entries) + [
        [rng.randint(2, 5) * a for a in q],
        [Fraction(a, rng.randint(2, 5)) for a in q],
        [0] * n,
    ]
    B = RatMat(rows, cols=n)
    x = _vector(rng, n, integral_x)
    d = RatVec(
        e + rng.choice((0, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        for e in B.matvec(x)
    )
    return Polyhedron(base.A, base.A.matvec(x), B, d), x


@given(
    st.sampled_from(sorted(SYSTEMS)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
# Draws where no row with a positive image is tight and the least slack
# among those rows is not at the least ratio, so a ratio test that picks
# the least slack gives the wrong cap.  Most random draws have a tight row
# with a positive image, where both rules give step 0.
@example("box", 25, False, False)
@example("circulation", 8, False, True)
@example("dense", 5, True, False)
@example("polytope", 54, False, False)
def test_row_units_match_plain_fractions(kind, seed, integral_x, integral_g):
    """The slack and image in row units give the ratio test, the active set
    and the signs and values that d - Bx and Bg in plain Fractions give; x
    and its slack are ints over one denominator, in lowest terms.  B is the
    system's B plus a row with content > 1, a non-integral row and a zero
    row; d makes a random subset of the rows tight at x."""
    rng = random.Random(seed)
    P, x = _system_at(rng, kind, integral_x)
    g = _vector(rng, P.n, integral_g)

    plain_slack = P.d - P.B.matvec(x)
    plain_image = P.B.matvec(g)
    # (cap, row) of each row that caps the step: the least is the first
    # row with the smallest cap
    caps = [(s / a, j) for j, (s, a) in enumerate(zip(plain_slack, plain_image)) if a > 0]
    X, S, D = _slack(P, x)
    G, den = _int_vector(g)
    image = _image(P._b_image, G)
    j = _ratio_test(S, image)
    cap = UNBOUNDED if j is None else (Fraction(S[j] * den, D * image[j]), j)
    assert cap == (min(caps) if caps else UNBOUNDED)
    assert _active(S) == tuple(j for j, s in enumerate(plain_slack) if s == 0)
    assert [(e > 0) - (e < 0) for e in image] == [(e > 0) - (e < 0) for e in plain_image]
    scales = []  # s_i with B_i = s_i * q_i
    for row in P.B.entries:
        q = coprime_integer_entries(row)
        i = next((i for i, a in enumerate(q) if a), None)
        scales.append(1 if i is None else row[i] / q[i])
    assert [Fraction(e, D) * s for e, s in zip(S, scales)] == list(plain_slack)
    assert [Fraction(e, den) * s for e, s in zip(image, scales)] == list(plain_image)
    assert all(type(e) is int for e in (*X, *S, *image, D))
    assert D > 0 and gcd(D, *X, *S) == 1 and [Fraction(e, D) for e in X] == list(x)


@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 2**32 - 1), st.booleans())
def test_int_walk_matches_fraction_walk(kind, seed, integral_x):
    """The int walk passes through the points and directions of the
    Fraction reference walk: on P from a point of ``_system_at`` with
    fewer than n of its tight rows kept tight, most often not a vertex,
    and on the sign cone of a kernel vector z of A, whose conformal terms
    match the reference's too."""
    rng = random.Random(seed)
    P, x = _system_at(rng, kind, integral_x)
    keep = set(rng.sample(range(P.B.m), rng.randint(0, P.n - 1)))
    d = RatVec(
        e if j in keep or s else e + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j, (e, s) in enumerate(zip(P.d, P.d - P.B.matvec(x)))
    )
    P = Polyhedron(P.A, P.b, P.B, d)
    X, S, D = _slack(P, x)
    block = _tighten(_a_block(P), P.n, S)
    walk = [(_point(Y, E), w) for Y, _, E, w in _walk(P, False, X, S, D, block)]
    assert walk == list(fraction_walk(P, None, x))

    ker = kernel_basis(P.A)
    if not ker:
        return
    z = RatVec.zeros(P.n)
    for v in ker:
        z = z + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * v
    if z.is_zero():
        z = ker[0]
    Z, D = _int_vector(z)
    bz = _image(P._b_image, Z)
    signs = [-1 if e < 0 else 1 for e in bz]
    S = [abs(e) for e in bz]
    n = P.n  # the cone's block carries the signed images sigma_i q_i.v
    block = [col[:n] + [s * a for s, a in zip(signs, col[n:])] for col in _a_block(P)]
    block = _tighten(block, n, S)
    walk = [(_point(Y, E), w) for Y, _, E, w in _walk(P, True, [-e for e in Z], S, D, block)]
    assert walk == list(fraction_walk(P, signs, -z))
    assert list(_terms(P, (Z, D), _a_block(P))) == fraction_terms(P, z)


SQUARE_TEXT = """2 0 4
1 0
0 1
-1 0
0 -1
1 1 0 0
-1 -2
"""


class TestInstanceFormat:
    def test_parse_square(self):
        inst = parse_instance_text(SQUARE_TEXT)
        assert inst.polyhedron == UNIT_SQUARE
        assert inst.objective == RatVec([-1, -2])

    def test_roundtrip_square(self):
        inst = parse_instance_text(SQUARE_TEXT)
        assert parse_instance_text(format_instance(inst)) == inst

    def test_roundtrip_with_equalities(self):
        inst = Instance(TRIANGLE, RatVec([Fraction(-3, 2), Fraction(-5, 4), Fraction(-9, 8)]))
        assert parse_instance_text(format_instance(inst)) == inst

    def test_comments_and_blanks_ignored(self):
        text = "# box\n\n" + SQUARE_TEXT
        assert parse_instance_text(text).polyhedron == UNIT_SQUARE

    def test_malformed_rational_position(self):
        bad = SQUARE_TEXT.replace("0 -1", "0 -1/0")
        with pytest.raises(ParseError) as err:
            parse_instance_text(bad)
        assert err.value.line == 5
        assert err.value.column == 3

    def test_wrong_entry_count(self):
        bad = SQUARE_TEXT.replace("1 1 0 0", "1 1 0")
        with pytest.raises(ParseError) as err:
            parse_instance_text(bad)
        assert err.value.line == 6

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_instance_text("2 0 4\n1 0\n")

    def test_extra_line_rejected(self):
        with pytest.raises(ParseError):
            parse_instance_text(SQUARE_TEXT + "9 9\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance_text("2 x 4\n")

    def test_header_token_count_names_the_fields(self):
        with pytest.raises(ParseError) as err:
            parse_instance_text("# box\n2 0\n")
        assert str(err.value) == "line 2, column 1: header must be 'n m_A m_B', found 2 tokens"

    def test_non_pointed_file_rejected(self):
        with pytest.raises(NotPointedError):
            parse_instance_text(HALF_PLANE_TEXT)


class TestPointFormat:
    def test_roundtrip(self):
        p = RatVec([Fraction(1, 2), -2, 0])
        assert parse_point_text(format_point(p)) == p

    def test_dimension_check(self):
        with pytest.raises(ParseError):
            parse_point_text("1 2 3", expected_dim=2)

    def test_rejects_plus_sign(self):
        with pytest.raises(ParseError) as err:
            parse_point_text("+1 2")
        assert err.value.column == 1

    def test_rejects_a_second_data_line(self):
        # a point is one data line; comments and blank lines do not count
        with pytest.raises(ParseError) as err:
            parse_point_text("0 0\n# next\n1 1\n", expected_dim=2)
        assert (err.value.line, err.value.column) == (3, 1)

    def test_comments_and_blank_lines_around_the_point(self):
        text = "# start\n\n1/2 -1\n\n# end\n"
        assert parse_point_text(text, expected_dim=2) == RatVec([Fraction(1, 2), -1])
