import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ddcircuits import Polyhedron
from ddcircuits.polyhedron import _a_block, _image
from ddcircuits.ratlin import (
    RatMat,
    RatVec,
    _cut,
    _kernel,
    _pivot,
    coprime_integer_entries,
    kernel_basis,
    parse_rat,
    rank,
    sign_normalized,
)

from instgen import dense_polytope, dense_rational_system, gen_box, gen_circulation

from oracles import (
    coprime,
    cramer,
    dense_matvec,
    dense_pivot,
    minor_kernel_vector,
    minor_rank,
    positive_multiple,
)

# Node-arc incidence of the directed triangle 1->2->3->1 (+1 tail, -1 head).
TRIANGLE_INCIDENCE = RatMat(
    [
        [1, 0, -1],
        [-1, 1, 0],
        [0, -1, 1],
    ]
)
IDENTITY = RatMat([[1, 0], [0, 1]])


class TestRatParsing:
    def test_roundtrip(self):
        # a parsed rational prints as the token it came from, which is how
        # every output writes a rational
        for text in ("3/2", "-3/2", "7", "-7", "0"):
            assert str(parse_rat(text)) == text

    def test_lowest_terms(self):
        assert parse_rat("6/4") == Fraction(3, 2)
        assert str(parse_rat("6/4")) == "3/2"

    @pytest.mark.parametrize("bad", ["+3", "3/-2", "3/0", "1.5", "x", "", "3 /2", "--3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)


class TestRank:
    def test_identity(self):
        assert rank(IDENTITY) == 2

    def test_zero_matrix(self):
        assert rank(RatMat([[0] * 4 for _ in range(3)])) == 0

    def test_triangle_incidence(self):
        # incidence rank = nodes - weakly connected components = 3 - 1
        assert rank(TRIANGLE_INCIDENCE) == 2


class TestKernelBasis:
    def test_difference_row(self):
        basis = kernel_basis(RatMat([[1, -1]]))
        assert basis == [RatVec([1, 1])]

    def test_identity_trivial_kernel(self):
        assert kernel_basis(IDENTITY) == []

    def test_triangle_incidence(self):
        assert kernel_basis(TRIANGLE_INCIDENCE) == [RatVec([1, 1, 1])]

    def test_zero_rows_matrix(self):
        basis = kernel_basis(RatMat([], cols=2))
        assert basis == [RatVec([1, 0]), RatVec([0, 1])]

    def test_normalization(self):
        (vec,) = kernel_basis(RatMat([[Fraction(1, 2), Fraction(3, 4)]]))
        assert vec == RatVec([-3, 2]) or vec == RatVec([3, -2])
        # first nonzero entry positive
        first = next(e for e in vec if e != 0)
        assert first > 0


def _rationals():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )


def _matrices():
    return st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(_rationals(), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(RatMat)
        )
    )


@given(_matrices())
def test_rank_nullity(M):
    assert rank(M) + len(kernel_basis(M)) == M.n


@given(_matrices())
def test_kernel_vectors_annihilated(M):
    for v in kernel_basis(M):
        assert M.matvec(v).is_zero()
        ints = [int(e) for e in v]
        assert all(e.denominator == 1 for e in v)
        first = next(e for e in ints if e != 0)
        assert first > 0


@given(_matrices(), st.data())
def test_solve_exact_when_solvable(M, data):
    # Cramer's rule, the vertex oracle's solver, gives back exactly the
    # point that produced the right-hand side of a nonsingular square system
    k = min(M.m, M.n)
    square = RatMat([row[:k] for row in M.entries[:k]])
    target = RatVec(data.draw(st.lists(_rationals(), min_size=k, max_size=k)))
    rhs = square.matvec(target)
    x = cramer(square.entries, rhs.entries)
    assert (x is not None) == (rank(square) == k)
    if x is not None:
        assert RatVec(x) == target
        assert square.matvec(RatVec(x)) == rhs


_SPARSE = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
)


@st.composite
def _small_matrices(draw):
    """Up to 4x4, mostly zeros, sometimes a row combining two others, so
    that rank deficiency is common."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_SPARSE, min_size=n, max_size=n), min_size=m, max_size=m))
    if m >= 3 and draw(st.booleans()):
        a, b = draw(_SPARSE), draw(_SPARSE)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return RatMat(rows, cols=n)


@given(_small_matrices())
def test_rank_is_largest_nonzero_minor(M):
    assert rank(M) == minor_rank(M.entries, M.n)


@given(_small_matrices())
def test_kernel_basis_against_minors(M):
    r = minor_rank(M.entries, M.n)
    basis = kernel_basis(M)
    assert len(basis) == M.n - r
    assert minor_rank([v.entries for v in basis], M.n) == len(basis)
    for v in basis:
        assert M.matvec(v).is_zero()
    if r == M.n - 1:
        rows = next(rows for rows in combinations(M.entries, r) if minor_rank(rows, M.n) == r)
        ints = coprime(minor_kernel_vector(rows, M.n))
        if next(e for e in ints if e != 0) < 0:
            ints = tuple(-e for e in ints)
        assert basis == [RatVec(ints)]


@given(_small_matrices(), st.data())
def test_solve_against_minor_ranks(M, data):
    # Cramer's rule, the vertex oracle's solver, solves a square system
    # exactly when it is nonsingular
    k = min(M.m, M.n)
    square = RatMat([row[:k] for row in M.entries[:k]])
    rhs = RatVec(data.draw(st.lists(_SPARSE, min_size=k, max_size=k)))
    x = cramer(square.entries, rhs.entries)
    assert (x is not None) == (minor_rank(square.entries, k) == k)
    if x is not None:
        assert square.matvec(RatVec(x)) == rhs


@given(_small_matrices(), st.data())
def test_pivot_matches_dense_step(M, data):
    # on primitive integer rows the step gives a primitive positive
    # multiple of each row of the dense Fraction step, with its zero
    # pattern, and rebinds changed rows instead of changing them in place
    nonzero = [(i, j) for i, row in enumerate(M.entries) for j, a in enumerate(row) if a]
    if not nonzero:
        return
    r, col = data.draw(st.sampled_from(nonzero))
    before = [list(coprime_integer_entries(row)) for row in M.entries]
    snapshot = [list(row) for row in before]
    rows, dense = list(before), [list(row) for row in M.entries]
    _pivot(rows, r, col)
    dense_pivot(dense, r, col)
    for row, ref in zip(rows, dense):
        assert all(type(a) is int for a in row) and gcd(*row) in (0, 1)
        assert positive_multiple(row, ref)
    assert before == snapshot


@given(_small_matrices(), st.data())
def test_kernel_block_is_the_canonical_form(M, data):
    # shuffled rows with dependent rows appended give one column per free
    # column of the reduced row echelon form, in order: each is primitive,
    # 0 at every other free column, up to sign the kernel vector of M with
    # that support, which the minors give, and followed by its products
    # with the rows
    extra = data.draw(st.lists(st.tuples(_SPARSE, _SPARSE, st.sampled_from(M.entries)), max_size=3))
    dependent = [
        tuple(a * x + b * y for x, y in zip(row, M.entries[0])) for a, b, row in extra
    ]
    shuffled = data.draw(st.permutations(list(M.entries) + dependent))
    rows = [coprime_integer_entries(row) for row in shuffled]
    n = M.n
    block = _kernel(rows, n)
    prefix_ranks = [0] + [minor_rank([row[: j + 1] for row in M.entries], j + 1) for j in range(n)]
    free = [j for j in range(n) if prefix_ranks[j + 1] == prefix_ranks[j]]
    assert len(block) == len(free)
    r = n - len(free)
    independent = next(sub for sub in combinations(M.entries, r) if minor_rank(sub, n) == r)
    for f, col in zip(free, block):
        assert all(type(a) is int for a in col) and gcd(*col[:n]) == 1
        assert col[f] != 0 and all(col[g] == 0 for g in free if g != f)
        units = [[int(k == g) for k in range(n)] for g in free if g != f]
        ref = coprime(minor_kernel_vector(list(independent) + units, n))
        assert sign_normalized(col[:n]) == sign_normalized(ref)
        assert col[n:] == [sum(a * b for a, b in zip(row, col)) for row in rows]


# Systems whose B has dense rational rows, the rows of a box, or those of a
# circulation.
_BLOCK_SYSTEMS = {
    "dense": dense_rational_system,
    "polytope": lambda rng: dense_polytope(rng)[0],
    "box": lambda rng: gen_box(rng)[0],
    "circulation": lambda rng: gen_circulation(rng)[0],
}


@given(st.sampled_from(sorted(_BLOCK_SYSTEMS)), st.integers(0, 2**32 - 1), st.data())
def test_cut_keeps_the_kernel_basis(kind, seed, data):
    # A's block cut by rows of B in any order, with a duplicate and the
    # negation of a row e_j and a row dependent on two others added to B,
    # is the kernel basis of A stacked on the rows cut so far: each column
    # is a basis vector up to sign, primitive, followed by its image under
    # B in row units; a row that is 0 in every column is in the span of
    # those cut already and is passed over, and a trivial kernel gives an
    # empty block
    rng = random.Random(seed)
    P = _BLOCK_SYSTEMS[kind](rng)
    n, rows = P.n, [list(row) for row in P.B.entries]
    e = [Fraction(int(k == rng.randrange(n))) for k in range(n)]
    rows += [[2 * a for a in e], [-a for a in e], [a - 3 * b for a, b in zip(rows[0], rows[-1])]]
    P = Polyhedron(P.A, P.b, RatMat(rows, cols=n), RatVec(list(P.d) + [0, 0, 0]))
    order = data.draw(st.permutations(range(len(rows))))
    block, cut = _a_block(P), []
    for i in [None] + order[: data.draw(st.integers(0, len(rows)))]:
        if i is not None:
            cut.append(rows[i])
            if any(col[n + i] for col in block):
                block = _cut(block, n, n + i)
        ker = kernel_basis(RatMat(list(P.A.entries) + cut, cols=n))
        assert [sign_normalized(col[:n]) for col in block] == [v.entries for v in ker]
        for col in block:
            assert gcd(*col[:n]) == 1 and col[n:] == _image(P._b_image, col[:n])
        if not ker:
            assert block == []


@given(st.lists(_rationals(), max_size=6))
def test_coprime_integer_entries(values):
    # primitive ints, a positive multiple of the input with its zeros,
    # and primitive integer input comes back unchanged
    ints = coprime_integer_entries(values)
    assert all(type(a) is int for a in ints) and gcd(*ints) in (0, 1)
    assert positive_multiple(ints, values)
    assert coprime_integer_entries(ints) == ints
    assert coprime_integer_entries(list(ints)) == ints


@given(_small_matrices(), st.data())
def test_products_match_dense_sums(M, data):
    v = RatVec(data.draw(st.lists(_SPARSE, min_size=M.n, max_size=M.n)))
    assert M.matvec(v) == dense_matvec(M, v)
    for i, row in enumerate(M.entries):
        assert RatVec(row).dot(v) == dense_matvec(M, v)[i]


@given(_matrices())
def test_deterministic(M):
    again = RatMat([list(r) for r in M.entries], cols=M.n)
    assert rank(M) == rank(again)
    assert kernel_basis(M) == kernel_basis(again)


def test_vstack_and_vector_algebra():
    a = RatMat([[1, 2]])
    b = RatMat([], cols=2)
    stacked = RatMat(b.entries + a.entries, cols=2)
    assert stacked.m == 1 and stacked.n == 2 and stacked.entries == a.entries
    u = RatVec([1, Fraction(1, 2)])
    v = RatVec([-1, 2])
    assert u + v == RatVec([0, Fraction(5, 2)])
    assert u - v == RatVec([2, Fraction(-3, 2)])
    assert 2 * u == RatVec([2, 1])
    assert u.dot(v) == 0
    assert (-u).is_zero() is False
    assert RatVec.zeros(3).is_zero()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: RatMat([]), "column count required", id="matrix-without-rows-or-columns"),
        pytest.param(lambda: RatMat([[1, 2], [3]]), "ragged row", id="ragged-matrix"),
        pytest.param(lambda: RatVec([1, 2]) + RatVec([1]), "dimension mismatch: 2 vs 1", id="vector-sum"),
        pytest.param(lambda: RatVec([1]).dot(RatVec([1, 2])), "dimension mismatch: 1 vs 2", id="dot-product"),
        pytest.param(lambda: RatMat([[1, 2]]).matvec(RatVec([1])), "matrix has 2 columns", id="matvec"),
        pytest.param(
            lambda: RatMat(RatMat([[1, 2]]).entries + RatMat([[1]]).entries, cols=2),
            "ragged row",
            id="vstack-columns",
        ),
    ],
)
def test_dimensions_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()
