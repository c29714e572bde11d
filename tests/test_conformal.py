import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

import ddcircuits.circuits
import ddcircuits.conformal
import ddcircuits.polyhedron
from ddcircuits import (
    Circuit,
    ConformalSum,
    Digraph,
    LpOptimal,
    Polyhedron,
    RatVec,
    build_reduction,
    decompose,
    is_circuit_direction,
    is_feasible,
    solve_lp,
    verify_conformal,
)
from ddcircuits.conformal import _terms, format_conformal
from ddcircuits.polyhedron import _a_block
from ddcircuits.ratlin import _int_vector, kernel_basis, rank

from instgen import dense_polytope, dense_rational_system, mixed_instances
from oracles import fraction_terms

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])
TWO_TRIANGLES = build_reduction(
    Digraph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))
).instance.polyhedron


class TestDecompose:
    def test_square_diagonal(self):
        total = decompose(UNIT_SQUARE, RatVec([1, 1]))
        assert [(a, g.entries) for a, g in total.terms] == [
            (Fraction(1), (0, 1)),
            (Fraction(1), (1, 0)),
        ]

    def test_scaled_circuit(self):
        total = decompose(UNIT_SQUARE, RatVec([Fraction(1, 2), 0]))
        assert [(a, g.entries) for a, g in total.terms] == [(Fraction(1, 2), (1, 0))]

    def test_two_disjoint_cycles(self):
        total = decompose(TWO_TRIANGLES, RatVec([1, 1, 1, 1, 1, 1]))
        assert [(a, g.entries) for a, g in total.terms] == [
            (Fraction(1), (0, 0, 0, 1, 1, 1)),
            (Fraction(1), (1, 1, 1, 0, 0, 0)),
        ]

    def test_negative_directions(self):
        total = decompose(UNIT_SQUARE, RatVec([-2, Fraction(1, 3)]))
        reconstructed = RatVec.zeros(2)
        for alpha, g in total.terms:
            reconstructed = reconstructed + alpha * g.vec
        assert reconstructed == RatVec([-2, Fraction(1, 3)])
        assert verify_conformal(UNIT_SQUARE, total)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            decompose(UNIT_SQUARE, RatVec([0, 0]))

    def test_rejects_non_kernel(self):
        tri = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance.polyhedron
        with pytest.raises(ValueError):
            decompose(tri, RatVec([1, 0, 0]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            decompose(UNIT_SQUARE, RatVec([1, 0, 0]))


class TestVerifyConformal:
    def test_accepts_decompose_output(self):
        total = decompose(UNIT_SQUARE, RatVec([1, 1]))
        assert verify_conformal(UNIT_SQUARE, total)

    def test_rejects_flipped_sign(self):
        total = decompose(UNIT_SQUARE, RatVec([1, 1]))
        flipped = ConformalSum(
            (total.terms[0], (total.terms[1][0], -total.terms[1][1])), total.target
        )
        assert not verify_conformal(UNIT_SQUARE, flipped)

    def test_rejects_too_many_terms(self):
        # splitting one coefficient in half exceeds the n - rank(A) bound
        total = decompose(UNIT_SQUARE, RatVec([1, 1]))
        (a0, g0), (a1, g1) = total.terms
        split = ConformalSum(
            ((a0 / 2, g0), (a0 / 2, g0), (a1, g1)), total.target
        )
        assert not verify_conformal(UNIT_SQUARE, split)

    def test_rejects_wrong_reconstruction(self):
        bad = ConformalSum(
            ((Fraction(1), Circuit((1, 0))),), RatVec([1, 1])
        )
        assert not verify_conformal(UNIT_SQUARE, bad)

    def test_rejects_non_circuit_independently(self, monkeypatch):
        # (1, 1) passes every other check on the square; the circuit check
        # must not rest on the fast-path membership test it is meant to check
        monkeypatch.setattr(ddcircuits.circuits, "is_circuit_direction", lambda P, v: True)
        monkeypatch.setattr(
            ddcircuits.conformal, "is_circuit_direction", lambda P, v: True, raising=False
        )
        bad = ConformalSum(((1, Circuit((1, 1))),), RatVec([1, 1]))
        assert not verify_conformal(UNIT_SQUARE, bad)

    def test_rejects_term_outside_kernel(self):
        tri = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance.polyhedron
        bad = ConformalSum(((1, Circuit((1, 0, 0))),), RatVec([1, 0, 0]))
        assert not verify_conformal(tri, bad)

    @pytest.mark.parametrize(
        "terms, target",
        [
            pytest.param(((1, Circuit((1, 0))),), (1, 0, 0), id="target-dimension"),
            pytest.param(((1, Circuit((1, 0, 0))),), (1, 0), id="term-dimension"),
            # each sum reconstructs (1, 0) within the term bound
            pytest.param(
                ((2, Circuit((1, 0))), (1, Circuit((-1, 0)))), (1, 0), id="sign-against-target"
            ),
            pytest.param(
                ((1, Circuit((1, 1))), (1, Circuit((0, -1)))), (1, 0), id="nonzero-where-target-is-zero"
            ),
        ],
    )
    def test_rejects_broken_invariant(self, terms, target):
        assert not verify_conformal(UNIT_SQUARE, ConformalSum(terms, RatVec(target)))

    def test_rejects_nonpositive_alpha(self):
        bad = ConformalSum(
            ((Fraction(0), Circuit((1, 0))),), RatVec([0, 0])
        )
        assert not verify_conformal(UNIT_SQUARE, bad)


class TestInvariantsOnRandomInstances:
    def test_reconstruction_bound_signs_circuits(self):
        for P, c, x0 in mixed_instances(seed=93021, count=30):
            out = solve_lp(P, c)
            if not isinstance(out, LpOptimal):
                continue
            z = out.vertex - x0
            if z.is_zero():
                continue
            total = decompose(P, z)
            assert verify_conformal(P, total)
            assert len(total.terms) <= P.n - rank(P.A)
            reconstructed = RatVec.zeros(P.n)
            for alpha, g in total.terms:
                assert alpha > 0
                assert is_circuit_direction(P, g.vec)
                reconstructed = reconstructed + alpha * g.vec
            assert reconstructed == z

    def test_partial_sums_stay_feasible(self):
        for P, c, x0 in mixed_instances(seed=515, count=12):
            out = solve_lp(P, c)
            if not isinstance(out, LpOptimal):
                continue
            z = out.vertex - x0
            if z.is_zero():
                continue
            total = decompose(P, z)
            idx = range(len(total.terms))
            for size in range(len(total.terms) + 1):
                for subset in combinations(idx, size):
                    point = x0
                    for i in subset:
                        alpha, g = total.terms[i]
                        point = point + alpha * g.vec
                    assert is_feasible(P, point)


def test_serialization_layout():
    total = decompose(UNIT_SQUARE, RatVec([1, 1]))
    assert format_conformal(total) == "1 | 0 1\n1 | 1 0\n"


def _pinned_sums():
    """120 decompositions on dense, non-TU rational systems: LP optimum
    minus start on 40 polytopes, and on 40 systems the first kernel vector
    of A and the sum of its kernel basis.  Some walks start where the first
    kernel vector of the active rows is parallel to the residual."""
    sums = []
    rng = random.Random(1)
    for _ in range(40):
        P, c, x0 = dense_polytope(rng)
        sums.append((P, decompose(P, solve_lp(P, c).vertex - x0)))
    rng = random.Random(2)
    for _ in range(40):
        P = dense_rational_system(rng)
        ker = kernel_basis(P.A)
        total = ker[0]
        for v in ker[1:]:
            total = total + v
        sums.append((P, decompose(P, ker[0])))
        sums.append((P, decompose(P, total)))
    return sums


def test_decompositions_pinned():
    sums = _pinned_sums()
    assert len(sums) == 120
    assert sum(len(s.terms) for _, s in sums) == 292
    assert all(verify_conformal(P, s) for P, s in sums)
    digest = hashlib.sha256(repr([s for _, s in sums]).encode()).hexdigest()
    assert digest == "e32146c8273efaa737109114d70f44c300d882c40ac495925ba958ec0ef3a286"


def test_terms_match_the_fraction_reference():
    for P, s in _pinned_sums():
        assert list(_terms(P, _int_vector(s.target), _a_block(P))) == fraction_terms(P, s.target)


def test_decompose_sorts_the_walk_order_terms():
    for P, s in _pinned_sums():
        terms = _terms(P, _int_vector(s.target), _a_block(P))
        assert s.terms == tuple(sorted(terms, key=lambda term: term[1].entries))


# The column steps made by the 40 polytope decompositions of
# ``_pinned_sums``.  Each decomposition keeps the block of the residual's
# active rows across terms and cuts it only by the rows a term made
# active, so no walk cuts a row an earlier term had cut.
DECOMPOSE_CUT_CALLS = 154


def test_decompose_cuts_each_row_once(monkeypatch):
    rng = random.Random(1)
    cases = []
    for _ in range(40):
        P, c, x0 = dense_polytope(rng)
        cases.append((P, solve_lp(P, c).vertex - x0))
    real = ddcircuits.polyhedron._cut
    calls = []

    def counting(block, n, r):
        calls.append(r)
        return real(block, n, r)

    monkeypatch.setattr(ddcircuits.polyhedron, "_cut", counting)
    assert sum(len(decompose(P, z).terms) for P, z in cases) == 104
    assert len(calls) == DECOMPOSE_CUT_CALLS
