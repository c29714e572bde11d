import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from ddcircuits import (
    Circuit,
    ConeLift,
    Digraph,
    Polyhedron,
    RatVec,
    SizeGuardExceeded,
    build_reduction,
    enumerate_circuits,
    is_circuit_direction,
    is_extreme_ray,
    lift,
)
from ddcircuits.ratlin import RatMat, coprime_integer_entries, kernel_basis

from instgen import (
    complete_digraph,
    dense_rational_system,
    exhaustive_digraphs,
    mixed_instances,
    verify_class_digraphs,
)
from oracles import (
    canonical_orientation,
    minor_circuits,
    ppc_flat_count,
    undirected_cycle_indicators,
)

UNIT_SQUARE = Polyhedron.box([0, 0], [1, 1])


def circulation(graph: Digraph) -> Polyhedron:
    return build_reduction(graph).instance.polyhedron

TRIANGLE_GRAPH = Digraph(3, ((1, 2), (2, 3), (3, 1)))
TRIANGLE = circulation(TRIANGLE_GRAPH)


class TestCircuitType:
    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            Circuit((2, 4))

    def test_requires_nonzero(self):
        with pytest.raises(ValueError):
            Circuit((0, 0))

    def test_from_vector_scales(self):
        """A rational direction scales to coprime integers, keeping orientation."""
        circ = Circuit(coprime_integer_entries(RatVec([Fraction(1, 2), Fraction(3, 2)]).entries))
        assert circ.entries == (1, 3)
        assert Circuit(coprime_integer_entries([Fraction(-2, 3), 0, 4])).entries == (-1, 0, 6)

    def test_negation(self):
        assert (-Circuit((1, -2))).entries == (-1, 2)

    def test_requires_integers(self):
        with pytest.raises(ValueError, match="integers"):
            Circuit((Fraction(1, 2), 1))


class TestLift:
    def test_square_axis(self):
        L = lift(UNIT_SQUARE, RatVec([1, 0]))
        assert L.x == RatVec([1, 0])
        assert L.yplus == RatVec([1, 0, 0, 0])
        assert L.yminus == RatVec([0, 0, 1, 0])

    def test_zero_vector(self):
        L = lift(UNIT_SQUARE, RatVec([0, 0]))
        assert L.is_zero()

    def test_disjoint_supports(self):
        L = lift(TRIANGLE, RatVec([1, 1, 1]))
        assert all(min(p, m) == 0 for p, m in zip(L.yplus, L.yminus))
        assert TRIANGLE.B.matvec(L.x) == L.yplus - L.yminus

    def test_rejects_non_kernel(self):
        with pytest.raises(ValueError):
            lift(TRIANGLE, RatVec([1, 0, 0]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension 1, expected 2"):
            lift(UNIT_SQUARE, RatVec([1]))


class TestExtremeRay:
    def test_square_unit_vector(self):
        assert is_extreme_ray(UNIT_SQUARE, lift(UNIT_SQUARE, RatVec([1, 0])))

    def test_square_diagonal_not_extreme(self):
        assert not is_extreme_ray(UNIT_SQUARE, lift(UNIT_SQUARE, RatVec([1, 1])))

    def test_trivial_member_is_extreme_but_not_circuit(self):
        # x = 0, y+_i = y-_i = 1: an extreme ray whose projection is zero
        m_b = UNIT_SQUARE.B.m
        for i in range(m_b):
            unit = [Fraction(0)] * m_b
            unit[i] = Fraction(1)
            member = ConeLift(RatVec([0, 0]), RatVec(unit), RatVec(unit))
            assert is_extreme_ray(UNIT_SQUARE, member)
        assert not is_circuit_direction(UNIT_SQUARE, RatVec([0, 0]))

    def test_zero_lift_rejected(self):
        with pytest.raises(ValueError):
            is_extreme_ray(UNIT_SQUARE, lift(UNIT_SQUARE, RatVec([0, 0])))

    def test_non_member_rejected(self):
        bad = ConeLift(RatVec([1, 0]), RatVec([0, 0, 0, 0]), RatVec([0, 0, 0, 0]))
        with pytest.raises(ValueError):
            is_extreme_ray(UNIT_SQUARE, bad)

    @pytest.mark.parametrize(
        "P, x, yplus, yminus, message",
        [
            pytest.param(UNIT_SQUARE, [1, 0], [1, 0, 0], [0, 0, 1], "dimensions", id="dimensions"),
            pytest.param(UNIT_SQUARE, [1, 0], [1, 0, 0, -1], [0, 0, 1, -1], "negative", id="negative-part"),
            pytest.param(TRIANGLE, [1, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], "A x", id="off-kernel"),
        ],
    )
    def test_malformed_lift_rejected(self, P, x, yplus, yminus, message):
        with pytest.raises(ValueError, match=message):
            is_extreme_ray(P, ConeLift(RatVec(x), RatVec(yplus), RatVec(yminus)))


class TestCircuitDirection:
    def test_square_axis(self):
        assert is_circuit_direction(UNIT_SQUARE, RatVec([1, 0]))

    def test_square_diagonal(self):
        assert not is_circuit_direction(UNIT_SQUARE, RatVec([1, 1]))

    def test_triangle_cycle(self):
        assert is_circuit_direction(TRIANGLE, RatVec([1, 1, 1]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            is_circuit_direction(UNIT_SQUARE, RatVec([1, 0, 0]))

    def test_zero_and_non_kernel(self):
        assert not is_circuit_direction(UNIT_SQUARE, RatVec([0, 0]))
        assert not is_circuit_direction(TRIANGLE, RatVec([1, 0, 0]))

    def test_positive_scaling_invariance(self):
        for lam in (Fraction(1, 2), Fraction(3), Fraction(7, 3)):
            for v in (RatVec([1, 0]), RatVec([1, 1])):
                assert is_circuit_direction(UNIT_SQUARE, lam * v) == is_circuit_direction(
                    UNIT_SQUARE, v
                )


class TestEnumerate:
    def test_unit_square(self):
        circuits = enumerate_circuits(UNIT_SQUARE)
        assert [c.entries for c in circuits] == [(0, 1), (1, 0)]

    def test_triangle(self):
        assert [c.entries for c in enumerate_circuits(TRIANGLE)] == [(1, 1, 1)]

    def test_two_node_loop(self):
        P = circulation(Digraph(2, ((1, 2), (2, 1))))
        assert [c.entries for c in enumerate_circuits(P)] == [(1, 1)]

    def test_canonical_sign(self):
        for P in (UNIT_SQUARE, TRIANGLE):
            for circ in enumerate_circuits(P):
                bg = P.B.matvec(circ.vec)
                first = next(e for e in bg if e != 0)
                assert first > 0

    def test_every_circuit_is_extreme_and_supports_incomparable(self):
        box = Polyhedron.box([0, -1], [2, 1])
        for P in (UNIT_SQUARE, TRIANGLE, box):
            circuits = enumerate_circuits(P)
            imgs = [{j for j, e in enumerate(P.B.matvec(c.vec)) if e} for c in circuits]
            for i, c in enumerate(circuits):
                assert is_extreme_ray(P, lift(P, c.vec))
                for j in range(len(circuits)):
                    if i != j:
                        assert not imgs[i] < imgs[j]

    def test_matches_membership_scan(self):
        # sound and complete against the rank test over a candidate grid
        circuits = {c.entries for c in enumerate_circuits(UNIT_SQUARE)}
        for cand in product(range(-2, 3), repeat=2):
            v = RatVec(cand)
            if v.is_zero():
                continue
            member = is_circuit_direction(UNIT_SQUARE, v)
            canon = canonical_orientation(UNIT_SQUARE, Circuit(coprime_integer_entries(v.entries)))
            assert member == (canon.entries in circuits)

    def test_matches_cycle_oracle_catalog(self):
        for graph in exhaustive_digraphs(node_counts=(2, 3)):
            P = circulation(graph)
            got = [c.entries for c in enumerate_circuits(P)]
            assert got == undirected_cycle_indicators(graph), graph

    def test_complete_digraph_has_eleven_circuits(self):
        graph = Digraph(3, ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)))
        assert len(enumerate_circuits(circulation(graph))) == 11

    def test_zero_row_of_b_is_skipped(self):
        # the square with the row 0 <= 1 added: it bounds no direction
        B = RatMat([[1, 0], [0, 0], [0, 1], [-1, 0], [0, -1]])
        P = Polyhedron(RatMat([], cols=2), RatVec([]), B, RatVec([1, 1, 1, 0, 0]))
        assert enumerate_circuits(P) == enumerate_circuits(UNIT_SQUARE)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            enumerate_circuits(circulation(TRIANGLE_GRAPH), work_budget=0)

    def test_trivial_kernel_no_circuits(self):
        from ddcircuits.ratlin import RatMat

        P = Polyhedron(
            RatMat([[1, 0], [0, 1]]), RatVec([1, 1]), RatMat([], cols=2), RatVec([])
        )
        assert enumerate_circuits(P) == []

    def test_rank_deficient_equalities(self):
        # duplicated equality rows: the kernel of A is the only direction
        from ddcircuits.ratlin import RatMat

        box = Polyhedron.box([0, 0], [1, 1])
        P = Polyhedron(
            RatMat([[1, 1], [1, 1], [2, 2]]), RatVec([1, 1, 2]), box.B, box.d
        )
        assert [c.entries for c in enumerate_circuits(P)] == [(1, -1)]

    def test_membership_scan_on_diamond(self):
        from ddcircuits.ratlin import RatMat

        diamond = Polyhedron(
            RatMat([], cols=2),
            RatVec([]),
            RatMat([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
            RatVec([1, 1, 1, 1]),
        )
        circuits = {c.entries for c in enumerate_circuits(diamond)}
        assert circuits == {(1, 1), (1, -1)}
        for cand in product(range(-2, 3), repeat=2):
            v = RatVec(cand)
            if v.is_zero():
                continue
            member = is_circuit_direction(diamond, v)
            canon = canonical_orientation(diamond, Circuit(coprime_integer_entries(v.entries)))
            assert member == (canon.entries in circuits)

    def test_deterministic(self):
        assert enumerate_circuits(TRIANGLE) == enumerate_circuits(TRIANGLE)

    def test_matches_minor_oracle_on_dense_rational_systems(self):
        rng = random.Random(4417)
        total = 0
        for _ in range(25):
            P = dense_rational_system(rng)
            assert any(e.denominator != 1 or abs(e) > 1 for row in P.B.entries for e in row)
            got = [c.entries for c in enumerate_circuits(P)]
            assert got == minor_circuits(P)
            total += len(got)
        assert total > 25


def _system(a_rows, b_rows, n):
    """The pointed system A x = 0, B x <= 1."""
    zeros, ones = RatVec([0] * len(a_rows)), RatVec([1] * len(b_rows))
    return Polyhedron(RatMat(a_rows, cols=n), zeros, RatMat(b_rows, cols=n), ones)


def _box_rows(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [
        [-1 if j == i else 0 for j in range(n)] for i in range(n)
    ]


# Systems where the flat walk starts or branches unusually: rows of B in
# the row space of A (the root flat holds them), zero rows of B, parallel
# and antiparallel rows of B, also of a first row of its class whose first
# nonzero is negative, a line as the kernel of A (k = 0: the root is
# the one circuit) and a trivial kernel (k < 0: no flat, no circuit).
EDGE_SYSTEMS = {
    "b-in-row-space-of-a": _system(
        [[1, 0, 1, 0], [0, 1, 0, 1]],
        _box_rows(4) + [[1, 1, 1, 1], [2, -1, 2, -1], [1, 0, 1, 0]],
        4,
    ),
    "zero-rows-of-b": _system(
        [[1, 1, 1]], [[0, 0, 0]] + _box_rows(3)[:4] + [[0, 0, 0]] + _box_rows(3)[4:], 3
    ),
    "parallel-rows-of-b": _system(
        [],
        [[1, 2, 0], [2, 4, 0], [-1, -2, 0], [0, 1, 1], [0, -3, -3], [1, 0, 0], [0, 0, 1], [-1, 1, -1]],
        3,
    ),
    # rows 0 and 1 start their classes with a negative entry; rows 2 and 3
    # are antiparallel to them
    "antiparallel-rep-points-down": _system(
        [[1, 1, 1, 1]],
        [[0, -1, 2, 0], [-2, 0, 1, 1], [0, 2, -4, 0], [2, 0, -1, -1]] + _box_rows(4),
        4,
    ),
    "line-kernel": _system([[1, 1, 0], [0, 1, 1]], _box_rows(3), 3),
    "trivial-kernel": _system([[1, 0], [0, 1]], _box_rows(2), 2),
}


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_edge_cases_match_minor_oracle(name):
    P = EDGE_SYSTEMS[name]
    got = [c.entries for c in enumerate_circuits(P)]
    assert got == minor_circuits(P)
    assert (got == []) == (name == "trivial-kernel")


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_edge_case_budget_is_flat_count(name):
    # the smallest budget that completes is the number of flats visited;
    # with any flat to visit, budget 0 raises, since the root costs one
    P = EDGE_SYSTEMS[name]
    flats = ppc_flat_count(P)
    assert (flats == 0) == (name == "trivial-kernel")
    assert enumerate_circuits(P, work_budget=flats) == enumerate_circuits(P)
    if flats:
        with pytest.raises(SizeGuardExceeded):
            enumerate_circuits(P, work_budget=flats - 1)


def _digest_systems():
    """The circulation LPs of two seeded digraphs per (|V|, m) class with
    |V| in {5, 6} and |V| <= m <= 2|V|, then of K4 and K5."""
    graphs = verify_class_digraphs(random.Random(1919))
    graphs += [complete_digraph(4), complete_digraph(5)]
    return [circulation(G) for G in graphs]


# sha256 over the repr of the lists of circuit entries of ``_digest_systems()``
# (1170 circuits), recorded with the subset scan, before the enumeration
# walked flats.  The benchmark's digest of the correspondence check sees
# only its verdicts, so this is what pins the enumerated circuits there.
ENUMERATION_DIGEST = "142d3114569374d5aa73d8d3263d7c4306ea77db2a4c50bd2b092464d77d1aae"


def test_enumerated_circuits_digest():
    lists = [[c.entries for c in enumerate_circuits(P)] for P in _digest_systems()]
    assert sum(map(len, lists)) == 1170
    assert hashlib.sha256(repr(lists).encode()).hexdigest() == ENUMERATION_DIGEST


def test_n_column_test_matches_lifted_rank_test():
    # is_circuit_direction decides in n columns what is_extreme_ray decides
    # on the canonical lift in n + 2*m_B columns
    rng = random.Random(5150)
    systems = [dense_rational_system(rng) for _ in range(8)]
    systems += [P for P, _, _ in mixed_instances(seed=5151, count=6)]
    verdicts = []
    for P in systems:
        circuits = [c.vec for c in enumerate_circuits(P)]
        basis = kernel_basis(P.A)
        candidates = list(circuits)
        for _ in range(6):
            v = RatVec.zeros(P.n)
            for b in basis:
                v = v + rng.choice((-1, 0, 0, 1, 2)) * b
            candidates.append(v)
            if circuits:
                u, w = rng.choice(circuits), rng.choice(circuits)
                candidates.append(Fraction(1, 3) * u + rng.randint(0, 2) * w)
        for v in candidates:
            if v.is_zero():
                continue
            expected = is_extreme_ray(P, lift(P, v))
            assert is_circuit_direction(P, v) == expected, (P, v)
            verdicts.append(expected)
    assert True in verdicts and False in verdicts
