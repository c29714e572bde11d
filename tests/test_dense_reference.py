"""The integer elimination step against the Fraction step, and the circuit
enumeration's one visit per flat and one orientation per circuit.

``ratlin._pivot`` holds primitive integer rows: each stands for any of its
positive multiples, so it is the Fraction step up to a positive factor per
row.  Here every such step the package takes is checked against the
dense Fraction step from ``oracles`` on the same rows; the one-row
reductions of ``ratlin._combine`` are checked in ``test_ratlin`` (the
echelon builder) and ``test_tableau_reference`` (the simplex).  The LP, uniqueness,
enumeration and decomposition results must hash to the digest recorded
before A was reduced once per polyhedron and the active-set walks began to
extend their echelon, and the pivot log (row, column, pivot row divided by
its pivot entry) to its pin, under the full uniqueness check; the default
path, which trusts the tableau's reduced costs where they prove the
optimum unique, has its own pin.  The enumeration and the active-set
walks hold kernels as blocks of columns and restrict them by the column
step ``ratlin._cut``, not by an elimination step, so the pivot logs hold
the simplex's steps and the echelons each polyhedron is built with.
Each column step is checked against the Fraction column step of
``oracles`` on the same block, and their number is pinned.  The
enumeration's work budget counts the flats it visits, pinned as the
exact budgets below, which equal the brute-force count of
``oracles.ppc_flat_count``.

Re-derive the pins, for an intended change of the pivot log or of what a
budget unit counts only, and say which moved and why; the results digest
is printed too, and must not move:

    PYTHONPATH=src python tests/test_dense_reference.py
"""

import hashlib
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

import ddcircuits.circuits
import ddcircuits.lp
import ddcircuits.polyhedron
import ddcircuits.ratlin
from ddcircuits import (
    Digraph,
    LpOptimal,
    Polyhedron,
    RatVec,
    SizeGuardExceeded,
    build_reduction,
    decompose,
    enumerate_circuits,
    solve_lp,
    verify_unique,
)
from ddcircuits.ratlin import kernel_basis, sign_normalized

from instgen import dense_polytope, dense_rational_system, gen_circulation, random_digraph
from oracles import dense_cut, dense_pivot, positive_multiple, ppc_flat_count

PIVOTING_MODULES = (ddcircuits.ratlin, ddcircuits.lp)
INTEGER_PIVOT = ddcircuits.ratlin._pivot
CUTTING_MODULES = (ddcircuits.circuits, ddcircuits.polyhedron)
INTEGER_CUT = ddcircuits.ratlin._cut


def _instances():
    """(P, c, x0): seeded circulations from zero, dense non-TU polytopes
    from an interior point, and dense rational systems with objective 1
    and no start."""
    rng = random.Random(6060)
    out = [gen_circulation(rng, max_nodes=5, max_arcs=8) for _ in range(8)]
    rng = random.Random(4041)
    out += [dense_polytope(rng) for _ in range(4)]
    rng = random.Random(4417)
    for _ in range(6):
        P = dense_rational_system(rng)
        out.append((P, RatVec([1] * P.n), None))
    return out


def _results(P, c, x0, full_check):
    """``full_check`` hands ``verify_unique`` a hand-built optimum, which
    carries no tableau verdict, so it runs the walk and the tangent-cone LP
    even where the reduced costs already proved the optimum unique."""
    lp = solve_lp(P, c)
    unique = None
    if isinstance(lp, LpOptimal):
        optimum = LpOptimal(lp.vertex, lp.value) if full_check else lp
        unique = verify_unique(P, c, lp.vertex, optimum=optimum)
    if x0 is not None and isinstance(lp, LpOptimal) and lp.vertex != x0:
        z = lp.vertex - x0
    else:
        basis = kernel_basis(P.A)
        z = reduce(add, basis) if basis else None
    return lp, unique, enumerate_circuits(P), None if z is None else decompose(P, z)


def _run_checked(monkeypatch, full_check):
    """Results, pivot log and the number of column steps, with every
    elimination step checked against the dense Fraction step on the same
    rows, and every column step against the Fraction column step on the
    same block: a column the step rewrites is the Fraction column times a
    factor with the sign of the pivot entry, and any other is unchanged."""
    log, cuts = [], []

    def checked(rows, r, col):
        dense = [[Fraction(a) for a in row] for row in rows]
        dense_pivot(dense, r, col)
        INTEGER_PIVOT(rows, r, col)
        assert all(positive_multiple(row, ref) for row, ref in zip(rows, dense))
        p = rows[r][col]
        log.append((r, col, tuple(Fraction(a) / p for a in rows[r])))

    def checked_cut(block, n, r):
        dense = dense_cut(block, r)
        s = next(t for t, col in enumerate(block) if col[r])
        p = block[s][r]
        signs = [-1 if p < 0 and col[r] else 1 for t, col in enumerate(block) if t != s]
        out = INTEGER_CUT(block, n, r)
        assert len(out) == len(dense)
        for col, ref, sign in zip(out, dense, signs):
            assert positive_multiple(col, [sign * a for a in ref])
        cuts.append(r)
        return out

    for module in PIVOTING_MODULES:
        monkeypatch.setattr(module, "_pivot", checked)
    for module in CUTTING_MODULES:
        monkeypatch.setattr(module, "_cut", checked_cut)
    results = [_results(P, c, x0, full_check) for P, c, x0 in _instances()]
    return results, log, len(cuts)


# sha256 over the repr of the results on ``_instances()``, recorded before
# the echelon of A was kept per polyhedron and the walks extended their
# echelon instead of eliminating [A; B_active] again.  Output must not move.
RESULTS_DIGEST = "fc7ad49cef8f84900dc50c1e31dd65779d4dffee55300145cdd5c333df584aa1"

# The number of pivots and a sha256 over the repr of their log, under the
# full uniqueness check.  Recorded when the simplex stopped storing
# artificial columns and pricing out its bases with a pivot per basic row,
# and ``ratlin._extend`` began to reduce a new row against each lead it
# meets with one ``_combine`` instead of a pivot: the log holds the
# simplex's Bland and drive-out pivots on rows without artificial entries,
# and one pivot per row ``_extend`` adds, on the row's own lead, with the
# decomposition keeping the echelon of its residual's active rows across
# terms.  Re-recorded when ``solve_lp`` stopped purifying an optimum its
# reduced costs prove unique: that walk only extended the echelon of the
# vertex's active rows, one pivot per row, and never moved.  Re-recorded
# when ``solve_lp`` began with the bound reading, whose tableau reads the
# +-e_j rows of B as bounds and has fewer rows and columns: the log holds
# its pivots, and the split reading's only where the bound reading leaves
# the optimum open or finds none.  Re-recorded when the active-set walks
# began to hold their kernel as a block and cut it by ``ratlin._cut``: the
# log no longer holds a pivot per row a walk or a decomposition extends
# its echelon by.  Re-recorded when construction began to read pointedness
# from the +-e_j rows of B where they bound every coordinate: the log no
# longer holds the pivots of extending A's echelon by B's rows there.
# Re-recorded when ``solve_lp`` stopped solving again in the split reading
# an LP whose bound tableau is infeasible, unbounded or leaves the optimum
# open: the log holds the pivots of one tableau per LP.
ECHELON_PIVOTS = 343
PIVOT_LOG_DIGEST = "8ad02f1f40cbbf30158bc5d0c4b785b088ead84896003da07cbeac7be3b193e4"

# The same pins on the default path, where ``verify_unique`` skips the walk
# and the tangent-cone LP for every optimum the reduced costs proved unique.
SHORTCUT_PIVOTS = 187
SHORTCUT_LOG_DIGEST = "f532e2987296118aca4a955695550143465426f2610e49ebf78b010fe439171a"

# The column steps (``ratlin._cut``) the circuit scan and the walks make,
# each checked against the Fraction column step, under the full check and
# on the default path.
COLUMN_STEPS = 163
SHORTCUT_COLUMN_STEPS = 130


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_same_results_and_pivot_log_as_fraction_step(monkeypatch):
    results, log, cuts = _run_checked(monkeypatch, full_check=True)
    assert _digest(results) == RESULTS_DIGEST
    assert len(log) == ECHELON_PIVOTS
    assert _digest(log) == PIVOT_LOG_DIGEST
    assert cuts == COLUMN_STEPS


def test_shortcut_keeps_results_and_drops_pivots(monkeypatch):
    results, log, cuts = _run_checked(monkeypatch, full_check=False)
    assert _digest(results) == RESULTS_DIGEST
    assert len(log) == SHORTCUT_PIVOTS
    assert _digest(log) == SHORTCUT_LOG_DIGEST
    assert cuts == SHORTCUT_COLUMN_STEPS


def _enumeration_systems():
    k3 = Digraph(3, ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)))
    rng = random.Random(7)
    systems = {
        "square": Polyhedron.box([0, 0], [1, 1]),
        "k3": build_reduction(k3).instance.polyhedron,
        "random5": build_reduction(random_digraph(random.Random(11), 5, 5, 9)).instance.polyhedron,
    }
    systems.update((f"dense{i}", dense_rational_system(rng)) for i in range(3))
    return systems


def test_each_circuit_oriented_once(monkeypatch):
    real = ddcircuits.circuits.canonical_orientation
    for P in _enumeration_systems().values():
        oriented = []

        def counting(P, circ):
            oriented.append(sign_normalized(circ.entries))
            return real(P, circ)

        monkeypatch.setattr(ddcircuits.circuits, "canonical_orientation", counting)
        circuits = enumerate_circuits(P)
        assert len(oriented) == len(set(oriented)) == len(circuits)


# The smallest work budget with which each enumeration completes, recorded
# when a unit became one flat visited (the root, each inner flat and each
# circuit); it must not move unless what a unit counts changes.
EXACT_BUDGETS = {"square": 3, "k3": 26, "random5": 44, "dense0": 10, "dense1": 20, "dense2": 5}

# The systems small enough for the minor-rank flat count.
FLAT_COUNTED = ("square", "dense0", "dense1", "dense2")


@pytest.mark.parametrize("name", EXACT_BUDGETS)
def test_work_budget_accounting(name):
    P = _enumeration_systems()[name]
    budget = EXACT_BUDGETS[name]
    enumerate_circuits(P, work_budget=budget)
    with pytest.raises(SizeGuardExceeded):
        enumerate_circuits(P, work_budget=budget - 1)


@pytest.mark.parametrize("name", FLAT_COUNTED)
def test_budget_counts_each_flat_once(name):
    assert EXACT_BUDGETS[name] == ppc_flat_count(_enumeration_systems()[name])


def _exact_budget(P) -> int:
    """The smallest work budget with which ``enumerate_circuits(P)`` completes."""
    low, high = -1, 1  # low fails, high is to be tried
    while True:
        try:
            enumerate_circuits(P, work_budget=high)
            break
        except SizeGuardExceeded:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            enumerate_circuits(P, work_budget=mid)
            high = mid
        except SizeGuardExceeded:
            low = mid
    return high


if __name__ == "__main__":
    systems = _enumeration_systems()
    budgets = ", ".join(f'"{name}": {_exact_budget(P)}' for name, P in systems.items())
    print(f"EXACT_BUDGETS = {{{budgets}}}")
    for full_check, count, digest, steps in (
        (True, "ECHELON_PIVOTS", "PIVOT_LOG_DIGEST", "COLUMN_STEPS"),
        (False, "SHORTCUT_PIVOTS", "SHORTCUT_LOG_DIGEST", "SHORTCUT_COLUMN_STEPS"),
    ):
        with pytest.MonkeyPatch.context() as patch:
            results, log, cuts = _run_checked(patch, full_check)
        print(f'RESULTS_DIGEST = "{_digest(results)}"')
        print(f"{count} = {len(log)}")
        print(f'{digest} = "{_digest(log)}"')
        print(f"{steps} = {cuts}")
