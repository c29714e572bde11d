"""The public entry points leave no reference cycles behind.

A call whose state forms a cycle (a recursive nested function refers to
itself through its closure cell) is freed only by the cyclic collector, so
memory then depends on when the collector runs.  With the collector off
during the call, ``gc.collect()`` afterwards must find nothing.
"""

import gc
import random

import pytest

from ddcircuits import (
    build_reduction,
    decompose,
    enumerate_circuits,
    longest_cycle_oracle,
    solve_lp,
    verify_correspondence,
)

from instgen import dense_polytope, random_digraph


def _calls():
    G = random_digraph(random.Random(11), 5, 5, 9)
    reduction = build_reduction(G)
    P, c = reduction.instance.polyhedron, reduction.instance.objective
    z = solve_lp(P, c).vertex - reduction.x0
    D, dc, dx0 = dense_polytope(random.Random(1))
    dz = solve_lp(D, dc).vertex - dx0
    return {
        "enumerate_circuits": lambda: enumerate_circuits(P),
        "longest_cycle_oracle": lambda: longest_cycle_oracle(G),
        "verify_correspondence": lambda: verify_correspondence(G),
        "decompose": lambda: decompose(P, z),
        "solve_lp": lambda: solve_lp(P, c),
        "dense_enumerate_circuits": lambda: enumerate_circuits(D),
        "dense_decompose": lambda: decompose(D, dz),
        "dense_solve_lp": lambda: solve_lp(D, dc),
    }


@pytest.mark.parametrize("name", sorted(_calls()))
def test_call_leaves_no_cyclic_garbage(name):
    call = _calls()[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
