"""Circuits of a constraint pair (A, B): recognition and enumeration.

A circuit is a nonzero kernel vector of A, scaled to coprime integers,
whose image under B has inclusion-minimal support among all nonzero
kernel images.  Every Polyhedron is pointed, and over a pointed system
these directions are exactly the potential edge directions of the
polyhedron family with fixed A and B.  They are the extreme rays of the
sign-split cone, which ``certify.is_extreme_ray`` tests on the lift;
``is_circuit_direction`` decides the same in n columns: a nonzero kernel
vector g is a circuit exactly when the rows of B vanishing on g, stacked
on A, have rank n - 1.  Its int core ``_is_circuit`` takes g as a
primitive int vector, as the OCNP decision forms it, and reads that
kernel from ``polyhedron._block``, which builds it on the coordinates
that no row +-e_j of B vanishing on g fixes.

Enumeration is a deliberately exponential desk-scale oracle built on that
criterion.  The rows of [A; B] that vanish on a subspace of ker A form a
flat of their matroid that contains A, and a circuit is exactly such a
flat of rank n - 1.  The scan walks these flats depth first, each once,
by prefix-preserving closure (the ppc-extension of Uno, Kiyomi and
Arimura, LCM ver. 2, FIMI 2004) over one representative per parallel
class of B's rows, taken as the primitive integer rows of the
polyhedron's integer image of B.  The classes come from
``polyhedron._classes``, which finds them once per run, with the root's
block: A's kernel with each column's products with the representatives.
A flat is held in kernel coordinates: an integer basis K of its kernel as
primitive columns, each followed by its products pi_l = q_l.K with the
representatives q_l, so the rows in
the flat are those with pi_l = 0, and adding q_l closes the flat with
exactly the rows whose pi is parallel to pi_l.  The child generated by l
is visited only when l comes after the flat's own generator and first in
its direction among the nonzero pi, which makes the closure add no row
before l, and when enough representatives remain after l to reach rank
n - 1.  A child's block is one fraction-free column step on its parent's
(``ratlin._cut``, which the active-set walk's block shares), made when
the child is taken from the stack.  The children of a flat
with a two-dimensional kernel are circuits, read from the two columns of
K directly, so no circuit is found twice.  Each is formed over the whole
column, so its products with the representatives come with it, and is
oriented once from them to its canonical sign (first nonzero entry of Bg
positive): the first row of B with a nonzero product is the first of its
class, a representative, so no product with B is taken.  It leaves the
enumeration with those products, over the same factor (``_circuits``),
so the exact step's table reads each circuit's image under B off them;
``enumerate_circuits`` returns the circuits only.  The package
keeps no second orientation routine: the tests' reference,
``canonical_orientation`` in ``tests/oracles.py``, computes B g in full
from the rational B.  A circuit found this way is nonzero and primitive
by construction and is built by ``_trusted``, without the checks of
``Circuit``; ``Circuit.__neg__`` and the conformal decomposition build
theirs the same way.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from typing import Sequence

from .errors import SizeGuardExceeded
from .polyhedron import Classes, Polyhedron, _block, _classes, _image, _solves_a
from .ratlin import RatVec, _cut, coprime_integer_entries
from .record import Record

DEFAULT_WORK_BUDGET = 500_000


class Circuit(Record):
    """A coprime-integer kernel direction with support-minimal B-image.

    ``entries`` may carry either orientation; g and -g describe the same
    circuit.  Enumeration returns the canonical representative (first
    nonzero entry of Bg positive).
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or all(e == 0 for e in self.entries):
            raise ValueError("a circuit must be a nonzero vector")
        if any(not isinstance(e, int) for e in self.entries):
            raise ValueError("circuit entries must be integers")
        if gcd(*self.entries) != 1:
            raise ValueError("circuit entries must be coprime")

    @property
    def vec(self) -> RatVec:
        return RatVec(self.entries)

    def __neg__(self) -> "Circuit":
        return _trusted(tuple([-e for e in self.entries]))

    def to_text(self) -> str:
        return " ".join(str(e) for e in self.entries)


def _trusted(entries: tuple[int, ...]) -> Circuit:
    """The Circuit of ``entries`` without the checks of ``Circuit``: for
    code whose entries are nonzero, primitive ints by construction."""
    circ = object.__new__(Circuit)
    object.__setattr__(circ, "entries", entries)
    return circ


def is_circuit_direction(P: Polyhedron, v: RatVec) -> bool:
    """True iff v is a positive multiple of a circuit of (A, B).

    False for the zero vector and for vectors outside ker(A); otherwise
    true exactly when rank([A; B_Z]) = n - 1, where Z holds the rows of B
    vanishing on v.  This is ``certify.is_extreme_ray`` on the canonical
    lift, whose active rows have rank 2*m_B + rank([A; B_Z]).  The verdict
    is invariant under positive scaling of v.
    """
    if v.dim != P.n:
        raise ValueError(f"vector has dimension {v.dim}, expected {P.n}")
    if v.is_zero():
        return False
    return _is_circuit(P, coprime_integer_entries(v.entries))


def _is_circuit(P: Polyhedron, G: Sequence[int]) -> bool:
    """``is_circuit_direction`` for a nonzero primitive int vector G: the
    kernel of A's rows and the rows of B zero on G (``_block``) is one
    line, that is, [A; B_Z] has rank n - 1."""
    if not _solves_a(P, G, 0):
        return False
    zero = [i for i, e in enumerate(_image(P._b_image, G)) if e == 0]
    return len(_block(P, zero, ())) == 1


def _oriented(col: list[int], n: int) -> tuple[Circuit, list[int]]:
    """The circuit on the line of the block column ``col``, in canonical
    orientation, with its products with the representatives.

    ``col`` is a kernel vector in its first n entries, followed by its
    products with the representatives, in B's order.  Rows of one parallel
    class vanish together, so the first row of B with a nonzero product is
    the first of its class, a representative, and its product is in
    ``col``: the circuit is the first n entries over their content,
    negated when that product is negative, and its products are the rest
    of ``col`` over the same factor.
    """
    g = col[:n]
    k = gcd(*g)
    if next(a for a in col[n:] if a) < 0:
        k = -k
    if k == 1:
        return _trusted(tuple(g)), col[n:]
    return _trusted(tuple([a // k for a in g])), [a // k for a in col[n:]]


def _children(
    block: list[list[int]], n: int, i: int, last: int
) -> list[tuple[int, tuple[int, ...]]]:
    """(l, direction) for each representative l with i < l <= last that
    generates a child of the flat by the ppc test: its projection row
    (entry n + l of each column of ``block``) is nonzero, and no
    representative before l has a projection in the same direction, so
    closing the flat with l adds no row before l.  The direction is the
    row made primitive with its first nonzero positive.
    """
    zero = (0,) * len(block)  # a row is below it when its first nonzero is negative
    seen: set[tuple[int, ...]] = set()
    out = []
    for l, pi in enumerate(islice(zip(*block), n, n + last + 1)):
        if pi == zero:
            continue
        g = gcd(*pi)
        if pi < zero:
            pi = tuple([-a for a in pi])
        if g != 1:
            pi = tuple([a // g for a in pi])
        if pi not in seen:
            seen.add(pi)
            if l > i:
                out.append((l, pi))
    return out


def enumerate_circuits(
    P: Polyhedron, *, work_budget: int = DEFAULT_WORK_BUDGET
) -> list[Circuit]:
    """All circuits of (A, B), one canonical representative per +/- pair.

    Intended for desk-scale systems: the number of flats is exponential,
    and a configurable work budget aborts runs that would exceed it.  One
    unit of the budget is one flat visited: the root, every inner flat and
    every circuit.  Rows of B that are scalar multiples of each other
    induce the same vanishing constraint, so only one representative per
    parallel class is scanned; this loses no circuits.  The result is
    sorted lexicographically by entries.
    """
    return [circ for circ, _ in _circuits(P, _classes(P), work_budget)]


def _circuits(
    P: Polyhedron, classes: Classes, work_budget: int
) -> list[tuple[Circuit, list[int]]]:
    """``enumerate_circuits`` from B's parallel classes (``_classes``), each
    circuit with its products with the representatives."""
    n = P.n
    root, reps, _ = classes
    if not root:  # ker A is {0}
        return []

    # A flat's block: a basis of its kernel as columns, each followed by
    # its products with the representatives.  Depth first from the root,
    # the kernel of A: an entry (block, l) is the child generated by
    # representative l of the flat with that block, or the root if l is -1.
    found: list[tuple[Circuit, list[int]]] = []
    budget = work_budget
    stack = [(root, -1)]
    while stack:
        block, i = stack.pop()
        if i >= 0:
            block = _cut(block, n, n + i)
        d = len(block)
        # A child's kernel has d - 1 dimensions, so it needs d - 2 more
        # generators after its own to reach a circuit.
        kids = _children(block, n, i, len(reps) - d + 1) if d > 1 else []
        budget -= 1 + len(kids) if d == 2 else 1  # a circuit is a flat too
        if budget < 0:
            raise SizeGuardExceeded(
                f"circuit enumeration exceeded its work budget of {work_budget} "
                f"flats (n={n}, m_B={len(P._b_image.rows)})"
            )
        if d == 1:  # the root, when the kernel of A is a line
            found.append(_oriented(block[0], n))
        elif d > 2:
            stack.extend((block, l) for l, _ in reversed(kids))
        else:  # each child is a line of the kernel, a circuit
            k0, k1 = block
            for _, (a, b) in kids:
                found.append(_oriented([b * x - a * y for x, y in zip(k0, k1)], n))
    return sorted(found, key=lambda pair: pair[0].entries)
