"""Circuits of a constraint pair (A, B): recognition and enumeration.

A circuit is a nonzero kernel vector of A, scaled to coprime integers,
whose image under B has inclusion-minimal support among all nonzero
kernel images.  Every Polyhedron is pointed, and over a pointed system
these directions are exactly the potential edge directions of the
polyhedron family with fixed A and B.  They are the extreme rays of the
sign-split cone, which ``certify.is_extreme_ray`` tests on the lift;
``is_circuit_direction`` decides the same in n columns: a nonzero kernel
vector g is a circuit exactly when the rows of B vanishing on g, stacked
on A, have rank n - 1.

Enumeration is a deliberately exponential desk-scale oracle built on that
criterion.  It extends the polyhedron's echelon of A by subsets of rows
of B of size n - 1 - rank(A) that are independent modulo the row space of
A, taking them as the primitive integer rows of the polyhedron's integer
image of B, and reads the one-dimensional kernel of each full subset from
it.  Many subsets span the same kernel, so a leaf whose sign-normalized
kernel vector an earlier leaf already gave is dropped before it is
oriented, and each distinct circuit is oriented once, to its canonical
sign (first nonzero entry of Bg positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import SizeGuardExceeded
from .polyhedron import Polyhedron, _image, _int_image
from .ratlin import (
    RatVec,
    _echelon_kernel,
    _extend,
    _extend_rows,
    coprime_integer_entries,
    sign_normalized,
)

DEFAULT_WORK_BUDGET = 500_000


@dataclass(frozen=True)
class Circuit:
    """A coprime-integer kernel direction with support-minimal B-image.

    ``entries`` may carry either orientation; g and -g describe the same
    circuit.  Enumeration returns the canonical representative (first
    nonzero entry of Bg positive).
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or all(e == 0 for e in self.entries):
            raise ValueError("a circuit must be a nonzero vector")
        if any(not isinstance(e, int) for e in self.entries):
            raise ValueError("circuit entries must be integers")
        g = 0
        for e in self.entries:
            g = gcd(g, abs(e))
        if g != 1:
            raise ValueError("circuit entries must be coprime")

    @property
    def vec(self) -> RatVec:
        return RatVec(self.entries)

    @property
    def l1(self) -> int:
        return sum(abs(e) for e in self.entries)

    def __neg__(self) -> "Circuit":
        return Circuit(tuple(-e for e in self.entries))

    def to_text(self) -> str:
        return " ".join(str(e) for e in self.entries)


def circuit_from_vector(v: RatVec) -> Circuit:
    """Scale a rational direction to coprime integers, keeping orientation."""
    return Circuit(coprime_integer_entries(v.entries))


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
    if not P.A.matvec(v).is_zero():
        return False
    image = _image(P, coprime_integer_entries(v.entries))  # zeros where B v has them
    zero_rows = (q for q, e in zip(_int_image(P).rows, image) if e == 0)
    return len(_extend_rows(zero_rows, *P._a_echelon)[1]) == P.n - 1


def canonical_orientation(P: Polyhedron, circ: Circuit) -> Circuit:
    """Flip the sign so the first nonzero entry of B g is positive.

    Goes through the nonzeros of the primitive integer rows of B, which
    have the signs of B's rows, and stops at the first one with
    (B g)_j != 0, so it does not compute all of B g.
    """
    g = circ.entries
    for row in _int_image(P).nonzeros:
        e = sum(a * g[j] for j, a in row)
        if e > 0:
            return circ
        if e < 0:
            return -circ
    raise AssertionError("kernel direction with zero B-image in a pointed system")


def enumerate_circuits(
    P: Polyhedron, *, work_budget: int = DEFAULT_WORK_BUDGET
) -> list[Circuit]:
    """All circuits of (A, B), one canonical representative per +/- pair.

    Intended for desk-scale systems: the subset scan is exponential, and
    a configurable work budget aborts runs that would exceed it.  Rows of
    B that are scalar multiples of each other induce the same vanishing
    constraint, so only one representative per parallel class is scanned;
    this loses no circuits.  The result is sorted lexicographically by
    entries.
    """
    n = P.n

    rows, leads = P._a_echelon
    k = n - 1 - len(leads)
    if k < 0:
        return []

    reps: list[tuple[int, ...]] = []  # one integer row per parallel class of B
    seen: set[tuple[int, ...]] = set()
    for ints in _int_image(P).rows:
        if not any(ints):
            continue
        key = sign_normalized(ints)
        if key not in seen:
            seen.add(key)
            reps.append(ints)

    # Depth first over subsets of reps independent modulo A, in reps order: an
    # entry (i, rows, leads) adds reps[i] to the echelon, or nothing if i is None.
    # A scan node costs one unit and a leaf one more; with k = 0, A is the leaf.
    found: list[Circuit] = []
    leaves: set[tuple[int, ...]] = set()  # sign-normalized leaf kernels seen so far
    budget = work_budget
    stack = [(None, rows, leads)]
    while stack:
        i, rows, leads = stack.pop()
        if i is not None:
            ext = _extend(rows, leads, reps[i])
            if ext is None:
                continue
            rows, leads = ext
        need = n - 1 - len(leads)
        budget -= 1 + (need == 0 and k > 0)
        if budget < 0:
            raise SizeGuardExceeded(
                f"circuit enumeration exceeded its work budget of {work_budget} "
                f"nodes (n={n}, m_B={P.B.m})"
            )
        if need:
            start = 0 if i is None else i + 1
            stack.extend((j, rows, leads) for j in reversed(range(start, len(reps) - need + 1)))
            continue
        ker = _echelon_kernel(rows, leads, n)
        if len(ker) != 1:  # pragma: no cover - rank is n-1 by construction
            raise AssertionError("expected a one-dimensional kernel")
        if ker[0] not in leaves:
            leaves.add(ker[0])
            found.append(canonical_orientation(P, Circuit(ker[0])))
    return sorted(found, key=lambda circ: circ.entries)
