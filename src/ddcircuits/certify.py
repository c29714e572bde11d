"""Independent checkers for the two structural facts behind circuit steps.

Circuits are the extreme rays of a lifted cone in dimension n + 2*m_B: a
vector v with Av = 0 lifts to (v, y+, y-) where y+ and y- split Bv into
its positive and negative parts.  The lift lies on a one-dimensional face
of the cone (an extreme ray) exactly when the constraints active at it
have rank n + 2*m_B - 1, and for v != 0 such extreme rays are precisely
the circuit directions.  ``is_extreme_ray`` decides this on the lift;
``circuits.is_circuit_direction`` decides the same in n columns.

A kernel vector z splits into at most n - rank(A) sign-compatible
circuits; ``verify_conformal`` checks such a split term by term.

The checkers stay independent of the code they check: they compute with
plain Fractions on the rational A and B (``RatMat.matvec``), read ranks
with ``ratlin.rank``, and use neither the block of A's kernel that the
walks start from nor the polyhedron's integer image of B.  They import no private helper and nothing
from the modules that produce the results they check.
"""

from __future__ import annotations

from fractions import Fraction

from .polyhedron import Polyhedron
from .ratlin import RatMat, RatVec, rank
from .record import Record


class ConeLift(Record):
    """A member (x, y+, y-) of the sign-split cone of (A, B).

    The canonical lift has disjoint supports, min(y+_i, y-_i) = 0 for all
    i; arbitrary members (for instance y+_i = y-_i = 1, the trivial
    non-circuit rays) are representable too.
    """

    __slots__ = ("x", "yplus", "yminus")
    x: RatVec
    yplus: RatVec
    yminus: RatVec

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.yplus.is_zero() and self.yminus.is_zero()


def lift(P: Polyhedron, v: RatVec) -> ConeLift:
    """Canonical lift of a kernel vector: split Bv into positive and negative parts."""
    if v.dim != P.n:
        raise ValueError(f"vector has dimension {v.dim}, expected {P.n}")
    if not P.A.matvec(v).is_zero():
        raise ValueError("lift requires A v = 0")
    bv = P.B.matvec(v)
    zero = Fraction(0)
    yplus = RatVec(max(e, zero) for e in bv)
    yminus = RatVec(max(-e, zero) for e in bv)
    return ConeLift(v, yplus, yminus)


def is_extreme_ray(P: Polyhedron, L: ConeLift) -> bool:
    """Rank test: does L span a one-dimensional face of the sign-split cone?

    The cone lives in dimension N = n + 2*m_B with constraints Ax = 0,
    Bx - y+ + y- = 0, y+ >= 0, y- >= 0.  L is an extreme ray exactly when
    the rows active at L have rank N - 1.  Zero lifts and non-members are
    usage errors.
    """
    n, m_b = P.n, P.B.m
    if L.x.dim != n or L.yplus.dim != m_b or L.yminus.dim != m_b:
        raise ValueError("lift dimensions do not match the polyhedron")
    if L.is_zero():
        raise ValueError("the zero lift spans no ray")
    if any(e < 0 for e in L.yplus) or any(e < 0 for e in L.yminus):
        raise ValueError("lift is not a cone member: negative split part")
    if not P.A.matvec(L.x).is_zero():
        raise ValueError("lift is not a cone member: A x != 0")
    if P.B.matvec(L.x) != L.yplus - L.yminus:
        raise ValueError("lift is not a cone member: B x != y+ - y-")

    total = n + 2 * m_b
    zero = Fraction(0)
    one = Fraction(1)
    rows: list[list[Fraction]] = []
    for arow in P.A.entries:
        rows.append(list(arow) + [zero] * (2 * m_b))
    for i in range(m_b):
        row = list(P.B.entries[i]) + [zero] * (2 * m_b)
        row[n + i] = -one
        row[n + m_b + i] = one
        rows.append(row)
    for i in range(m_b):
        if L.yplus[i] == 0:
            row = [zero] * total
            row[n + i] = one
            rows.append(row)
        if L.yminus[i] == 0:
            row = [zero] * total
            row[n + m_b + i] = one
            rows.append(row)
    return rank(RatMat(rows, cols=total)) == total - 1


def verify_conformal(P: Polyhedron, s) -> bool:
    """Check every invariant of the ``ConformalSum`` s; True iff all hold.

    Checks exact reconstruction, positivity of the coefficients, the term
    bound n - rank(A), componentwise sign-compatibility of every B g_i
    with B target (including vanishing where B target does), and that
    every g_i lies in ker(A) and is a circuit direction.  The term bound
    reads rank(A) from ``ratlin.rank``, not from the block of A's kernel,
    and each circuit is tested with ``is_extreme_ray`` on its
    lift.
    """
    if s.target.dim != P.n:
        return False
    if any(g.vec.dim != P.n for _, g in s.terms):
        return False
    if any(alpha <= 0 for alpha, _ in s.terms):
        return False
    if len(s.terms) > P.n - rank(P.A):
        return False
    total = RatVec.zeros(P.n)
    for alpha, g in s.terms:
        total = total + alpha * g.vec
    if total != s.target:
        return False
    bt = P.B.matvec(s.target)
    for _, g in s.terms:
        bg = P.B.matvec(g.vec)
        for j in range(P.B.m):
            if bg[j] * bt[j] < 0:
                return False
            if bt[j] == 0 and bg[j] != 0:
                return False
    return all(
        P.A.matvec(g.vec).is_zero() and is_extreme_ray(P, lift(P, g.vec)) for _, g in s.terms
    )
