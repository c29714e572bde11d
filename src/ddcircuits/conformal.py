"""Conformal decomposition of kernel vectors into sign-compatible circuits.

Any nonzero z with Az = 0 splits as z = sum_i alpha_i * g_i where every
g_i is a circuit, every alpha_i is positive, all B-images (B g_i) agree
in sign with Bz componentwise and vanish where Bz does, and the number of
terms never exceeds n - rank(A).  This is the engine behind the
polynomial-time dimension-factor approximation of deepest-descent steps.

The implementation walks the sign-restricted subcone

    F(z) = {v : Av = 0, S v >= 0}

where S is B with row j negated where (Bz)_j < 0, so S z = |Bz| and the
rows off supp(Bz) are active from the start.  As a point x of a
polyhedron is described by its slack d - Bx, a vector v of F(z) is
described by its slack S v: the active rows are its zeros, and the
largest t keeping v - t*w in F(z) is
``polyhedron._step_length(S v, S w)``.  A move updates the slack by the
rank-one rule S(v - t*w) = S v - t*S w instead of a fresh product with B.

Each round locates an extreme ray of the minimal face of F(z) containing
the current residual r: starting from v = r, it repeatedly picks a kernel
direction of the rows active at v and moves until one more row hits
zero, which raises the active rank; when the active system reaches rank
n - 1 its kernel is spanned by v, which is the desired circuit.  Active
rows stay active; the walk adds each newly active row to its echelon.  The
emitted step length is the largest alpha keeping r - alpha*g inside
F(z), so at least one support coordinate dies per term and the face
dimension drops strictly, which bounds the term count by
dim F(z) <= n - rank(A).  All updates are exact and termination is the
literal equality r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circuits import Circuit, circuit_from_vector, is_circuit_direction
from .errors import NotPointedError
from .polyhedron import UNBOUNDED, Polyhedron, _extend_active, _step_length
from .ratlin import (
    Rat,
    RatMat,
    RatVec,
    _echelon_kernel,
    coprime_integer_entries,
    sign_normalized,
)


@dataclass(frozen=True)
class ConformalSum:
    """Ordered positive circuit combination reconstructing ``target`` exactly."""

    terms: tuple[tuple[Rat, Circuit], ...]
    target: RatVec


def _extreme_ray_of_minimal_face(
    P: Polyhedron, S: RatMat, r: RatVec, slack: RatVec
) -> Circuit:
    """An extreme ray of the face of F(z) whose active pattern matches r.

    ``slack`` is S r.  Returned oriented as the walk's end point, so its
    S-image is >= 0.
    """
    v, echelon, before = r, P._a_echelon, None
    while True:
        echelon = _extend_active(P, echelon, slack, before)
        ker = [RatVec(w) for w in _echelon_kernel(*echelon, P.n)]
        if len(ker) == 1:
            return circuit_from_vector(v)
        w = ker[0]
        if sign_normalized(coprime_integer_entries(v.entries)) == w.entries:
            w = ker[1]  # a step along a multiple of v would end at v = 0
        sw = S.matvec(w)
        t = _step_length(slack, sw)
        if t is UNBOUNDED:
            w, sw = -w, -sw
            t = _step_length(slack, sw)
            if t is UNBOUNDED:  # pragma: no cover - Bw = 0 is impossible when pointed
                raise AssertionError("direction with zero B-image in a pointed system")
        v = v - t * w
        before, slack = slack, slack - t * sw


def decompose(P: Polyhedron, z: RatVec) -> ConformalSum:
    """Conformal sum for z: positive, pairwise sign-compatible circuit terms.

    Requires a pointed P, Az = 0 and z != 0.  The terms are listed in
    canonical (lexicographic) circuit order; the reconstruction, the sign
    coupling to Bz, and the term bound n - rank(A) all hold exactly.
    """
    if not P.pointed:
        raise NotPointedError("conformal decomposition requires a pointed polyhedron")
    if z.dim != P.n:
        raise ValueError(f"vector has dimension {z.dim}, expected {P.n}")
    if z.is_zero():
        raise ValueError("cannot decompose the zero vector")
    if not P.A.matvec(z).is_zero():
        raise ValueError("decompose requires A z = 0")

    bz = P.B.matvec(z)
    S = RatMat(
        [[-a for a in row] if e < 0 else row for row, e in zip(P.B.entries, bz)],
        cols=P.n,
    )
    bound = P.n - len(P._a_echelon[1])  # rank(A)
    terms: list[tuple[Fraction, Circuit]] = []
    r = z
    slack = RatVec(abs(e) for e in bz)
    while not r.is_zero():
        g = _extreme_ray_of_minimal_face(P, S, r, slack)
        sg = S.matvec(g.vec)
        if any(e for e, s in zip(sg, slack) if s == 0):  # pragma: no cover - by face construction
            raise AssertionError("extreme ray leaves the minimal face")
        alpha = _step_length(slack, sg)
        if alpha is UNBOUNDED or alpha <= 0:  # pragma: no cover
            raise AssertionError("no positive step along the selected circuit")
        terms.append((alpha, g))
        if len(terms) > bound:  # pragma: no cover
            raise AssertionError("conformal decomposition exceeded its term bound")
        r = r - alpha * g.vec
        slack = slack - alpha * sg
    terms.sort(key=lambda term: term[1].entries)
    return ConformalSum(tuple(terms), z)


def verify_conformal(P: Polyhedron, s: ConformalSum) -> bool:
    """Check every conformal-sum invariant; True iff all hold.

    Checks exact reconstruction, positivity of the coefficients, the term
    bound n - rank(A), componentwise sign-compatibility of every B g_i
    with B target (including vanishing where B target does), and that
    every g_i is a circuit direction.
    """
    if s.target.dim != P.n:
        return False
    if any(g.vec.dim != P.n for _, g in s.terms):
        return False
    if any(alpha <= 0 for alpha, _ in s.terms):
        return False
    if len(s.terms) > P.n - len(P._a_echelon[1]):
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
    return all(is_circuit_direction(P, g.vec) for _, g in s.terms)


def format_conformal(s: ConformalSum) -> str:
    """Serialize as one line per term: ``alpha | g_1 g_2 ... g_n``."""
    return "\n".join(f"{alpha} | {g.to_text()}" for alpha, g in s.terms) + "\n"
