"""Conformal decomposition of kernel vectors into sign-compatible circuits.

Any nonzero z with Az = 0 splits as z = sum_i alpha_i * g_i where every
g_i is a circuit, every alpha_i is positive, all B-images (B g_i) agree
in sign with Bz componentwise and vanish where Bz does, and the number of
terms never exceeds n - rank(A).  This is the engine behind the
polynomial-time dimension-factor approximation of deepest-descent steps.

The implementation walks the sign-restricted subcone

    F(z) = {v : Av = 0, sigma_j (Bv)_j >= 0 for every row j}

where sigma_j is -1 where (Bz)_j < 0 and 1 elsewhere, so the rows off
supp(Bz) are active from the start.  As a point x of a polyhedron is
described by its slack in row units, a vector v of F(z) is described by
sigma_j q_j.v, with q_j the primitive integer row of B_j
(``polyhedron._image``).  The active rows are its zeros.  A's block is
signed once per decomposition: its products q_j.v are negated in the rows
where Bz < 0, so the walk reads each signed image from the block as it
reads the images under B on P, and is given no signs.  Everything is
ints over one positive denominator D, as in ``polyhedron._slack``: the
residual, negated, is U/D and its slack S/D.
The row that limits a step along a circuit g is ``polyhedron._ratio_test``
of S and the signed image sg of g, which compares the ratios by
cross-multiplication, and the step is alpha = S_j / (D * sg_j), the only
Fraction a term makes.  The move is ``polyhedron._move``, the rank-one
rule of the walk: U <- sg_j*U + S_j*g, S <- sg_j*S - S_j*sg and
D <- sg_j*D, then one gcd.

Each round locates an extreme ray of the minimal face of F(z) containing
the current residual r with ``polyhedron._walk``, the active-set walk LP
purification uses.  It runs on u = -v in the cone
{u : Au = 0, sigma_j (Bu)_j <= 0}, whose slack is that of v: from
u = -r, each move goes along a kernel direction of the active rows until
one more row hits zero, which raises the active rank; when the active
system reaches rank n - 1 its kernel is spanned by v, which is the
desired circuit.  The residual is carried negated, as -r, so each walk
starts from it as it is.  The circuit is the walk's end E, an int vector,
divided by gcd(E) and negated, so primitive by construction and built by
``circuits._trusted`` without the checks of ``Circuit``, and its signed
image is the walk's slack at E divided by the same gcd, with no product
with B.
The rows active at r stay
active across terms, so the decomposition keeps the block of their
kernel (``polyhedron._tighten`` of A's block) and cuts it only by the
rows each term makes active.  The emitted step
length is the largest alpha keeping r - alpha*g inside F(z), so at least
one support coordinate dies per term and the face dimension drops
strictly, which bounds the term count by dim F(z) <= n - rank(A).  All
updates are exact and termination is the literal equality r = 0.

The private generator ``_terms`` yields the terms in the order the walk
finds them, each after its checks; ``decompose`` checks its argument
once and collects all of them in canonical circuit order, and the
approximate dd-step (``ddstep._approx_step``) stops reading once no
later term can be the best one.  ``certify.verify_conformal`` checks a
sum independently of this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator

from .circuits import Circuit, _trusted
from .polyhedron import (
    Polyhedron,
    _a_block,
    _image,
    _move,
    _ratio_test,
    _solves_a,
    _tighten,
    _walk,
)
from .ratlin import Rat, RatVec, _int_vector
from .record import Record


class ConformalSum(Record):
    """Ordered positive circuit combination reconstructing ``target`` exactly."""

    __slots__ = ("terms", "target")
    terms: tuple[tuple[Rat, Circuit], ...]
    target: RatVec


def decompose(P: Polyhedron, z: RatVec) -> ConformalSum:
    """Conformal sum for z: positive, pairwise sign-compatible circuit terms.

    Requires Az = 0 and z != 0; P is pointed, as every Polyhedron is, so
    the sign cone F(z) holds no line.  The terms are listed in
    canonical (lexicographic) circuit order; the reconstruction, the sign
    coupling to Bz, and the term bound n - rank(A) all hold exactly.
    """
    if z.dim != P.n:
        raise ValueError(f"vector has dimension {z.dim}, expected {P.n}")
    if z.is_zero():
        raise ValueError("cannot decompose the zero vector")
    zint = _int_vector(z)
    if not _solves_a(P, zint[0], 0):
        raise ValueError("decompose requires A z = 0")
    terms = _terms(P, zint, _a_block(P))
    return ConformalSum(tuple(sorted(terms, key=lambda term: term[1].entries)), z)


def _terms(
    P: Polyhedron, zint: tuple[list[int], int], block: list[list[int]]
) -> Iterator[tuple[Fraction, Circuit]]:
    """The terms (alpha, g) of ``decompose(P, z)`` in the order the walk
    finds them; a caller that stops early saves the later walks.

    ``zint`` is z as ints over one denominator, (Z, D) with z = Z / D, as
    ``ratlin._int_vector`` gives it.  z must be a nonzero vector of ker A,
    as ``decompose`` checks; the approximate step's z = x* - x0 is one by
    construction.  ``block`` is A's, ``polyhedron._a_block(P)``.
    """
    Z, D = zint
    n, bz = P.n, _image(P._b_image, Z)
    # the cone's block: its products are signed once, sigma_i q_i.v
    block = [col[:n] + [-a if e < 0 else a for a, e in zip(col[n:], bz)] for col in block]
    bound = len(block)  # n - rank(A)
    # The residual r is carried negated, -r = U/D, with its slack S/D.
    U, S = [-e for e in Z], [abs(e) for e in bz]
    before, count = None, 0
    while any(U):
        # The block of the rows active at r, and the walk from U to an
        # extreme ray of the minimal face of F(z) containing r.  The walk's
        # slack at its end E is -sigma_i q_i.E, so the circuit g = -E/gcd(E)
        # has the signed image sg = S_E/gcd(E), which is >= 0.
        block = _tighten(block, n, S, before)
        end, end_slack = U, S
        for end, end_slack, _, _ in _walk(P, True, U, S, D, block):
            pass
        k = gcd(*end)
        g = _trusted(tuple([-e // k for e in end]))
        sg = [e // k for e in end_slack]
        if any(e for e, s in zip(sg, S) if s == 0):  # pragma: no cover - by face construction
            raise AssertionError("extreme ray leaves the minimal face")
        j = _ratio_test(S, sg)
        if j is None or S[j] == 0:  # pragma: no cover
            raise AssertionError("no positive step along the selected circuit")
        count += 1
        if count > bound:  # pragma: no cover
            raise AssertionError("conformal decomposition exceeded its term bound")
        yield Fraction(S[j], D * sg[j]), g
        before = S
        U, S, D = _move(U, S, D, g.entries, sg, j)


def format_conformal(s: ConformalSum) -> str:
    """Serialize as one line per term: ``alpha | g_1 g_2 ... g_n``."""
    return "\n".join(f"{alpha} | {g.to_text()}" for alpha, g in s.terms) + "\n"
