"""Pointed polyhedra ``{x : Ax = b, Bx <= d}`` over exact rationals.

Membership, active inequality rows, and maximal feasible step lengths are
all decided by exact comparison; there is no tolerance parameter anywhere
in this module.  Each polyhedron holds its system in ints, each row
converted once, in one encoding for A and B alike: an integer image,
where row i is s_i times a primitive integer row q_i (s_i > 0), with its
right-hand side b_i/s_i or d_i/s_i as ints over one common denominator.
``_image_of`` is the one image builder, and ``Polyhedron._build`` the one
builder of the int form, which every polyhedron goes through and which
builds both images with the system; the simplex in ``lp`` builds every
tableau row from them.  The instance parser and the circulation reduction
hand over int rows and make no Fraction per entry; the public constructor
converts its RatMat and RatVec arguments to the same rows.  A, b, B and d
as Fractions are views, built from the images on first read (``_view``).
The unchecked helpers work in row units and in ints.  ``_image(image, v)``
is the int vector of products q_i.v with the rows of either image for an
int vector v; Ax = b and Av = 0 compare A's products with its right-hand
sides (``_solves_a``).  ``_slack`` gives a point x as one int vector
over one positive denominator, (X, S, D) with x = X/D and S/D the slack
d_i/s_i - q_i.x, which is (d - Bx)_i / s_i.  A ratio of a slack to an
image is the same in row units, and so are its zeros and signs, so
``_ratio_test``, the package's one ratio test for maximal steps, which
compares S_i/a_i by cross-multiplication and returns the limiting row,
and ``_active`` give what d - Bx and Bv would give.
``_walk`` is the package's one active-set walk: it moves inside the
kernel of the tight rows until one more row is tight, moves X, S and D by
one rank-one step in ints (``_move``) and cuts that kernel, held as a
block of columns with their images under B (``_a_block``), by the rows
the move made tight (``_tighten``); ``_advance`` makes the same move for
an iterate of the augmentation loop in ``ddstep``, along a circuit whose
image and limiting row its scan computed.  ``is_feasible`` decides x on
its slack, and ``_feasible_slack`` hands that slack on to callers that go
on from x.  LP purification and the uniqueness check walk P itself, and
the conformal decomposition walks a sign cone, given by the row signs of
its vector.  Fractions are made only at the boundary: the step lengths
and points the callers hand out.
The module also owns the line-oriented instance file format (constraint
system plus objective) and the one-line point format, both of which
round-trip exactly, on one row parser, which checks a line's grammar in
one match and reads its rationals as ints over one denominator, so the
instance's rows go to ``_build`` in one pass of ints; ``_read_text``, the
one reader of input files; and ``_located``, which places any token
reader's error at its line and column.
Every Polyhedron is pointed.  Where the +-e_j rows of B bound every
coordinate, as in boxes and circulations, that needs no elimination;
other systems extend A's echelon by B's rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import NotPointedError, ParseError
from .ratlin import (
    Rat,
    RatMat,
    RatVec,
    _RAT_LINE_RE,
    _cut,
    _echelon_kernel,
    _extend_rows,
    _int_vector,
    _rat_pair,
    _to_int,
    parse_count,
)


class _Unbounded:
    """Sentinel for a step no inequality row limits."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

# A point is just an exact-rational vector; the alias documents intent in
# signatures where feasibility matters.
Point = RatVec


class Polyhedron:
    """The system (A, b, B, d) in n variables.

    Every Polyhedron is pointed: circuits and vertex-based steps are only
    well-defined over pointed regions, so construction raises
    NotPointedError when the rank of A stacked on B is below n, and no
    other module checks it again.  A may have zero rows (pure inequality
    systems such as boxes), and so may B.
    The system is held in ints, and each row is converted once, by one
    builder (``_build``) that every constructor calls.  A and b are their
    integer image ``_a_image`` and B and d theirs, ``_b_image``, both built
    with the polyhedron by ``_image_of``; the simplex builds every tableau
    row from them.  ``_a_echelon`` is the echelon of A's primitive rows,
    which the pointedness check extends by B's where the bound rows of B
    leave a coordinate unbounded, and the circuit test by rows of B.  The
    instance parser and the circulation reduction hand over int rows
    (``_from_ints``), and the public constructor converts its RatMat and
    RatVec arguments to the same rows.  The images are
    canonical, so equality and hash compare them.  ``A``, ``b``, ``B`` and
    ``d`` are read-only views, built from the images on first read.
    """

    __slots__ = ("n", "_a_image", "_a_echelon", "_b_image", "_A", "_b", "_B", "_d")

    def __init__(self, A: RatMat, b: RatVec, B: RatMat, d: RatVec):
        if A.n != B.n:
            raise ValueError(f"A has {A.n} columns but B has {B.n}")
        if A.n < 1:
            raise ValueError("the ambient dimension must be at least 1")
        if b.dim != A.m:
            raise ValueError(f"b has {b.dim} entries but A has {A.m} rows")
        if d.dim != B.m:
            raise ValueError(f"d has {d.dim} entries but B has {B.m} rows")
        a_rows, b_rows = ([_int_vector(row) for row in M.entries] for M in (A, B))
        b, d = ([(e.numerator, e.denominator) for e in v] for v in (b, d))
        self._build(A.n, a_rows, b, b_rows, d)

    @classmethod
    def _from_ints(cls, n, a_rows, b, b_rows, d) -> "Polyhedron":
        """The polyhedron of int rows, as ``_build`` takes them."""
        P = cls.__new__(cls)
        P._build(n, a_rows, b, b_rows, d)
        return P

    def _build(self, n: int, a_rows, b, b_rows, d) -> None:
        """Set the int form, the one place it is set: n >= 1, the image of
        A's rows and b's entries, the echelon of its primitive rows, and the
        image of B's rows and d's entries; each row is (N_i, L_i) and each
        entry (p_i, q_i), as ``_image_of`` takes them.  The views are built
        on first read.

        A row of B with one nonzero is +-e_j, a bound on x_j (the rows the
        simplex reads as bounds).  When such rows bound
        every coordinate, rank [A; B] = n and the system is pointed with no
        elimination; else pointedness is checked on A's echelon extended by
        B's primitive rows, read only until the rank is n."""
        self.n = n
        self._a_image = _image_of(a_rows, b)
        self._a_echelon = _extend_rows(self._a_image.rows)
        self._b_image = _image_of(b_rows, d)
        self._A = self._b = self._B = self._d = None
        bounded = {row[0][0] for row in self._b_image.nonzeros if len(row) == 1}
        if len(bounded) < n and len(_extend_rows(self._b_image.rows, *self._a_echelon)[1]) < n:
            raise NotPointedError("the system contains a line (rank [A; B] < n)")

    @property
    def A(self) -> RatMat:
        if self._A is None:
            self._A, self._b = _view(self._a_image, self.n)
        return self._A

    @property
    def b(self) -> RatVec:
        if self._b is None:
            self._A, self._b = _view(self._a_image, self.n)
        return self._b

    @property
    def B(self) -> RatMat:
        if self._B is None:
            self._B, self._d = _view(self._b_image, self.n)
        return self._B

    @property
    def d(self) -> RatVec:
        if self._d is None:
            self._B, self._d = _view(self._b_image, self.n)
        return self._d

    @classmethod
    def box(cls, lows, highs) -> "Polyhedron":
        """The box {low <= x <= high}: B = [I; -I], d = (high, -low)."""
        lows = RatVec(lows)
        highs = RatVec(highs)
        if lows.dim != highs.dim:
            raise ValueError("low and high bounds must have the same dimension")
        n = lows.dim
        if n < 1:
            raise ValueError("the ambient dimension must be at least 1")
        bounds = [(e.numerator, e.denominator) for e in (*highs, *(-lows))]
        return cls._from_ints(n, [], [], _box_rows(n), bounds)

    def __eq__(self, other: object) -> bool:
        key = (self.n, self._a_image, self._b_image)
        return isinstance(other, Polyhedron) and key == (other.n, other._a_image, other._b_image)

    def __hash__(self) -> int:
        return hash((self.n, self._a_image, self._b_image))

    def __repr__(self) -> str:
        m_a, m_b = len(self._a_image.rows), len(self._b_image.rows)
        return f"Polyhedron(n={self.n}, m_A={m_a}, m_B={m_b})"


def _box_rows(n: int) -> list[tuple[list[int], int]]:
    """B = [I; -I], the inequality rows of a box in n variables, as
    ``Polyhedron._from_ints`` takes them."""
    rows = [[0] * n for _ in range(2 * n)]
    for i in range(n):
        rows[i][i], rows[n + i][i] = 1, -1
    return [(row, 1) for row in rows]


class _IntImage(NamedTuple):
    """A and b, or B and d, in row units: row i is s_i * rows[i] with
    rows[i] primitive and s_i > 0, and its right-hand side s_i * bounds[i] / den."""

    rows: tuple[tuple[int, ...], ...]
    nonzeros: tuple[tuple[tuple[int, int], ...], ...]  # (column, entry) of each row
    bounds: tuple[int, ...]  # b_i / s_i or d_i / s_i = bounds[i] / den
    den: int  # the least common denominator of the right-hand sides / s_i, > 0
    scales: tuple[tuple[int, int], ...]  # s_i = scales[i][0] / scales[i][1] in lowest terms


def _image_of(
    rows: Iterable[tuple[Sequence[int], int]], bounds: Iterable[tuple[int, int]]
) -> _IntImage:
    """The integer image of A and b, or of B and d: the package's one
    image builder.

    Row i is N_i / L_i, ints over their least common denominator L_i > 0
    (``ratlin._int_vector``), and its right-hand side is p_i / q_i with
    q_i > 0.  With g_i = gcd(N_i), the row is s_i q_i for the primitive row
    q_i = N_i / g_i and s_i = g_i / L_i, which is in lowest terms: each
    prime power of L_i is the whole denominator power of some entry, and
    that entry's N_j is then not a multiple of the prime.  The right-hand
    side over s_i is p_i L_i / (q_i g_i), put in lowest terms by one gcd
    unless q_i g_i = 1; no Fraction is made.  A zero row stays a zero row,
    with s_i = 1.  A row's nonzeros are listed as its primitive row is
    made.  Each field is a function of the rational rows and right-hand
    sides, so two systems are equal exactly when their images are.
    """
    prims, nonzeros, scales, nums, dens = [], [], [], [], []
    for (N, L), (p, q) in zip(rows, bounds):
        g = gcd(*N) or 1  # a zero row has L_i = 1, so s_i = 1
        prim = tuple([a // g for a in N]) if g > 1 else tuple(N)
        prims.append(prim)
        nonzeros.append(tuple([(j, a) for j, a in enumerate(prim) if a]))
        scales.append((g, L))
        num, den = p * L, q * g
        if den != 1:
            t = gcd(num, den)
            num, den = num // t, den // t
        nums.append(num)
        dens.append(den)
    den = lcm(*dens)
    return _IntImage(
        tuple(prims),
        tuple(nonzeros),
        tuple([a * (den // e) for a, e in zip(nums, dens)]),
        den,
        tuple(scales),
    )


def _view(image: _IntImage, n: int) -> tuple[RatMat, RatVec]:
    """The rows s_i q_i and right-hand sides s_i bounds_i / den of an
    image as Fractions: (A, b) from A's image, (B, d) from B's."""
    rows, rhs = [], []
    for q, t, (sn, sd) in zip(image.rows, image.bounds, image.scales):
        rows.append([Fraction(sn * a, sd) for a in q])
        rhs.append(Fraction(sn * t, sd * image.den))
    return RatMat(rows, cols=n), RatVec(rhs)


def _solves_a(P: Polyhedron, X: Sequence[int], D: int) -> bool:
    """Whether A x = b for x = X/D, in ints: q_i.X / D = bounds_i / den for
    each row of A's image, as q_i.X * den = bounds_i * D.  With D = 0,
    whether A X = 0."""
    image, den = P._a_image, P._a_image.den
    return [e * den for e in _image(image, X)] == [t * D for t in image.bounds]


def _image(image: _IntImage, v: Sequence[int]) -> list[int]:
    """A v or B v in row units: the products q_i.v with the rows of
    ``image``, A's or B's, as int dot products over the nonzeros of each row.

    v is an int vector, such as a kernel vector of an echelon, a circuit or
    the X of ``_slack``; a rational direction is scaled to ints first, which
    keeps every zero and sign of the image.
    """
    out = []
    for row in image.nonzeros:
        total = 0
        for j, a in row:
            total += a * v[j]
        out.append(total)
    return out


def is_feasible(P: Polyhedron, x: RatVec) -> bool:
    """Exact membership test: Ax = b and Bx <= d entrywise."""
    return _feasible_slack(P, x) is not None


def _feasible_slack(P: Polyhedron, x: Point) -> Optional[tuple[list[int], list[int], int]]:
    """The int form (X, S, D) of ``_slack`` of x when x is in P, else None:
    ``is_feasible``'s test, for callers that go on from the slack."""
    if x.dim != P.n:
        raise ValueError(f"point has dimension {x.dim}, expected {P.n}")
    X, S, D = slack = _slack(P, x)
    return slack if _solves_a(P, X, D) and all(s >= 0 for s in S) else None


def active_rows(P: Polyhedron, x: Point) -> tuple[int, ...]:
    """Indices j of B with (Bx)_j = d_j, ascending.  x must be feasible."""
    slack = _feasible_slack(P, x)
    if slack is None:
        raise ValueError("active_rows requires a feasible point")
    return _active(slack[1])


def _slack(P: Polyhedron, x: Point) -> tuple[list[int], list[int], int]:
    """(X, S, D): x = X/D and its slack in row units, (d - Bx)_i / s_i =
    S_i/D, as ints over one denominator D > 0.

    D is the least common multiple of the denominators of x and of the
    bounds, so gcd(X, S, D) = 1: for each prime p of D, some entry of x or
    of the bounds has p to D's full power in its denominator, and that
    entry's X_i or S_i is then not a multiple of p.  x is feasible exactly
    when S >= 0 and Ax = b.
    """
    image = P._b_image
    X, den = _int_vector(x)
    D = lcm(den, image.den)
    if D != den:
        X = [e * (D // den) for e in X]
    f = D // image.den
    return X, [b * f - e for b, e in zip(image.bounds, _image(image, X))], D


def _point(X: Sequence[int], D: int) -> RatVec:
    """The point X/D of the int form of ``_slack``."""
    return RatVec(Fraction(e, D) for e in X)


def _active(slack: Sequence[int]) -> tuple[int, ...]:
    """The rows with zero slack, ascending: ``active_rows`` without its check."""
    return tuple(j for j, s in enumerate(slack) if s == 0)


def _a_block(P: Polyhedron) -> list[list[int]]:
    """The block of A's kernel, as ``ratlin._cut`` takes it: each vector v
    of the kernel basis of ``P._a_echelon`` followed by v's image under B."""
    return [list(v) + _image(P._b_image, v) for v in _echelon_kernel(*P._a_echelon, P.n)]


def _tighten(
    block: list[list[int]], n: int, slack: Sequence[int], before=None
) -> list[list[int]]:
    """``block`` cut by each B-row with zero slack, or, given the slack
    ``before`` a move that keeps tight rows tight, by each row the move
    made tight; a row 0 in every column is in the span already."""
    for i, s in enumerate(slack):
        if s == 0 and (before is None or before[i]) and any(col[n + i] for col in block):
            block = _cut(block, n, n + i)
    return block


def _ratio_test(slack: Sequence[int], image: Sequence[int]) -> Optional[int]:
    """The row that limits a step: the j with image_j > 0 whose ratio
    slack_j / image_j is smallest, the first on ties, or None when no
    image_j is positive and the step is unbounded.

    The package's one ratio test for maximal steps (the simplex keeps its
    own leaving-row rule).  slack_i / a_i < slack_j / a_j is decided as
    slack_i * a_j < slack_j * a_i, with no division.  slack is the S of
    ``_slack`` (or of a vector of a sign cone), >= 0, and image the int
    image of a direction in the same row units; a common positive
    denominator of either side changes no ratio's order.  The largest
    step is then S_j / (D * image_j).
    """
    best = None
    for i, a in enumerate(image):
        if a > 0 and (best is None or slack[i] * a_best < s_best * a):
            best, s_best, a_best = i, slack[i], a
    return best


def _move(
    X: Sequence[int], S: Sequence[int], D: int, w: Sequence[int], image: Sequence[int], j: int
) -> tuple[list[int], list[int], int]:
    """(X, S, D) moved along the int direction w, with int image ``image``,
    by the step t = S_j / (D * image_j) that makes row j tight.

    x + t*w is (a*X + S_j*w) / (a*D) and its slack (a*S - S_j*image) /
    (a*D), with a = image_j > 0; one gcd over all three keeps the form in
    lowest terms.
    """
    a, s = image[j], S[j]
    X = [a * x + s * e if e else a * x for x, e in zip(X, w)]
    S = [a * t - s * e if e else a * t for t, e in zip(S, image)]
    D *= a
    g = gcd(D, *X, *S)
    if g > 1:
        X, S, D = [e // g for e in X], [e // g for e in S], D // g
    return X, S, D


def _advance(
    it: tuple[Sequence[int], Sequence[int], int], w: Sequence[int], image: Sequence[int], j: int
) -> tuple[list[int], list[int], int]:
    """The iterate ``it`` = (X, S, D) of ``_slack`` after the maximal step
    along the int direction w: ``image`` is w's image and j the row that
    ``_ratio_test`` of S and ``image`` found, which the step makes tight.
    The augmentation's move, by the rank-one rule ``_move``; the caller's
    scan has computed the image and the ratio test already."""
    return _move(*it, w, image, j)


def _walk(
    P: Polyhedron,
    signs: Optional[Sequence[int]],
    X: Sequence[int],
    S: Sequence[int],
    D: int,
    block: list[list[int]],
) -> Iterator[tuple[list[int], list[int], int, tuple[int, ...]]]:
    """The active-set walk from X/D: each move makes one more row tight.

    With ``signs`` None the region is P, {x : Ax = b, Bx <= d}; else it is
    the cone {u : Au = 0, sigma_i q_i.u <= 0 for every row i}, with sigma
    the row signs ``signs`` (each 1 or -1).  (X, S, D) is the start in the
    int form of ``_slack`` (on the cone, S_i = -sigma_i q_i.X; D is carried
    there, but only the direction of X is read), and ``block`` is that of
    the kernel of A stacked on the B-rows tight at the start (``_tighten``).
    A move reads the first column as w, an int tuple with its first nonzero
    positive, and w's image, or their negation when only the negation is
    bounded, goes as far as ``_ratio_test`` allows by ``_move``, and cuts
    the block by the rows the move made tight.  On the cone the column
    along X itself is passed over, since it leads to 0.  The walk ends at
    an empty block (a vertex), or on the cone when only X's own ray is left
    (an extreme ray).  Each move cuts a column, so there are at most n.
    Yields (X, S, D, w) after each move; a caller that stops early saves
    the cut.  P is pointed, as every Polyhedron is, so neither region holds
    a line and every kernel vector is bounded one way.
    """
    cone, n = signs is not None, P.n
    for moves in range(n + 1):
        if len(block) == (1 if cone else 0):
            return
        if moves == n:  # pragma: no cover - each move cuts a column
            raise AssertionError("the active-set walk exceeded n moves")
        col = block[0]
        if cone:  # is X parallel to col's vector, whose first nonzero is p?
            k = next(j for j, a in enumerate(col) if a)
            p, x = col[k], X[k]
            if x and all(e * p == a * x for e, a in zip(X, col)):
                col = block[1]
        if next(a for a in col if a) < 0:
            col = [-a for a in col]
        w, image = tuple(col[:n]), col[n:]
        if cone:
            image = [a if s > 0 else -a for a, s in zip(image, signs)]
        j = _ratio_test(S, image)
        if j is None:
            w, image = tuple([-a for a in w]), [-a for a in image]
            j = _ratio_test(S, image)
            if j is None:  # pragma: no cover - Bw = 0 is impossible when pointed
                raise AssertionError("feasible line found in a pointed polyhedron")
        before = S
        X, S, D = _move(X, S, D, w, image, j)
        yield X, S, D, w
        block = _tighten(block, n, S, before)


def max_step(P: Polyhedron, x0: Point, g: RatVec) -> Union[Rat, _Unbounded]:
    """Largest beta >= 0 with x0 + beta*g feasible, or UNBOUNDED.

    Every inequality row with (Bg)_j > 0 caps the step at
    (d_j - (Bx0)_j) / (Bg)_j and the smallest cap wins; with no such row
    the direction is unbounded.  g must satisfy Ag = 0, so equality rows
    never move.  The degenerate direction g = 0 yields step 0.
    """
    slack = _feasible_slack(P, x0)
    if slack is None:
        raise ValueError("max_step requires a feasible starting point")
    if g.dim != P.n:
        raise ValueError(f"direction has dimension {g.dim}, expected {P.n}")
    if not _solves_a(P, _int_vector(g)[0], 0):
        raise ValueError("direction leaves the equality subspace (A g != 0)")
    _, S, D = slack
    return _max_step(P, S, D, g)


def _max_step(P: Polyhedron, S: Sequence[int], D: int, g: RatVec) -> Union[Rat, _Unbounded]:
    """``max_step`` from the int slack (S, D) of ``_slack`` at a feasible
    x0, for g with Ag = 0, without its checks."""
    G, den = _int_vector(g)  # g = G / den
    if not any(G):
        return Fraction(0)
    image = _image(P._b_image, G)
    j = _ratio_test(S, image)
    return UNBOUNDED if j is None else Fraction(S[j] * den, D * image[j])


@dataclass(frozen=True)
class Instance:
    """A polyhedron together with the objective to minimize over it."""

    polyhedron: Polyhedron
    objective: RatVec


# ---------------------------------------------------------------------------
# File formats.
#
# Instance files are line-oriented ASCII, one LP per file:
#   line 1:            "n m_A m_B"
#   next m_A lines:    rows of A (n rationals each), then one line b
#                      (m_A rationals; the b line is omitted when m_A = 0)
#   next m_B lines:    rows of B, then one line d (omitted when m_B = 0)
#   last line:         objective c (n rationals)
# Points serialize as a single line of n rationals.  Counts and rationals
# are tokens of the grammar in ``ratlin``.  Blank lines and lines starting
# with '#' are ignored.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def _read_text(path) -> str:
    """The text of an input file, the package's one file reader.  A byte that
    is not ASCII, even in a comment, is a ParseError at its line and column."""
    with open(path, encoding="ascii", errors="replace") as handle:
        text = handle.read()
    bad = text.find("\ufffd")  # "replace" puts U+FFFD for each such byte
    if bad >= 0:
        lines = text[: bad + 1].splitlines()
        raise ParseError("a byte that is not ASCII", len(lines), len(lines[-1]))
    return text


def _data_lines(text: str, what: str) -> list[tuple[int, str]]:
    """(number, line) of each line that is neither blank nor a comment."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, line))
    if not out:
        raise ParseError(f"no {what} data found", 1, 1)
    return out


def _tokens(line: str) -> list[tuple[int, str]]:
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(line)]


def _located(read, line_no: int, col: int, *args):
    """``read(*args)``, with a ValueError it raises made a ParseError there."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None


def _parse_row(
    line_no: int, line: str, count: Optional[int], what: str, index: int = 0
) -> tuple[list[int], int]:
    """The rationals on ``line`` as ints N over their least common
    denominator L > 0, (N, L): exactly ``count`` of them, or any number
    when ``count`` is None.  The one row parser of the instance and point
    formats.

    One match checks the grammar of the whole line; a token without "/" is
    then read as an int and only a ``p/q`` token by ``_rat_pair``.  On any
    error the tokens are read again one by one, each by ``_rat_pair``, so
    the first bad one is placed at its line and column (``_located``).  The
    row is named, as ``what.format(index)``, only in an error."""
    toks = line.split()  # the tokens of _tokens, without their columns
    if count is not None and len(toks) != count:
        raise ParseError(
            f"expected {count} rationals for {what.format(index)}, found {len(toks)}",
            line_no,
            len(line) + 1 if len(toks) < count else _tokens(line)[count][0],
        )
    try:
        if not _RAT_LINE_RE.fullmatch(line):
            raise ValueError
        if "/" not in line:
            return list(map(_to_int, toks)), 1
        nums, dens = [], []
        for tok in toks:
            p, q = _rat_pair(tok) if "/" in tok else (_to_int(tok), 1)
            nums.append(p)
            dens.append(q)
        L = lcm(*dens)
        return [p * (L // q) for p, q in zip(nums, dens)], L
    except ValueError:  # again with the columns, to place the error
        for col, tok in _tokens(line):
            _located(_rat_pair, line_no, col, tok)
        raise AssertionError("a bad line with no bad token")  # pragma: no cover


def _parse_header(line_no: int, line: str, fields: str) -> tuple[int, ...]:
    """The counts on a header line, one for each name in ``fields``."""
    toks = _tokens(line)
    if len(toks) != len(fields.split()):
        raise ParseError(f"header must be '{fields}', found {len(toks)} tokens", line_no, 1)
    return tuple(_located(parse_count, line_no, col, tok) for col, tok in toks)


def parse_instance_text(text: str) -> Instance:
    """Parse an instance file; malformed input raises ParseError with position.

    The rows go to the polyhedron as ints (``Polyhedron._from_ints``); only
    the objective becomes Fractions.  A well-formed system that is not
    pointed raises NotPointedError, from the Polyhedron constructor."""
    lines = _data_lines(text, "instance")
    n, m_a, m_b = _parse_header(*lines[0], "n m_A m_B")
    if n < 1:
        raise ParseError("dimension n must be at least 1", lines[0][0], 1)
    rest, end = iter(lines[1:]), lines[-1][0] + 1

    # (lines, rationals on each, name): b and d only when A and B have rows
    sections = (
        (m_a, n, "row {} of A"),
        (min(m_a, 1), m_a, "vector b"),
        (m_b, n, "row {} of B"),
        (min(m_b, 1), m_b, "vector d"),
        (1, n, "objective c"),
    )
    data = []
    for count, width, name in sections:
        rows = []
        for i in range(1, count + 1):
            line_no, line = next(rest, (end, None))
            if line is None:
                raise ParseError(f"unexpected end of file, expected {name.format(i)}", end, 1)
            rows.append(_parse_row(line_no, line, width, name, i))
        data.append(rows)
    extra = next(rest, None)
    if extra is not None:
        raise ParseError("unexpected extra line after the objective", extra[0], 1)

    a_rows, b, b_rows, d, ((c, den),) = data
    b, d = ([(e, L) for N, L in v for e in N] for v in (b, d))
    P = Polyhedron._from_ints(n, a_rows, b, b_rows, d)
    return Instance(P, RatVec([Fraction(e, den) for e in c]))


def load_instance(path) -> Instance:
    return parse_instance_text(_read_text(path))


def format_instance(inst: Instance) -> str:
    """Serialize an instance; parsing the result reproduces it exactly."""
    P = inst.polyhedron
    # the sections in file order, as parse_instance_text reads them
    rows = [*P.A.entries, *([P.b] if P.A.m else []), *P.B.entries, *([P.d] if P.B.m else [])]
    out = [f"{P.n} {P.A.m} {P.B.m}"] + [" ".join(str(a) for a in row) for row in rows]
    return "\n".join(out + [inst.objective.to_text()]) + "\n"


def parse_point_text(text: str, *, expected_dim: Optional[int] = None) -> RatVec:
    """Parse the one data line of ``text`` as a point: space-separated
    rationals, exactly ``expected_dim`` of them unless that is None."""
    lines = _data_lines(text, "point")
    if len(lines) > 1:
        raise ParseError("unexpected extra line after the point", lines[1][0], 1)
    N, L = _parse_row(*lines[0], expected_dim, "a point")
    return RatVec([Fraction(e, L) for e in N])


def format_point(x: RatVec) -> str:
    return x.to_text()
