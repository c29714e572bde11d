"""Exact rational linear algebra: vectors, matrices, rank and kernels.

Scalars are arbitrary-precision rationals (``fractions.Fraction``,
re-exported as ``Rat``): always stored in lowest terms with a positive
denominator, so arithmetic never rounds.  Vectors and matrices are
immutable and hashable.  A kernel is cut by one row at a time, and gives
the kernel basis of the reduced row echelon form, up to a sign per
column, in any row order, so identical inputs yield bit-identical
outputs.  Nothing in this module touches floating point,
and no tolerance parameter exists.

Rows are pivoted only in the simplex: ``_pivot`` is its elimination step
on the tableau's rows in ``lp``, and ``_combine`` its one row update, which
the phase-2 cost row also uses where only one row is nonzero in the pivot
column.  The step works fraction-free on primitive integer rows (lists of
ints with gcd 1, each standing for any of its positive multiples;
``coprime_integer_entries`` makes them): the other rows become
``p*row - f*pivot_row`` over their content, in the line of Bareiss
(Math. Comp. 1968) and Edmonds (1967).  Each row stays a positive
multiple of the row the unit-pivot Fraction step would give, so every
zero pattern and every sign, and hence every pivot choice, is the one
that step makes.  Every kernel is a block of columns instead: a kernel
basis as int columns, each followed by its products with fixed rows.
``_cut`` is the same step on the columns, which restricts the block by
one row, and ``_kernel`` builds the block of a set of int rows from the
unit columns by one cut per independent row.  Rank, ``kernel_basis``,
each polyhedron's block of A, its pointedness check and the circuit test
read their kernels from ``_kernel``, and the circuit scan's flats and the
active-set walk's kernels cut such a block further.  Results are read
out as ``Fraction``s only at the end.
The systems the package solves (incidence matrices, B = [I; -I], tableaux
of slack columns) are mostly zeros, so ``_pivot`` and the
products ``RatVec.dot`` and ``RatMat.matvec`` skip zero operands; the
incidence matrices are totally unimodular, so their integer rows stay
small.  ``RatMat.matvec`` serves the checkers in ``certify``: the hot
products with A and B go through each polyhedron's integer images of A
and B (``polyhedron._image``, and ``_solves_a`` for Ax = b).  The module
also owns the token grammar of every input, ``_to_int``, the one
conversion of text to an int, and ``_rat_pair``, the one reader of a
rational token with its own grammar check, which gives it as an int pair
in lowest terms: the instance row reader takes it for ``p/q`` tokens, for
every token of a line that is not ASCII or holds a "+" or "_", and, token
by token, to place an error.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

Rat = Fraction

# The token grammar of every input, in ASCII digits: ``\d`` and ``int()``
# also take other Unicode digits, and ``int()`` a plus, spaces and "_".
_COUNT_RE = re.compile(r"[0-9]+")
_INT_RE = re.compile(r"-?[0-9]+")
_RAT_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _to_int(digits: str) -> int:
    """The one text-to-int converter, for digits the grammar above matched
    or, in the row parser, ASCII tokens with no "+" or "_", which ``int``
    reads by that grammar."""
    try:
        return int(digits)
    except ValueError:  # only on more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a number may have at most {limit} digits") from None


def parse_count(token: str) -> int:
    """A non-negative integer in ASCII digits."""
    if not _COUNT_RE.fullmatch(token):
        raise ValueError(f"expected a non-negative integer, got {token!r}")
    return _to_int(token)


def parse_int(token: str) -> int:
    """An integer in ASCII digits with an optional leading minus."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"expected an integer, got {token!r}")
    return _to_int(token)


def parse_rat(token: str) -> Rat:
    """Parse ``p/q`` (or ``p``) with an optional leading minus on p only."""
    return Fraction(*_rat_pair(token))


def _rat_pair(token: str) -> tuple[int, int]:
    """The rational token ``p/q`` (or ``p``) as the ints (p, q) in lowest
    terms with q > 0, the one token reader of ``parse_rat`` and the row
    parser; it makes no Fraction."""
    if not _RAT_RE.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    p, _, q = token.partition("/")
    if not q:
        return _to_int(p), 1
    den = _to_int(q)
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    num = _to_int(p)
    g = gcd(num, den)
    return num // g, den // g


class RatVec:
    """Immutable exact-rational vector; equality is entrywise and exact."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rat | int]):
        # from a list: see ``_int_vector`` on tuples built from generators
        self.entries: tuple[Fraction, ...] = tuple(
            [e if type(e) is Fraction else Fraction(e) for e in entries]
        )

    @classmethod
    def zeros(cls, dim: int) -> "RatVec":
        return cls([Fraction(0)] * dim)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatVec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "RatVec":
        return RatVec(-a for a in self.entries)

    def __mul__(self, scalar) -> "RatVec":
        s = Fraction(scalar)
        return RatVec(a * s for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "RatVec") -> Fraction:
        self._check_dim(other)
        pairs = zip(self.entries, other.entries)
        return sum((a * b for a, b in pairs if a and b), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def to_text(self) -> str:
        return " ".join(str(a) for a in self.entries)

    def _check_dim(self, other: "RatVec") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"dimension mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def __repr__(self) -> str:
        return f"RatVec([{', '.join(str(a) for a in self.entries)}])"


class RatMat:
    """Immutable exact-rational matrix, stored row-major.

    A matrix may have zero rows; the column count must then be given
    explicitly, since it cannot be inferred.
    """

    __slots__ = ("entries", "n")

    def __init__(self, rows: Iterable[Iterable[Rat | int]], cols: Optional[int] = None):
        entries = tuple(
            [tuple([e if type(e) is Fraction else Fraction(e) for e in row]) for row in rows]
        )
        if cols is None:
            if not entries:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"ragged row: expected {cols} entries, got {len(row)}")
        self.entries = entries
        self.n = cols

    @property
    def m(self) -> int:
        return len(self.entries)

    def matvec(self, v: RatVec) -> RatVec:
        if v.dim != self.n:
            raise ValueError(f"dimension mismatch: matrix has {self.n} columns, vector {v.dim}")
        ve = v.entries
        return RatVec(
            sum((a * b for a, b in zip(row, ve) if a and b), Fraction(0))
            for row in self.entries
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMat)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.n))

    def __repr__(self) -> str:
        return f"RatMat({self.m}x{self.n})"


def _pivot(rows: list[list[int]], r: int, col: int) -> None:
    """One fraction-free Gauss-Jordan step on primitive integer rows: make
    the entry p of row r in ``col`` positive, then clear ``col`` from every
    other row.

    Each row is a list of ints standing for any of its positive multiples.
    A row with entry f != 0 in ``col`` becomes ``_combine(row, p, f, ...)``,
    ``p*row - f*pivot_row`` divided by its content, so every row the step
    rewrites is primitive (gcd 1) (Bareiss, Math. Comp. 1968; Edmonds,
    1967).  That is a positive multiple of what the unit-pivot Fraction
    step gives, so every zero pattern and sign, hence every pivot choice,
    is the Fraction step's.  The nonzeros of the pivot row are read once.
    Rows are rebound to new lists, never changed in place, so a caller may
    pivot on a copy of the outer list while other copies share its rows.
    """
    pr = rows[r]
    p = pr[col]
    if p < 0:
        pr = [-a for a in pr]
        rows[r] = pr
        p = -p
    nonzeros = [(j, b) for j, b in enumerate(pr) if b]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = _combine(row, p, f, nonzeros)


def _combine(vec: Sequence[int], p: int, f: int, nonzeros) -> list[int]:
    """``p*vec - f*row`` over its content, as a new list: the one row update
    of the elimination, where ``nonzeros`` are the (column, entry) pairs of
    row, p > 0 is row's entry in a column and f is vec's there, so the
    result is 0 in that column and a positive multiple of the unit-pivot
    Fraction step's row.  Only row's nonzeros are subtracted.
    """
    new = [p * a for a in vec] if p != 1 else list(vec)
    for j, b in nonzeros:
        new[j] -= f * b
    g = gcd(*new)
    if g > 1:
        new = [a // g for a in new]
    return new


def _cut(block: list[list[int]], n: int, r: int) -> list[list[int]]:
    """The block of a kernel restricted by one more row: the columns, as
    combinations of ``block``'s, that vanish in entry r.

    A block is a kernel basis as int columns of n entries, each followed by
    its products with fixed int rows, entry r among them.  The first
    column s with a nonzero entry p there is removed, and every later
    column with entry f != 0 becomes p*col - f*col_s over its content, the
    gcd of its first n entries: the products are integer combinations of
    those, so they share every divisor of them.  Column s is that of the
    new row's lead, so the reduced kernel basis of rows, in the order of
    their free columns, stays one up to a nonzero factor per column.
    Columns are never changed in place, so blocks may share them.
    """
    s = next(t for t, col in enumerate(block) if col[r])
    pivot = block[s]
    p = pivot[r]
    out = block[:s]
    for col in block[s + 1 :]:
        f = col[r]
        if f:
            col = [p * a - f * b for a, b in zip(col, pivot)]
            g = gcd(*col[:n])
            if g > 1:
                col = [a // g for a in col]
        out.append(col)
    return out


def _kernel(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """The block of the kernel of the int rows ``rows`` in n columns, as
    ``_cut`` takes it: one column per free column of their reduced row
    echelon form, in order, each a primitive int vector of the kernel
    followed by its products with ``rows``, which are then 0.

    The block starts from the unit columns, each followed by its products
    with ``rows``, and is cut by each row that is not 0 on it; a row 0 on
    every column is in the span of those before it.  So ``len`` of the
    block is n minus the rank of ``rows``.  Columns carry no sign
    normalization.
    """
    block = []
    for j in range(n):
        col = [0] * n
        col[j] = 1
        col += [row[j] for row in rows]
        block.append(col)
    for r in range(n, n + len(rows)):
        for col in block:
            if col[r]:
                block = _cut(block, n, r)
                break
    return block


def rank(M: RatMat) -> int:
    """Dimension of the row space, by exact integer elimination."""
    return M.n - len(_kernel([coprime_integer_entries(row) for row in M.entries], M.n))


def _int_vector(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(V, D): the rational vector ``values`` as the ints V over its least
    common denominator D > 0, so that values = V / D.

    The lcm's arguments come from a list: a tuple built from a generator,
    an argument tuple or ``tuple(...)``, is resized as it fills, and
    CPython's tuple free lists then keep one more short tuple per call, up
    to 2000 of each length.  The package builds tuples from lists for this
    reason."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def coprime_integer_entries(values: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving orientation.

    Zeros stay 0, and a vector of coprime integers comes back unchanged.
    """
    return _primitive(_int_vector(values)[0])


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """An int vector over the gcd of its entries, orientation kept: the
    primitive integer row of ``coprime_integer_entries`` for a row that is
    ints already.  A zero vector stays zero."""
    g = gcd(*ints)
    return tuple([a // g for a in ints]) if g > 1 else tuple(ints)


def sign_normalized(ints: Sequence[int]) -> tuple[int, ...]:
    """Flip the sign so the first nonzero entry is positive."""
    for a in ints:
        if a > 0:
            return tuple(ints)
        if a < 0:
            return tuple([-b for b in ints])
    return tuple(ints)


def kernel_basis(M: RatMat) -> list[RatVec]:
    """Basis of the null space of M, one vector per free column.

    Each basis vector is scaled to coprime integer entries with its first
    nonzero entry positive, so equal kernels produce equal bases.  An
    empty list means the kernel is trivial.
    """
    n = M.n
    block = _kernel([coprime_integer_entries(row) for row in M.entries], n)
    return [RatVec(sign_normalized(col[:n])) for col in block]
