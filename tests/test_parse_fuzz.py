"""Fuzz of the three text parsers: every text either parses or raises
``ParseError`` at a line and column inside the text.

Line numbers count ``str.splitlines`` lines from 1 and may point one past
the last line (an unexpected end of file); a column may point one past the
end of its line (a missing token).  Texts mix arbitrary Unicode with
near-valid files whose tokens include non-ASCII digits such as "٣" and
"²", which ``str.isdigit`` accepts and ``int`` converts.  The row reader
of the instance and point formats, which checks a whole line at once, is
also checked against a reference that reads each token on its own.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from ddcircuits import NotPointedError, ParseError
from ddcircuits.polyhedron import _parse_row, parse_instance_text, parse_point_text
from ddcircuits.reductions import parse_digraph_text

from oracles import fraction_row

_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "1/2", "-3/4", "3/0", "٣", "²", "１", "x", "+1", "1.5", "#", "0" * 4400]
)
_ALPHABET = st.sampled_from(list("0123456789/- \t\n#") + ["\r", "\x0b", " ", "٣", "²", "１", "x"])


@st.composite
def _near_valid(draw):
    """Up to 8 lines of up to 4 tokens, often led by a small header."""
    lines = draw(st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8))
    if draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(["0", "1", "2", "3", "٣", "²"]), min_size=2, max_size=3))
        lines.insert(0, " ".join(header))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


_TEXTS = st.one_of(st.text(max_size=40), st.text(_ALPHABET, max_size=60), _near_valid())


def _parse_or_locate(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        lines = text.splitlines()
        assert 1 <= exc.line <= len(lines) + 1
        width = len(lines[exc.line - 1]) if exc.line <= len(lines) else 0
        assert 1 <= exc.column <= width + 1


def _parse_instance(text):
    """``parse_instance_text``, with NotPointedError a documented outcome: the
    constructor raises it only after a complete parse of the system."""
    try:
        parse_instance_text(text)
    except NotPointedError:
        pass


PARSERS = {
    "instance": _parse_instance,
    "point": parse_point_text,
    "point-dim-2": lambda text: parse_point_text(text, expected_dim=2),
    "digraph": parse_digraph_text,
}


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_parses_or_raises_located_parse_error(name, text):
    _parse_or_locate(PARSERS[name], text)


@pytest.mark.parametrize(
    "name, text",
    [
        pytest.param("instance", "² 0 0\n1\n", id="instance-superscript-count"),
        pytest.param("instance", "1 0 0\n٣\n", id="instance-arabic-indic-entry"),
        pytest.param("instance", "1 0 0\n" + "1" * 4400 + "\n", id="instance-huge-entry"),
        pytest.param("instance", "1" * 4400 + " 0 0\n1\n", id="instance-huge-count"),
        pytest.param("point", "٣ 1\n", id="point-arabic-indic-entry"),
        pytest.param("digraph", "² 0\n", id="digraph-superscript-count"),
        pytest.param("digraph", "2 1\n1 ٢\n", id="digraph-arabic-indic-node"),
        pytest.param("digraph", "2 1\n1 2 ٣\n", id="digraph-arabic-indic-cost"),
        pytest.param("digraph", "2 " + "1" * 4400 + "\n", id="digraph-huge-count"),
    ],
)
def test_non_ascii_digits_and_huge_counts_are_parse_errors(name, text):
    with pytest.raises(ParseError):
        PARSERS[name](text)


# Tokens at the edges of the rational grammar, valid (leading zeros, -0,
# fractions that reduce, that share a factor of their denominators or are
# 0, 4300 digits) and not (+1, 1_0, a bare minus, a minus after the slash,
# Arabic-Indic and full-width digits, a zero denominator, more digits than
# the limit in p or in q), and the separators a line may hold.
_VALID_TOKENS = st.sampled_from(
    ["0", "-3", "007", "-0", "4/6", "-10/4", "1/6", "-7/4", "5/12", "0/5", "3/1",
     "1" * 4300, "-" + "9" * 4300]
)
_BAD_TOKENS = st.sampled_from(
    ["+1", "1_0", "-", "--1", "1/-2", "1/", "/2", "1/2/3", "3/0", "0/00", "٣", "١/٢", "１",
     "1.5", "x", "1" * 4301, "0" * 4400, "1/" + "2" * 4400, "0" * 4400 + "/0"]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", " \t "])
_ENDS = st.sampled_from(["", " ", "\t", "\x1c"])


@st.composite
def _row_lines(draw):
    """A line of edge tokens, at most two of them not valid, between
    separators, with the count to expect: none, the number of tokens, or
    one more or fewer."""
    toks = draw(st.lists(_VALID_TOKENS, max_size=6))
    for bad in draw(st.lists(_BAD_TOKENS, max_size=2)):
        toks.insert(draw(st.integers(0, len(toks))), bad)
    if not toks:
        toks = ["1"]
    seps = draw(st.lists(_SEPARATORS, min_size=len(toks) - 1, max_size=len(toks) - 1))
    line = draw(_ENDS) + "".join(sep + tok for sep, tok in zip([""] + seps, toks)) + draw(_ENDS)
    return line, draw(st.sampled_from([None, len(toks), len(toks) - 1, len(toks) + 1]))


def _outcome(read):
    """The value of ``read()``, or the message, line and column of its ParseError."""
    try:
        return read()
    except ParseError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=400, deadline=None)
@given(case=_row_lines())
@example(case=("-10/4 1/6\t5/12", None))
@example(case=(" 1/2 ٣ +1", 3))
def test_row_reader_matches_per_token_fraction_reader(case):
    line, count = case

    def read():
        N, L = _parse_row(7, line, count, "row {} of B", 3)
        assert all(type(a) is int for a in N) and type(L) is int
        values = [Fraction(a, L) for a in N]
        assert L == lcm(*[v.denominator for v in values])  # the least one
        return values

    assert _outcome(read) == _outcome(lambda: fraction_row(7, line, count, "row 3 of B"))
