import hashlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_complexes
from mwb.core import from_facets
from mwb.errors import ParseError
from mwb.flips import FlipMove
from mwb.tri_io import (parse, parse_coords, parse_trace, write, write_trace)


def test_round_trip_is_identity(complexes):
    for C in complexes.values():
        assert parse(write(C)) == C
        assert write(parse(write(C))) == write(C)


def test_letter_labels_are_accepted_on_input(complexes):
    C = complexes["L31-12"]
    header, *body = write(C).splitlines()
    letters = [" ".join("abc"[int(t) - 10] if int(t) >= 10 else t
                        for t in line.split())
               for line in body]
    assert parse("\n".join([header] + letters)) == C


def test_output_is_always_decimal(complexes):
    text = write(complexes["L31-12"])
    body = [l for l in text.splitlines()[1:]]
    assert all(tok.isdigit() for line in body for tok in line.split())


def test_comments_and_blank_lines_are_ignored():
    C = parse("# a comment\n\n2 4\n1 2 3\n1 2 4\n# mid comment\n1 3 4\n2 3 4\n")
    assert C == from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("2 4\n1 2 3\n1 2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse("2 4\n1 2 5\n")  # label out of range
    with pytest.raises(ParseError):
        parse("2\n1 2 3\n")  # bad header
    with pytest.raises(ParseError):
        parse("2 5\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")  # header/body mismatch
    with pytest.raises(ParseError):
        parse("# nothing\n")
    with pytest.raises(ParseError):
        parse("2 4\n1 2 2\n")
    # '\u00b3' and '\u0663' pass str.isdigit; only ASCII digits are numbers
    for text in ("2 4\n1 2 3\n1 2 4\n1 3 4\n2 3 \u00b3\n",
                 "2 \u00b3\n1 2 3\n", "\u0662 4\n1 2 3\n",
                 "2 4\n1 2 3\n1 2 4\n1 3 4\n2 3 \u0664\n",
                 "2 " + "9" * 5000 + "\n1 2 3\n"):  # past int()'s digit limit
        with pytest.raises(ParseError):
            parse(text)


def test_trace_round_trip():
    trace = [FlipMove(0, (1, 2, 3), (5,)), FlipMove(2, (5,), (1, 2, 3))]
    assert parse_trace(write_trace(trace)) == trace


def test_repeated_trace_lines_give_equal_shared_moves():
    text = "0: 1 2 3 -> 5\n2: 5 -> 1 2 3\n0: 1 2 3 -> 5\n2: 5 -> 1 2 3\n"
    moves = parse_trace(text)
    assert moves == [FlipMove(0, (1, 2, 3), (5,)), FlipMove(2, (5,), (1, 2, 3))] * 2
    assert moves[0] is moves[2] and moves[1] is moves[3]
    assert moves[0] is not moves[1]
    assert write_trace(moves) == text


def test_comment_and_blank_lines_between_repeats():
    text = "# moves\n0: 1 2 3 -> 5\n\n# moves\n  \n0: 1 2 3 -> 5\n 0: 1 2 3 -> 5\n#\n"
    moves = parse_trace(text)
    assert moves == [FlipMove(0, (1, 2, 3), (5,))] * 3
    assert moves[0] is moves[1]  # the third line differs in its raw text
    assert write_trace(moves) == "0: 1 2 3 -> 5\n" * 3


def test_a_bad_line_that_repeats_reports_its_first_line_number():
    text = "0: 1 2 3 -> 5\n# c\n1: 1 2 -> 3 x\n0: 1 2 3 -> 5\n1: 1 2 -> 3 x\n"
    with pytest.raises(ParseError) as err:
        parse_trace(text)
    assert err.value.line == 3
    assert str(err.value) == "line 3: bad move line, expected 'k: a .. -> b ..'"


def test_gate3_trace_round_trip_is_byte_identical(s2xs2_reduction):
    _, trace, _ = s2xs2_reduction
    text = write_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6201f5f7f36542d6312a78e38a71ac91756f8825c3eaf387b5bd2495e01f0e29"
    moves = parse_trace(text)
    assert moves == trace
    assert len({id(m) for m in moves}) == len(set(text.splitlines())) == 4_927
    assert write_trace(moves) == text


@pytest.mark.parametrize("line", [
    "-1: +1 -2 -> 1_0",  # int() accepts signs and underscores
    "1: 1 2 3 4",  # no '->'
    "1 2 3 -> 4",  # no ':'
    ": 1 2 -> 3 4",  # no kind
    "1 2: 3 4 -> 5",  # two kinds
    "1: 1 2 -> 3 -> 4",
    "1: 1 \u0663 -> 3 4",  # Arabic-Indic digit
    "\u00b2: 1 2 -> 3 4",  # superscript digit
    "1: 1 2 -> 3 " + "9" * 5000,
])
def test_trace_parse_rejects_bad_lines(line):
    with pytest.raises(ParseError) as err:
        parse_trace("# moves\n0: 1 2 3 -> 5\n" + line + "\n")
    assert err.value.line == 3


def test_coordinate_parsing():
    coords = parse_coords("# c\n1 0 0 0\n2 1/2 -3 0.25\n")
    from fractions import Fraction
    assert coords[1] == (0, 0, 0)
    assert coords[2] == (Fraction(1, 2), -3, Fraction(1, 4))
    with pytest.raises(ParseError):
        parse_coords("1 0 0\n")
    with pytest.raises(ParseError):
        parse_coords("1 1/0 0 0\n")
    with pytest.raises(ParseError):
        parse_coords("1 1e999999999 0 0\n")
    with pytest.raises(ParseError):
        parse_coords("\u00b3 0 0 0\n")


def test_coordinates_give_each_vertex_once():
    with pytest.raises(ParseError) as err:
        parse_coords("1 0 0 0\n1 1 1 1\n")
    assert str(err.value) == "line 2: vertex 1 given twice"


# Fraction() reads "1_0" as 10 from Python 3.11 on, and reads Unicode digits
@pytest.mark.parametrize("tok", ["1_0", "1_0/3", "0.5_0", "1e5", "\u0663",
                                 "\uff11", "\u22121", "inf", "nan"])
def test_coordinates_are_ascii_signs_digits_points_and_slashes(tok):
    with pytest.raises(ParseError) as err:
        parse_coords(f"1 0 {tok} 0\n")
    assert str(err.value) == f"line 1: bad coordinate {tok!r}"


def test_bad_tokens_are_echoed_cut_to_20_characters():
    big = "1" * 4999 + "x"
    with pytest.raises(ParseError) as err:
        parse_coords(f"1 0 {big} 0\n")
    assert str(err.value) == f"line 1: bad coordinate {'1' * 20!r}"
    with pytest.raises(ParseError) as err:
        parse_coords(f"{big} 0 0 0\n")
    assert str(err.value) == f"line 1: bad vertex label {'1' * 20!r}"


# tokens near the formats, so that fuzzed text gets past the header
_NUMBERS = st.sampled_from(["1", "2", "3", "4", "7", "1/2", "-1"])
_ODD = st.sampled_from(
    ["0", "12", "a", "z", "A", "+2", "1/0", "0.5", "1e5", "2E-3", "nan", "->",
     ":", "#", "3:", "\u00b3", "\u0663", "\u00bd", "\u2212", "\x00"])
_LINE = st.sampled_from([2, 3, 4]).flatmap(  # header, facet, coordinate
    lambda k: st.lists(st.one_of(_NUMBERS, _ODD), min_size=k, max_size=k))
_TEXT = st.one_of(st.text(), st.lists(_LINE.map(" ".join), max_size=6)
                  .map("\n".join))


@settings(max_examples=500, deadline=None)
@given(text=_TEXT)
def test_parsers_raise_only_parse_error(text):
    for parser in (parse, parse_coords, parse_trace):
        try:
            parser(text)
        except ParseError:
            pass


@settings(max_examples=200, deadline=None)
@given(C=small_complexes())
@example(C=from_facets([[1, 2, 3]]))  # n = d+1, the least a header admits
def test_parse_write_round_trip_property(C):
    assert parse(write(C)) == C
    assert write(parse(write(C))) == write(C)


def test_a_number_too_long_for_int_is_a_bad_token():
    # more digits than int() converts, where the interpreter has that limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts any number of digits here")
    big = "9" * (limit + 1)
    cases = [
        (parse, f"2 4\n1 2 3\n1 2 {big}\n",
         f"line 3: bad vertex label {big[:20]!r}"),
        (parse, f"2 {big}\n1 2 3\n", "line 1: header must be 'd n'"),
        (parse_trace, f"0: 1 2 3 -> {big}\n",
         "line 1: bad move line, expected 'k: a .. -> b ..'"),
    ]
    for read, text, message in cases:
        with pytest.raises(ParseError) as err:
            read(text)
        assert str(err.value) == message
