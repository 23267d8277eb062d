"""Fuzz the three file parsers with mutated corpus text: whatever the input,
the only exception that may escape is ParseError."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym.cli import main
from arrsym.combinatorics import ConfigTable, Permutation, parse_config_table, parse_cycles
from arrsym.errors import QUOTE_CHARS, ParseError, ValidationError
from arrsym.fields import FieldSpec, QuadExt, factor_integer, parse_digits, parse_scalar
from arrsym.geometry import parse_arrangement
from arrsym.moduli import parse_plan
from arrsym.polys import MAX_NESTING, Poly, RatFunc, parse_ratfunc

DATA = Path(__file__).resolve().parents[1] / "src" / "arrsym" / "corpus" / "data"

ARRANGEMENT = """\
arrangement demo+
field sqrt -3
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 1/2+1/2w ; -1 ; 1
line 5 : 1 ; -1/2w ; 0
"""

SEEDS = {
    parse_config_table: sorted(p.read_text() for p in DATA.glob("*.cfg")),
    parse_plan: sorted(p.read_text() for p in DATA.glob("*.plan")),
    parse_arrangement: [ARRANGEMENT],
}

# Unicode digits that str.isdigit accepts, numbers past int()'s 4,300-digit
# limit, a huge exponent, and the grammar's own punctuation.
PIECES = ["²", "³", "٣", "１", "9" * 5000, "1" + "0" * 5000,
          "0", "-1", "1/0", "^1000000000", "^-", "(", ")", ";", ":", "/", "w",
          "t", "lines", "line", "point", "meet", "join", "require", "on", "\n"]


# Numbers of 15-640 digits: past trial division's reach in square_free_part
# when read as a `field sqrt <d>` radicand, and within parse_digits' limit.
big_numbers = st.integers(15, 640).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        piece = draw(st.sampled_from(PIECES) | st.text(max_size=4) | big_numbers)
        text = text[:start] + piece + text[end:]
    return text


@pytest.mark.parametrize("parse", list(SEEDS), ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=1000)
@given(data=st.data())
def test_only_parse_error_escapes(parse, data):
    text = data.draw(mutated(SEEDS[parse]))
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("parse, keyword", [
    (parse_config_table, "arrangement"), (parse_config_table, "lines"),
    (parse_arrangement, "arrangement"), (parse_arrangement, "field"),
    (parse_plan, "plan"), (parse_plan, "lines")],
    ids=lambda v: getattr(v, "__name__", v))
def test_a_repeated_header_is_refused(parse, keyword):
    lines = SEEDS[parse][0].splitlines()
    parse("\n".join(lines))
    header = next(line for line in lines if line.split()[:1] == [keyword])
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines + [header]))
    assert str(err.value) == f"line {len(lines) + 1}: repeated '{keyword}' header"


def test_a_second_field_is_a_parse_error_not_a_field_mix():
    # the second field used to be read: these two lines raised FieldMixError,
    # and with a rational first line the file was read over Q(sqrt 2)
    text = ("arrangement twice\nfield sqrt 5\nline 1 : 1 ; 0 ; {}\n"
            "field sqrt 2\nline 2 : 0 ; 1 ; 1w\n")
    for first in ("1w", "1"):
        with pytest.raises(ParseError, match="^line 4: repeated 'field' header$"):
            parse_arrangement(text.format(first))


# Each example may spend the whole factoring budget (about 0.1-0.3 s on a
# 640-digit radicand), so fewer examples than above.
@settings(max_examples=40, deadline=1000)
@given(sign=st.sampled_from(["", "-"]),
       radicand=big_numbers | st.sampled_from(["1000000000000000003",
                                                "1000000000000128000000000003367",
                                                "9" * 640]))
def test_field_radicands_end_in_bounded_time(sign, radicand):
    text = ARRANGEMENT.replace("field sqrt -3", f"field sqrt {sign}{radicand}")
    try:
        arrangement = parse_arrangement(text)
    except ParseError:
        return
    assert arrangement.field.d == int(sign + radicand)


# -- deep nesting ---------------------------------------------------------------

T = Poly((0, 1))


@pytest.mark.parametrize("count", [1, 1200, 1201, 20000])
def test_leading_signs_do_not_recurse(count):
    sign = -1 if count % 2 else 1
    assert parse_ratfunc("-" * count + "1/t") == RatFunc(sign, T)
    assert parse_ratfunc("+-" * count + "t") == RatFunc(Poly((0, sign)))


@pytest.mark.parametrize("text", ["(" * 1200 + "t" + ")" * 1200,
                                  "-(" * 1200 + "t" + ")" * 1200,
                                  "(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1),
                                  "(" * 1200])
def test_deep_parentheses_are_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_ratfunc(text)


def test_nesting_up_to_the_cap_parses():
    assert parse_ratfunc("(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == T
    assert parse_ratfunc("(-" * MAX_NESTING + "t" + ")" * MAX_NESTING) == T


@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(st.sampled_from(["(", "-", "+", "-(", "+("]), max_size=1500))
def test_nested_prefixes_parse_or_fail_cleanly(prefix):
    text = "".join(prefix)
    depth = text.count("(")
    try:
        value = parse_ratfunc(text + "t" + ")" * depth)
    except ParseError:
        assert depth > MAX_NESTING
        return
    assert depth <= MAX_NESTING
    assert value == Poly((0, (-1) ** text.count("-")))


@pytest.mark.parametrize("entry, code", [("-" * 1200 + "1/t", 0),
                                         ("(" * 1200 + "1/t" + ")" * 1200, 2)])
def test_derive_on_a_deeply_nested_plan(entry, code, tmp_path, capsys):
    plan = (DATA / "case-1.plan").read_text()
    assert "line 1 : 0 ; 1 ; 1/t" in plan
    path = tmp_path / "deep.plan"
    path.write_text(plan.replace("line 1 : 0 ; 1 ; 1/t", f"line 1 : 0 ; 1 ; {entry}"))
    assert main(["derive", str(path), str(DATA / "case-1.cfg")]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "constraint: t^2 - t - 1" in out
    else:
        assert err.startswith("error: line 3: parentheses nested deeper than 64")


def test_derive_error_on_a_deeply_nested_plan_is_short(tmp_path, capsys):
    plan = (DATA / "case-1.plan").read_text()
    entry = "(" * 1200 + "1/t" + ")" * 1200
    path = tmp_path / "deep.plan"
    path.write_text(plan.replace("line 1 : 0 ; 1 ; 1/t", f"line 1 : 0 ; 1 ; {entry}"))
    assert main(["derive", str(path), str(DATA / "case-1.cfg")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) < 200


@pytest.mark.parametrize("text, message", [
    ("t +", "unexpected token '' in 't +'"),
    ("(t", "expected ')' in '(t'"),
    ("t t", "trailing input in 't t'"),
    ("t^^2", "expected integer exponent in 't^^2'"),
    ("t^99", "exponent 99 above 64 in 't^99'"),
    ("t^x", "expected integer exponent in 't^x'"),
    ("s + 1", "unknown variable 's' (plan is over 't')"),
    ("1/(t-t)", "division by zero in '1/(t-t)'"),
    ("t $ 1", "bad character in expression: ' $ 1'"),
])
def test_short_expressions_are_quoted_whole(text, message):
    with pytest.raises(ParseError) as info:
        parse_ratfunc(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["t + " * 40 + "t +",
                                  "(" * 100 + "t" + ")" * 99,
                                  "x" * 5000,
                                  "t + " * 100 + "1/(t-t)",
                                  "t " + "$" * 5000])
def test_long_expressions_are_quoted_in_part(text):
    with pytest.raises(ParseError) as info:
        parse_ratfunc(text)
    message = str(info.value)
    assert "..." in message
    assert len(message) < QUOTE_CHARS + 80


PLAN_HEAD = ("plan p over t\nlines 4\nline 1 : 1 ; 0 ; 0\nline 2 : 1 ; 0 ; -1\n"
             "line 3 : 0 ; 1 ; 0\nline 4 : 0 ; 1 ; -1\n")
CFG_HEAD = "arrangement a\nlines 5\n"


def zeros(j):
    """A digits-only junk as long as ``j``, within parse_digits' limit."""
    return "0" * min(len(j), 600)


# Each parser fed its junk ``j``: a text that quotes j whole or in part.
QUOTING_PARSERS = {
    "cycles": lambda j: parse_cycles("(1 2)" + j, 10),
    "cycle of one": lambda j: parse_cycles("(1" + " " * len(j) + ")", 10),
    "repeated label": lambda j: parse_cycles("(1 1" + " 1" * len(j) + ")", 10),
    "scalar": lambda j: parse_scalar("1/2" + j),
    "scalar with w": lambda j: parse_scalar("1+w" + " " * len(j)),
    "zero denominator": lambda j: parse_scalar("1/" + "0" * min(len(j), 600)),
    "digits": lambda j: parse_digits("1" + j, "a line label"),
    "cfg directive": lambda j: parse_config_table("arrangement a\nlines 3\nx" + j + " 1\n"),
    "arr directive": lambda j: parse_arrangement("arrangement a\nx" + j + " 1\n"),
    "plan directive": lambda j: parse_plan(PLAN_HEAD + "x" + j + " 1\n"),
    "point twice": lambda j: parse_plan(
        PLAN_HEAD + f"point P{j} : meet 1 3\npoint P{j} : meet 2 4\n"),
    "point undefined": lambda j: parse_plan(PLAN_HEAD + f"require P{j} on 1\n"),
    "meet of a line itself": lambda j: parse_plan(PLAN_HEAD + f"point P{j} : meet 1 1\n"),
    "meet before its line": lambda j: parse_plan(PLAN_HEAD + f"point P{j} : meet 1 9\n"),
    "join before its point": lambda j: parse_plan(
        PLAN_HEAD.replace("lines 4", "lines 5") + f"point P : meet 1 3\nline 5 : join P Q{j}\n"),
    "plan line out of range": lambda j: parse_plan(PLAN_HEAD + f"line 9{zeros(j)} : 1 ; 1 ; 1\n"),
    "meet before a long line": lambda j: parse_plan(PLAN_HEAD + f"point P : meet 1 9{zeros(j)}\n"),
    "require a long line": lambda j: parse_plan(
        PLAN_HEAD + f"point P : meet 1 3\nrequire P on 9{zeros(j)}\n"),
    "lines not defined": lambda j: parse_plan(
        PLAN_HEAD.replace("lines 4", f"lines {min(4 + len(j), 1024)}")),
    "line count": lambda j: parse_config_table(f"arrangement a\nlines 5{zeros(j)}0\n"),
    "point of two lines": lambda j: parse_config_table(CFG_HEAD + f"point p{j} : 1 2\n"),
    "point label out of range": lambda j: parse_config_table(CFG_HEAD + f"point p{j} : 1 2 9\n"),
    "point line out of range": lambda j: parse_config_table(
        CFG_HEAD + f"point p : 1 2 9{zeros(j)}\n"),
    "point label twice": lambda j: parse_config_table(
        CFG_HEAD + f"point p{j} : 1 2 3\npoint p{j} : 1 4 5\n"),
    "pair on two points": lambda j: parse_config_table(
        CFG_HEAD + f"point p{j} : 1 2 3\npoint q{j} : 1 2 4\n"),
    "line twice in a point": lambda j: parse_config_table(CFG_HEAD + f"point p{j} : 1 1 2\n"),
    "cycle label out of range": lambda j: parse_cycles(f"(1 9{zeros(j)})", 10),
    "square radicand": lambda j: parse_arrangement(
        f"arrangement a\nfield sqrt 4{zeros(j)}\nline 1 : 1 ; 0 ; 0\n"),
    "arr line twice": lambda j: parse_arrangement(
        f"arrangement a\nfield rational\nline 1{zeros(j)} : 1 ; 0 ; 0\n"
        f"line 1{zeros(j)} : 0 ; 1 ; 0\n"),
}
SHORT_MESSAGES = {
    "cycles": "malformed cycle notation '(1 2)qz'",
    "cycle of one": "cycle with fewer than two entries in '(1  )'",
    "repeated label": "repeated label inside a cycle in '(1 1 1 1)'",
    "scalar": "malformed scalar '1/2qz'",
    "scalar with w": "scalar '1+w  ' uses w but the field is rational",
    "zero denominator": "zero denominator in '1/00'",
    "digits": "expected a line label, got '1qz'",
    "cfg directive": "line 3: unknown directive 'xqz'",
    "arr directive": "line 2: unknown directive 'xqz'",
    "plan directive": "line 7: unknown directive 'xqz'",
    "point twice": "point Pqz defined twice",
    "point undefined": "require: point Pqz used before definition",
    "meet of a line itself": "point Pqz: meet of a line with itself",
    "meet before its line": "point Pqz: line 9 used before definition",
    "join before its point": "line 5: point Qqz used before definition",
    "plan line out of range": "line 900 out of range 1..4",
    "meet before a long line": "point P: line 900 used before definition",
    "require a long line": "require: line 900 used before definition",
    "lines not defined": "lines not defined: [5, 6]",
    "line count": "line count must be in 1..1024, not 5000",
    "point of two lines": "point pqz has fewer than 3 lines",
    "point label out of range": "point pqz: label 9 out of 1..5",
    "point line out of range": "point p: label 900 out of 1..5",
    "point label twice": "duplicate point label pqz",
    "pair on two points": "lines 1,2 lie on two points (pqz and qqz): two lines meet once",
    "line twice in a point": "line 3: repeated line label in point pqz",
    "cycle label out of range": "label 900 out of range 1..10",
    "square radicand": "line 2: bad field (d=400 is not square-free)",
    "arr line twice": "line 4: duplicate line index 100",
}


def _message(parse, junk):
    with pytest.raises(ParseError) as info:
        parse(junk)
    return str(info.value)


@pytest.mark.parametrize("kind", sorted(QUOTING_PARSERS))
def test_short_inputs_are_quoted_whole(kind):
    assert _message(QUOTING_PARSERS[kind], "qz") == SHORT_MESSAGES[kind]


@pytest.mark.parametrize("kind", sorted(QUOTING_PARSERS))
def test_long_inputs_are_quoted_in_part(kind):
    message = _message(QUOTING_PARSERS[kind], "qz" * 1500)
    assert "..." in message and len(message) < 200


# Library calls fed the same junk: their ValidationError quotes it too.
QUOTING_CALLS = {
    "not a permutation": lambda j: Permutation([1] * len(j)),
    "permutation label out of range": lambda j: Permutation([1, 2])(int("9" + zeros(j))),
}
SHORT_CALL_MESSAGES = {
    "not a permutation": "not a permutation of 1..2: (1, 1)",
    "permutation label out of range": "label 900 out of range 1..2",
}


def _call_message(call, junk):
    with pytest.raises(ValidationError) as info:
        call(junk)
    return str(info.value)


@pytest.mark.parametrize("kind", sorted(QUOTING_CALLS))
def test_short_call_inputs_are_quoted_whole(kind):
    assert _call_message(QUOTING_CALLS[kind], "qz") == SHORT_CALL_MESSAGES[kind]


@pytest.mark.parametrize("kind", sorted(QUOTING_CALLS))
def test_long_call_inputs_are_quoted_in_part(kind):
    message = _call_message(QUOTING_CALLS[kind], "qz" * 1500)
    assert "..." in message and len(message) < 200


# Integers past the 4,300 digits Python's str() writes: a message quotes an
# integer's first digits, or gives its digit count, without writing it out.
HUGE = 10 ** 5000
HUGE_CALLS = {
    "permutation label": lambda: Permutation([1, 2])(HUGE),
    "permutation image": lambda: Permutation([HUGE, 1]),
    "radicand not square-free": lambda: FieldSpec(HUGE),
    "radicand beyond the factoring budget": lambda: FieldSpec(HUGE + 3),
    "factor_integer beyond its budget": lambda: factor_integer(HUGE + 3),
    "table line count": lambda: ConfigTable("x", HUGE, []),
    "table point label": lambda: ConfigTable("x", 3, [("p", [1, 2, HUGE])]),
    "table point named by a huge integer": lambda: ConfigTable("x", 3, [(HUGE, [1, 2, 3])]),
    "table named by a huge integer": lambda: ConfigTable(HUGE, 3, []),
    # refused before a list of n images is built (building it raised OverflowError)
    "cycle notation over 2^63 lines": lambda: parse_cycles("(1 2)", 2 ** 63),
}


@pytest.mark.parametrize("kind", sorted(HUGE_CALLS))
def test_huge_integers_end_in_a_short_validation_error(kind):
    with pytest.raises(ValidationError) as info:
        HUGE_CALLS[kind]()
    assert len(str(info.value)) <= 110


# Formatting a value the caller built writes every digit or fails as str()
# of the integer does (Python's ValueError past its limit, 4,300 digits by
# default): a quoted "1000..." would print a different number (README).
HUGE_TEXT_CALLS = {
    "str of a scalar": lambda: str(QuadExt(HUGE)),
    "repr of a scalar": lambda: repr(QuadExt(HUGE)),
    "a polynomial's text": lambda: Poly((HUGE, 1)).format(),
}


@pytest.mark.parametrize("kind", sorted(HUGE_TEXT_CALLS))
def test_formatting_a_huge_value_fails_as_str_of_the_integer_does(kind):
    try:
        digits = str(HUGE)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            HUGE_TEXT_CALLS[kind]()
        assert str(info.value) == str(exc)
    else:
        assert digits in HUGE_TEXT_CALLS[kind]()
