"""Budgets as tests: hostile inputs, run by the command line in a child
process under one limit on CPU time and one on address space, must end in
their error, or, for a command that succeeds, print their first line.  Every
row has 5 s of CPU and 128 MiB of address space, except the rows in
MEMORY_OF, which have 64 MiB.  Each ``derive`` row on at most 200 lines and
every other ``aut`` row (PG(2,13), the free tables on 10 to 1,024 lines and
the pencil on 1,024 lines) take about 0.1 s of CPU and end in their error
under 24 MiB, ``aut`` of PG(2,31), the largest, about 0.5 s and under 52 MiB.
``lattice`` and ``render`` of 1,024 lines over Q(sqrt 5) with no three
concurrent take about 0.8 s and 17 MiB, and of the pencil on 1,024 lines
about 0.13 s and 17 MiB.  ``parse`` of one point on 1,024 lines and
``render`` with a viewport of 1e999999999 take about 0.05 s and 17 MiB.  The
three 640-digit integers (a radicand of sevens that names its field, a
radicand that is not square-free and a line count) end in their result or
error in at most 0.17 s and under 17 MiB.  The three ``derive`` rows of a
cubic factor take about 0.12 s and 16 MiB.  ``derive`` of the 5,112-digit
cofactor, as text and with ``--json``, takes about 0.1 s and 16 MiB, and
``pipeline`` of a 100,000-character case name about 0.08 s and 18 MiB.
``derive`` of a plan on 1,000 lines whose candidate is checked at its root
takes about 1.0 s and 18 MiB on a machine where the ``lattice`` row of 1,024
lines over Q(sqrt 5) takes 1.6 s, whether the check derives the lattice there
or only checks the table.  The limits are at least six times the time and
twice the memory any row needs, so a regression fails its row instead of
hanging the suite."""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import arrsym

from conftest import COFACTOR_PLAN, chain_plan, constant_chain_plan, projective_plane

CPU_SECONDS, MEMORY = 5, 128 << 20
BIG = "(" + "9" * 640 + ")^64"        # the largest literal to the largest power


def _limited(memory):
    """Set the limits in the child process, before it runs the command."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    return limit


def product_plan(factors):
    """A plan whose first entry multiplies ``factors`` copies of BIG."""
    return ("plan big over t\nlines 4\nline 1 : " + "*".join([BIG] * factors)
            + " ; 0 ; 0\n")


NOTHING = r"\Z"           # the stdout of a command that ends in its error


def derive(plan, n, pattern):
    """A row deriving ``plan`` against the free table on n lines."""
    return (("derive", "p.plan", "free.cfg"),
            {"p.plan": plan, "free.cfg": f"arrangement free\nlines {n}\n"}, 2, NOTHING, pattern)


def refused(command, name, text, pattern):
    """A row running ``command`` on the file ``name``, given as its text,
    which ends in the error ``pattern``."""
    return (command, name), {name: text}, 2, NOTHING, pattern


def aut(table, pattern):
    """A row listing the automorphism group of ``table``, given as its text."""
    return refused("aut", "t.cfg", table, pattern)


def drawn(command, text, first_line):
    """A row running ``lattice`` or ``render`` on the arrangement ``text``,
    which succeeds and prints ``first_line`` first."""
    out = ("-o", "a.svg") if command == "render" else ()
    return (command, "a.arr", *out), {"a.arr": text}, 0, re.escape(first_line + "\n"), ""


def wide_entries(power):
    """chain_plan(9) with lines 5-7 over 639 nines and 639 eights to ``power``:
    against the table below, its factors are all discarded, and the message
    that lists them used to print each whole."""
    nines, eights = "9" * 639, f"({'8' * 639})^{power}"
    return (chain_plan(9).replace("1 ; t ; 2", f"{nines} ; {eights}*t ; 2")
            .replace("t ; 1 ; 3", f"{eights}*t ; {nines} ; 3")
            .replace("2 ; 3 ; t", f"2 ; {nines} ; {eights}*t"))


def wide(power, pattern):
    """A row deriving wide_entries(power), whose one error line is ``pattern``
    and under 400 characters."""
    return (("derive", "p.plan", "x.cfg"), {"p.plan": wide_entries(power),
            "x.cfg": "arrangement x\nlines 9\npoint p : 1 3 9\n"}, 2, NOTHING,
            r"(?=error: [^\n]{,390}\n\Z)error: zero admissible factors: no candidate "
            r"realizes the target lattice \(discarded: \[\('" + pattern + r"'.*\n")


def free(n, points=""):
    """The table on n lines whose only multiple point, if any, is ``points``."""
    return f"arrangement free\nlines {n}\n{points}"


DOUBLES = "arrangement doubles\nfield sqrt 5\n" + "".join(   # no three concurrent
    f"line {k} : 1 ; {k} ; {k * k}+1w\n" for k in range(1, 1025))
RADICAND = "arrangement big\nfield sqrt {}\nline 1 : 1 ; 0 ; 0\n"
PENCIL = "arrangement pencil\nfield rational\n" + "".join(
    f"line {k} : 1 ; {k} ; 0\n" for k in range(1, 1025))
ON_EVERY_LINE = "point p : " + " ".join(map(str, range(1, 1025))) + "\n"
TRIANGLE = "arrangement triangle\nfield rational\nline 1 : 1 ; 0 ; 0\nline 2 : 0 ; 1 ; 0\n" \
    "line 3 : 0 ; 0 ; 1\n"


# COFACTOR_PLAN with the cofactor t - (639 nines)^8, and the table of its
# realization at the root of t^2 - t - 1
COFACTOR = {"c.plan": COFACTOR_PLAN.replace("COFACTOR", "t - " + "9" * 639 + "^8"),
            "c.cfg": "arrangement cofactor\nlines 6\npoint m1 : 1 3 5\npoint m2 : 2 4 6\n"}
DISCARDED = "a value with integers of up to 5112 digits", "not common to all requirements"


# The requirement leaves (t^2 - t - 1)(t^3 - 2): at the roots of t^3 - 2,
# line 5 is line 1.  With line 5 as x + t*y = (t^3 - 2)*z, every root of the
# cubic realizes the table; 195 more lines leave the cubic too costly to decide.
REPRO = """\
plan repro over t
lines 5
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; t^3-2 ; (t^2-t-1)*(t^3-2)
point P : meet 1 3
require P on 5
"""
REPRO_TABLE = "arrangement m\nlines 5\npoint m1 : 1 3 5\n"
REALIZING = REPRO.replace("1 ; t^3-2 ; (t^2-t-1)*(t^3-2)", "1 ; t ; t^3-2")
MANY_LINES = REALIZING.replace("lines 5", "lines 200").replace(
    "point P", "".join(f"line {k} : 1 ; {k} ; {k * k + 7}\n" for k in range(6, 201)) + "point P")
MANY_LINES_TABLE = REPRO_TABLE.replace("lines 5", "lines 200")
# REALIZING with the requirement t^2 - t - 1 and 995 constant lines in general
# position: its one candidate reaches the check at the root, on 1,000 lines,
# whose lattice there is the table's one point, [0:0:1] on lines 1, 3 and 5.
# Line 5 is x + (1 + sqrt 5)/2*y = 0 there, and no line k meets a grid line
# where another line does.
WIDE = MANY_LINES.replace("1 ; t ; t^3-2", "1 ; t ; t^2-t-1").replace(
    "lines 200", "lines 1000").replace("point P", "".join(
        f"line {k} : 1 ; {k} ; {k * k + 7}\n" for k in range(201, 1001)) + "point P")
WIDE_TABLE = REPRO_TABLE.replace("lines 5", "lines 1000")


TOO_LARGE = (r"error: automorphism group of order {} on {} lines is too large "
             r"to list \(over 4194304 entries\)\n")
DEEP = "(" * 65 + "t" + ")" * 65         # one level above MAX_NESTING


# (command line, {file name: text}, exit code, stdout pattern matched at its
# start, stderr pattern matched whole)
ROWS = {
    **{f"{k} factors of BIG": derive(
        product_plan(k), 4, r"error: line 3: coefficients above 136128 bits in '\(9+'\.\.\.\n")
       for k in (10, 20, 40)},
    **{f"constant chain of {n} lines": derive(
        constant_chain_plan(n), n,
        r"error: the meet or join of points P29,Q29 has coefficients above 136128 bits\n")
       for n in (30, 34, 38)},
    "chain of 21 lines": derive(
        chain_plan(21), 21, r"error: the meet or join of points P16,Q16 has degree above 64\n"),
    # every discarded factor was printed whole: 1,486 characters, and past
    # 4,300 digits a ValueError traceback
    "derive of 639-digit entries": wide(1, r"(?:296){20}\.\.\."),
    "derive of 5112-digit entries": wide(8, r"a value with integers of up to 5112 digits"),
    # the discarded cofactor, past the 4,300 digits str() writes, was a
    # ValueError traceback with exit 1, as text and with --json
    "derive of a 5112-digit cofactor": (
        ("derive", "c.plan", "c.cfg"), COFACTOR, 0,
        r"constraint: t\^2 - t - 1\n(?:.*\n){3}discarded %s: %s\n\Z" % DISCARDED, ""),
    "derive --json of a 5112-digit cofactor": (
        ("derive", "--json", "c.plan", "c.cfg"), COFACTOR, 0,
        r'(?s)\{\n  "plan": "cofactor",.*"discarded": \[\s*\[\s*"%s",\s*"%s"\s*\]\s*\]\s*\}\n\Z'
        % DISCARDED, ""),
    # a gcd with a square-free part of degree 5 or 3, decided by gcds: it was
    # refused as "irreducible factor of degree 3"
    "derive of a cubic whose roots make lines 1 and 5 coincide": (
        ("derive", "r.plan", "m.cfg"), {"r.plan": REPRO, "m.cfg": REPRO_TABLE}, 0,
        r"constraint: t\^2 - t - 1\n(?:.*\n){3}discarded t\^3 - 2: lines 1,5 coincide\n\Z", ""),
    "derive of a cubic every root of which realizes the table": (
        ("derive", "r.plan", "m.cfg"), {"r.plan": REALIZING, "m.cfg": REPRO_TABLE}, 2, NOTHING,
        r"error: every root of t\^3 - 2 realizes the table; only factors of degree 1 "
        r"and 2 are supported\n"),
    "derive of a cubic on 200 lines": (
        ("derive", "r.plan", "m.cfg"), {"r.plan": MANY_LINES, "m.cfg": MANY_LINES_TABLE}, 2,
        NOTHING, r"error: deciding t\^3 - 2 by gcds on 200 lines is too much work\n"),
    # no structure may hold all 499,500 pairs or all their meets at once
    "derive on 1000 lines checked at the root": (
        ("derive", "w.plan", "w.cfg"), {"w.plan": WIDE, "w.cfg": WIDE_TABLE}, 0,
        r"constraint: t\^2 - t - 1\nfield: Q\(sqrt 5\)\n", ""),
    # the error line quoted the whole name
    "pipeline of a 100000-character case name": (
        ("pipeline", "x" * 100000), {}, 2, NOTHING,
        r"(?=[^\n]{,249}\n\Z)error: unknown case 'x{60}'\.\.\.; known: \{1\}, .*\n"),
    "65 nested parentheses": derive(
        f"plan deep over t\nlines 4\nline 1 : {DEEP} ; 0 ; 0\n", 4,
        r"error: line 3: parentheses nested deeper than 64 in '\(+'\.\.\.\n"),
    **{f"aut of PG(2,{q})": aut(projective_plane(q).serialize(),
                                TOO_LARGE.format(f"at least {order}", n))
       for q, order, n in ((13, 24336, 183), (31, 864900, 993))},
    # with no multiple point, or one on every line, every permutation is an
    # automorphism: listing S_11 raised MemoryError, and the first path of
    # 1,024 lines filled 4.6 GiB, then 196 MiB
    **{f"aut of the free table on {n} lines": aut(free(n), TOO_LARGE.format(order, n))
       for n, order in ((10, "3628800"), (11, "at least 3628800"),
                        (200, "at least 40320"), (1024, "at least 5040"))},
    "aut of the pencil on 1024 lines": aut(
        free(1024, ON_EVERY_LINE), TOO_LARGE.format("at least 5040", 1024)),
    "lattice of 1024 lines over Q(sqrt 5)": drawn(
        "lattice", DOUBLES, "lattice of doubles: 523776 of multiplicity 2"),
    "render of 1024 lines over Q(sqrt 5)": drawn(
        "render", DOUBLES, "wrote a.svg (1024 segment(s), 0 marker(s))"),
    "lattice of the pencil on 1024 lines": drawn(
        "lattice", PENCIL, "lattice of pencil: 1 of multiplicity 1024"),
    "render of the pencil on 1024 lines": drawn(
        "render", PENCIL, "wrote a.svg (1024 segment(s), 1 marker(s))"),
    # no prime below 1,000 divides it twice, and it is no square: it names its
    # field (once refused as beyond a factoring budget)
    "lattice of a radicand of 640 sevens": drawn(
        "lattice", RADICAND.format("7" * 640), "lattice of big: no intersection points"),
    "lattice of a radicand of 1 and 639 zeros": refused(
        "lattice", "a.arr", RADICAND.format("1" + "0" * 639),
        r"error: line 2: bad field \(d=10{59}\.\.\. is not square-free\)\n"),
    "parse of a 640-digit line count": refused(
        "parse", "t.cfg", "arrangement big\nlines " + "9" * 640 + "\n",
        r"error: line count must be in 1\.\.1024, not 9{60}\.\.\.\n"),
    # the table's check that two lines meet once kept one entry per pair of a
    # point, C(1024, 2) of them: MemoryError under 64 MiB
    "parse of one point on 1024 lines": (
        ("parse", "one.cfg"), {"one.cfg": "arrangement one\nlines 1024\n" + ON_EVERY_LINE}, 0,
        re.escape("arrangement one: 1024 lines, 1 point(s) of multiplicity 1024, 0 double(s)\n"),
        ""),
    # Fraction("1e999999999") would build a number of about 415 MB
    "render with a viewport of 1e999999999": (
        ("render", "a.arr", "--viewport=0,0,1e999999999,1", "-o", "a.svg"),
        {"a.arr": TRIANGLE}, 2, NOTHING,
        re.escape("error: bad viewport '0,0,1e999999999,1': exponent above 999\n")),
}
# These rows need under 24 MiB and keep the 64 MiB they were first checked
# under; the others have MEMORY.
MEMORY_OF = dict.fromkeys(("aut of the free table on 1024 lines", "aut of the pencil on 1024 lines",
                           "lattice of the pencil on 1024 lines",
                           "parse of one point on 1024 lines"), 64 << 20)


@pytest.mark.parametrize("row", ROWS)
def test_commands_end_within_the_limits(tmp_path, row):
    argv, files, code, out, err = ROWS[row]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(arrsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    assert set(MEMORY_OF) <= set(ROWS)
    memory = MEMORY_OF.get(row, MEMORY)
    assert memory <= MEMORY
    done = subprocess.run([sys.executable, "-m", "arrsym", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limited(memory))
    assert done.returncode == code, done.stderr
    assert re.match(out, done.stdout), done.stdout[:200]
    assert re.fullmatch(err, done.stderr), done.stderr
