"""Budgets as tests: hostile inputs, run by the command line in a child
process under one limit on CPU time and one on address space, must end in
their error.  The limits are the same for every row: 5 s of CPU and 128 MiB
of address space.  Each ``derive`` row and every other ``aut`` row (PG(2,13),
the free table and the pencil on 1,024 lines) take about 0.1 s of CPU and
end in their error under 24 MiB, ``aut`` of PG(2,31), the largest, about
0.5 s and under 52 MiB: the limits are at least ten times the time and
twice the memory any row needs.  A regression then fails its row instead of
hanging the suite."""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import arrsym

from conftest import chain_plan, constant_chain_plan, projective_plane

CPU_SECONDS, MEMORY = 5, 128 << 20
BIG = "(" + "9" * 640 + ")^64"        # the largest literal to the largest power


def _limited():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def product_plan(factors):
    """A plan whose first entry multiplies ``factors`` copies of BIG."""
    return ("plan big over t\nlines 4\nline 1 : " + "*".join([BIG] * factors)
            + " ; 0 ; 0\n")


def derive(plan, n, pattern):
    """A row deriving ``plan`` against the free table on n lines."""
    return (("derive", "p.plan", "free.cfg"),
            {"p.plan": plan, "free.cfg": f"arrangement free\nlines {n}\n"}, 2, pattern)


def aut(table, pattern):
    """A row listing the automorphism group of ``table``, given as its text."""
    return ("aut", "t.cfg"), {"t.cfg": table}, 2, pattern


TOO_LARGE = (r"error: automorphism group of order at least {} on {} lines is too large "
             r"to list \(over 4194304 entries\)\n")
DEEP = "(" * 65 + "t" + ")" * 65         # one level above MAX_NESTING


# (command line, {file name: text}, exit code, stderr pattern)
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
    "65 nested parentheses": derive(
        f"plan deep over t\nlines 4\nline 1 : {DEEP} ; 0 ; 0\n", 4,
        r"error: line 3: parentheses nested deeper than 64 in '\(+'\.\.\.\n"),
    **{f"aut of PG(2,{q})": aut(projective_plane(q).serialize(), TOO_LARGE.format(order, n))
       for q, order, n in ((13, 24336, 183), (31, 864900, 993))},
    **{f"aut of the {name} on 1024 lines": aut(
        f"arrangement {name}\nlines 1024\n{points}", TOO_LARGE.format(5040, 1024))
       for name, points in (("free", ""),
                            ("pencil", "point p : " + " ".join(map(str, range(1, 1025))) + "\n"))},
}


@pytest.mark.parametrize("row", ROWS)
def test_commands_end_within_the_limits(tmp_path, row):
    argv, files, code, pattern = ROWS[row]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(arrsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "arrsym", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limited)
    assert (done.returncode, done.stdout) == (code, "")
    assert re.fullmatch(pattern, done.stderr), done.stderr
