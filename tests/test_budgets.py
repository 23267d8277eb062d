"""Budgets as tests: hostile inputs, run by the command line in a child
process under one limit on CPU time and one on address space, must end in
their error.  The limits are the same for every row: 5 s of CPU, more than
twenty times what any row takes, and 128 MiB of address space, more than
five times what any row needs (each ends in its error under 24 MiB).  A
regression then fails its row instead of hanging the suite."""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import arrsym

from conftest import constant_chain_plan

CPU_SECONDS, MEMORY = 5, 128 << 20
BIG = "(" + "9" * 640 + ")^64"        # the largest literal to the largest power


def _limited():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def product_plan(factors):
    """A plan whose first entry multiplies ``factors`` copies of BIG."""
    return ("plan big over t\nlines 4\nline 1 : " + "*".join([BIG] * factors)
            + " ; 0 ; 0\n")


# (plan text, line count of the free table, exit code, stderr pattern)
ROWS = {
    **{f"{k} factors of BIG": (product_plan(k), 4, 2,
                               r"error: line 3: coefficients above 136128 bits in '\(9+'\.\.\.\n")
       for k in (10, 20, 40)},
    **{f"constant chain of {n} lines": (
        constant_chain_plan(n), n, 2,
        r"error: the meet or join of points P29,Q29 has coefficients above 136128 bits\n")
       for n in (30, 34, 38)},
}


@pytest.mark.parametrize("row", ROWS)
def test_derive_ends_within_the_limits(tmp_path, row):
    plan, n, code, pattern = ROWS[row]
    (tmp_path / "p.plan").write_text(plan)
    (tmp_path / "free.cfg").write_text(f"arrangement free\nlines {n}\n")
    src = str(Path(arrsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "arrsym", "derive", "p.plan", "free.cfg"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limited)
    assert (done.returncode, done.stdout) == (code, "")
    assert re.fullmatch(pattern, done.stderr), done.stderr
