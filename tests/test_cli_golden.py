"""Byte-identity of the command-line output on the corpus.

``cli_golden.json`` holds one sha256 digest per command: of its exit code,
stdout, stderr and, for ``render``, the SVG it writes.  The commands run in
a directory holding the exported corpus files, the realized "+" and "-"
components of each case (``<stem>+.arr``, ``<stem>-.arr``) and the Fermat
arrangements A(m,m,3) for m = 2, 3, 4, 6 (``fermat-<m>.arr``, ``.cfg``); the
digests of those generated files are recorded too.  The recorded keys are
the commands, so a failing test names the one whose output changed.

A change that alters the output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its log which commands changed.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from arrsym import corpus
from arrsym.cli import main
from arrsym.combinatorics import automorphism_group, involutions
from arrsym.fields import QuadExt
from arrsym.moduli import derive_constraint, realize_components
from conftest import fermat_arrangement, fermat_table

GOLDEN = Path(__file__).with_name("cli_golden.json")
FERMAT = (2, 3, 4, 6)
SVG = "out.svg"


def write_inputs(directory: Path) -> dict:
    """Write every input file into directory; returns {name: sha256}."""
    corpus.export_data(directory)
    for name in corpus.list_cases():
        case = corpus.get_case(name)
        stem = corpus._SPECS[name].stem
        plus, minus = realize_components(case.plan, derive_constraint(case.plan, case.config))
        (directory / f"{stem}+.arr").write_text(plus.serialize())
        (directory / f"{stem}-.arr").write_text(minus.serialize())
    for m in FERMAT:
        (directory / f"fermat-{m}.arr").write_text(fermat_arrangement(m).serialize())
        (directory / f"fermat-{m}.cfg").write_text(fermat_table(m).serialize())
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def commands() -> list[str]:
    """Every command recorded, as shell words."""
    out = [["cases"], ["pipeline", "all"]]
    for name in corpus.list_cases():
        case = corpus.get_case(name)
        stem = corpus._SPECS[name].stem
        cfg, plus, minus = f"{stem}.cfg", f"{stem}+.arr", f"{stem}-.arr"
        out += [["pipeline", name], ["parse", cfg], ["aut", cfg],
                ["derive", f"{stem}.plan", cfg], ["lattice", plus], ["lattice", minus]]
        sigmas = [g.cycle_string() for g in involutions(automorphism_group(case.config))]
        for sigma in sigmas + ["id", "(1 2)"]:
            out += [["verify", plus, minus, "--sigma", sigma, *conj]
                    for conj in ([], ["--conjugate"])]
        for a, b in ((plus, minus), (minus, plus), (plus, plus)):
            out += [["extract-sigma", a, b, *conj] for conj in ([], ["--conjugate"])]
        out += render_commands(plus, case.config.n) + render_commands(minus, case.config.n)
    for m in FERMAT:
        arr, cfg, n = f"fermat-{m}.arr", f"fermat-{m}.cfg", 3 + 3 * m
        out += [["parse", cfg], ["aut", cfg], ["lattice", arr]]
        out += [["extract-sigma", arr, arr, *conj] for conj in ([], ["--conjugate"])]
        out += render_commands(arr, n)
    return [shlex.join(c + flag) for c in out for flag in ([], ["--json"])
            if c[0] != "render" or not flag]


def render_commands(arr: str, n: int) -> list[list[str]]:
    infinity = [[]] + [["--infinity", str(k)] for k in (1, 2, n)]
    return [["render", arr, *inf, "-o", SVG] for inf in infinity]


def digest(command: str) -> str:
    """sha256 of the command's exit code, stdout, stderr and written SVG,
    run in the current directory."""
    svg = Path(SVG)
    if svg.exists():
        svg.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(shlex.split(command))
    written = svg.read_text() if svg.exists() else None
    record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            recorded = {command: digest(command) for command in commands()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps({"files": files, "commands": recorded}, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(files)} files, {len(recorded)} commands")


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"files": {},
                                                                 "commands": {}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    return directory, write_inputs(directory)


def test_the_golden_file_covers_every_command():
    assert len(RECORDED["commands"]) > 300
    assert sorted(RECORDED["commands"]) == sorted(commands())


def test_input_files_are_byte_identical(inputs):
    _, files = inputs
    assert files == RECORDED["files"]


@pytest.mark.parametrize("command", sorted(RECORDED["commands"]))
def test_command_output_is_byte_identical(command, inputs, monkeypatch):
    directory, _ = inputs
    monkeypatch.chdir(directory)
    assert digest(command) == RECORDED["commands"][command], command


# Every QuadExt arithmetic operator.  The package computes on integer keys
# and builds QuadExt values only to read, print or draw them.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")


def test_no_command_does_quadext_arithmetic(inputs, monkeypatch):
    directory, _ = inputs           # built before the operators are disabled
    monkeypatch.chdir(directory)

    def refuse(*args):
        raise AssertionError("QuadExt arithmetic in a command")

    for name in ARITHMETIC:
        monkeypatch.setattr(QuadExt, name, refuse)
    changed = [command for command, recorded in RECORDED["commands"].items()
               if digest(command) != recorded]
    assert changed == []


if __name__ == "__main__":
    regenerate()
