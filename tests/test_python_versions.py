"""The command line prints the same bytes under every supported Python.

``pyproject.toml`` claims ``>=3.10`` while the suite runs under one
interpreter.  This test runs ``arrsym pipeline all``, and ``arrsym aut`` on
the ``{7}`` and MacLane tables, which prints the search's generators, as
text and with ``--json``, under each other 3.10+ interpreter it finds:
``python3.N`` on ``PATH``, or beside this interpreter's installation
(``<prefix>/../*/bin``).
A candidate counts only if it starts and reports version 3.N; a version
manager's shim for a version it has not selected does not.  Exit code and
stdout must equal this interpreter's, byte for byte.  Without another
interpreter the test is skipped.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "arrsym" / "corpus" / "data"
RUNS = (("pipeline", "all"), ("aut", str(DATA / "case-7.cfg")), ("aut", str(DATA / "maclane.cfg")))
COMMANDS = tuple(run + flag for run in RUNS for flag in ((), ("--json",)))
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _is_version(executable, minor: int) -> bool:
    try:
        out = subprocess.run([executable, "-c", "import sys; print(sys.version_info[:2])"],
                             capture_output=True, text=True, timeout=60)
    except OSError:
        return False
    return out.returncode == 0 and out.stdout.strip() == str((3, minor))


def other_interpreters() -> dict:
    """3.N -> the first candidate that runs as 3.N, for each N >= 10 but this one's."""
    installs = Path(sys.base_prefix).parent
    found = {}
    for minor in range(10, 20):
        if minor == sys.version_info.minor:
            continue
        named = f"python3.{minor}"
        for executable in [*sorted(installs.glob(f"*/bin/{named}")), shutil.which(named)]:
            if executable and _is_version(executable, minor):
                found[f"3.{minor}"] = executable
                break
    return found


def outputs(executable) -> list:
    return [(out.returncode, out.stdout)
            for out in (subprocess.run([executable, "-m", "arrsym", *argv], env=ENV,
                                       capture_output=True, timeout=120)
                        for argv in COMMANDS)]


def test_pipeline_output_is_the_same_under_every_other_python():
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10+ interpreter found")
    expected = outputs(sys.executable)
    assert [code for code, _ in expected] == [0] * len(COMMANDS)
    assert {version: outputs(executable) == expected
            for version, executable in others.items()} == dict.fromkeys(others, True)
