"""The benchmark in ``perfbench/`` still runs on this tree.

The suite collects ``tests`` only, so a change to ``src/`` that removes a
name the benchmark reads (a ``QuadExt`` operator, ``case.sigma``,
``witness.SWAP``, ``Poly.divides``...) would otherwise show only when the
benchmark itself is run.  A child process, with ``perfbench`` on its path
and ``src`` put there by ``run.import_workloads`` as in a benchmark run,
sets up every workload, runs each job once untraced, once under the
tracer's spans and counters and once under its operator counts, and
requires every job to pass.  This process imports nothing from
``perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json
import run

workloads = run.import_workloads()
import tracer as tracing

jobs = [job for setup in workloads.SETUP.values() for job in setup()]
tracer = tracing.Tracer()
for install in (lambda: None, tracer.install, tracer.install_operator_counts):
    install()
    try:
        failed = [job.label for job in jobs if not job.run()]
    finally:
        tracer.uninstall()
    assert not failed, failed
print(json.dumps(sorted(workloads.SETUP)))
"""


def test_every_benchmark_job_passes_on_this_tree():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert json.loads(out.stdout) == sorted(w["name"] for w in declared)
