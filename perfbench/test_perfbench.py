"""Tests of the benchmark itself: its pinned outputs, its exact counters, its
tail percentile and the metrics it reports.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os

import pytest

import run

workloads = run.import_workloads()

import fermat  # noqa: E402  (needs the path set by import_workloads)
import tracer as tracing  # noqa: E402


def traced_pass(jobs, seed=1):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run.Passes(jobs, seed, on_job=tracer.start_job).run(0)
    finally:
        tracer.uninstall()
    return tracer, passes


def span_calls(tracer, label, name):
    ids = {j for j, lab in enumerate(tracer.labels) if lab == label}
    return sum(1 for span in tracer.spans if span[0] == name and span[4] in ids)


@pytest.fixture(scope="module")
def corpus_jobs():
    return workloads.setup_corpus()


def test_corpus_counts_repeat_exactly_and_match_the_seed(corpus_jobs):
    first, passes = traced_pass(corpus_jobs, seed=1)
    second, _ = traced_pass(corpus_jobs, seed=2)
    assert passes.failed == 0
    assert first.counts == second.counts
    assert first.job_counts("{7}")["combinatorics.leaf_checks"] == 1152
    assert first.job_counts("maclane")["combinatorics.leaf_checks"] == 384
    assert first.job_counts("maclane")["witness.attempts"] == 672
    assert span_calls(first, "maclane", "witness.verify_reflection") == 26
    for job in corpus_jobs:
        assert span_calls(first, job.label, "moduli.evaluate_plan") == 4


def test_operator_counts_repeat_exactly():
    jobs = workloads.setup_exact_geometry()
    totals = []
    for seed in (1, 2):
        counting = tracing.Tracer()
        counting.install_operator_counts()
        try:
            assert run.Passes(jobs, seed, on_job=counting.start_job).run(0).failed == 0
        finally:
            counting.uninstall()
        totals.append(counting.counts)
    assert totals[0] == totals[1]
    names = {name for _, name in totals[0]}
    assert "fields.quadext.mul" in names and names <= set(tracing.OPERATORS.values())


def test_tracer_restores_the_library():
    import arrsym.witness
    from arrsym.fields import QuadExt
    before = (arrsym.witness.run_case, arrsym.witness.lattice_of, QuadExt.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.install_operator_counts()
    assert arrsym.witness.run_case is not before[0]
    tracer.uninstall()
    assert (arrsym.witness.run_case, arrsym.witness.lattice_of, QuadExt.__mul__) == before


def test_geometry_jobs_check_their_outputs():
    assert run.Passes(workloads.setup_exact_geometry(), 1).run(0).failed == 0


def test_fermat_aut_jobs_check_their_outputs():
    assert [job.run() for job in workloads.setup_fermat_aut()] == [True, True]


def test_fermat_aut_pins_a443():
    """A(4,4,3) is too slow for the timed workload (6-25 s); its pins hold."""
    for m, pinned in workloads.FERMAT_AUT_SLOW.items():
        assert workloads._aut(fermat.fermat_table(fermat.fermat_arrangement(m), m), pinned)


@pytest.mark.parametrize("m", sorted(fermat.CENSUS))
def test_fermat_swap_sigma_is_an_involution_of_the_table(m):
    arrangement = fermat.fermat_arrangement(m)
    table = fermat.fermat_table(arrangement, m)
    sigma = fermat.swap_sigma(m)
    assert sigma.is_involution
    assert workloads.combinatorics.is_lattice_isomorphism(table, table, sigma)


def test_a_wrong_pin_fails_the_job():
    case = workloads.corpus.get_case("{1}")
    wrong = workloads.Job("{1}", lambda: workloads._aut(case.config, (3, 1)))
    passes = run.Passes([wrong], 1).run(0)
    assert (passes.jobs, passes.failed) == (1, 1)


@pytest.mark.parametrize("n, expected", [(9, 100.0), (19, 100.0), (20, 50.0), (100, 90.0),
                                          (200, 95.0), (999, 95.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    pct, value = run.tail([float(k) for k in range(1, n + 1)])
    assert pct == expected
    assert n - value >= 10 or pct == 100.0


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_runs_report_the_declared_metrics():
    _, metrics = run.end_to_end(workloads, "fermat-aut", 1, 0)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    _, metrics = run.traced_run("fermat-aut", 1, 0)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
