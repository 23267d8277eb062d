"""Benchmark for arrsym: one closed-loop client running one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process runs one workload, with one client and no threads: it
sets the workload up, then runs whole passes over its jobs (every job once,
in an order drawn from ``--seed``) for about ``--seconds``, checking every
job's output against pinned values.

Times are relative to a fixed reference job that runs once in every pass:
each job's time in a pass is divided by the reference's time in the same
pass, and a job's latency is the median of these ratios, read in ms of a
machine on which the reference takes REFERENCE_MS.  This cancels the
drift of a shared machine's speed within a run and between runs; see
README.md.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
blocks of untraced and traced passes (spans and counters recorded by
``tracer.py``), then makes one pass counting QuadExt operators, and reports
the per-layer metrics; the spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
restate the figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACES = os.path.join(HERE, "traces")
WORKLOADS = ("corpus", "fermat-aut", "exact-geometry")

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 15
# The reference takes 30-65 ms, near a typical job, so that it sees the
# same stretch of the machine's speed as the jobs of its pass.
REFERENCE_STEPS = 4500
# Nominal time of the reference (ms): times read as on a machine on which
# it takes this long.
REFERENCE_MS = 30.0
# A trace run alternates this many blocks of untraced and traced passes.
TRACE_BLOCKS = 10
# Candidates for the tail percentile, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The scalar microbenchmark: repetitions of N multiply-adds.
MUL_ADD_REPEATS, MUL_ADD_N = 15, 2000


def import_workloads():
    if not os.path.isfile(os.path.join(SRC, "arrsym", "__init__.py")):
        sys.exit(f"arrsym sources not found: run from the root of a checkout ({SRC})")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


# -- running ----------------------------------------------------------------

class Passes:
    """Whole passes over the jobs, each in an order drawn from the seed, with
    the reference run once in every pass at a place drawn the same way.
    Samples accumulate over calls of ``run``: ``latencies[label][p]`` (ns)
    and ``reference_ms[p]`` come from pass ``p``.  ``on_job`` is called
    with each job's label before it runs."""

    def __init__(self, jobs, seed: int, on_job=None) -> None:
        self._jobs, self._rng, self._on_job = list(jobs), random.Random(seed), on_job
        self.latencies: dict[str, list[int]] = defaultdict(list)
        self.reference_ms: list[float] = []
        self.jobs = self.failed = 0
        self.elapsed = 0.0

    def run(self, seconds: float, between=None) -> "Passes":
        """Passes for about ``seconds`` more: a new pass starts only if, at
        the length of the last one, it would end in time; at least one pass
        runs.  ``between`` is called with the elapsed seconds before each
        pass, off the clock."""
        spent = last = 0.0
        while spent == 0 or spent + last <= seconds:
            if between is not None:
                between(self.elapsed + spent)
            order = self._jobs + [None]         # None: the reference
            self._rng.shuffle(order)
            start = time.perf_counter()
            for job in order:
                if job is None:
                    self.reference_ms.append(reference_ms())
                    continue
                if self._on_job is not None:
                    self._on_job(job.label)
                t0 = time.perf_counter_ns()
                try:
                    ok = job.run()
                except Exception:
                    traceback.print_exc()
                    ok = False
                self.latencies[job.label].append(time.perf_counter_ns() - t0)
                self.jobs += 1
                self.failed += not ok
            last = time.perf_counter() - start
            spent += last
        self.elapsed += spent
        return self

    def relative(self, per_pass_ms) -> float:
        """The median over the passes of a job's ``per_pass_ms[p]`` over the
        reference's time in pass ``p``, times REFERENCE_MS: ms on a machine
        on which the reference takes REFERENCE_MS."""
        return REFERENCE_MS * statistics.median(
            t / r for t, r in zip(per_pass_ms, self.reference_ms, strict=True))

    def relative_ms(self) -> dict[str, float]:
        """Each job's latency, relative to the reference."""
        return {label: self.relative([t / 1e6 for t in ns])
                for label, ns in self.latencies.items()}

    def jobs_per_s(self, job_ms: dict[str, float]) -> float:
        """Correct jobs per second, with every job at the given time."""
        return len(job_ms) / (sum(job_ms.values()) / 1e3) * (1 - self.failed / self.jobs)


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile with at least
    ten samples beyond it, by nearest rank; the maximum (100) when fewer
    than twenty samples leave none."""
    n = len(sorted_ms)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * 10) * n // 1000))       # ceil(p% of n)
        if n - rank >= 10:
            return p, sorted_ms[rank - 1]
    return 100.0, sorted_ms[-1]


def reference() -> None:
    """The yardstick: fixed work in the library's mix of exact rational
    arithmetic, tuples, sets and dicts, using only the standard library."""
    seen: dict[frozenset, int] = {}
    for i in range(REFERENCE_STEPS):
        a, b = Fraction(i % 17 - 8, i % 5 + 1), Fraction(i % 7 + 1, i % 11 + 2)
        c = a * b + a / b - b
        key = frozenset((c.numerator % 31, c.denominator % 29, i % 7))
        seen[key] = seen.get(key, 0) + 1


def reference_ms() -> float:
    t0 = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - t0) / 1e6


class SetupProbes:
    """Set-up timed in fresh interpreters, spread over the run, each probe
    kept as its ratio to the reference like a job's time."""

    def __init__(self, workload: str, seconds: float) -> None:
        self.workload, self.seconds = workload, seconds
        self.samples: list[float] = []      # raw seconds
        self.ratios: list[float] = []       # seconds per reference ms

    def probe(self) -> None:
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--setup-probe", self.workload],
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, ratio = map(float, out.stdout.split()[-2:])
        self.samples.append(seconds)
        self.ratios.append(ratio)

    def due(self, elapsed: float) -> None:
        while (len(self.samples) < SETUP_PROBES
               and elapsed >= len(self.samples) * self.seconds / SETUP_PROBES):
            self.probe()

    def setup_s(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return REFERENCE_MS * statistics.median(self.ratios)


def setup_probe(workload: str) -> None:
    """Time importing arrsym and building the workload's inputs, in this
    fresh interpreter, and print the seconds and their ratio to the mean of
    two runs of the reference around them.  The reference runs once before
    those to warm up: its first run in a fresh interpreter is up to 10x
    slower.  (Runs of the reference in the parent process instead spread
    the ratios 3-8x wider: the child need not run on the parent's CPU.)"""
    reference_ms()
    before = reference_ms()
    t0 = time.perf_counter()
    import_workloads().SETUP[workload]()
    seconds = time.perf_counter() - t0
    after = reference_ms()
    print(seconds, seconds / ((before + after) / 2))


def mul_add_us() -> float:
    """One multiply plus one add on fixed Q(sqrt -3) operands, in µs
    relative to the reference: each repetition is bracketed by two runs of
    the reference and divided by their mean; the median is reported."""
    from arrsym import FieldSpec, QuadExt
    field = FieldSpec.quadratic(-3)
    x = QuadExt(Fraction(3, 7), Fraction(-5, 11), field)
    y = QuadExt(Fraction(-2, 9), Fraction(4, 13), field)
    z = QuadExt(Fraction(1, 5), Fraction(6, 17), field)
    ratios = []
    for _ in range(MUL_ADD_REPEATS):
        before = reference_ms()
        t0 = time.perf_counter_ns()
        for _ in range(MUL_ADD_N):
            x * y + z
        us = (time.perf_counter_ns() - t0) / MUL_ADD_N / 1e3
        ratios.append(us / ((before + reference_ms()) / 2))
    return REFERENCE_MS * statistics.median(ratios)


# -- end to end ---------------------------------------------------------------

def end_to_end(workloads, workload: str, seed: int, seconds: float) -> tuple[list[Passes], dict]:
    """The untraced run.  A job's latency is the median over the run's
    passes of its time relative to the reference's in the same pass."""
    probes = SetupProbes(workload, seconds)
    run = Passes(workloads.SETUP[workload](), seed).run(seconds, between=probes.due)
    latency = run.relative_ms()
    ordered = sorted(latency.values())
    pct, tail_ms = tail(ordered)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = probes.setup_s()
    print(f"{workload}: {run.jobs} jobs in {run.elapsed:.2f} s, {run.failed} failed, "
          f"error_rate {run.failed / run.jobs:.4f} ratio")
    print(f"  reference median {statistics.median(run.reference_ms):.4f} ms "
          f"over {len(run.reference_ms)} passes")
    print(f"  median latency per job (raw ms): "
          + ", ".join(f"{label} {statistics.median(ns) / 1e6:.3f}"
                      for label, ns in sorted(run.latencies.items())))
    print(f"  relative to the reference: p50 {statistics.median(ordered):.3f} ms, "
          f"p{pct:g} {tail_ms:.3f} ms over {len(ordered)} jobs")
    print(f"  set-up samples (raw): {', '.join(f'{s:.4f}' for s in sorted(probes.samples))} s")
    return [run], {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (run.jobs_per_s(latency), "1/s"),
        "latency_p50_ms": (statistics.median(ordered), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }


# -- traced -------------------------------------------------------------------

def relative_rows(tracer, times, traced: Passes) -> dict[str, Counter]:
    """Per job label, from ``Tracer.job_times``: each span's time in ms,
    relative to the reference like a job's latency, and each ``.calls``
    count of one job.  The label's traced jobs come one per pass, in order."""
    per_pass: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for job, label in enumerate(tracer.labels):
        for key, value in times.get(job, Counter()).items():
            per_pass[label][key].append(value)
    rows: dict[str, Counter] = {}
    for label, keys in per_pass.items():
        rows[label] = Counter({key: values[0] if key.endswith(".calls")
                               else traced.relative([ns / 1e6 for ns in values])
                               for key, values in keys.items()})
    return rows


def mean_count(tracer, name: str) -> float:
    """A counter per job, averaged over the workload's jobs."""
    runs = Counter(tracer.labels)
    return sum(tracer.job_counts(label)[name] / k for label, k in runs.items()) / len(runs)


def per_layer(tracer, counting, rows, setup, traced: Passes, untraced: Passes) -> dict:
    """Every per-layer metric: times and counts per job."""

    def per_job(key):
        return sum(row[key] for row in rows.values()) / len(rows)

    ms = per_job
    reference = statistics.median(untraced.reference_ms + traced.reference_ms)

    def count(name):
        return mean_count(tracer, name)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "combinatorics.automorphism_group.ms": (ms("combinatorics.automorphism_group"), "ms"),
        "combinatorics.leaf_checks": (count("combinatorics.leaf_checks"), "count"),
        "combinatorics.leaf_yield": (ratio(count("combinatorics.aut_elements"),
                                           count("combinatorics.leaf_checks")), "ratio"),
        "combinatorics.involutions.ms": (ms("combinatorics.involutions"), "ms"),
        "moduli.derive_constraint.ms": (ms("moduli.derive_constraint"), "ms"),
        "moduli.derive_constraint.self_ms": (ms("moduli.derive_constraint.self"), "ms"),
        "moduli.residual_numerators.ms": (ms("moduli.residual_numerators"), "ms"),
        "moduli.evaluate_plan.ms": (ms("moduli.evaluate_plan"), "ms"),
        "moduli.evaluate_plan.calls": (per_job("moduli.evaluate_plan.calls"), "count"),
        "moduli.realize_components.ms": (ms("moduli.realize_components"), "ms"),
        "polys.poly_reduce.ms": (ms("polys.poly_reduce"), "ms"),
        "polys.poly_reduce.calls": (per_job("polys.poly_reduce.calls"), "count"),
        "polys.factor_candidates": (count("polys.factor_candidates"), "count"),
        "geometry.lattice_of.ms": (ms("geometry.lattice_of"), "ms"),
        "geometry.lattice_of.calls": (per_job("geometry.lattice_of.calls"), "count"),
        "geometry.intersections": (count("geometry.intersections"), "count"),
        "fields.quadext.mul": (mean_count(counting, "fields.quadext.mul"), "count"),
        "fields.quadext.add": (mean_count(counting, "fields.quadext.add"), "count"),
        "fields.quadext.div": (mean_count(counting, "fields.quadext.div"), "count"),
        "fields.mul_add_us": (mul_add_us(), "us"),
        "witness.run_case.ms": (ms("witness.run_case"), "ms"),
        "witness.run_case.self_ms": (ms("witness.run_case.self"), "ms"),
        "witness.verify_reflection.ms": (ms("witness.verify_reflection"), "ms"),
        "witness.verify_reflection.calls": (per_job("witness.verify_reflection.calls"), "count"),
        "witness.verify_yield": (ratio(count("witness.verified"),
                                       per_job("witness.verify_reflection.calls")), "ratio"),
        "witness.extract_sigma.ms": (ms("witness.extract_sigma"), "ms"),
        "witness.attempts": (count("witness.attempts"), "count"),
        "corpus.get_case.ms": (setup["corpus.get_case"] / 1e6 * REFERENCE_MS / reference, "ms"),
        "trace.overhead_frac": (1 - traced.jobs_per_s(traced.relative_ms())
                                / untraced.jobs_per_s(untraced.relative_ms()), "ratio"),
    }


STAGES = ("witness.run_case", "combinatorics.automorphism_group", "moduli.derive_constraint",
          "moduli.realize_components", "geometry.lattice_of", "witness.extract_sigma",
          "witness.verify_reflection")
STAGE_COUNTS = ("combinatorics.leaf_checks", "witness.attempts")


def print_stages(tracer, traced: Passes, rows) -> None:
    """Per job label: the job's time and the time in each stage (ms,
    relative to the reference), then the exact calls and counters of one
    job."""
    latency = traced.relative_ms()
    names = ["job"] + [s.split(".")[1][:12] for s in STAGES]
    print("  per job, ms relative to the reference (traced):")
    print("    " + "label".ljust(16) + "".join(n.rjust(13) for n in names))
    for label, row in sorted(rows.items()):
        cells = [latency[label]] + [row[s] for s in STAGES]
        print("    " + label[:16].ljust(16) + "".join(f"{c:13.3f}" for c in cells))
    print("  per job, exact calls and counts:")
    for label, row in sorted(rows.items()):
        counts = tracer.job_counts(label)
        parts = [f"{s.split('.')[1]}={row[s + '.calls']}"
                 for s in STAGES + ("moduli.evaluate_plan",) if row[s + ".calls"]]
        parts += [f"{c.split('.')[1]}={counts[c] // len(traced.latencies[label])}"
                  for c in STAGE_COUNTS if counts[c]]
        print(f"    {label}: {', '.join(parts)}")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[list[Passes], dict]:
    workloads = import_workloads()
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs = workloads.SETUP[workload]()
    finally:
        tracer.uninstall()
    # traced and untraced passes alternate in blocks, so that a drift of the
    # machine's speed does not read as tracing overhead
    untraced = Passes(jobs, seed)
    traced = Passes(jobs, seed, on_job=tracer.start_job)
    for _ in range(TRACE_BLOCKS):
        untraced.run(seconds / TRACE_BLOCKS / 2)
        tracer.install()
        try:
            traced.run(seconds / TRACE_BLOCKS / 2)
        finally:
            tracer.uninstall()
    counting = tracing.Tracer()
    counting.install_operator_counts()
    try:
        counted = Passes(jobs, seed, on_job=counting.start_job).run(0)
    finally:
        counting.uninstall()
    os.makedirs(TRACES, exist_ok=True)
    tracer.dump(os.path.join(TRACES, f"{workload}-seed{seed}.json"),
                workload=workload, seed=seed)
    times = tracer.job_times()
    rows = relative_rows(tracer, times, traced)
    metrics = per_layer(tracer, counting, rows, times.get(-1, Counter()), traced, untraced)
    print(f"{workload}: untraced {untraced.jobs} jobs in {untraced.elapsed:.2f} s, "
          f"traced {traced.jobs} jobs in {traced.elapsed:.2f} s, "
          f"counting {counted.jobs} jobs")
    print_stages(tracer, traced, rows)
    return [untraced, traced, counted], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        runs, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        runs, metrics = end_to_end(import_workloads(), args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r.jobs for r in runs),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
