"""The benchmark's workloads: each set-up builds a list of jobs, and each job
runs the library on one input and checks its output against pinned values.

Jobs call the library through module attributes (``witness.run_case``, not a
name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from arrsym import combinatorics, corpus, geometry, moduli, witness

import fermat


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], bool]     # True when the output matches its pinned value


# |Aut| and number of involutions of A(m,m,3).  A(4,4,3) (192/43) is pinned
# but not run: its search takes 6-25 s, too few samples in one run to time
# steadily on a shared machine.  It and A(6,6,3) belong here once the search
# is fast.
FERMAT_AUT = {2: (24, 9), 3: (108, 27)}
FERMAT_AUT_SLOW = {4: (192, 43)}

# Fermat arrangements paired with themselves in ``exact-geometry``.
FERMAT_GEOMETRY = (2, 3, 4, 6)


def _cases():
    return [corpus.get_case(name) for name in corpus.list_cases()]


# -- corpus: the paper's end-to-end path, one job per shipped case ----------

def _run_case(case) -> bool:
    report = witness.run_case(case.name, case.config, case.plan)
    return (report.status == case.expected_status
            and report.aut_order == case.expected_aut_order
            and report.constraint is not None
            and report.constraint.poly == case.expected_constraint)


def setup_corpus() -> list[Job]:
    return [Job(case.name, lambda case=case: _run_case(case)) for case in _cases()]


# -- fermat-aut: the automorphism search on generated inputs ----------------

def _aut(table, pinned) -> bool:
    group = combinatorics.automorphism_group(table)
    return (group.order, len(combinatorics.involutions(group))) == pinned


def setup_fermat_aut() -> list[Job]:
    jobs = []
    for m, pinned in FERMAT_AUT.items():
        table = fermat.fermat_table(fermat.fermat_arrangement(m), m)
        jobs.append(Job(f"A({m},{m},3)", lambda table=table, pinned=pinned: _aut(table, pinned)))
    return jobs


# -- exact-geometry: lattices and reflections on pre-realized pairs --------

def _geometry(plus, minus, table, sigma, map_kind, extracted) -> bool:
    """``extracted`` is the sigma ``extract_sigma`` must return (None when
    the map does not carry plus onto minus); ``sigma`` verifies iff it is
    not None."""
    _, derived = geometry.lattice_of(plus)
    found = witness.extract_sigma(plus, minus, map_kind)
    verified = witness.verify_reflection(plus, minus, sigma, map_kind).verified
    return derived == table and found == extracted and verified == (extracted is not None)


def setup_exact_geometry() -> list[Job]:
    jobs = []
    for case in _cases():
        constraint = moduli.derive_constraint(case.plan, case.config)
        plus, minus = moduli.realize_components(case.plan, constraint)
        extracted = case.sigma if case.expected_status == "SUCCESS" else None
        jobs.append(Job(case.name, lambda args=(plus, minus, case.config, case.sigma,
                                                case.map, extracted): _geometry(*args)))
    for m in FERMAT_GEOMETRY:
        arrangement = fermat.fermat_arrangement(m)
        table = fermat.fermat_table(arrangement, m)
        sigma = fermat.swap_sigma(m)
        jobs.append(Job(f"A({m},{m},3)", lambda args=(arrangement, arrangement, table, sigma,
                                                      witness.SWAP, sigma): _geometry(*args)))
    return jobs


SETUP = {
    "corpus": setup_corpus,
    "fermat-aut": setup_fermat_aut,
    "exact-geometry": setup_exact_geometry,
}
