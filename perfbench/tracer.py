"""Tracing from outside the program: spans and exact counters recorded by
wrapping the public functions of ``arrsym`` inside the benchmark's process.

A wrapper replaces the function object wherever an ``arrsym`` module binds
it, so calls made from inside the library (``witness.run_case`` calling its
own ``derive_constraint`` name, say) are seen as well as the benchmark's own.
Nothing in ``src/`` changes.  Spans are kept in memory; ``dump`` writes them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import arrsym.combinatorics
import arrsym.corpus
import arrsym.geometry
import arrsym.moduli
import arrsym.polys
import arrsym.witness
from arrsym.fields import QuadExt

# Functions that get a span: (layer, module, name).  The layer is the
# module's short name and prefixes every metric derived from the span.
SPANNED = (
    ("witness", arrsym.witness, "run_case"),
    ("witness", arrsym.witness, "verify_reflection"),
    ("witness", arrsym.witness, "extract_sigma"),
    ("moduli", arrsym.moduli, "derive_constraint"),
    ("moduli", arrsym.moduli, "residual_numerators"),
    ("moduli", arrsym.moduli, "evaluate_plan"),
    ("moduli", arrsym.moduli, "realize_components"),
    ("polys", arrsym.polys, "poly_reduce"),
    ("geometry", arrsym.geometry, "lattice_of"),
    ("combinatorics", arrsym.combinatorics, "automorphism_group"),
    ("combinatorics", arrsym.combinatorics, "involutions"),
    ("corpus", arrsym.corpus, "get_case"),
)

# QuadExt operators counted in the separate counting pass; the reflected
# forms count with their plain ones.
OPERATORS = {
    "__mul__": "fields.quadext.mul", "__rmul__": "fields.quadext.mul",
    "__add__": "fields.quadext.add", "__radd__": "fields.quadext.add",
    "__truediv__": "fields.quadext.div", "__rtruediv__": "fields.quadext.div",
}


class _Patches:
    """Replacements of module and class attributes, undone together."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, wrapper) -> None:
        """Bind ``wrapper`` in place of ``original`` in every arrsym module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "arrsym" or name.startswith("arrsym.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.attribute(module, attr, wrapper)

    def attribute(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans and counters for one traced pass, attributed to jobs.

    A span is ``[name, start_ns, end_ns, parent_index, job_id]``; the parent
    is the span open when this one started (-1 for none).  Counters are kept
    per job label, so per-case counts can be read back exactly.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.labels: list[str] = []        # job id -> job label
        self.counts: Counter = Counter()   # (label, counter) -> count
        self._stack: list[int] = []
        self._open: Counter = Counter()    # span name -> number open
        self._patches = _Patches()

    # -- jobs ------------------------------------------------------------

    def start_job(self, label: str) -> None:
        self.labels.append(label)

    @property
    def _label(self) -> str:
        return self.labels[-1] if self.labels else "setup"

    def _count(self, name: str, k: int = 1) -> None:
        self.counts[(self._label, name)] += k

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        post = {
            "witness.run_case": lambda r: self._count("witness.attempts", len(r.attempts)),
            "witness.verify_reflection": lambda r: self._count("witness.verified", r.verified),
            "combinatorics.automorphism_group": lambda r: self._count(
                "combinatorics.aut_elements", r.order),
        }
        for layer, module, name in SPANNED:
            metric = f"{layer}.{name}"
            original = getattr(module, name)
            self._patches.everywhere(original, self._spanned(metric, original, post.get(metric)))
        self._counted("geometry.intersections", arrsym.geometry.intersect)
        self._counted("combinatorics.leaf_checks", arrsym.combinatorics.is_lattice_isomorphism,
                      inside="combinatorics.automorphism_group")
        poly = arrsym.polys.Poly
        # factor candidates: rational roots tried (Horner at a Fraction) and
        # quadratic factors trial-divided, while factoring
        self._patches.attribute(poly, "divides", self._wrap_count(
            "polys.factor_candidates", poly.divides, inside="polys.poly_reduce"))
        self._patches.attribute(poly, "eval", self._wrap_count(
            "polys.factor_candidates", poly.eval, inside="polys.poly_reduce",
            when=lambda args: isinstance(args[1], Fraction)))

    def install_operator_counts(self) -> None:
        for attr, metric in OPERATORS.items():
            self._patches.attribute(QuadExt, attr,
                                    self._wrap_count(metric, getattr(QuadExt, attr)))

    def uninstall(self) -> None:
        self._patches.undo()

    def _spanned(self, name: str, fn, post):
        spans, stack, opened = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                      len(self.labels) - 1]
            stack.append(len(spans))
            spans.append(record)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
                opened[name] -= 1
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counted(self, name: str, original, inside: str | None = None) -> None:
        self._patches.everywhere(original, self._wrap_count(name, original, inside))

    def _wrap_count(self, name: str, fn, inside: str | None = None, when=None):
        opened = self._open

        def wrapper(*args, **kwargs):
            if (inside is None or opened[inside]) and (when is None or when(args)):
                self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- reading ---------------------------------------------------------

    def job_counts(self, label: str) -> Counter:
        """Every counter of the jobs with this label, summed."""
        return Counter({name: k for (lab, name), k in self.counts.items() if lab == label})

    def job_times(self) -> dict[int, Counter]:
        """Per job id (-1 for set-up): for each span name, its total time
        ``name`` and self time ``name.self`` in ns, and ``name.calls``."""
        child: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for index, (name, start, end, _, job) in enumerate(self.spans):
            row = out[job]
            row[name] += end - start
            row[name + ".self"] += end - start - child[index]
            row[name + ".calls"] += 1
        return out

    def dump(self, path, **header) -> None:
        with open(path, "w") as out:
            json.dump({**header, "jobs": self.labels, "spans": self.spans,
                       "counts": [[label, name, k] for (label, name), k
                                  in sorted(self.counts.items())]}, out)
