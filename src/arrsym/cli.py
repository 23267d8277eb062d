"""Command-line front end.

Exit codes: 0 success/verified, 1 verified-false or FAILURE, 2 usage or
data error.  ``pipeline all`` exits 0 iff every case ends in its expected
status (the negative corpus case is expected to fail).  Data errors are
the package's ArrsymError; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import corpus
from .combinatorics import (automorphism_group, involutions, parse_config_table,
                            parse_cycles)
from .errors import QUOTE_CHARS, ArrsymError, _quoted
from .geometry import lattice_of, parse_arrangement
from .moduli import derive_constraint, parse_plan
from .witness import (MapKind, extract_sigma, run_pipeline, verify_reflection)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ArrsymError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArrsymError(f"cannot write {path}: {exc}") from exc


def _emit(payload, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_parse(args) -> int:
    table = parse_config_table(_read(args.cfg))
    census = table.multiplicity_census()
    census_text = ", ".join(f"{census[m]} point(s) of multiplicity {m}"
                            for m in sorted(census, reverse=True)) or "no multiple points"
    payload = {"name": table.name, "lines": table.n,
               "points": [[label, sorted(s)] for label, s in table.points],
               "census": {str(m): c for m, c in sorted(census.items())},
               "doubles": table.double_count()}
    _emit(payload, args.json,
          f"arrangement {table.name}: {table.n} lines, {census_text}, "
          f"{table.double_count()} double(s)")
    return 0


def _cmd_aut(args) -> int:
    table = parse_config_table(_read(args.cfg))
    group = automorphism_group(table)
    invs = involutions(group)
    payload = {"name": table.name, "order": group.order,
               "label": group.structure_name(),
               "generators": [g.cycle_string() for g in group.generators],
               "involutions": [g.cycle_string() for g in invs]}
    lines = [f"automorphism group of {table.name}: order {group.order} "
             f"({group.structure_name()})",
             "generators: " + (", ".join(g.cycle_string() for g in group.generators)
                               or "none (trivial)"),
             f"involutions ({len(invs)}): "
             + (", ".join(g.cycle_string() for g in invs) or "none")]
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_lattice(args) -> int:
    arrangement = parse_arrangement(_read(args.arr))
    _, table = lattice_of(arrangement)
    census = table.multiplicity_census()
    if table.double_count():
        census[2] = table.double_count()
    census_text = ", ".join(f"{census[m]} of multiplicity {m}"
                            for m in sorted(census, reverse=True)) or "no intersection points"
    payload = {"name": arrangement.name, "lines": arrangement.n,
               "census": {str(m): c for m, c in sorted(census.items())},
               "multiple_points": [[label, sorted(s)] for label, s in table.points]}
    text = [f"lattice of {arrangement.name}: {census_text}", table.serialize().rstrip()]
    _emit(payload, args.json, "\n".join(text))
    return 0


def _cmd_derive(args) -> int:
    plan = parse_plan(_read(args.plan))
    table = parse_config_table(_read(args.cfg))
    constraint = derive_constraint(plan, table)
    payload = {"plan": plan.name, **constraint.to_dict()}
    product = payload["root_product"]
    lines = [f"constraint: {constraint.format()}",
             f"field: {constraint.field}",
             f"roots: {constraint.roots[0]}, {constraint.roots[1]}"]
    if product is not None:
        lines.append(f"root product: {product}")
    for f, reason in constraint.discarded:
        lines.append(f"discarded {f.format(plan.var)}: {reason}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    aplus = parse_arrangement(_read(args.arr_plus))
    aminus = parse_arrangement(_read(args.arr_minus))
    sigma = parse_cycles(args.sigma, aplus.n)
    kind = MapKind(swap=True, conjugate=args.conjugate)
    witness = verify_reflection(aplus, aminus, sigma, kind)
    payload = {"sigma": sigma.cycle_string(), "map": kind.label,
               "verified": witness.verified,
               "per_line": [[i, str(c) if c is not None else None]
                            for i, c in witness.per_line]}
    lines = []
    for i, cert in witness.per_line:
        status = f"scalar {cert}" if cert is not None else "MISMATCH"
        lines.append(f"line {i} -> {sigma(i)}: {status}")
    lines.append("verified" if witness.verified else "not verified")
    _emit(payload, args.json, "\n".join(lines))
    return 0 if witness.verified else 1


def _cmd_extract_sigma(args) -> int:
    a = parse_arrangement(_read(args.arr_a))
    b = parse_arrangement(_read(args.arr_b))
    kind = MapKind(swap=True, conjugate=args.conjugate)
    sigma = extract_sigma(a, b, kind)
    text = sigma.cycle_string() if sigma is not None else None
    _emit({"sigma": text, "map": kind.label}, args.json, text or "none")
    return 0 if sigma is not None else 1


# A literal's exponent of four or more significant digits, as Fraction reads it.
_HUGE_EXPONENT_RE = re.compile(r"(?<=[eE])[-+]?(?:0_?)*[1-9](?:_?\d){3,}")


def _viewport_value(part: str, text: str) -> Fraction:
    """Fraction(part), but a well-formed literal with an exponent above 999 is
    refused before Fraction builds 10**exp."""
    if _HUGE_EXPONENT_RE.search(part):
        try:
            Fraction(_HUGE_EXPONENT_RE.sub("0", part))
        except ValueError:
            pass                # malformed either way: Fraction(part) fails at once
        else:
            raise ArrsymError(f"bad viewport {_quoted(text)}: exponent above 999")
    return Fraction(part)


def _parse_viewport(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ArrsymError("viewport must be xmin,ymin,xmax,ymax")
    try:
        return tuple(_viewport_value(p.strip(), text) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        reason = exc if len(text) <= QUOTE_CHARS else _quoted(str(exc), str)
        raise ArrsymError(f"bad viewport {_quoted(text)}: {reason}") from exc


def _cmd_render(args) -> int:
    from .render import RenderOptions, render_svg

    arrangement = parse_arrangement(_read(args.arr))
    viewport = _parse_viewport(args.viewport) if args.viewport else None
    options = RenderOptions(infinity=args.infinity, viewport=viewport,
                            stroke_width=args.stroke_width,
                            marker_radius=args.marker_radius)
    svg = render_svg(arrangement, options)
    _write(args.output, svg)
    print(f"wrote {args.output} ({svg.count('<line ')} segment(s), "
          f"{svg.count('<circle ')} marker(s))")
    return 0


def _cmd_pipeline(args) -> int:
    if args.case == "all":
        reports = [run_pipeline(name) for name in corpus.list_cases()]
        summary = ", ".join(f"{r.case}={r.status}" for r in reports)
        _emit([r.to_dict() for r in reports], args.json,
              "".join(r.to_text() + "\n\n" for r in reports) + f"summary: {summary}")
        expected = all(r.status == corpus.get_case(r.case).expected_status
                       for r in reports)
        return 0 if expected else 1
    try:
        case = corpus.get_case(args.case)
    except KeyError as exc:                 # an unknown case name
        raise ArrsymError(exc.args[0]) from exc
    report = run_pipeline(case)
    _emit(report.to_dict(), args.json, report.to_text())
    return 0 if report.status == "SUCCESS" else 1


def _cmd_cases(args) -> int:
    names = corpus.list_cases()
    _emit(names, args.json, "\n".join(names))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrsym",
        description="Exact symmetry analysis of projective line arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", _cmd_parse, "validate a configuration table")
    p.add_argument("cfg")

    p = add("aut", _cmd_aut, "automorphism group of a configuration table")
    p.add_argument("cfg")

    p = add("lattice", _cmd_lattice, "intersection lattice of a realization")
    p.add_argument("arr")

    p = add("derive", _cmd_derive, "derive the moduli constraint of a plan")
    p.add_argument("plan")
    p.add_argument("cfg")

    p = add("verify", _cmd_verify, "verify the reflection between two realizations")
    p.add_argument("arr_plus")
    p.add_argument("arr_minus")
    p.add_argument("--sigma", required=True, help="cycle notation, e.g. '(1 6)(2 5)'")
    p.add_argument("--conjugate", action="store_true",
                   help="compose the swap with conjugation")

    p = add("extract-sigma", _cmd_extract_sigma,
            "recover the relabeling carried by the reflection")
    p.add_argument("arr_a")
    p.add_argument("arr_b")
    p.add_argument("--conjugate", action="store_true")

    p = add("render", _cmd_render, "render a real affine section as SVG")
    p.add_argument("arr")
    p.add_argument("--infinity", type=int, default=None,
                   help="label of the line sent to infinity")
    p.add_argument("--viewport", default=None, help="xmin,ymin,xmax,ymax (rationals)")
    p.add_argument("--stroke-width", type=float, default=1.5)
    p.add_argument("--marker-radius", type=float, default=4.0)
    p.add_argument("-o", "--output", required=True)

    p = add("pipeline", _cmd_pipeline, "run the full method on a corpus case")
    p.add_argument("case", help="case name or 'all'")

    p = add("cases", _cmd_cases, "list corpus cases")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ArrsymError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
