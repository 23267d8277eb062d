"""Construction plans over Q(t) and the moduli-defining constraint.

A plan fixes four grid lines (x=0, x=z, y=0, y=z), gives the remaining
lines as rational-function coefficient triples (or joins of constructed
points), and lists the incidences the target combinatorics still
requires.  Evaluating those incidences symbolically leaves numerator
polynomials whose common factor — filtered through exact realization and
a check of the target table at a root, or by gcds where it does not split
into linears and quadratics — is the constraint indexing the moduli components.

The plan runs fraction-free (Geddes, Czapor & Labahn, Algorithms for
Computer Algebra, 1992, ch. 2): once over Q(t), on integer-polynomial triples
over one common denominator, and once at each candidate root (evaluate_plan),
where its given lines are summed over Z[sqrt d] and compared on integer keys,
with no QuadExt arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import comb, lcm
from operator import mul

from .combinatorics import MAX_LINES, ConfigTable
from .errors import (ConstraintError, DegenerateError, ParseError, PoleError,
                     UnsupportedDegreeError, ValidationError, _digits, _quoted)
from .fields import (RATIONAL, FieldSpec, QuadExt, _directives, parse_digits,
                     quad_roots)
from .geometry import _CONJUGATE, Arrangement, ProjLine, _point_key, _primitive, _realizes
from .polys import (_MAX_BITS, MAX_DEGREE, Poly, _add, _cleared, _content_free, _convolve,
                    _divide_out, _ExprParser, _gcd, _lowest, _oversized, _poly, _pseudo_divide,
                    _slope, poly_reduce)
from .polys import _primitive as _primitive_poly
from .record import Record


class GivenLine(Record):
    __slots__ = ("index", "cleared")        # cleared: (P0, P1, P2, D), see _cleared


class MeetPoint(Record):
    __slots__ = ("name", "i", "j")                   # point name, line labels i, j

    def _what(self) -> str:                         # what an error names it by
        return f"lines {self.i},{self.j}"


class JoinLine(Record):
    __slots__ = ("index", "p", "q")                  # line label, point names p, q

    def _what(self) -> str:
        return f"points {_quoted(self.p, str)},{_quoted(self.q, str)}"


class Require(Record):
    __slots__ = ("point", "line")                    # point name, line label


_GRID = ((1, 0, 0, 0, 0, 0),          # x = 0, as a key of geometry._primitive
         (1, 0, 0, 0, -1, 0),         # x = z
         (0, 0, 1, 0, 0, 0),          # y = 0
         (0, 0, 1, 0, -1, 0))         # y = z


class ConstructionPlan(Record):
    __slots__ = ("name", "var", "n", "steps")

    def requires(self) -> list[Require]:
        return [s for s in self.steps if isinstance(s, Require)]

    def grid_labels(self) -> tuple[int, int, int, int]:
        """Labels of the lines pinned to x=0, x=z, y=0, y=z: the given lines
        whose cleared entries are constants, not all zero, keyed by
        ``_primitive`` (a later line with the same key wins)."""
        found: dict[tuple, int] = {}
        for step in self.steps:
            if (isinstance(step, GivenLine) and max(map(len, step.cleared)) == 1
                    and any(step.cleared[:3])):
                w = [x for cs in step.cleared[:3] for x in (cs[0] if cs else 0, 0)]
                found[_primitive(w, 0)] = step.index
        try:
            return tuple(found[g] for g in _GRID)
        except KeyError:
            raise ValidationError("plan lacks the four grid lines "
                                  "x=0, x=z, y=0, y=z") from None


def _validate_plan(name: str, var: str, n: int, steps: list) -> ConstructionPlan:
    defined_lines: set[int] = set()
    defined_points: set[str] = set()
    for step in steps:
        if isinstance(step, (GivenLine, JoinLine)):
            if not 1 <= step.index <= n:
                raise ValidationError(f"line {_digits(step.index)[0]} out of range 1..{n}")
            if step.index in defined_lines:
                raise ValidationError(f"line {_digits(step.index)[0]} defined twice")
            if isinstance(step, JoinLine):
                if step.p == step.q:
                    raise ValidationError(f"line {step.index}: join of a point with itself")
                for ref in (step.p, step.q):
                    if ref not in defined_points:
                        raise ValidationError(f"line {step.index}: point "
                                              f"{_quoted(ref, str)} used before definition")
            elif not any(step.cleared[:3]):
                raise ValidationError(f"line {step.index}: all three entries are zero")
            defined_lines.add(step.index)
        elif isinstance(step, MeetPoint):
            point = _quoted(step.name, str)
            if step.name in defined_points:
                raise ValidationError(f"point {point} defined twice")
            if step.i == step.j:
                raise ValidationError(f"point {point}: meet of a line with itself")
            for ref in (step.i, step.j):
                if ref not in defined_lines:
                    raise ValidationError(
                        f"point {point}: line {_digits(ref)[0]} used before definition")
            defined_points.add(step.name)
        elif isinstance(step, Require):
            if step.point not in defined_points:
                raise ValidationError(f"require: point {_quoted(step.point, str)} "
                                      "used before definition")
            if step.line not in defined_lines:
                raise ValidationError(
                    f"require: line {_digits(step.line)[0]} used before definition")
        else:
            raise ValidationError(f"unknown plan step {step!r}")
    if defined_lines != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - defined_lines)
        raise ValidationError(f"lines not defined: {_quoted(str(missing), str)}")
    plan = ConstructionPlan(name=name, var=var, n=n, steps=tuple(steps))
    plan.grid_labels()
    return plan


def parse_plan(text: str) -> ConstructionPlan:
    """Parse the .plan format."""
    name = None
    var = None
    n = None
    steps: list = []
    for lineno, line, fields in _directives(text, ("plan", "lines", "line", "point", "require")):
        keyword = fields[0]
        if keyword == "plan":
            if len(fields) != 4 or fields[2] != "over":
                raise ParseError(f"line {lineno}: expected 'plan <name> over <var>'")
            name, var = fields[1], fields[3]
        elif keyword == "lines":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'lines <n>'")
            n = parse_digits(fields[1], f"line {lineno}: a line count")
            if n > MAX_LINES:
                raise ParseError(f"line {lineno}: more than {MAX_LINES} lines")
        elif keyword == "line":
            if var is None:
                raise ParseError(f"line {lineno}: 'plan' header must come first")
            head, _, rest = line.partition(":")
            head_fields = head.split()
            if len(head_fields) != 2:
                raise ParseError(f"line {lineno}: expected 'line <i> : ...'")
            index = parse_digits(head_fields[1], f"line {lineno}: a line label")
            rest = rest.strip()
            if rest.startswith("join"):
                parts = rest.split()
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: expected 'join <P> <Q>'")
                steps.append(JoinLine(index=index, p=parts[1], q=parts[2]))
            else:
                parts = [p.strip() for p in rest.split(";")]
                if len(parts) != 3:
                    raise ParseError(
                        f"line {lineno}: expected three ';'-separated entries")
                try:
                    pairs = [_ExprParser(p, var).parse() for p in parts]
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
                steps.append(GivenLine._of(index, _cleared(pairs)))
        elif keyword == "point":
            head, _, rest = line.partition(":")
            head_fields = head.split()
            if len(head_fields) != 2:
                raise ParseError(f"line {lineno}: expected 'point <P> : meet <i> <j>'")
            parts = rest.split()
            if len(parts) != 3 or parts[0] != "meet":
                raise ParseError(f"line {lineno}: expected 'meet <i> <j>'")
            i, j = (parse_digits(v, f"line {lineno}: a line label") for v in parts[1:])
            steps.append(MeetPoint(name=head_fields[1], i=i, j=j))
        elif keyword == "require":
            if len(fields) != 4 or fields[2] != "on":
                raise ParseError(f"line {lineno}: expected 'require <P> on <i>'")
            steps.append(Require(point=fields[1], line=parse_digits(
                fields[3], f"line {lineno}: a line label")))
    if name is None or var is None:
        raise ParseError("missing 'plan' header")
    if n is None:
        raise ParseError("missing 'lines' header")
    try:
        return _validate_plan(name, var, n, steps)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _run_plan(plan: ConstructionPlan, given, cross):
    """The line and point values by label: ``given(step)`` is a GivenLine's
    value and ``cross(u, v, step)`` the meet or join of a MeetPoint or JoinLine."""
    lines: dict[int, tuple] = {}
    points: dict[str, tuple] = {}
    for step in plan.steps:
        kind = type(step)
        if kind is GivenLine:
            lines[step.index] = given(step)
        elif kind is MeetPoint:
            points[step.name] = cross(lines[step.i], lines[step.j], step)
        elif kind is JoinLine:
            lines[step.index] = cross(points[step.p], points[step.q], step)
    return lines, points


def _wedge(u, v) -> list:
    """The entries of the cross product of two triples of integer lists."""
    (u0, u1, u2), (v0, v1, v2) = u[:3], v[:3]
    return [_add(_convolve(u1, v2), _convolve(u2, v1), -1),
            _add(_convolve(u2, v0), _convolve(u0, v2), -1),
            _add(_convolve(u0, v1), _convolve(u1, v0), -1)]


def _dot(u, v) -> list:
    """The dot product of two triples of integer lists."""
    return _add(_add(_convolve(u[0], v[0]), _convolve(u[1], v[1])), _convolve(u[2], v[2]))


def _cross(u: tuple, v: tuple, step: MeetPoint | JoinLine) -> tuple:
    """The meet or join of two cleared triples over Q(t), reduced to lowest
    terms above MAX_DEGREE.  Raises DegenerateError when they coincide,
    ValidationError when it has degree above MAX_DEGREE or, checked before it
    is computed, when its products are _oversized."""
    if _oversized(u, v):
        raise ValidationError(f"the meet or join of {step._what()} has coefficients "
                              f"above {_MAX_BITS} bits")
    w = _content_free([*_wedge(u, v), _convolve(u[3], v[3])])
    if not any(w[:3]):
        raise DegenerateError(f"{step._what()} coincide identically")
    if max(map(len, w)) > MAX_DEGREE + 1:
        # reduction only lowers degrees: reduce to apply the exact test
        entries = [_lowest(p, w[3]) for p in w[:3]]
        if max(len(cs) for e in entries for cs in e) > MAX_DEGREE + 1:
            raise ValidationError(f"the meet or join of {step._what()} has degree "
                                  f"above {MAX_DEGREE}")
        w = _cleared(entries)
    return w


def _written(value, var: str = "t") -> str:
    """A Poly in var, a pole's (num, den) pair of Polys, a root or a Fraction as
    output writes it, whole; one with an integer past the digits str() writes
    is written by its longest integer's length."""
    parts = value if type(value) is tuple else (value,)
    try:
        text = [p.format(var) if type(p) is Poly else str(p) for p in parts]
    except ValueError:
        ints = [n for p in parts for n in (
            (*p._c, p._den) if type(p) is Poly else
            (p._p, p._q, p._den) if type(p) is QuadExt else p.as_integer_ratio())]
        return f"a value with integers of up to {max(_digits(n)[1] for n in ints)} digits"
    return "({})/({})".format(*text) if len(text) > 1 else text[0]


def _shown(value, var: str = "t") -> str:
    """_written(value, var) as messages write it, cut by _quoted."""
    return _quoted(_written(value, var), str)


def _powers(t0: QuadExt, lines) -> tuple[list[int], list[int]]:
    """real[k] + surd[k]*sqrt(d) = (p + q*sqrt d)^k * e^(N-k) for t0 = (p + q*sqrt d)/e,
    N + 1 the longest list of the lines: a list summed against them is its value times e^N."""
    p, q, e, d = t0._p, t0._q, t0._den, t0._d
    top = max(map(len, chain.from_iterable(lines)))
    real, surd, x, y = [], [], 1, 0
    for k in range(top):
        real.append(x * e ** (top - 1 - k))
        surd.append(y * e ** (top - 1 - k))
        x, y = x * p + d * y * q, x * q + y * p
    return real, surd


def evaluate_plan(plan: ConstructionPlan, t0: QuadExt | Fraction | int) -> Arrangement:
    """Evaluate the plan exactly at t0, step by step, on keys over Z[sqrt d];
    requirements are NOT checked.  Each cleared list is summed against
    ``_powers``, and a given line made primitive as it is summed; a zero sum
    for D means a pole, named by the first entry P_k / D whose reduced
    denominator sums to zero too.  A point is its two lines' keys: their cross
    product vanishes exactly on proportional triples, so they meet exactly when
    the keys differ and neither line is zero, and ``_point_key`` is taken only
    for a join."""
    if not isinstance(t0, QuadExt):
        t0 = QuadExt(t0)
    d, field = t0._d, t0._field
    real, surd = _powers(t0, [s.cleared for s in plan.steps if type(s) is GivenLine])

    def given(step: GivenLine) -> tuple | list:
        p0, p1, p2, den = step.cleared
        if not (sum(map(mul, den, real)) or sum(map(mul, den, surd))):
            for num, den_k in (_lowest(cs, den) for cs in (p0, p1, p2)):    # the first pole
                if not any(sum(map(mul, den_k, pw)) for pw in (real, surd)):
                    pole = _poly(num, den_k[-1]), _poly(den_k, den_k[-1])
                    raise PoleError(f"pole of {_shown(pole, plan.var)} at {_shown(t0)}")
        w = [sum(map(mul, p0, real)), sum(map(mul, p0, surd)), sum(map(mul, p1, real)),
             sum(map(mul, p1, surd)), sum(map(mul, p2, real)), sum(map(mul, p2, surd))]
        return _primitive(w, d) if any(w) else w        # a zero line stays its zero sums

    def cross(u: tuple, v: tuple, step: MeetPoint | JoinLine) -> tuple:
        if type(step) is JoinLine:                      # u, v: each point's two line keys
            u, v = _point_key(*u, d), _point_key(*v, d)
        if u == v or not (any(u) and any(v)):
            raise DegenerateError(f"{step._what()} coincide at {plan.var}={_shown(t0)}")
        return (u, v) if type(step) is MeetPoint else _point_key(u, v, d)

    lines, _ = _run_plan(plan, given, cross)
    keys = [lines[i] for i in range(1, plan.n + 1)]
    if not all(map(any, keys)):
        raise ValidationError("all three coefficients are zero")
    # two equal keys: the checked constructor raises, naming their lines
    return (Arrangement._of if len(set(keys)) == plan.n else Arrangement)(
        plan.name, field, tuple(ProjLine._keyed(k, field) for k in keys))


def _symbolic(plan: ConstructionPlan) -> tuple[dict, list[tuple[str, int, tuple]]]:
    """From one run over Q(t): the lines' cleared triples by label and
    residual_numerators(plan)."""
    lines, points = _run_plan(plan, lambda s: s.cleared, _cross)
    out = []
    for req in plan.requires():
        line, point = lines[req.line], points[req.point]
        if incidence := _dot(line, point):
            num = _lowest(incidence, _convolve(line[3], point[3]))[0]
            out.append((req.point, req.line, _primitive_poly(num)))
    return lines, out


def residual_numerators(plan: ConstructionPlan) -> list[tuple[str, int, tuple]]:
    """(point, line, numerator) of each non-identically-satisfied requirement,
    the numerator in lowest terms as its primitive integer tuple."""
    return _symbolic(plan)[1]


class ModuliConstraint(Record, compared=5):
    """The admissible factor: a quadratic (or degenerately linear) polynomial
    whose roots index the moduli components.  ``realizations`` are the plan
    at the two roots: over a quadratic field the plan is evaluated and
    checked against the target lattice at the "+" root, and the "-"
    realization is its Galois conjugate, coefficient by coefficient."""

    __slots__ = ("poly", "var", "field", "roots", "discarded", "realizations")

    def to_dict(self) -> dict:
        """The JSON fields, each value by _written; root_product is None unless
        the poly is quadratic."""
        return {"constraint": _written(self.poly, self.var), "field_d": self.field.d,
                "roots": [_written(r) for r in self.roots],
                "root_product": (_written(root_product(self.poly))
                                 if self.poly.degree == 2 else None),
                "discarded": [[_written(f, self.var), reason]
                              for f, reason in self.discarded]}


# Most work the gcd test may do: C(n, 3) * (deg r + 1)^4 * the largest bit size.
_MAX_TEST_COST = 1 << 27


def _realizable(plan: ConstructionPlan, lines: dict, target: ConfigTable,
                common: tuple) -> tuple[tuple, list]:
    """(r', removed): the part r' of common's square-free part r at whose every
    root the plan realizes target, and each part removed, with its incidence.
    A factor of r divides an identity exactly when it holds at the factor's
    roots, so each test splits r by a gcd (dynamic evaluation; Duval, J.
    Symbolic Comput. 18(5), 1994), on ``_symbolic``'s lines modulo r, each
    times one integer; lines a step reduced serve, since what it removed is
    a pole.  UnsupportedDegreeError if r' has degree 3 or more."""
    def modulo_r(entries):
        splits = [_pseudo_divide(cs, r) for cs in entries]
        scale = lcm(*(s for *_, s in splits))
        return [[c * (scale // s) for c in rem] for _, rem, s in splits]

    r = tuple(_pseudo_divide(common, _gcd(common, _slope(common)))[0])
    mod = {i: modulo_r(lines[i][:3]) for i in range(1, plan.n + 1)}
    bits = max(abs(c).bit_length() for cs in (r, *chain(*mod.values())) for c in cs)
    if comb(plan.n, 3) * len(r) ** 4 * bits > _MAX_TEST_COST:
        raise ValidationError(f"deciding {_shown(_poly(r, 1), plan.var)} by gcds on "
                              f"{plan.n} lines is too much work")
    where = {pair: s for _, s in target.points for pair in combinations(sorted(s), 2)}
    meets = {}

    def tests():
        yield from (([s.cleared[3]], False, f"pole of line {s.index}")
                    for s in plan.steps if isinstance(s, GivenLine))
        yield from ((mod[i], False, f"line {i} vanishes") for i in mod)
        for i, j in combinations(mod, 2):
            meets[i, j] = modulo_r(_wedge(mod[i], mod[j]))
            yield meets[i, j], False, f"lines {i},{j} coincide"
        for _, s in target.points:      # kept: a target point's triples concur
            a, b, *rest = sorted(s)
            yield from (([_dot(meets[a, b], mod[c])], True, f"lines {a},{b},{c} not concurrent")
                        for c in rest)
        for i, j, k in combinations(mod, 3):
            if k not in where.get((i, j), ()):
                yield [_dot(meets[i, j], mod[k])], False, f"lines {i},{j},{k} concurrent"

    removed = []
    for polys, keep, reason in tests():
        g = reduce(_gcd, polys, r)
        if len(part := _pseudo_divide(r, g)[0] if keep else g) > 1:
            removed.append((_poly(part, 1), reason))
            if len(r := tuple(_pseudo_divide(r, part)[0])) < 2:
                break
    if len(r) > 3:
        raise UnsupportedDegreeError(f"every root of {_shown(_poly(r, 1), plan.var)} realizes "
                                     "the table; only factors of degree 1 and 2 are supported")
    return r, removed


def _roots_of_factor(factor: Poly) -> tuple[FieldSpec, tuple[QuadExt, ...]]:
    if factor.degree == 1:
        r = QuadExt(-factor[0] / factor[1])
        return RATIONAL, (r,)
    field, rp, rm = quad_roots(factor[2], factor[1], factor[0])
    return field, (rp, rm)


def derive_constraint(plan: ConstructionPlan, target: ConfigTable) -> ModuliConstraint:
    """Extract the residual incidence constraint and keep the unique factor
    whose every root realizes the target combinatorics exactly: the plan's
    lines at the root meet in the target's points and in no other multiple
    point, which the lattice walk seeded with the target's points checks
    (``_realizes``): one meet per target point and one per pair of lines on
    no target point.  The plan runs once over Q(t), and once per factor at
    its first root (``evaluate_plan``): the one root of a linear factor, or
    the "+" root of an irreducible quadratic, whose conjugate root passes or
    fails alike.

    The candidates are the factors poly_reduce splits the numerators' gcd
    into; a gcd it refuses is first cut by gcds to the part whose every root
    realizes the target (``_realizable``), each part cut off discarded with
    its incidence.  Dividing the gcd out of each requirement numerator leaves
    the factors that are not common to all requirements; they are reported in
    `discarded` (a part poly_reduce refuses is reported unfactored), as are
    candidates that fail realization (pole, degeneracy, or lattice mismatch).
    """
    if plan.n != target.n:
        raise ValidationError("plan and table have different line counts")
    lines, residuals = _symbolic(plan)
    prims = [num for _, _, num in residuals]
    if not prims:
        raise ConstraintError("no residual requirements: nothing constrains the parameter")

    common, removed = reduce(_gcd, prims), []
    try:
        candidates = [f for f, _ in poly_reduce(_poly(common, 1))]  # [] for a constant
    except UnsupportedDegreeError:      # decide the gcd's roots by gcds instead
        kept, removed = _realizable(plan, lines, target, common)
        candidates = [f for f, _ in poly_reduce(_poly(kept, 1))]

    noncommon = {}                          # the factors in order, once each
    for num in prims:
        for f in candidates:                # what is left is coprime to the gcd
            num = _divide_out(num, f._c)[0]
        # and to what the gcd test removed: a part may join factors whose powers
        # in num differ, so gcds strip it, not division by the part
        while removed and len(g := _gcd(num, common)) > 1:
            num = _pseudo_divide(num, g)[0]
        if len(num) < 2:                    # a constant: no factor to report
            continue
        rest = _poly(num, 1)                # primitive: an exact quotient of primitives
        try:
            factors = [f for f, _ in poly_reduce(rest)]
        except UnsupportedDegreeError:
            factors = [rest]
        noncommon.update(dict.fromkeys(factors))
    discarded = [(f, "not common to all requirements") for f in noncommon] + removed

    admissible = []
    for factor in candidates:
        # poly_reduce splits off every rational root, so a factor's field is
        # rational exactly when the factor is linear.  A pole, degeneracy or
        # lattice verdict at the "+" root holds at the conjugate root too,
        # because conjugation is a field automorphism that fixes the plan's
        # rational coefficients; the "-" realization is the "+" one with
        # every coefficient conjugated, which keeps keys primitive and distinct.
        field, roots = _roots_of_factor(factor)
        try:
            plus = evaluate_plan(plan, roots[0])
        except PoleError:
            verdict = f"pole at root of {_shown(factor, plan.var)}"
        except (DegenerateError, ValidationError) as exc:
            verdict = f"degenerate: {exc}"
        else:
            verdict = None if _realizes(plus, target) else "lattice mismatch"
        if verdict is not None:
            discarded.append((factor, verdict))
            continue
        minus = plus
        if not field.is_rational:
            minus = Arrangement._of(plus.name, plus.field, tuple(
                ProjLine._keyed(_CONJUGATE._image(ln.key), ln.field) for ln in plus.lines))
        admissible.append((factor, field, roots, (plus, minus)))

    if not admissible:
        raise ConstraintError(
            "zero admissible factors: no candidate realizes the target lattice "
            f"(discarded: {[(_shown(f, plan.var), r) for f, r in discarded]})")
    if len(admissible) > 1:
        polys = ", ".join(_shown(f, plan.var) for f, *_ in admissible)
        raise ConstraintError(f"more than one admissible factor: {polys}")

    factor, field, roots, realizations = admissible[0]
    return ModuliConstraint._of(factor, plan.var, field,
                                (roots[0], roots[-1]), tuple(discarded), realizations)


def realize_components(plan: ConstructionPlan,
                       constraint: ModuliConstraint) -> tuple[Arrangement, Arrangement]:
    """The components: the plan's realizations at the "+" and "-" roots,
    kept from `derive_constraint`; the "-" one is the Galois conjugate of
    the "+" one, since the plan's coefficients are rational."""
    if constraint.poly.degree != 2 or constraint.field.is_rational:
        raise ConstraintError("moduli not disconnected: constraint has a single "
                              "rational root")
    return tuple(Arrangement._of(plan.name + sign, a.field, a.lines)
                 for sign, a in zip("+-", constraint.realizations))


def root_product(poly: Poly) -> Fraction:
    """Product of the two roots of a quadratic (Vieta: constant over leading)."""
    if poly.degree != 2:
        raise ValidationError("root_product expects a quadratic")
    return poly[0] / poly[2]
