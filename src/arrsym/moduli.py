"""Construction plans over Q(t) and the moduli-defining constraint.

A plan fixes four grid lines (x=0, x=z, y=0, y=z), gives the remaining
lines as rational-function coefficient triples (or joins of constructed
points), and lists the incidences the target combinatorics still
requires.  Evaluating those incidences symbolically leaves numerator
polynomials whose common factor — filtered through exact realization and
a lattice comparison at a root — is the constraint indexing the moduli
components.

Both runs are fraction-free (Geddes, Czapor & Labahn, Algorithms for Computer
Algebra, 1992, ch. 2): over Q(t), integer-polynomial triples over one common
denominator, reduced once at each requirement; at a root, triples over
Z[sqrt d], whose lattice is compared on integer keys with no QuadExt arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .combinatorics import MAX_LINES, ConfigTable
from .errors import (ConstraintError, DegenerateError, ParseError, PoleError,
                     UnsupportedDegreeError, ValidationError, _quoted)
from .fields import (RATIONAL, FieldSpec, QuadExt, _directives, parse_digits,
                     quad_roots)
from .geometry import (_CONJUGATE, Arrangement, ProjLine, _multiple_points, _point_key,
                       _primitive)
from .polys import (MAX_DEGREE, Poly, RatFunc, _convolve, _poly, parse_ratfunc,
                    poly_reduce)
from .record import Record


class GivenLine(Record, compared=2):
    __slots__ = ("index", "entries", "cleared")          # cleared: see _cleared

    def __init__(self, index: int, entries: tuple[RatFunc, RatFunc, RatFunc]) -> None:
        self._fill(index, entries, _cleared(entries))


class MeetPoint(Record):
    __slots__ = ("name", "i", "j")                   # point name, line labels i, j


class JoinLine(Record):
    __slots__ = ("index", "p", "q")                  # line label, point names p, q


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
                raise ValidationError(f"line {step.index} out of range 1..{n}")
            if step.index in defined_lines:
                raise ValidationError(f"line {step.index} defined twice")
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
                        f"point {point}: line {ref} used before definition")
            defined_points.add(step.name)
        elif isinstance(step, Require):
            if step.point not in defined_points:
                raise ValidationError(f"require: point {_quoted(step.point, str)} "
                                      "used before definition")
            if step.line not in defined_lines:
                raise ValidationError(
                    f"require: line {step.line} used before definition")
        else:
            raise ValidationError(f"unknown plan step {step!r}")
    if defined_lines != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - defined_lines)
        raise ValidationError(f"lines not defined: {missing}")
    plan = ConstructionPlan(name=name, var=var, n=n, steps=tuple(steps))
    plan.grid_labels()
    return plan


def parse_plan(text: str) -> ConstructionPlan:
    """Parse the .plan format."""
    name = None
    var = None
    n = None
    steps: list = []
    for lineno, line, fields in _directives(text):
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
                    entries = tuple(parse_ratfunc(p, var) for p in parts)
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
                steps.append(GivenLine(index=index, entries=entries))
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
        else:
            raise ParseError(f"line {lineno}: unknown directive {_quoted(keyword)}")
    if name is None or var is None:
        raise ParseError("missing 'plan' header")
    if n is None:
        raise ParseError("missing 'lines' header")
    try:
        return _validate_plan(name, var, n, steps)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _add(a: list, b: list, sign: int = 1) -> list:
    """a + sign*b, trailing zeros dropped; a is a fresh list, changed in place."""
    a += [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        a[i] += sign * y
    while a and not a[-1]:
        a.pop()
    return a


def _content_free(lists: list) -> tuple:
    g = gcd(*(c for cs in lists for c in cs))
    return tuple(lists) if g == 1 else tuple([c // g for c in cs] for cs in lists)


def _cleared(entries) -> tuple:
    """(P0, P1, P2, D): ascending integer lists with entries[k] == P_k / D, D the
    product of the distinct (monic, so primitive) denominators; content-free."""
    fracs = [(e.num, e.den) for e in entries]
    dens = [d for d in dict.fromkeys(den._c for _, den in fracs) if d != (1,)]
    scale = lcm(*(num._den for num, _ in fracs))
    out = [reduce(_convolve, [d for d in dens if d != den._c],
                  [c * (den._den * scale // num._den) for c in num._c])
           for num, den in fracs]
    return _content_free(out + [reduce(_convolve, dens, [scale])])


def _run_plan(plan: ConstructionPlan, given, cross):
    """The line and point values by label: ``given(step)`` is a GivenLine's
    value and ``cross(u, v, what)`` the meet or join of two values."""
    lines: dict[int, tuple] = {}
    points: dict[str, tuple] = {}
    for step in plan.steps:
        if isinstance(step, GivenLine):
            lines[step.index] = given(step)
        elif isinstance(step, MeetPoint):
            points[step.name] = cross(lines[step.i], lines[step.j],
                                      f"lines {step.i},{step.j}")
        elif isinstance(step, JoinLine):
            what = f"points {_quoted(step.p, str)},{_quoted(step.q, str)}"
            lines[step.index] = cross(points[step.p], points[step.q], what)
    return lines, points


def _cross(u: tuple, v: tuple, what: str) -> tuple:
    """The meet or join of two cleared triples over Q(t).  Raises DegenerateError
    when they coincide, ValidationError when it has degree above MAX_DEGREE."""
    (u0, u1, u2, du), (v0, v1, v2, dv) = u, v
    w = _content_free([_add(_convolve(u1, v2), _convolve(u2, v1), -1),
                       _add(_convolve(u2, v0), _convolve(u0, v2), -1),
                       _add(_convolve(u0, v1), _convolve(u1, v0), -1),
                       _convolve(du, dv)])
    if not any(w[:3]):
        raise DegenerateError(f"{what} coincide identically")
    if max(map(len, w)) > MAX_DEGREE + 1:
        # reduction only lowers degrees: reduce to apply the exact test
        entries = tuple(RatFunc(_poly(p, 1), _poly(w[3], 1)) for p in w[:3])
        if max(max(e.num.degree, e.den.degree) for e in entries) > MAX_DEGREE:
            raise ValidationError(f"the meet or join of {what} has degree "
                                  f"above {MAX_DEGREE}")
        w = _cleared(entries)
    return w


def evaluate_plan(plan: ConstructionPlan, t0: QuadExt | Fraction | int) -> Arrangement:
    """Evaluate the plan exactly at t0, on six-integer triples over Z[sqrt d].
    Requirements are NOT checked.  With t0 = (p + q*sqrt d)/e, each cleared
    list is summed against the powers (p + q*sqrt d)^k * e^(N-k); a zero sum
    for the common denominator D means a pole.  A meet or join is a key of
    ``_point_key``; each line is made primitive once, at the end."""
    if not isinstance(t0, QuadExt):
        t0 = QuadExt(t0)
    p, q, e, d, field = t0._p, t0._q, t0._den, t0._d, t0._field
    top = max(max(map(len, step.cleared)) for step in plan.steps
              if isinstance(step, GivenLine))
    real, surd, x, y = [], [], 1, 0     # real[k] + surd[k]*sqrt(d): power k
    for k in range(top):
        real.append(x * e ** (top - 1 - k))
        surd.append(y * e ** (top - 1 - k))
        x, y = x * p + d * y * q, x * q + y * p

    def given(step: GivenLine) -> list[int]:
        values = [sum(map(mul, cs, pw)) for cs in step.cleared for pw in (real, surd)]
        if not (values[6] or values[7]):    # D(t0) = 0: raise the entry's PoleError
            for entry in step.entries:
                entry.eval(t0)
        return values[:6]

    def meet(u: tuple, v: tuple, what: str) -> tuple:
        try:
            return _point_key(u, v, d)
        except DegenerateError:
            raise DegenerateError(f"{what} coincide at {plan.var}={t0}") from None

    lines, _ = _run_plan(plan, given, meet)
    return Arrangement(plan.name, field, [
        ProjLine._keyed(_primitive(lines[i], d), field) for i in range(1, plan.n + 1)])


def residual_numerators(plan: ConstructionPlan) -> list[tuple[str, int, Poly]]:
    """Numerator polynomial of each non-identically-satisfied requirement."""
    lines, points = _run_plan(plan, lambda step: step.cleared, _cross)
    out = []
    for req in plan.requires():
        (l0, l1, l2, dl), (p0, p1, p2, dp) = lines[req.line], points[req.point]
        incidence = _add(_add(_convolve(l0, p0), _convolve(l1, p1)), _convolve(l2, p2))
        if incidence:
            reduced = RatFunc(_poly(incidence, 1), _poly(_convolve(dl, dp), 1))
            out.append((req.point, req.line, reduced.num))
    return out


class ModuliConstraint(Record, compared=5):
    """The admissible factor: a quadratic (or degenerately linear) polynomial
    whose roots index the moduli components.  ``realizations`` are the plan
    at the two roots: over a quadratic field the plan is evaluated and
    checked against the target lattice at the "+" root, and the "-"
    realization is its Galois conjugate, coefficient by coefficient."""

    __slots__ = ("poly", "var", "field", "roots", "discarded", "realizations")

    def __init__(self, poly: Poly, var: str, field: FieldSpec, roots: tuple[QuadExt, QuadExt],
                 discarded: tuple[tuple[Poly, str], ...],
                 realizations: tuple[Arrangement, Arrangement]) -> None:
        self._fill(poly, var, field, roots, discarded, realizations)

    def format(self) -> str:
        return self.poly.format(self.var)

    def to_dict(self) -> dict:
        """The JSON fields; root_product is None unless the poly is quadratic."""
        return {"constraint": self.format(), "field_d": self.field.d,
                "roots": [str(r) for r in self.roots],
                "root_product": (str(root_product(self.poly))
                                 if self.poly.degree == 2 else None),
                "discarded": [[f.format(self.var), reason]
                              for f, reason in self.discarded]}

    def __str__(self) -> str:
        return self.format()


def _roots_of_factor(factor: Poly) -> tuple[FieldSpec, tuple[QuadExt, ...]]:
    if factor.degree == 1:
        r = QuadExt(-factor[0] / factor[1])
        return RATIONAL, (r,)
    field, rp, rm = quad_roots(factor[2], factor[1], factor[0])
    return field, (rp, rm)


def derive_constraint(plan: ConstructionPlan, target: ConfigTable) -> ModuliConstraint:
    """Extract the residual incidence constraint and keep the unique factor
    whose every root realizes the target combinatorics exactly: the plan's
    lines at the root, grouped by ``_multiple_points``, meet in the target's
    points.  The plan is evaluated once per factor, at its first root: the
    one root of a linear factor, or the "+" root of an irreducible
    quadratic, whose conjugate root passes or fails alike.

    Factors of individual requirement numerators that are not common to
    all requirements are reported in `discarded` (a part that does not
    split into rational roots and quadratics, or is too large to factor,
    is reported unfactored), as are common factors that fail realization
    (pole, degeneracy, or lattice mismatch).
    """
    if plan.n != target.n:
        raise ValidationError("plan and table have different line counts")
    numerators = [num for _, _, num in residual_numerators(plan)]
    discarded: list[tuple[Poly, str]] = []
    if not numerators:
        raise ConstraintError("no residual requirements: nothing constrains the parameter")

    common = numerators[0]
    for num in numerators[1:]:
        common = common.gcd(num)
    candidates = [f for f, _ in poly_reduce(common)]    # [] for a constant

    seen_noncommon = set()
    for num in numerators:
        while (shared := num.gcd(common)).degree > 0:
            num = num // shared
        try:
            factors = [f for f, _ in poly_reduce(num)]
        except (UnsupportedDegreeError, ValidationError):
            factors = [num.primitive()[1]]
        for factor in factors:
            if factor in seen_noncommon:
                continue
            seen_noncommon.add(factor)
            discarded.append((factor, "not common to all requirements"))

    admissible = []
    for factor in candidates:
        # poly_reduce splits off every rational root, so a factor's field is
        # rational exactly when the factor is linear.  A pole, degeneracy or
        # lattice verdict at the "+" root holds at the conjugate root too,
        # because conjugation is a field automorphism that fixes the plan's
        # rational coefficients; the "-" realization is the "+" one with
        # every coefficient conjugated.
        field, roots = _roots_of_factor(factor)
        try:
            plus = evaluate_plan(plan, roots[0])
        except PoleError:
            verdict = f"pole at root of {factor.format(plan.var)}"
        except (DegenerateError, ValidationError) as exc:
            verdict = f"degenerate: {exc}"
        else:
            derived = frozenset(map(frozenset, _multiple_points(plus).values()))
            verdict = None if derived == target.point_sets else "lattice mismatch"
        if verdict is not None:
            discarded.append((factor, verdict))
            continue
        minus = plus
        if not field.is_rational:
            # conjugation keeps a key primitive: its pivot is rational
            minus = Arrangement(plus.name, plus.field, [
                ProjLine._keyed(_CONJUGATE._image(ln.key), ln.field) for ln in plus.lines])
        admissible.append((factor, field, roots, (plus, minus)))

    if not admissible:
        raise ConstraintError(
            "zero admissible factors: no candidate realizes the target lattice "
            f"(discarded: {[(f.format(plan.var), r) for f, r in discarded]})")
    if len(admissible) > 1:
        polys = ", ".join(f.format(plan.var) for f, *_ in admissible)
        raise ConstraintError(f"more than one admissible factor: {polys}")

    factor, field, roots, realizations = admissible[0]
    return ModuliConstraint(poly=factor.primitive()[1], var=plan.var, field=field,
                            roots=(roots[0], roots[-1]), discarded=tuple(discarded),
                            realizations=realizations)


def realize_components(plan: ConstructionPlan,
                       constraint: ModuliConstraint) -> tuple[Arrangement, Arrangement]:
    """The components: the plan's realizations at the "+" and "-" roots,
    kept from `derive_constraint`; the "-" one is the Galois conjugate of
    the "+" one, since the plan's coefficients are rational."""
    if constraint.poly.degree != 2 or constraint.field.is_rational:
        raise ConstraintError("moduli not disconnected: constraint has a single "
                              "rational root")
    return tuple(a._renamed(plan.name + sign)
                 for sign, a in zip("+-", constraint.realizations))


def root_product(poly: Poly) -> Fraction:
    """Product of the two roots of a quadratic (Vieta: constant over leading)."""
    if poly.degree != 2:
        raise ValidationError("root_product expects a quadratic")
    return poly[0] / poly[2]
