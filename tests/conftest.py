from fractions import Fraction

import pytest

from arrsym import corpus
from arrsym.combinatorics import ConfigTable
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement
from arrsym.moduli import derive_constraint, realize_components


@pytest.fixture(scope="session")
def realized():
    """Per-case (case, constraint, plus, minus), derived once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            case = corpus.get_case(name)
            constraint = derive_constraint(case.plan, case.config)
            plus, minus = realize_components(case.plan, constraint)
            cache[name] = (case, constraint, plus, minus)
        return cache[name]

    return get


POSITIVE_CASES = ["{1}", "{6}", "{7}", "maclane", "nazir-yoshinaga",
                  "11.B.3.b.2.iii", "11.B.3.b.2.iv", "11.B.2.iv"]
ALL_CASES = POSITIVE_CASES + ["falk-sturmfels"]


HALF = Fraction(1, 2)
# m -> (field, a primitive m-th root of unity as (a, b) in a + b*sqrt(d))
ROOTS_OF_UNITY = {2: (RATIONAL, (-1, 0)),
                  3: (FieldSpec.quadratic(-3), (-HALF, HALF)),
                  4: (FieldSpec.quadratic(-1), (0, 1)),
                  6: (FieldSpec.quadratic(-3), (HALF, HALF))}


def fermat_arrangement(m):
    """A(m,m,3): x, y, z and x - ζy, y - ζz, z - ζx for every ζ with ζ^m = 1."""
    field, (a, b) = ROOTS_OF_UNITY[m]
    zeta = QuadExt(a, b, field)
    powers = [zeta ** k for k in range(m)]
    one, zero = QuadExt(1, 0, field), QuadExt(0, 0, field)
    lines = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    lines += [(one, -z, zero) for z in powers]
    lines += [(zero, one, -z) for z in powers]
    lines += [(-z, zero, one) for z in powers]
    return Arrangement(f"fermat-{m}", field, lines)


def fermat_table(m):
    """The Fermat arrangement A(m,m,3) from its combinatorics alone.

    Lines 1, 2, 3 are x, y, z; lines 4 + k, 4 + m + k and 4 + 2m + k are
    x - ζ^k y, y - ζ^k z and z - ζ^k x for a primitive m-th root of unity ζ.
    The coordinate points carry the three points of multiplicity m + 2, and
    x - ζ^a y, y - ζ^b z, z - ζ^c x meet exactly when a + b + c = 0 mod m."""
    xy, yz, zx = ([start + k for k in range(m)] for start in (4, 4 + m, 4 + 2 * m))
    points = [{1, 2, *xy}, {2, 3, *yz}, {3, 1, *zx}]
    points += [{xy[a], yz[b], zx[-(a + b) % m]} for a in range(m) for b in range(m)]
    return ConfigTable(f"A({m},{m},3)", 3 + 3 * m,
                       [(f"p{k}", s) for k, s in enumerate(points, 1)])


def chain_plan(n):
    """Grid lines 1-4 and generic lines 5-7; then line k, for k = 8..n, joins
    meet(k-1, a) and meet(k-2, b), with a and b the first of lines 1-7 (in an
    order rotated by k) that keep the join from degenerating.  The degree of
    the entries grows about 2.6 times for every two lines."""
    text = ["plan chain over t", f"lines {n}", "line 1 : 1 ; 0 ; 0",
            "line 2 : 1 ; 0 ; -1", "line 3 : 0 ; 1 ; 0", "line 4 : 0 ; 1 ; -1",
            "line 5 : 1 ; t ; 2", "line 6 : t ; 1 ; 3", "line 7 : 2 ; 3 ; t"]
    through = {k: {k} for k in range(1, 8)}     # given lines each join uses
    for k in range(8, n + 1):
        pool = [5, 6, 7, 1, 2, 3, 4][k % 7:] + [5, 6, 7, 1, 2, 3, 4][:k % 7]
        a = next(x for x in pool if x not in through[k - 1] | {k - 1})
        b = next(x for x in pool
                 if x not in through[k - 1] | through[k - 2] | {k - 2, a})
        through[k] = {a, b}
        text += [f"point P{k} : meet {k - 1} {a}", f"point Q{k} : meet {k - 2} {b}",
                 f"line {k} : join P{k} Q{k}"]
    return "\n".join(text + ["point Z : meet 1 3", f"require Z on {n}"]) + "\n"
