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
