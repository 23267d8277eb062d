"""Fermat arrangements A(m,m,3), built exactly.

A(m,m,3) has the 3 + 3m lines x, y, z and x - ζy, y - ζz, z - ζx for every
ζ with ζ^m = 1.  Its multiple points are m^2 triple points and three points
of multiplicity m + 2, so its automorphism search grows quickly with m: it is
the benchmark's generated stress input for the lattice automorphism search.
"""

from __future__ import annotations

from fractions import Fraction

from arrsym import (RATIONAL, Arrangement, ConfigTable, FieldSpec,
                    Permutation, QuadExt, geometry)

_HALF = Fraction(1, 2)

# m -> (d of the field Q(sqrt d), or None for Q; a primitive m-th root of
# unity as its (a, b) in a + b*sqrt(d))
_PRIMITIVE_ROOT = {
    2: (None, (-1, 0)),
    3: (-3, (-_HALF, _HALF)),
    4: (-1, (0, 1)),
    6: (-3, (_HALF, _HALF)),
}

# multiplicity -> number of points, for every m above
CENSUS = {
    2: {4: 3, 3: 4},
    3: {5: 3, 3: 9},
    4: {6: 3, 3: 16},
    6: {8: 3, 3: 36},
}


def fermat_arrangement(m: int) -> Arrangement:
    """A(m,m,3) with labels x=1, y=2, z=3, then x - ζ^k y, y - ζ^k z and
    z - ζ^k x for k = 0..m-1, each block in order of k."""
    d, (a, b) = _PRIMITIVE_ROOT[m]
    field = RATIONAL if d is None else FieldSpec.quadratic(d)
    zeta = QuadExt(a, b, field)
    powers = [zeta ** k for k in range(m)]
    if zeta ** m != 1 or any(z == 1 for z in powers[1:]):
        raise ValueError(f"{zeta} is not a primitive {m}-th root of unity")
    one, zero = QuadExt(1, 0, field), QuadExt(0, 0, field)
    lines = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    lines += [(one, -z, zero) for z in powers]
    lines += [(zero, one, -z) for z in powers]
    lines += [(-z, zero, one) for z in powers]
    return Arrangement(f"fermat-{m}", field, lines)


def fermat_table(arrangement: Arrangement, m: int) -> ConfigTable:
    """The arrangement's configuration table, derived by ``lattice_of`` and
    checked against the known census of A(m,m,3)."""
    _, table = geometry.lattice_of(arrangement)
    census = table.multiplicity_census()
    if census != CENSUS[m]:
        raise ValueError(f"A({m},{m},3) census {census}, expected {CENSUS[m]}")
    return table


def swap_sigma(m: int) -> Permutation:
    """The relabelling induced by x <-> y, read off the construction.

    The swap sends x - ζ^k y to a multiple of x - ζ^-k y, y - ζ^k z to a
    multiple of z - ζ^-k x, and z - ζ^k x to a multiple of y - ζ^-k z.
    """
    def xy(k):
        return 4 + k % m

    def yz(k):
        return 4 + m + k % m

    def zx(k):
        return 4 + 2 * m + k % m

    images = [2, 1, 3]
    images += [xy(-k) for k in range(m)]
    images += [zx(-k) for k in range(m)]
    images += [yz(-k) for k in range(m)]
    return Permutation(images)
