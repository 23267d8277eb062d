import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import render
from arrsym.errors import RenderError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement, ProjLine, lattice_of
from arrsym.render import RenderOptions, render_primitives, render_svg

from conftest import ALL_CASES, Ref, cross, quads


def segments_of(svg):
    return [tuple(float(v) for v in m.groups())
            for m in re.finditer(
                r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"',
                svg)]


def markers_of(svg):
    return [(float(m.group(1)), float(m.group(2)))
            for m in re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)]


def test_case1_affine_section(realized):
    # sending line 10 to infinity leaves 9 drawable lines; the three listed
    # points through line 10 are at infinity, so 7 finite markers remain
    _, _, plus, _ = realized("{1}")
    svg = render_svg(plus, RenderOptions(infinity=10))
    assert len(segments_of(svg)) == 9
    assert len(markers_of(svg)) == 7


def test_byte_identical_across_runs(realized):
    _, _, plus, _ = realized("{1}")
    options = RenderOptions(infinity=10)
    assert render_svg(plus, options) == render_svg(plus, options)


def test_markers_lie_on_incident_segments(realized):
    _, _, plus, _ = realized("{1}")
    segments, markers, _ = render_primitives(plus, RenderOptions(infinity=10))
    for (px, py), mult in markers:
        incident = 0
        for _idx, (alpha, beta, gamma), _seg in segments:
            # distance from the marker to the segment's supporting line
            dist = abs(alpha * px + beta * py + gamma) / math.hypot(alpha, beta)
            if dist < 1e-9:
                incident += 1
        assert incident >= mult - 1    # at most one incident line is at infinity


def test_single_line_with_viewport():
    arrangement = Arrangement("one", RATIONAL, [ProjLine((1, 0, 0))])
    svg = render_svg(arrangement,
                     RenderOptions(viewport=(F(-1), F(-1), F(1), F(1))))
    assert len(segments_of(svg)) == 1
    assert not markers_of(svg)


def test_every_line_is_drawn_with_no_multiple_point():
    # tangents of a parabola, no three concurrent, and a horizontal and a
    # vertical line through none of their meets: with no marker the box is
    # built from the axis intercepts, and each line gets one segment
    arrangement = Arrangement("tangents", RATIONAL, [
        *(ProjLine((1, k, k * k + 7)) for k in range(1, 8)),
        ProjLine((0, 2, -1)), ProjLine((1, 0, 100))])
    assert lattice_of(arrangement)[1].points == ()
    segments, markers, _ = render_primitives(arrangement, RenderOptions())
    assert [idx for idx, *_ in segments] == list(range(1, 10)) and markers == []
    one = Arrangement("one", RATIONAL, [ProjLine((1, 0, 0))])
    assert render_primitives(one, RenderOptions(infinity=1)) == ([], [], (-1, -1, 1, 1))


def test_no_real_section_for_imaginary_field(realized):
    _, _, plus, _ = realized("maclane")
    with pytest.raises(RenderError):
        render_svg(plus, RenderOptions())


def test_real_field_renders_without_infinity(realized):
    # two of the nine multiple points sit at infinity in the plain z=1 chart
    _, _, plus, _ = realized("falk-sturmfels")
    svg = render_svg(plus, RenderOptions())
    assert len(segments_of(svg)) == 9
    assert len(markers_of(svg)) == 7


def test_infinity_out_of_range(realized):
    _, _, plus, _ = realized("{1}")
    with pytest.raises(RenderError):
        render_svg(plus, RenderOptions(infinity=11))


def test_degenerate_viewport(realized):
    _, _, plus, _ = realized("{1}")
    with pytest.raises(RenderError):
        render_svg(plus, RenderOptions(viewport=(F(1), F(0), F(1), F(2))))


def test_coordinates_beyond_float_range_raise_render_error():
    arrangement = Arrangement("big", RATIONAL, [ProjLine((1, 0, -10 ** 400))])
    with pytest.raises(RenderError, match="beyond float range"):
        render_primitives(arrangement, RenderOptions())
    one = Arrangement("one", RATIONAL, [ProjLine((1, 0, 0))])
    with pytest.raises(RenderError, match="beyond float range"):
        render_primitives(one, RenderOptions(viewport=(F(0), F(0), F(10) ** 400, F(1))))


# -- the chart with no line at infinity -------------------------------------------
# _chart_transform runs one chart; with no line chosen it sends z = 0 to
# infinity.  The reference is the replaced branch for that case: a line's
# coordinates as they are, a point's x/z and y/z.

def reference_chart(arrangement):
    points, table = lattice_of(arrangement)
    forms = []
    for idx, line in enumerate(arrangement.lines, start=1):
        a, b, c = line.coords
        if a.is_zero and b.is_zero:
            raise RenderError(f"line {idx} coincides with the infinity line")
        forms.append((idx, (a, b, c)))
    markers = []
    for point, (_, incident) in zip(points, table.points):
        x, y, z = point.coords
        if not z.is_zero:
            markers.append((quads((Ref.of(x) / z, Ref.of(y) / z)), len(incident)))
    return forms, markers


def exact(chart):
    """Each scalar as its integers and field, so equal charts compare equal
    down to the representation."""
    def key(v):
        return (v._p, v._q, v._den, v._d, v.field)

    forms, markers = chart
    return ([(idx, tuple(map(key, form))) for idx, form in forms],
            [(tuple(map(key, point)), mult) for point, mult in markers])


def outcome(build, *args):
    try:
        return build(*args)
    except RenderError as exc:
        return str(exc)


def assert_same_chart(arrangement, monkeypatch):
    got = outcome(lambda: exact(render._chart_transform(arrangement, None)))
    assert got == outcome(lambda: exact(reference_chart(arrangement)))
    if arrangement.field.d is not None and arrangement.field.d < 0:
        return
    options = RenderOptions()
    primitives = outcome(render_primitives, arrangement, options)
    with monkeypatch.context() as patch:
        patch.setattr(render, "_chart_transform", lambda a, _: reference_chart(a))
        assert primitives == outcome(render_primitives, arrangement, options)


@pytest.mark.parametrize("name", ALL_CASES)
def test_the_plain_chart_matches_the_reference_on_the_corpus(name, realized, monkeypatch):
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        assert_same_chart(arrangement, monkeypatch)


small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def real_arrangements(draw):
    """Lines over Q or Q(sqrt 5), some through common points, some parallel
    in the plain chart or equal to z = 0."""
    field = draw(st.sampled_from([RATIONAL, FieldSpec.quadratic(5)]))

    def triple():
        return tuple(QuadExt(draw(small), draw(small) if field.d else 0, field)
                     for _ in range(3))

    raw = [triple() for _ in range(draw(st.integers(1, 4)))]
    for size in draw(st.lists(st.sampled_from([3, 4]), max_size=2)):
        center = triple()
        if draw(st.booleans()):         # a point at infinity of the plain chart
            center = center[:2] + (QuadExt(0),)
        raw += [quads(cross(center, triple()), field) for _ in range(size)]
    lines = {}
    for coords in raw:
        if not all(c.is_zero for c in coords):
            line = ProjLine(coords, field)
            lines.setdefault(line.key, line)
    return Arrangement("generated", field, list(lines.values()))


@settings(max_examples=150, deadline=None)
@given(real_arrangements().filter(lambda arrangement: arrangement.n))
def test_the_plain_chart_matches_the_reference(arrangement):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_chart(arrangement, monkeypatch)
