import math
import re
from fractions import Fraction as F

import pytest

from arrsym.errors import RenderError
from arrsym.fields import RATIONAL
from arrsym.geometry import Arrangement, ProjLine
from arrsym.render import RenderOptions, render_primitives, render_svg


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
