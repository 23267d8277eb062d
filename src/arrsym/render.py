"""SVG rendering of real affine sections.

A chosen line is sent to z = 0 by an exact coordinate change; every other
line is clipped to the viewport and each finite multiple point gets a
marker.  This is the only place in the package where floats appear.
"""

from __future__ import annotations

from math import inf

from .errors import RenderError
from .fields import QuadExt
from .geometry import Arrangement, ProjLine, lattice_of
from .record import Record

_CANVAS = 640.0


class RenderOptions(Record):
    __slots__ = ("infinity", "viewport", "stroke_width", "marker_radius")
    _defaults = (None, None, 1.5, 4.0)          # viewport: (xmin, ymin, xmax, ymax)


def _chart_transform(arrangement: Arrangement, infinity: int | None):
    """Exact change of coordinates sending the chosen line l to z' = 0.

    Returns (line_forms, finite_points): affine line coefficients
    (alpha, beta, gamma) meaning alpha*x + beta*y + gamma = 0, and the
    finite multiple points as ((x, y), multiplicity) — all still exact.
    With no line chosen, l is z = 0 itself: gamma is a line's z-coefficient,
    (alpha, beta) its other two, and a point's z' is its z.
    """
    n = arrangement.n
    if infinity is not None and not 1 <= infinity <= n:
        raise RenderError(f"infinity line {infinity} out of range 1..{n}")
    points, table = lattice_of(arrangement)
    ell = (ProjLine((0, 0, 1)) if infinity is None else arrangement.line(infinity)).coords
    pivot = next(k for k in range(3) if not ell[k].is_zero)
    keep = [k for k in range(3) if k != pivot]

    def line_form(line):
        coords = line.coords
        gamma = coords[pivot] / ell[pivot]
        residual = tuple(coords[k] - gamma * ell[k] for k in range(3))
        return (residual[keep[0]], residual[keep[1]], gamma)

    def point_coords(point):
        coords = point.coords
        zp = ell[0] * coords[0] + ell[1] * coords[1] + ell[2] * coords[2]
        if zp.is_zero:
            return None
        return (coords[keep[0]] / zp, coords[keep[1]] / zp)

    forms = []
    for idx, line in enumerate(arrangement.lines, start=1):
        if idx == infinity:
            continue
        alpha, beta, gamma = line_form(line)
        if alpha.is_zero and beta.is_zero:
            raise RenderError(f"line {idx} coincides with the infinity line")
        forms.append((idx, (alpha, beta, gamma)))

    markers = []
    for point, (_, incident) in zip(points, table.points):
        affine = point_coords(point)
        if affine is not None:
            markers.append((affine, len(incident)))
    return forms, markers


def _clip_segment(alpha: float, beta: float, gamma: float, box):
    """Intersect alpha*x + beta*y + gamma = 0 with a rectangle; returns the
    segment endpoints or None."""
    xmin, ymin, xmax, ymax = box
    eps = 1e-12
    pts = []
    if abs(beta) > eps:
        for x in (xmin, xmax):
            y = -(gamma + alpha * x) / beta
            if ymin - eps <= y <= ymax + eps:
                pts.append((x, y))
    if abs(alpha) > eps:
        for y in (ymin, ymax):
            x = -(gamma + beta * y) / alpha
            if xmin - eps <= x <= xmax + eps:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) > 1e-9 or abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def _floats(values) -> tuple[float, ...]:
    """Exact scalars or Fractions as floats; RenderError beyond float range."""
    try:
        return tuple(v.to_float() if isinstance(v, QuadExt) else float(v)
                     for v in values)
    except OverflowError as exc:
        raise RenderError(f"coordinate beyond float range ({exc})") from exc


def render_primitives(arrangement: Arrangement, options: RenderOptions):
    """Float geometry behind the SVG: ((label, segment) list, (point, mult)
    list, viewport box), in world coordinates."""
    field = arrangement.field
    if field.d is not None and field.d < 0:
        raise RenderError(f"no real section: field is {field}")

    forms, markers = _chart_transform(arrangement, options.infinity)
    float_forms = [(idx, _floats(form)) for idx, form in forms]
    float_markers = [(_floats(point), mult) for point, mult in markers]
    # markers in lattice order are already deterministic; sort for stability
    float_markers.sort(key=lambda m: (m[0][0], m[0][1], m[1]))

    if options.viewport is not None:
        xmin, ymin, xmax, ymax = _floats(options.viewport)
        if not (xmax > xmin and ymax > ymin):
            raise RenderError("degenerate viewport")
    elif float_markers:
        xs = [p[0] for p, _ in float_markers]
        ys = [p[1] for p, _ in float_markers]
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
        pad_x = 0.2 * (xmax - xmin) or 1.0
        pad_y = 0.2 * (ymax - ymin) or 1.0
        xmin, xmax = xmin - pad_x, xmax + pad_x
        ymin, ymax = ymin - pad_y, ymax + pad_y
    else:
        xmin, ymin, xmax, ymax = -1.0, -1.0, 1.0, 1.0
    width, height = xmax - xmin, ymax - ymin
    if not (0 < width < inf and 0 < height < inf and _CANVAS / max(width, height) < inf):
        raise RenderError(f"viewport {width:g} by {height:g} cannot be drawn")
    box = (xmin, ymin, xmax, ymax)

    segments = []
    for idx, (alpha, beta, gamma) in float_forms:
        segment = _clip_segment(alpha, beta, gamma, box)
        if segment is not None:
            segments.append((idx, (alpha, beta, gamma), segment))
    return segments, float_markers, box


def render_svg(arrangement: Arrangement, options: RenderOptions) -> str:
    """Deterministic SVG: one clipped segment per finite line, one circle per
    finite multiple point."""
    for what, value in (("stroke width", options.stroke_width),
                        ("marker radius", options.marker_radius)):
        if not 0 < value < inf:
            raise RenderError(f"{what} must be finite and positive, not {value:g}")
    segments, float_markers, box = render_primitives(arrangement, options)
    xmin, ymin, xmax, ymax = box
    scale = _CANVAS / max(xmax - xmin, ymax - ymin)

    def to_svg(p):
        return ((p[0] - xmin) * scale, (ymax - p[1]) * scale)

    width = (xmax - xmin) * scale
    height = (ymax - ymin) * scale
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
           f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
           f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}" fill="white"/>']
    for idx, _form, segment in segments:
        (x1, y1), (x2, y2) = (to_svg(p) for p in segment)
        out.append(f'<line x1="{x1:.6f}" y1="{y1:.6f}" x2="{x2:.6f}" y2="{y2:.6f}" '
                   f'stroke="black" stroke-width="{options.stroke_width:g}">'
                   f'<title>line {idx}</title></line>')
    for (px, py), mult in float_markers:
        cx, cy = to_svg((px, py))
        fill = "black" if mult == 3 else "red"
        out.append(f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{options.marker_radius:g}" '
                   f'fill="{fill}"><title>multiplicity {mult}</title></circle>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
