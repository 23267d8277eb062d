"""SVG rendering of real affine sections.

A chosen line is sent to z = 0 by an exact coordinate change; every other
line is clipped to the viewport and each finite multiple point gets a
marker.  This is the only place in the package where floats appear.
"""

from __future__ import annotations

from math import inf

from .errors import RenderError
from .fields import QuadExt, _quad
from .geometry import Arrangement, _primitive, lattice_of
from .record import Record

_CANVAS = 640.0
_STROKE_WIDTH = 1.5
_MARKER_RADIUS = 4.0


class RenderOptions(Record):
    __slots__ = ("infinity", "viewport")
    _defaults = (None, None)                    # viewport: (xmin, ymin, xmax, ymax)


def _chart_transform(arrangement: Arrangement, infinity: int | None):
    """Exact change of coordinates sending the chosen line l to z' = 0.

    Returns (line_forms, finite_points): affine line coefficients
    (alpha, beta, gamma) meaning alpha*x + beta*y + gamma = 0, and the
    finite multiple points as ((x, y), multiplicity) — all still exact.
    With no line chosen, l is z = 0 itself: gamma is a line's z-coefficient,
    (alpha, beta) its other two, and a point's z' is its z.  Everything is
    computed on keys over Z[sqrt d]; each value is built once, at the end.
    """
    n = arrangement.n
    if infinity is not None and not 1 <= infinity <= n:
        raise RenderError(f"infinity line {infinity} out of range 1..{n}")
    points, table = lattice_of(arrangement)
    field = arrangement.field
    d = field.d or 0
    ell = (0, 0, 0, 0, 1, 0) if infinity is None else arrangement.line(infinity).key
    pivot = next(k for k in (0, 2, 4) if ell[k])    # l's pivot s = ell[pivot]: rational, > 0
    s = ell[pivot]
    k0, k1 = (k for k in (0, 2, 4) if k != pivot)

    def line_form(w):
        # (line*s - line[p]*l)/(s_line*s) at the kept k, and line[p]/s_line
        a, b, s_line = w[pivot], w[pivot + 1], w[0] or w[2] or w[4]
        return tuple(_quad(w[k] * s - a * ell[k] - d * b * ell[k + 1],
                           w[k + 1] * s - a * ell[k + 1] - b * ell[k], s_line * s, d, field)
                     for k in (k0, k1)) + (_quad(a, b, s_line, d, field),)

    def point_coords(x):
        # s*X_k/(l.X), made rational by _primitive: its first entry is the denominator
        za = sum(ell[k] * x[k] + d * ell[k + 1] * x[k + 1] for k in (0, 2, 4))
        zb = sum(ell[k] * x[k + 1] + ell[k + 1] * x[k] for k in (0, 2, 4))
        if not (za or zb):
            return None
        w = _primitive((za, zb, s * x[k0], s * x[k0 + 1], s * x[k1], s * x[k1 + 1]), d)
        return _quad(w[2], w[3], w[0], d, field), _quad(w[4], w[5], w[0], d, field)

    forms = []
    for idx, line in enumerate(arrangement.lines, start=1):
        if idx == infinity:
            continue
        alpha, beta, gamma = line_form(line.key)
        if alpha.is_zero and beta.is_zero:
            raise RenderError(f"line {idx} coincides with the infinity line")
        forms.append((idx, (alpha, beta, gamma)))

    markers = []
    for point, (_, incident) in zip(points, table.points):
        affine = point_coords(point.key)
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


def _intercepts(float_forms):
    """Where each line alpha*x + beta*y + gamma = 0 meets the axes:
    (0, -gamma/beta) when beta != 0, (-gamma/alpha, 0) when alpha != 0."""
    for _, (alpha, beta, gamma) in float_forms:
        if beta:
            yield 0.0, -gamma / beta
        if alpha:
            yield -gamma / alpha, 0.0


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
    else:
        # the markers; with none, every line meets the box at an intercept;
        # with no line, the padding alone: [-1, 1]^2
        spots = ([p for p, _ in float_markers] or list(_intercepts(float_forms))
                 or [(0.0, 0.0)])
        xs = [p[0] for p in spots]
        ys = [p[1] for p in spots]
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
        pad_x = 0.2 * (xmax - xmin) or 1.0
        pad_y = 0.2 * (ymax - ymin) or 1.0
        xmin, xmax = xmin - pad_x, xmax + pad_x
        ymin, ymax = ymin - pad_y, ymax + pad_y
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
                   f'stroke="black" stroke-width="{_STROKE_WIDTH:g}">'
                   f'<title>line {idx}</title></line>')
    for (px, py), mult in float_markers:
        cx, cy = to_svg((px, py))
        fill = "black" if mult == 3 else "red"
        out.append(f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{_MARKER_RADIUS:g}" '
                   f'fill="{fill}"><title>multiplicity {mult}</title></circle>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
