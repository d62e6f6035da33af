"""Static SVG figures for frameworks and framed cycles.

Points are projected into the chart's affine coordinates and scaled into a
fixed viewBox; output bytes are deterministic functions of the input.  The
chart coordinates and the chart line coefficients are integer ratios, each
turned into a float by one true division (correctly rounded, as the float
of the same Fraction).  The drawing is in floats, so a chart coordinate or
a framing line coefficient beyond the float range, or a data window too
wide for one, is a precondition failure.
"""

from __future__ import annotations

from .errors import PointAtInfinityError, PreconditionError
from .framework import Framework
from .projective import AffineChart, ProjLine, _dot

WIDTH = 560.0
HEIGHT = 560.0
MARGIN = 50.0


def _chart_xy(label, point, chart: AffineChart):
    """Chart coordinates of the labeled point as integer ratios (x, s),
    (y, s): its coordinates on the chart's axes over its scale s = <p, V>."""
    s = _dot(point.coords, chart.field)
    if s == 0:
        raise PointAtInfinityError(f"point {label} lies on the infinity line")
    _drop, keep = chart.axes()
    return (point.coords[keep[0]], s), (point.coords[keep[1]], s)


def _chart_line_coeffs(line: ProjLine, chart: AffineChart):
    """Affine equation A u + B v + C = 0 of the line in chart coordinates,
    each coefficient an integer ratio over V's dropped coordinate."""
    field = chart.field
    drop, keep = chart.axes()
    ld, vd = line.coeffs[drop], field[drop]
    return ((line.coeffs[keep[0]] * vd - ld * field[keep[0]], vd),
            (line.coeffs[keep[1]] * vd - ld * field[keep[1]], vd),
            (ld, vd))


def _floats(ratios, what: str):
    """The integer ratios (n, d) as floats n / d; PreconditionError if one
    is beyond the float range."""
    try:
        return [n / d for n, d in ratios]
    except OverflowError:
        raise PreconditionError(f"cannot draw: a {what} exceeds the float range") from None


def _fit(xs, ys):
    """Screen mapping plus the (slightly padded) data window it covers."""
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    if span == float("inf"):
        raise PreconditionError("cannot draw: the chart coordinates span more than"
                                " the float range")
    scale = (WIDTH - 2 * MARGIN) / span
    pad = 0.8 * MARGIN / scale
    window = (lo_x - pad, lo_x + span + pad, lo_y - pad, lo_y + span + pad)

    def to_screen(x, y):
        u = MARGIN + (x - lo_x) * scale
        v = HEIGHT - MARGIN - (y - lo_y) * scale
        return u, v

    return to_screen, window


def _clip_line(coeffs, to_screen, window):
    """Segment of A u + B v + C = 0, the coefficients integer ratios,
    clipped to the data window, in screen coordinates; None if it misses
    the window."""
    a, b, c = _floats(coeffs, "framing line coefficient")
    x_min, x_max, y_min, y_max = window
    pts = []
    if abs(b) > 1e-12:
        for x in (x_min, x_max):
            y = -(a * x + c) / b
            if y_min - 1e-9 <= y <= y_max + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-12:
        for y in (y_min, y_max):
            x = -(b * y + c) / a
            if x_min - 1e-9 <= x <= x_max + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return to_screen(*uniq[0]), to_screen(*uniq[1])


def _svg(elements) -> str:
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
            f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n')
    return head + "".join(f"  {e}\n" for e in elements) + "</svg>\n"


def _draw(points, edges, framings, chart: AffineChart) -> str:
    """SVG of ordered (label, point) pairs, edges given as label pairs, and
    framing lines drawn dashed across the view window."""
    exact = {label: _chart_xy(label, p, chart) for label, p in points}
    xs = _floats((x for x, _ in exact.values()), "chart coordinate")
    ys = _floats((y for _, y in exact.values()), "chart coordinate")
    xy = dict(zip(exact, zip(xs, ys)))
    to_screen, window = _fit(xs, ys)
    elements = []
    for l in framings:
        seg = _clip_line(_chart_line_coeffs(l, chart), to_screen, window)
        if seg:
            (u1, v1), (u2, v2) = seg
            elements.append(
                f'<line x1="{u1:.2f}" y1="{v1:.2f}" x2="{u2:.2f}" y2="{v2:.2f}" '
                'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>')
    for a, b in edges:
        u1, v1 = to_screen(*xy[a])
        u2, v2 = to_screen(*xy[b])
        elements.append(
            f'<line x1="{u1:.2f}" y1="{v1:.2f}" x2="{u2:.2f}" y2="{v2:.2f}" '
            'stroke="#1f3b73" stroke-width="2"/>')
    for label, p in xy.items():
        u, w = to_screen(*p)
        elements.append(f'<circle cx="{u:.2f}" cy="{w:.2f}" r="4" fill="#b22222"/>')
        elements.append(
            f'<text x="{u + 7:.2f}" y="{w - 7:.2f}" '
            f'font-family="monospace" font-size="14">{label}</text>')
    return _svg(elements)


def render_framework(fw: Framework, chart: AffineChart) -> str:
    """SVG with labeled points and edges."""
    points = [(v, fw.placement[v]) for v in sorted(fw.graph.vertices)]
    return _draw(points, fw.graph.edges, (), chart)


def render_framed_cycle(cycle, chart: AffineChart) -> str:
    """SVG of a framed cycle: cycle edges solid, framing lines dashed."""
    labels = [f"q{i + 1}" for i in range(len(cycle))]
    edges = zip(labels, labels[1:] + labels[:1])
    return _draw(zip(labels, cycle.points), edges, cycle.framings, chart)
