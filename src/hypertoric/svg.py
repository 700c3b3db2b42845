"""Deterministic SVG rendering of planar arrangements."""

from __future__ import annotations

from fractions import Fraction

from hypertoric.arrangement import ArrangementError, StackyArrangement
from hypertoric.multifan import circuits


class UnsupportedDimension(ArrangementError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.4f}"


def _line_segment(normal, offset, xmin, xmax, ymin, ymax):
    """Clip the line <normal, v> + offset = 0 to the bounding box."""
    a, b = Fraction(normal[0]), Fraction(normal[1])
    c = Fraction(offset)
    pts = []
    if b != 0:
        for x in (xmin, xmax):
            y = (-c - a * x) / b
            if ymin <= y <= ymax:
                pts.append((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = (-c - b * y) / a
            if xmin <= x <= xmax:
                pts.append((x, y))
    pts = sorted(set(pts))
    if len(pts) < 2:
        return None
    return pts[0], pts[-1]


def emit_svg(arr: StackyArrangement, path: str) -> str:
    """Write an SVG of the lines, shaded bounded chambers, circuit notes.

    Only d = 2 arrangements are drawable.
    """
    if arr.d != 2:
        raise UnsupportedDimension("SVG rendering needs a rank-2 arrangement")
    chambers = arr.bounded_chambers()
    verts = []
    for ch in chambers:
        verts.extend(ch.vertices())
    if verts:
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        xmin, xmax = min(xs) - 2, max(xs) + 2
        ymin, ymax = min(ys) - 2, max(ys) + 2
    else:
        xmin, xmax, ymin, ymax = Fraction(-3), Fraction(3), Fraction(-3), Fraction(3)
    scale = 60
    width = float(xmax - xmin) * scale
    height = float(ymax - ymin) * scale

    def to_screen(p):
        return (
            _fmt((p[0] - xmin) * scale),
            _fmt((ymax - p[1]) * scale),
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for ch in chambers:
        vs = _ordered_polygon(ch.vertices())
        pts = " ".join(",".join(to_screen(v)) for v in vs)
        parts.append(f'<polygon points="{pts}" fill="#cfe3ff" stroke="none"/>')
    for i in range(arr.m):
        seg = _line_segment(arr.b_bar(i), arr.psi[i], xmin, xmax, ymin, ymax)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        a1, b1 = to_screen((x1, y1))
        a2, b2 = to_screen((x2, y2))
        parts.append(
            f'<line x1="{a1}" y1="{b1}" x2="{a2}" y2="{b2}" stroke="#333333" stroke-width="1"/>'
        )
    y_text = 16
    for c in circuits(arr):
        label = "circuit {" + ",".join(str(i + 1) for i in c.support) + "} weights (" + ",".join(
            str(w) for w in c.weights
        ) + ")"
        parts.append(f'<text x="4" y="{y_text}" font-size="12">{label}</text>')
        y_text += 14
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return svg


def _ordered_polygon(verts):
    """Order polygon vertices counterclockwise around the centroid."""
    if len(verts) <= 2:
        return verts
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    import math

    return sorted(
        verts, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx))
    )
