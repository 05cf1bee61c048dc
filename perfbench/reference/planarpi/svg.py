"""Deterministic SVG rendering of region snapshots (visualization only)."""

from __future__ import annotations

from .geom import RegionSnapshot

FILL = "#4a6fa5"
STROKE = "#1d3557"


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_svg(region: RegionSnapshot, width_px: int = 640) -> str:
    fx0, fy0, fx1, fy1 = (float(v) for v in region.frame)
    span_x = fx1 - fx0
    span_y = fy1 - fy0
    height_px = width_px * span_y / span_x
    scale = width_px / span_x

    def to_px(x, y):
        return (float(x) - fx0) * scale, (fy1 - float(y)) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">',
        f'<rect width="{_fmt(width_px)}" height="{_fmt(height_px)}" fill="#ffffff"/>',
    ]
    for piece in region.pieces:
        pts = [to_px(x, y) for x, y in piece.vertices]
        if len(pts) == 1:
            (px, py) = pts[0]
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.5" fill="{STROKE}"/>'
            )
        elif len(pts) == 2:
            (ax, ay), (bx, by) = pts
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f'stroke="{STROKE}" stroke-width="1"/>'
            )
        else:
            d = "M " + " L ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in pts) + " Z"
            parts.append(
                f'<path d="{d}" fill="{FILL}" stroke="{STROKE}" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def count_elements(svg: str) -> dict[str, int]:
    return {
        "path": svg.count("<path "),
        "line": svg.count("<line "),
        "circle": svg.count("<circle "),
    }
