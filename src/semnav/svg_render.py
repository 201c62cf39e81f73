"""Hand-rolled SVG rendering for maps, planner output and benchmark plots.

Everything returns an SVG document as a string; no drawing library involved.
World coordinates (meters, y up) are mapped to pixel coordinates (y down)
with a uniform scale. The boxplot embeds its five-number summary as data-
attributes so plots can be cross-checked against the summary they came from.
"""

from __future__ import annotations

from .geometry import Point2
from .map_builder import GlobalMap
from .scene_graph import SceneGraph

_ROOM_FILL = "#f3f0e8"
_ROOM_EDGE = "#b8b2a5"
_WALL_COLOR = "#3a3732"
_DOOR_COLOR = "#2b7a4b"
_BLOCKED_COLOR = "#b3402e"
_PATH_COLOR = "#1d5fbf"
_BOX_COLORS = {"irrt": "#b3402e", "irrt_sg": "#d98c2b", "irrt_sg_sps": "#2b7a4b"}


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


class _Frame:
    """World-to-pixel transform with a margin, y axis flipped."""

    def __init__(self, bbox: tuple[Point2, Point2], width_px: float, margin: float):
        lo, hi = bbox
        self.lo = lo
        self.hi = hi
        self.margin = margin
        span_x = max(hi.x - lo.x, 1e-9)
        self.scale = (width_px - 2 * margin) / span_x
        self.width = width_px
        self.height = (hi.y - lo.y) * self.scale + 2 * margin

    def x(self, wx: float) -> float:
        return self.margin + (wx - self.lo.x) * self.scale

    def y(self, wy: float) -> float:
        return self.height - self.margin - (wy - self.lo.y) * self.scale

    def pt(self, p: Point2) -> str:
        return f"{_fmt(self.x(p.x))},{_fmt(self.y(p.y))}"


def _sdf_layer(frame: _Frame, gmap: GlobalMap, max_cells: int = 120) -> list[str]:
    """Coarse heat rectangles from the distance grid (red near walls)."""
    grid = gmap.sdf
    stride = max(1, max(grid.nx, grid.ny) // max_cells)
    cell = grid.resolution * stride
    vmax = max(1e-9, float(grid.values.max()))
    out = [f'<g opacity="0.55" data-layer="sdf" data-stride="{stride}">']
    for iy in range(0, grid.ny, stride):
        for ix in range(0, grid.nx, stride):
            v = float(grid.values[iy, ix])
            if v <= 0.0:
                color = "#40342e"
            else:
                t = min(1.0, v / vmax)
                r = int(208 - 88 * t)
                g = int(88 + 116 * t)
                b = int(70 + 100 * t)
                color = f"#{r:02x}{g:02x}{b:02x}"
            wx = grid.origin.x + ix * grid.resolution
            wy = grid.origin.y + iy * grid.resolution
            out.append(
                f'<rect x="{_fmt(frame.x(wx))}" y="{_fmt(frame.y(wy + cell))}" '
                f'width="{_fmt(cell * frame.scale)}" height="{_fmt(cell * frame.scale)}" '
                f'fill="{color}"/>')
    out.append("</g>")
    return out


def render_map_svg(scene: SceneGraph, gmap: GlobalMap | None = None,
                   path: list[Point2] | None = None,
                   show_sdf: bool = False) -> str:
    """Draw the scene (rooms, walls, doorways) with an optional path.

    ``path`` is a waypoint polyline; ``show_sdf`` needs ``gmap`` and underlays
    the distance field as a heat map.
    """
    margin = 20.0
    frame = _Frame(scene.bbox, 800.0, margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" viewBox="0 0 {_fmt(frame.width)} '
        f'{_fmt(frame.height)}">',
        f'<rect width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" fill="#ffffff"/>',
    ]

    parts.append('<g data-layer="rooms">')
    for room in scene.rooms:
        x0, y0, x1, y1 = room.bounds
        parts.append(
            f'<rect x="{_fmt(frame.x(x0))}" y="{_fmt(frame.y(y1))}" '
            f'width="{_fmt((x1 - x0) * frame.scale)}" '
            f'height="{_fmt((y1 - y0) * frame.scale)}" '
            f'fill="{_ROOM_FILL}" stroke="{_ROOM_EDGE}" stroke-width="1" '
            f'data-room="{room.id}"/>')
        cx, cy = frame.x(room.center.x), frame.y(room.center.y)
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="12" '
                     f'fill="{_ROOM_EDGE}" text-anchor="middle">{room.id}</text>')
    parts.append("</g>")

    if show_sdf and gmap is not None:
        parts.extend(_sdf_layer(frame, gmap))

    wall_w = max(1.5, 0.1 * frame.scale)
    parts.append(f'<g stroke="{_WALL_COLOR}" stroke-width="{_fmt(wall_w)}" '
                 'stroke-linecap="square" data-layer="walls">')
    segments = gmap.walls.segments if gmap is not None else tuple(
        w for r in scene.rooms for w in r.walls)
    for seg in segments:
        parts.append(f'<line x1="{_fmt(frame.x(seg.a.x))}" y1="{_fmt(frame.y(seg.a.y))}" '
                     f'x2="{_fmt(frame.x(seg.b.x))}" y2="{_fmt(frame.y(seg.b.y))}"/>')
    parts.append("</g>")

    parts.append('<g data-layer="doorways">')
    for door in scene.doorways:
        color = _BLOCKED_COLOR if door.blocked else _DOOR_COLOR
        cx, cy = frame.x(door.center.x), frame.y(door.center.y)
        r = max(2.0, 0.5 * door.width * frame.scale)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                     f'fill="none" stroke="{color}" stroke-width="2" '
                     f'data-doorway="{door.id}"/>')
    parts.append("</g>")

    if path:
        pts = " ".join(frame.pt(p) for p in path)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{_PATH_COLOR}" '
                     f'stroke-width="2.5" data-layer="path"/>')
        start, goal = path[0], path[-1]
        parts.append(f'<circle cx="{_fmt(frame.x(start.x))}" cy="{_fmt(frame.y(start.y))}" '
                     f'r="4" fill="{_PATH_COLOR}"/>')
        parts.append(f'<circle cx="{_fmt(frame.x(goal.x))}" cy="{_fmt(frame.y(goal.y))}" '
                     f'r="4" fill="none" stroke="{_PATH_COLOR}" stroke-width="2"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_summary_svg(summary: dict) -> str:
    """Stack boxplots of path length, samples and time into one SVG document."""
    panels = []
    for metric in ("path_length_m", "samples", "time_s"):
        try:
            panels.append(render_boxplot_svg(summary, metric))
        except ValueError:
            continue
    if not panels:
        raise ValueError("summary contains no plottable metrics")
    height = 320.0 * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="520" '
             f'height="{_fmt(height)}" viewBox="0 0 520 {_fmt(height)}">']
    for i, panel in enumerate(panels):
        body = panel.split("\n", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(f'<g transform="translate(0,{_fmt(320.0 * i)})">')
        parts.append(body.rstrip())
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_boxplot_svg(summary: dict, metric: str = "path_length_m") -> str:
    """One box-and-whisker per mode for a metric of a benchmark summary.

    Box positions come straight from the summary's five-number entries and
    are repeated as data- attributes (data-min, data-q1, data-median,
    data-q3, data-max) for exact cross-checking.
    """
    modes = [m for m in summary if summary[m].get(metric, {}).get("median") is not None]
    if not modes:
        raise ValueError(f"summary contains no data for metric '{metric}'")

    width, height = 520.0, 320.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    los = [summary[m][metric]["min"] for m in modes]
    his = [summary[m][metric]["max"] for m in modes]
    vmin, vmax = min(los), max(his)
    span = max(vmax - vmin, 1e-9)
    vmin -= 0.05 * span
    vmax += 0.05 * span
    span = vmax - vmin

    def y(v: float) -> float:
        return top + plot_h * (1.0 - (v - vmin) / span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
        f'<text x="{_fmt(width / 2)}" y="22" font-size="14" text-anchor="middle" '
        f'fill="#3a3732">{metric}</text>',
    ]

    for k in range(5):
        v = vmin + span * k / 4
        yy = y(v)
        parts.append(f'<line x1="{_fmt(left)}" y1="{_fmt(yy)}" x2="{_fmt(width - right)}" '
                     f'y2="{_fmt(yy)}" stroke="#e3dfd5" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(left - 6)}" y="{_fmt(yy + 4)}" font-size="10" '
                     f'text-anchor="end" fill="#6b665c">{v:.3g}</text>')

    slot = plot_w / len(modes)
    box_w = slot * 0.4
    for i, mode in enumerate(modes):
        stats = summary[mode][metric]
        color = _BOX_COLORS.get(mode, "#55504a")
        cx = left + slot * (i + 0.5)
        q1, med, q3 = stats["q1"], stats["median"], stats["q3"]
        parts.append(
            f'<g data-mode="{mode}" data-metric="{metric}" '
            f'data-min="{stats["min"]!r}" data-q1="{q1!r}" data-median="{med!r}" '
            f'data-q3="{q3!r}" data-max="{stats["max"]!r}">')
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y(stats["min"]))}" '
                     f'x2="{_fmt(cx)}" y2="{_fmt(y(q1))}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y(q3))}" '
                     f'x2="{_fmt(cx)}" y2="{_fmt(y(stats["max"]))}" stroke="{color}" stroke-width="1.5"/>')
        for v in (stats["min"], stats["max"]):
            parts.append(f'<line x1="{_fmt(cx - box_w / 4)}" y1="{_fmt(y(v))}" '
                         f'x2="{_fmt(cx + box_w / 4)}" y2="{_fmt(y(v))}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<rect x="{_fmt(cx - box_w / 2)}" y="{_fmt(y(q3))}" '
                     f'width="{_fmt(box_w)}" height="{_fmt(max(0.5, y(q1) - y(q3)))}" '
                     f'fill="{color}" fill-opacity="0.25" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<line x1="{_fmt(cx - box_w / 2)}" y1="{_fmt(y(med))}" '
                     f'x2="{_fmt(cx + box_w / 2)}" y2="{_fmt(y(med))}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(height - 28)}" font-size="11" '
                     f'text-anchor="middle" fill="#3a3732">{mode}</text>')
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(height - 14)}" font-size="10" '
                     f'text-anchor="middle" fill="#6b665c">n={summary[mode]["n"]}</text>')
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
