"""Static SVG renderings of the constructions.

Four figures: the great circle of a northern point on the sphere, the
tangent-plane view of its image line, the one-step reach construction, and
the spiral shell. Drawings use world coordinates directly (viewBox plus a
y-flip group), so geometric positions appear verbatim in the output and
can be checked by re-reading the document. Elements carry data-role
attributes naming what they depict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadN
from .plane import PlanePoint, circle_image_line, project, unproject
from .reach import shell, step_one
from .sphere import Ray, Vec3, equator_partner

_SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'

#: Largest shell figure_shell draws; each step adds about 0.7 KB of SVG.
SHELL_FIGURE_N_MAX = 4096

#: Pixel width of every figure; the height follows the viewBox's aspect.
_WIDTH_PX = 640


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


@dataclass
class SvgCanvas:
    """World-coordinate canvas with y pointing up."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    elements: list[str] = field(default_factory=list)

    @property
    def stroke(self) -> float:
        return max(self.xmax - self.xmin, self.ymax - self.ymin) / 320.0

    def add(self, tag: str, role: str | None = None, body: str | None = None, **attrs) -> None:
        parts = [f"<{tag}"]
        if role:
            parts.append(f' data-role="{role}"')
        for k, v in attrs.items():
            key = k.replace("_", "-")
            val = _fmt(v) if isinstance(v, float) else str(v)
            parts.append(f' {key}="{val}"')
        parts.append(f">{body}</{tag}>" if body is not None else "/>")
        self.elements.append("".join(parts))

    def dot(self, p: tuple[float, float], role: str) -> None:
        self.add("circle", role=role, cx=p[0], cy=p[1], r=2.2 * self.stroke, fill="black")

    def line(self, a: tuple[float, float], b: tuple[float, float], role: str, dashed: bool = False) -> None:
        attrs = dict(x1=a[0], y1=a[1], x2=b[0], y2=b[1], stroke="black", stroke_width=self.stroke, fill="none")
        if dashed:
            attrs["stroke_dasharray"] = _fmt(4 * self.stroke)
        self.add("line", role=role, **attrs)

    def polyline(self, pts: list[tuple[float, float]], role: str, dashed: bool = False) -> None:
        body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        attrs = dict(points=body, stroke="black", stroke_width=self.stroke, fill="none")
        if dashed:
            attrs["stroke_dasharray"] = _fmt(4 * self.stroke)
        self.add("polyline", role=role, **attrs)

    def polygon(self, pts: list[tuple[float, float]], role: str, fill: str) -> None:
        body = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.add("polygon", role=role, points=body, fill=fill, stroke="none")

    def right_angle_mark(
        self, corner: tuple[float, float], d1: tuple[float, float], d2: tuple[float, float]
    ) -> None:
        """Small square at `corner` spanned by unit directions d1, d2."""
        s = 5.0 * self.stroke
        a = (corner[0] + s * d1[0], corner[1] + s * d1[1])
        b = (corner[0] + s * (d1[0] + d2[0]), corner[1] + s * (d1[1] + d2[1]))
        c = (corner[0] + s * d2[0], corner[1] + s * d2[1])
        self.polyline([a, b, c], role="right-angle")

    def render(self) -> str:
        w = self.xmax - self.xmin
        h = self.ymax - self.ymin
        height_px = int(round(_WIDTH_PX * h / w)) if w else _WIDTH_PX
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH_PX}" '
            f'height="{height_px}" viewBox="{_fmt(self.xmin)} {_fmt(-self.ymax)} '
            f'{_fmt(w)} {_fmt(h)}">\n<g transform="scale(1,-1)">\n'
        )
        return _SVG_HEADER + head + "\n".join(self.elements) + "\n</g>\n</svg>\n"


def _line_segment(foot: PlanePoint, direction: tuple[float, float], half_len: float):
    return (
        (foot.u - half_len * direction[0], foot.v - half_len * direction[1]),
        (foot.u + half_len * direction[0], foot.v + half_len * direction[1]),
    )


def figure_shell(q: Ray, n: int) -> str:
    """The plane image of the shell: vertices, image lines, right angles."""
    if n > SHELL_FIGURE_N_MAX:
        raise BadN(f"shell figure needs n <= {SHELL_FIGURE_N_MAX}, got {n}")
    pts = shell(q, n)
    feet = [project(r) for r in pts]
    d_max = max(f.norm() for f in feet)
    lim = 1.1 * d_max
    cv = SvgCanvas(-lim, -lim, lim, lim)
    cv.dot((0.0, 0.0), role="pole")
    for i, r in enumerate(pts):
        f = feet[i]
        ln = circle_image_line(r)
        cv.line(*_line_segment(ln.foot, ln.dir, lim * 1.6), role="image-line")
        radial = (f.u / f.norm(), f.v / f.norm())
        cv.right_angle_mark((f.u, f.v), (-radial[0], -radial[1]), ln.dir)
        cv.line((0.0, 0.0), (f.u, f.v), role="radius", dashed=True)
    for f in feet:
        cv.dot((f.u, f.v), role="vertex")
    return cv.render()


def _oblique(p: Vec3) -> tuple[float, float]:
    # Schematic parallel projection: y recedes into the page.
    return (p[0] + 0.35 * p[1], p[2] + 0.18 * p[1])


def figure_circle(q: Ray) -> str:
    """Sphere outline, equator, the circle of q, and q itself."""
    e = equator_partner(q)
    cv = SvgCanvas(-1.6, -1.45, 1.6, 1.45)
    outline = [
        (math.cos(a), math.sin(a)) for a in [2 * math.pi * i / 128 for i in range(129)]
    ]
    cv.polyline(outline, role="sphere-outline")
    equator = [
        _oblique((math.cos(a), math.sin(a), 0.0))
        for a in [2 * math.pi * i / 128 for i in range(129)]
    ]
    cv.polyline(equator, role="equator", dashed=True)
    circle = [
        _oblique(
            (
                math.cos(a) * q.x + math.sin(a) * e.x,
                math.cos(a) * q.y + math.sin(a) * e.y,
                math.cos(a) * q.z + math.sin(a) * e.z,
            )
        )
        for a in [2 * math.pi * i / 128 for i in range(129)]
    ]
    cv.polyline(circle, role="great-circle")
    cv.dot(_oblique(q.vec), role="q")
    cv.dot(_oblique((0.0, 0.0, 1.0)), role="pole")
    return cv.render()


def figure_projection(q: Ray) -> str:
    """Plane view: the pole, h(q), the image line, the region beyond it."""
    f = project(q)
    ln = circle_image_line(q)
    lim = 2.4 * max(1.0, f.norm())
    cv = SvgCanvas(-lim, -lim, lim, lim)
    a, b = _line_segment(ln.foot, ln.dir, lim * 1.8)
    radial = (f.u / f.norm(), f.v / f.norm())
    far = 3.0 * lim
    shade = [
        a,
        b,
        (b[0] + far * radial[0], b[1] + far * radial[1]),
        (a[0] + far * radial[0], a[1] + far * radial[1]),
    ]
    cv.polygon(shade, role="beyond-region", fill="#dddddd")
    cv.line(a, b, role="image-line")
    cv.line((0.0, 0.0), (f.u, f.v), role="radius", dashed=True)
    cv.right_angle_mark((f.u, f.v), (-radial[0], -radial[1]), ln.dir)
    cv.dot((0.0, 0.0), role="pole")
    cv.dot((f.u, f.v), role="hq")
    return cv.render()


def figure_step_one(hq: PlanePoint, hp: PlanePoint) -> str:
    """The one-step construction in the plane: h(q), h(p), h(q~), both lines."""
    q = unproject(hq)
    p = unproject(hp)
    q_tilde = step_one(q, p)
    ht = project(q_tilde)
    lim = 1.3 * max(hq.norm(), hp.norm(), ht.norm(), 1.0)
    cv = SvgCanvas(-lim, -lim, lim, lim)
    ln_q = circle_image_line(q)
    cv.line(*_line_segment(ln_q.foot, ln_q.dir, lim * 1.6), role="image-line-q")
    ln_t = circle_image_line(q_tilde)
    cv.line(*_line_segment(ln_t.foot, ln_t.dir, lim * 1.6), role="image-line-qtilde")
    cv.line((0.0, 0.0), (ht.u, ht.v), role="radius", dashed=True)
    radial = (ht.u / ht.norm(), ht.v / ht.norm())
    cv.right_angle_mark((ht.u, ht.v), (-radial[0], -radial[1]), ln_t.dir)
    cv.dot((0.0, 0.0), role="pole")
    cv.dot((hq.u, hq.v), role="hq")
    cv.dot((hp.u, hp.v), role="hp")
    cv.dot((ht.u, ht.v), role="hqtilde")
    return cv.render()
