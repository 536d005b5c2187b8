import math
import xml.etree.ElementTree as ET

import pytest

from ksgeom.errors import AtPole, BadN
from ksgeom.plane import PlanePoint, unproject
from ksgeom.sphere import NORTH_POLE, canonicalize
from ksgeom.svg import (
    SHELL_FIGURE_N_MAX,
    figure_circle,
    figure_projection,
    figure_shell,
    figure_step_one,
)


def roles(svg_text: str) -> dict[str, list[ET.Element]]:
    root = ET.fromstring(svg_text)
    out: dict[str, list[ET.Element]] = {}
    for el in root.iter():
        role = el.get("data-role")
        if role:
            out.setdefault(role, []).append(el)
    return out


class TestShellFigure:
    def test_sixteen_step_shell_has_seventeen_vertices(self):
        svg = figure_shell(unproject(PlanePoint(1, 0)), 16)
        r = roles(svg)
        assert len(r["vertex"]) == 17
        assert len(r["image-line"]) == 17
        assert len(r["right-angle"]) == 17

    def test_consecutive_radial_ratio(self):
        svg = figure_shell(unproject(PlanePoint(1, 0)), 16)
        verts = roles(svg)["vertex"]
        radii = sorted(
            math.hypot(float(v.get("cx")), float(v.get("cy"))) for v in verts
        )
        want = 1.0 / math.cos(math.pi / 8.0)
        for a, b in zip(radii, radii[1:]):
            assert abs(b / a - want) <= 1e-9

    def test_viewbox_contains_outermost_with_margin(self):
        svg = figure_shell(unproject(PlanePoint(1, 0)), 16)
        root = ET.fromstring(svg)
        xmin, ymin, w, h = (float(x) for x in root.get("viewBox").split())
        d_n = math.cos(math.pi / 8.0) ** -16
        assert w / 2 >= 1.05 * d_n

    def test_bad_n(self):
        for n in (4, SHELL_FIGURE_N_MAX + 1):
            with pytest.raises(BadN):
                figure_shell(unproject(PlanePoint(1, 0)), n)


class TestStepOneFigure:
    def test_contains_construction_vertex(self):
        svg = figure_step_one(PlanePoint(1, 0), PlanePoint(2, 0))
        r = roles(svg)
        el = r["hqtilde"][0]
        assert float(el.get("cx")) == pytest.approx(1.0, abs=1e-12)
        assert float(el.get("cy")) == pytest.approx(1.0, abs=1e-12)
        assert r["right-angle"]

    def test_well_formed(self):
        ET.fromstring(figure_step_one(PlanePoint(0.5, 0.7), PlanePoint(1.5, 1.2)))


class TestSphereFigures:
    def test_circle_figure_roles(self):
        svg = figure_circle(canonicalize((0, math.sin(0.6), math.cos(0.6))))
        r = roles(svg)
        for want in ("sphere-outline", "equator", "great-circle", "q", "pole"):
            assert want in r

    def test_circle_at_pole(self):
        with pytest.raises(AtPole):
            figure_circle(NORTH_POLE)

    def test_projection_figure_roles(self):
        svg = figure_projection(canonicalize((0, math.sin(0.6), math.cos(0.6))))
        r = roles(svg)
        for want in ("beyond-region", "image-line", "hq", "pole"):
            assert want in r

    def test_all_well_formed(self):
        for svg in (
            figure_circle(canonicalize((0.2, 0.3, 0.8))),
            figure_projection(canonicalize((0.2, 0.3, 0.8))),
            figure_shell(canonicalize((0.2, 0.3, 0.8)), 8),
        ):
            ET.fromstring(svg)
