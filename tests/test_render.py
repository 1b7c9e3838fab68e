"""PGM and SVG rendering: gray levels, PGM layout, one SVG cell per value."""

import xml.etree.ElementTree as ET

import numpy as np

from prevmap.functionals import make_grid
from prevmap.geometry import Polygon
from prevmap.render import (excursion_to_gray, field_to_gray, svg_excursions,
                            svg_heatmap, write_pgm)

SVG = "{http://www.w3.org/2000/svg}"


def _cell_rects(path):
    """The map cells of an SVG: top-level rects after the white background
    (legend swatches sit inside a <g>)."""
    root = ET.parse(path).getroot()
    rects = root.findall(f"{SVG}rect")
    assert rects[0].get("fill") == "white"
    return rects[1:]


def _triangle_grid():
    # a right triangle clipped from a 4 x 4 lattice: some cells are masked
    return make_grid(Polygon([[(0, 0), (4, 0), (0, 4)]]), 1.0)


def test_field_to_gray_nan_white_and_finite_in_range():
    v = np.array([[0.0, 1.0, np.nan], [2.0, np.nan, 4.0]])
    g = field_to_gray(v)
    assert g.dtype == np.uint8 and g.shape == v.shape
    assert np.all(g[np.isnan(v)] == 255)
    finite = g[np.isfinite(v)]
    assert finite.min() == 0 and finite.max() == 250
    assert np.all(np.diff(g[np.isfinite(v)].astype(int)) >= 0)


def test_field_to_gray_constant_field_stays_in_range():
    g = field_to_gray(np.full((2, 3), 7.0))
    assert np.all(g <= 250)


def test_excursion_to_gray_levels():
    labels = np.array([["above", "below"], ["indeterminate", None]],
                      dtype=object)
    g = excursion_to_gray(labels)
    assert g.tolist() == [[200, 80], [0, 255]]


def test_write_pgm_header_and_body(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)  # ny = 3, nx = 4
    path = tmp_path / "g.pgm"
    write_pgm(path, gray)
    data = path.read_bytes()
    magic, size, maxval, body = data.split(b"\n", 3)
    assert magic == b"P5"
    assert size.split() == [b"4", b"3"]
    assert maxval == b"255"
    assert len(body) == 4 * 3
    # the last row of the array is the top row of the image
    assert body[:4] == bytes(gray[-1])


def test_svg_heatmap_one_rect_per_finite_cell(tmp_path):
    grid = _triangle_grid()
    values = np.linspace(0.0, 1.0, len(grid.points))
    values[1] = np.nan
    path = tmp_path / "h.svg"
    svg_heatmap(path, grid, values, title="field")
    assert len(_cell_rects(path)) == int(np.isfinite(values).sum())
    assert np.isfinite(values).sum() < grid.mask.size


def test_svg_excursions_one_rect_per_labelled_cell(tmp_path):
    grid = _triangle_grid()
    labels = np.resize(["above", "below", "indeterminate"], len(grid.points))
    path = tmp_path / "e.svg"
    svg_excursions(path, grid, labels, title="excursions")
    rects = _cell_rects(path)
    assert len(rects) == len(grid.points) < grid.mask.size
    fills = [r.get("fill") for r in rects]
    assert len(set(fills)) == 3
