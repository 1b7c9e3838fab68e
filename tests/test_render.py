"""PGM and SVG rendering: gray levels, PGM layout, one SVG cell per value,
and the SVG bytes against the scalar colour ramp and per-cell loops."""

import xml.etree.ElementTree as ET

import numpy as np

from prevmap import render
from prevmap.functionals import make_grid
from prevmap.geometry import Polygon
from prevmap.render import (excursion_to_gray, field_to_gray, svg_choropleth,
                            svg_excursions, svg_heatmap, write_pgm)

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


# ---------------------------------------------------------------------------
# byte-identity against the scalar colour ramp and per-cell loops
# ---------------------------------------------------------------------------

_ANCHORS = [(0.0, (20, 40, 160)), (0.33, (30, 170, 200)),
            (0.66, (240, 220, 60)), (1.0, (200, 30, 30))]


def _colormap(t):
    """Blue -> cyan -> yellow -> red ramp on [0, 1], one value at a time."""
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_ANCHORS, _ANCHORS[1:]):
        if t <= t1:
            f = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
            return tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
    return _ANCHORS[-1][1]


def _hex(rgb):
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _reference_legend(vmin, vmax, n=24):
    items = ['<g font-size="11" font-family="sans-serif">']
    x = render._WIDTH - 160
    for i in range(n):
        c = _hex(_colormap(i / (n - 1)))
        items.append(f'<rect x="{x + i * 5}" y="8" width="5" height="10" '
                     f'fill="{c}"/>')
    items.append(f'<text x="{x}" y="30">{vmin:.4g}</text>')
    items.append(f'<text x="{x + n * 5 - 30}" y="30">{vmax:.4g}</text>')
    items.append("</g>")
    return "\n".join(items)


def _reference_cells(path, grid, fills, title, legend):
    bbox = (grid.x[0], grid.y[0], grid.x[-1], grid.y[-1])
    tf = render._frame_transform(bbox)
    dx = grid.x[1] - grid.x[0] if len(grid.x) > 1 else 1.0
    dy = grid.y[1] - grid.y[0] if len(grid.y) > 1 else 1.0
    cw = abs(tf(dx, 0)[0] - tf(0, 0)[0]) + 0.5
    ch = abs(tf(0, dy)[1] - tf(0, 0)[1]) + 0.5
    parts = render._svg_open(title)
    for j, yv in enumerate(grid.y):
        for i, xv in enumerate(grid.x):
            fill = fills[j, i]
            if fill is None:
                continue
            px, py = tf(xv - dx / 2, yv + dy / 2)
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw:.2f}" '
                         f'height="{ch:.2f}" fill="{fill}"/>')
    render._svg_write(path, parts, legend)


def _reference_heatmap(path, grid, values, title=""):
    full = grid.full(values)
    vmin, vmax, span = render._finite_range(full)
    fills = np.full(grid.shape, None, dtype=object)
    for j, i in zip(*np.nonzero(np.isfinite(full))):
        fills[j, i] = _hex(_colormap((full[j, i] - vmin) / span))
    _reference_cells(path, grid, fills, title, _reference_legend(vmin, vmax))


def _reference_choropleth(path, polygons, values, title=""):
    vals = np.asarray(values, dtype=float)
    vmin, vmax, span = render._finite_range(vals)
    xs0 = min(p.bbox()[0] for p in polygons)
    ys0 = min(p.bbox()[1] for p in polygons)
    xs1 = max(p.bbox()[2] for p in polygons)
    ys1 = max(p.bbox()[3] for p in polygons)
    tf = render._frame_transform((xs0, ys0, xs1, ys1))
    parts = render._svg_open(title)
    for poly, v in zip(polygons, vals):
        fill = "#dddddd" if not np.isfinite(v) \
            else _hex(_colormap((v - vmin) / span))
        parts.append(f'<path d="{render._polygon_path(poly, tf)}" '
                     f'fill="{fill}" stroke="black" stroke-width="0.5" '
                     f'fill-rule="evenodd"/>')
    render._svg_write(path, parts, _reference_legend(vmin, vmax))


def _reference_excursions(path, grid, labels, title=""):
    fills = grid.full([render._EXC_COLORS[str(lab)] for lab in labels],
                      fill=None)
    lx = render._WIDTH - 150
    legend = ['<g font-size="12" font-family="sans-serif" id="legend">']
    for li, name in enumerate(("above", "below", "indeterminate")):
        ly = 10 + 18 * li
        legend.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" '
                      f'fill="{render._EXC_COLORS[name]}" '
                      f'class="legend-item"/>')
        legend.append(f'<text x="{lx + 18}" y="{ly + 10}">{name}</text>')
    legend.append("</g>")
    _reference_cells(path, grid, fills, title, "\n".join(legend))


def _channel_ties(count=4):
    """Values of t in (0, 1) where a channel of the scalar ramp lands on
    exactly x.5 before rounding: near the t of each half-integer level,
    the doubles a few steps either side of it that hit it exactly."""
    ties = set()
    for (t0, c0), (t1, c1) in zip(_ANCHORS, _ANCHORS[1:]):
        for a, b in zip(c0, c1):
            for level in np.arange(min(a, b), max(a, b)) + 0.5:
                t = t0 + (level - a) / (b - a) * (t1 - t0)
                for _ in range(4):
                    t = np.nextafter(t, 0.0)
                for _ in range(8):
                    f = (t - t0) / (t1 - t0)
                    if t0 < t <= t1 and a + f * (b - a) == level:
                        ties.add(float(t))
                    t = np.nextafter(t, 1.0)
    assert len(ties) >= count
    return sorted(ties)[::len(ties) // count][:count]


def _special_values(n, rng):
    """n values on [0, 1]: both ends, the ramp's inner anchors, channel
    ties, two NaN cells and uniform draws."""
    values = rng.uniform(0.0, 1.0, n)
    special = [0.0, 1.0, 0.33, 0.66, np.nan, np.nan] + _channel_ties()
    values[:len(special)] = special
    return values


def test_svg_heatmap_matches_the_scalar_ramp_byte_for_byte(tmp_path):
    grid = make_grid(Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)]]), 0.5)
    rng = np.random.default_rng(3)
    cases = {"mixed": _special_values(len(grid.points), rng),
             "constant": np.full(len(grid.points), 7.0),
             "shifted": 3.0 + 2.0 * _special_values(len(grid.points), rng)}
    triangle = _triangle_grid()
    cases_tri = {"triangle": _special_values(len(triangle.points), rng)}
    for g, named in ((grid, cases), (triangle, cases_tri)):
        for name, values in named.items():
            new, ref = tmp_path / f"{name}.svg", tmp_path / f"{name}_ref.svg"
            svg_heatmap(new, g, values, title=name)
            _reference_heatmap(ref, g, values, title=name)
            assert new.read_bytes() == ref.read_bytes(), name


def test_svg_choropleth_matches_the_scalar_ramp_byte_for_byte(tmp_path):
    from conftest import grid_areas
    areas = grid_areas(0, 0, 10, 10, 4, 4)
    rng = np.random.default_rng(4)
    for name, values in (("mixed", _special_values(len(areas), rng)),
                         ("constant", np.full(len(areas), 0.2)),
                         ("all_nan", np.full(len(areas), np.nan))):
        new, ref = tmp_path / f"{name}.svg", tmp_path / f"{name}_ref.svg"
        svg_choropleth(new, areas, values, title=name)
        _reference_choropleth(ref, areas, values, title=name)
        assert new.read_bytes() == ref.read_bytes(), name


def test_svg_excursions_match_the_per_cell_loop_byte_for_byte(tmp_path):
    grid = make_grid(Polygon([[(0, 0), (10, 0), (0, 10)]]), 0.5)
    labels = np.random.default_rng(5).choice(
        ["above", "below", "indeterminate"], len(grid.points))
    new, ref = tmp_path / "e.svg", tmp_path / "e_ref.svg"
    svg_excursions(new, grid, labels, title="excursions")
    _reference_excursions(ref, grid, labels, title="excursions")
    assert new.read_bytes() == ref.read_bytes()
