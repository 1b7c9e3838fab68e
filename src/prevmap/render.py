"""Static map rendering: hand-written SVG plus PGM for pixel-exact tests.

SVG output keeps to plain rect / path / text elements with fixed-precision
coordinates so identical inputs give identical bytes.  PGM (binary P5)
encodes scalar fields as 8-bit gray for deterministic pixel comparison;
excursion labels map to three fixed gray levels.
"""

import numpy as np

__all__ = [
    "write_pgm",
    "field_to_gray",
    "excursion_to_gray",
    "svg_heatmap",
    "svg_choropleth",
    "svg_excursions",
]

# gray levels for the three-region excursion map
_GRAY = {"below": 80, "above": 200, "indeterminate": 0, "outside": 255}

# SVG canvas size and the margin around the drawing, in pixels
_WIDTH, _HEIGHT = 640, 560
_PAD = 30
_LEGEND_STEPS = 24  # colour steps of the legend's ramp, 5 pixels each


def write_pgm(path, gray):
    """Binary P5 PGM from a (ny, nx) uint8 array; row 0 (the smallest y of
    a grid) is the bottom row of the image."""
    g = np.asarray(gray, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode())
        fh.write(g[::-1].tobytes())


def _finite_range(v):
    """Colour-scale bounds: the min and max of the finite values of ``v``,
    (0, 1) when there are none, and their span (1 when they are equal)."""
    finite = np.isfinite(v)
    vmin = float(v[finite].min()) if finite.any() else 0.0
    vmax = float(v[finite].max()) if finite.any() else 1.0
    return vmin, vmax, (vmax - vmin) or 1.0


def field_to_gray(values):
    """Scale a (ny, nx) field to 0..250 gray; NaN renders as white (255)."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    vmin, _, span = _finite_range(v)
    g = np.full(v.shape, 255, dtype=np.uint8)
    g[finite] = np.clip((v[finite] - vmin) / span * 250.0, 0, 250).astype(np.uint8)
    return g


def excursion_to_gray(labels_grid):
    """Map a (ny, nx) array of label strings (or None) to gray levels."""
    out = np.full(labels_grid.shape, _GRAY["outside"], dtype=np.uint8)
    for name, g in _GRAY.items():
        out[labels_grid == name] = g
    return out


# the blue -> cyan -> yellow -> red colour ramp: anchor positions on [0, 1]
# and their RGB colours
_RAMP_T = np.array([0.0, 0.33, 0.66, 1.0])
_RAMP_RGB = np.array([(20, 40, 160), (30, 170, 200), (240, 220, 60),
                      (200, 30, 30)], dtype=float)


def _ramp_colors(t):
    """'#rrggbb' colour of each value of the 1-D finite ``t``, clipped to
    [0, 1], on the ramp: linear between the two anchors around it (the
    lower segment at an anchor), each channel rounded half to even."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    seg = np.searchsorted(_RAMP_T[1:], t)  # the first anchor at or above t
    t0, t1 = _RAMP_T[seg], _RAMP_T[seg + 1]
    c0, c1 = _RAMP_RGB[seg], _RAMP_RGB[seg + 1]
    f = ((t - t0) / (t1 - t0))[:, None]
    rgb = np.rint(c0 + f * (c1 - c0)).astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    codes, index = np.unique(packed, return_inverse=True)
    return np.array([f"#{c:06x}" for c in codes.tolist()], dtype="U7")[index]


def _svg_open(title):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="10" y="18" font-size="14" '
                     f'font-family="sans-serif">{title}</text>')
    return parts


def _frame_transform(bbox):
    x0, y0, x1, y1 = bbox
    sx = (_WIDTH - 2 * _PAD) / (x1 - x0)
    sy = (_HEIGHT - 2 * _PAD) / (y1 - y0)
    s = min(sx, sy)

    def tf(x, y):
        return (_PAD + (x - x0) * s, _HEIGHT - _PAD - (y - y0) * s)

    return tf


def _svg_write(path, parts, legend):
    with open(path, "w") as fh:
        fh.write("\n".join(parts + [legend, "</svg>"]))


def _svg_cells(path, grid, drawn, fills, title, legend):
    """Cell map on an EvalGrid: one rect for each cell where the (ny, nx)
    bool ``drawn`` is set, filled with the colours ``fills`` in row-major
    order.  A cell's x depends on its column alone and its y on its row
    alone, so each is formatted once."""
    bbox = (grid.x[0], grid.y[0], grid.x[-1], grid.y[-1])
    tf = _frame_transform(bbox)
    dx = grid.x[1] - grid.x[0] if len(grid.x) > 1 else 1.0
    dy = grid.y[1] - grid.y[0] if len(grid.y) > 1 else 1.0
    cw = abs(tf(dx, 0)[0] - tf(0, 0)[0]) + 0.5
    ch = abs(tf(0, dy)[1] - tf(0, 0)[1]) + 0.5
    px = tf(grid.x - dx / 2, 0.0)[0]
    py = tf(0.0, grid.y + dy / 2)[1]
    x_text = np.array([f'<rect x="{v:.2f}" y="' for v in px.tolist()])
    y_text = np.array([f'{v:.2f}" width="{cw:.2f}" height="{ch:.2f}" fill="'
                       for v in py.tolist()])
    row, col = np.nonzero(drawn)
    cells = np.char.add(np.char.add(x_text[col], y_text[row]),
                        np.char.add(fills, '"/>'))
    _svg_write(path, _svg_open(title) + cells.tolist(), legend)


def svg_heatmap(path, grid, values, title=""):
    """Colored-cell map of per-grid-point values on an EvalGrid."""
    full = grid.full(values)
    vmin, vmax, span = _finite_range(full)
    drawn = np.isfinite(full)
    _svg_cells(path, grid, drawn, _ramp_colors((full[drawn] - vmin) / span),
               title, _legend_gradient(vmin, vmax))


def _polygon_path(poly, tf):
    d = []
    for ring in poly.rings:
        pts = [tf(x, y) for x, y in ring]
        d.append("M" + " L".join(f"{px:.2f},{py:.2f}" for px, py in pts) + " Z")
    return " ".join(d)


def svg_choropleth(path, polygons, values, title=""):
    """Per-area fill map; the color scale spans the finite values."""
    vals = np.asarray(values, dtype=float)
    vmin, vmax, span = _finite_range(vals)
    xs0 = min(p.bbox()[0] for p in polygons)
    ys0 = min(p.bbox()[1] for p in polygons)
    xs1 = max(p.bbox()[2] for p in polygons)
    ys1 = max(p.bbox()[3] for p in polygons)
    tf = _frame_transform((xs0, ys0, xs1, ys1))
    parts = _svg_open(title)
    finite = np.isfinite(vals)
    fills = np.full(len(vals), "#dddddd")
    fills[finite] = _ramp_colors((vals[finite] - vmin) / span)
    for poly, fill in zip(polygons, fills.tolist()):
        parts.append(f'<path d="{_polygon_path(poly, tf)}" fill="{fill}" '
                     f'stroke="black" stroke-width="0.5" fill-rule="evenodd"/>')
    _svg_write(path, parts, _legend_gradient(vmin, vmax))


def _legend_gradient(vmin, vmax):
    n = _LEGEND_STEPS
    items = [f'<g font-size="11" font-family="sans-serif">']
    x = _WIDTH - 160
    for i, c in enumerate(_ramp_colors(np.arange(n) / (n - 1)).tolist()):
        items.append(f'<rect x="{x + i * 5}" y="8" width="5" height="10" '
                     f'fill="{c}"/>')
    items.append(f'<text x="{x}" y="30">{vmin:.4g}</text>')
    items.append(f'<text x="{x + n * 5 - 30}" y="30">{vmax:.4g}</text>')
    items.append("</g>")
    return "\n".join(items)


_EXC_COLORS = {"below": "#0000ff", "above": "#ff0000",
               "indeterminate": "#000000"}


def svg_excursions(path, grid, labels, title=""):
    """Three-color excursion map with a three-class legend."""
    names, index = np.unique(np.asarray(labels, dtype=str),
                             return_inverse=True)
    fills = np.array([_EXC_COLORS[name] for name in names.tolist()],
                     dtype="U7")[index]
    # legend: exactly the three classes
    lx = _WIDTH - 150
    legend = ['<g font-size="12" font-family="sans-serif" id="legend">']
    for li, name in enumerate(("above", "below", "indeterminate")):
        ly = 10 + 18 * li
        legend.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" '
                      f'fill="{_EXC_COLORS[name]}" class="legend-item"/>')
        legend.append(f'<text x="{lx + 18}" y="{ly + 10}">{name}</text>')
    legend.append("</g>")
    _svg_cells(path, grid, grid.mask, fills, title, "\n".join(legend))
