"""Planar geometry: polygons, triangular meshes, FEM matrices, projection.

Coordinates are plain map units on the plane; there is no notion of
projection or geodesy here.  Polygons follow the usual convention of one
counter-clockwise outer ring plus optional clockwise hole rings.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._csv import _read_csv, _write_csv
from .errors import InvalidGeometryError, reading

__all__ = [
    "Polygon",
    "TriMesh",
    "Projector",
    "fem_matrices",
    "project",
    "read_polygons_geojson",
    "read_polygons_csv",
    "write_polygons_csv",
]

# Points within this distance of a ring edge, scaled by the bounding-box
# size, count as inside the polygon.
_BOUNDARY_TOL = 1e-12
# Mesh vertices closer than this are duplicates.
_DUPLICATE_TOL = 1e-9
# Barycentric weights down to -_PROJECT_TOL count as inside a triangle.
_PROJECT_TOL = 1e-10
# Most values one block or tile of a blocked pass holds.  It is a cache
# budget, not a memory cap: 2 ** 15 float64 values are 256 kB, and a
# projected tile gathers three vertex rows a point (768 kB), so a tile and
# the temporaries of each pass over it stay in a core's 2 MB L2 cache.  On
# a 2-core Xeon guest, `Polygon.contains` of 40,000 points against 2,500
# edges took 2.0 s at 2 ** 15, 2.9 s at 2 ** 17 and 3.3 s at 2 ** 18.
_BLOCK_CELLS = 2 ** 15


def _row_blocks(n, width):
    """Slices over ``n`` rows of ``width`` values: at most ``_BLOCK_CELLS``
    values a block, but never less than one row."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _row_medians(eta):
    """``np.median(eta, axis=1)``, bit for bit, by one partition of the
    rows of ``eta`` in place (numpy partitions an even-length row on two
    pivots, several times slower).  NaN in a row holding a NaN."""
    h = eta.shape[1] // 2
    eta.partition(h, axis=1)
    med = eta[:, h] + 0.0  # np.median's mean sums from 0.0: -0.0 gives 0.0
    if eta.shape[1] % 2 == 0:
        med += eta[:, :h].max(axis=1)
        med /= 2.0
    # a NaN sorts last, so at or after the pivot
    med[np.isnan(eta[:, h:]).any(axis=1)] = np.nan
    return med


def _row_quantiles(x, probs):
    """``np.quantile(x, probs, axis=1)`` (its default, linear method), bit
    for bit, by one partition of the rows of ``x`` in place, on the order
    statistics numpy partitions on: shape (len(probs), rows).  NaN in a row
    holding a NaN.  (np.quantile and np.unique import numpy.ma, which
    takes 17-19 ms.)"""
    n = x.shape[1]
    v = (n - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(v)
    hi = lo + 1
    top = v >= n - 1
    lo[top] = hi[top] = -1  # the largest
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    x.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=1)
    gamma = (v - lo)[:, None]
    a, b = x[:, lo].T, x[:, hi].T
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    # a NaN sorts last
    nan = np.isnan(x[:, -1])
    out[:, nan] = x[nan, -1]
    return out


def _tiles(n, width, unit):
    """``(rows, cols)`` slices over ``n`` rows of ``width`` columns: one
    group of ``unit`` rows at a time, walked over column chunks of at most
    ``_BLOCK_CELLS`` values.  No chunk is one column wide unless ``width``
    is: numpy reduces and weighs a one-column block along another path, so
    its sums would differ in the last bit from the same columns in a wider
    block."""
    step = max(2, _BLOCK_CELLS // unit)
    starts = list(range(0, width, step))
    if len(starts) > 1 and width - starts[-1] == 1:
        starts.pop()  # the last chunk takes the remaining column
    bounds = list(zip(starts, starts[1:] + [width]))
    for start in range(0, n, unit):
        rows = slice(start, min(start + unit, n))
        for c0, c1 in bounds:
            yield rows, slice(c0, c1)


def _ranges(starts, counts):
    """``arange(s, s + c)`` for each s, c of ``starts``, ``counts``, joined."""
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(len(offsets))


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _ring_signed_area(ring):
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Polygon:
    """Simple polygon with optional holes.

    ``rings`` are arrays of shape (k, 2) without a repeated closing vertex;
    ring 0 is the outer boundary.  Orientation is normalized on construction
    (outer CCW, holes CW).  Degenerate input raises
    :class:`InvalidGeometryError`, and so does a crossing of two edges of
    any rings, whatever their size.  The edges of all rings are held as one
    pair of start and end arrays; point tests run over them in row blocks
    of at most ``_BLOCK_CELLS`` (point, edge) values.
    """

    def __init__(self, rings, id="0"):
        self.id = str(id)
        norm = []
        for i, ring in enumerate(rings):
            r = np.asarray(ring, dtype=float)
            if r.ndim != 2 or r.shape[1] != 2:
                raise InvalidGeometryError(f"ring {i}: expected (k, 2) array")
            if len(r) > 3 and np.allclose(r[0], r[-1]):
                r = r[:-1]
            if len(r) < 3:
                raise InvalidGeometryError(f"ring {i}: fewer than 3 vertices")
            if not np.all(np.isfinite(r)):
                raise InvalidGeometryError(f"ring {i}: non-finite coordinate")
            a = _ring_signed_area(r)
            if abs(a) < 1e-14:
                raise InvalidGeometryError(f"ring {i}: zero area")
            want_ccw = i == 0
            if (a > 0) != want_ccw:
                r = r[::-1]
            norm.append(r)
        self.rings = norm
        if self.area() <= 0:
            raise InvalidGeometryError("polygon has non-positive area")
        x0, y0, x1, y1 = self.bbox()
        self._tol = _BOUNDARY_TOL * max(x1 - x0, y1 - y0, 1.0)
        # edge k runs from _starts[k] to _ends[k], ring by ring
        self._starts = np.vstack(norm)
        self._ends = np.vstack([np.roll(r, -1, axis=0) for r in norm])
        self._check_self_intersections()

    def _check_self_intersections(self):
        """Raise on the lowest pair of edges (i, j), j > i + 1, that cross
        properly and share no endpoint.  Only pairs whose x-ranges overlap
        can cross: the edges sorted by smallest x, each is tested against
        those that start before it ends (the sweep of Shamos & Hoey 1976).
        """
        def cross(o, a, b):
            return ((a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1])
                    - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0]))

        a, b = self._starts, self._ends
        n = len(a)
        x_range = np.sort(np.column_stack([a[:, 0], b[:, 0]]), axis=1)
        order = np.argsort(x_range[:, 0], kind="stable")
        lo, hi = x_range[order].T
        start = np.arange(1, n + 1)
        count = np.searchsorted(lo, hi, side="right") - start
        lowest = n * n
        for rows in _row_blocks(n, int(count.max())):
            first = np.repeat(order[rows], count[rows])
            second = order[_ranges(start[rows], count[rows])]
            i, j = np.minimum(first, second), np.maximum(first, second)
            p1, p2, q1, q2 = a[i], b[i], a[j], b[j]
            shared = np.zeros(len(i), dtype=bool)
            for p in (p1, p2):
                for q in (q1, q2):
                    shared |= (p == q).all(axis=1)
            hit = ((j - i >= 2) & ~shared
                   & ((cross(q1, q2, p1) > 0) != (cross(q1, q2, p2) > 0))
                   & ((cross(p1, p2, q1) > 0) != (cross(p1, p2, q2) > 0)))
            if hit.any():
                lowest = min(lowest, int((i[hit] * n + j[hit]).min()))
        if lowest < n * n:
            raise InvalidGeometryError(
                f"self-intersection between segments {lowest // n} and "
                f"{lowest % n}")

    def area(self):
        """Outer area minus hole areas."""
        total = abs(_ring_signed_area(self.rings[0]))
        for hole in self.rings[1:]:
            total -= abs(_ring_signed_area(hole))
        return total

    def bbox(self):
        outer = self.rings[0]
        return (outer[:, 0].min(), outer[:, 1].min(),
                outer[:, 0].max(), outer[:, 1].max())

    def _edge_pass(self, points):
        """Per point of the (n, 2) array ``points``: whether a ray from it
        towards +x crosses the edges of all rings an odd number of times,
        and its squared distance to the nearest edge.

        For the point (px, py) and the edge from (xa, ya) to (xb, yb),
        d = (dx, dy): the ray crosses the edge where (ya > py) != (yb > py)
        and px < xa + (py - ya) dx / dy, and the edge's point nearest to it
        is at t = clip(((px - xa) dx + (py - ya) dy) / |d|^2, 0, 1).  Each
        block of points evaluates those formulas, in that order, into three
        float and two bool (rows x edges) buffers allocated once."""
        xa, ya = self._starts[:, 0], self._starts[:, 1]
        xb, yb = self._ends[:, 0], self._ends[:, 1]
        dx, dy = xb - xa, yb - ya
        L2 = dx * dx + dy * dy
        L2 = np.where(L2 > 0, L2, 1.0)
        odd = np.empty(len(points), dtype=bool)
        dist2 = np.empty(len(points))
        blocks = list(_row_blocks(len(points), len(xa)))
        shape = (blocks[0].stop if blocks else 0, len(xa))
        f1, f2, f3 = (np.empty(shape) for _ in range(3))
        b1, b2 = (np.empty(shape, dtype=bool) for _ in range(2))
        for rows in blocks:
            px, py = points[rows, :1], points[rows, 1:]
            n = len(px)
            dpy, v, w, cross, left = f1[:n], f2[:n], f3[:n], b1[:n], b2[:n]
            np.subtract(py, ya, out=dpy)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(dpy, dx, out=v)
                np.divide(v, dy, out=v)
            np.add(xa, v, out=v)  # the crossing's x
            np.greater(ya, py, out=cross)
            np.greater(yb, py, out=left)
            np.not_equal(cross, left, out=cross)
            np.less(px, v, out=left)
            cross &= left
            odd[rows] = np.count_nonzero(cross, axis=1) % 2 == 1
            np.subtract(px, xa, out=v)
            v *= dx
            dpy *= dy
            v += dpy
            v /= L2
            np.clip(v, 0.0, 1.0, out=v)  # t
            np.multiply(v, dx, out=dpy)
            np.add(xa, dpy, out=dpy)
            np.subtract(px, dpy, out=dpy)
            np.square(dpy, out=dpy)
            np.multiply(v, dy, out=w)
            np.add(ya, w, out=w)
            np.subtract(py, w, out=w)
            np.square(w, out=w)
            dpy += w
            dist2[rows] = dpy.min(axis=1)
        return odd, dist2

    def contains(self, points):
        """Even-odd containment for an array of points, holes respected.

        Points on a ring edge (within ``_BOUNDARY_TOL`` of it, scaled by the
        bounding-box size) count as inside.  Only points in the bounding box
        grown by that tolerance are tested: any other point crosses each
        ring an even number of times and is beyond tolerance of every edge.
        """
        all_pts = np.atleast_2d(np.asarray(points, dtype=float))
        x0, y0, x1, y1 = self.bbox()
        tol = self._tol
        near = ((all_pts[:, 0] >= x0 - tol) & (all_pts[:, 0] <= x1 + tol)
                & (all_pts[:, 1] >= y0 - tol) & (all_pts[:, 1] <= y1 + tol))
        odd, dist2 = self._edge_pass(all_pts[near])
        result = np.zeros(len(all_pts), dtype=bool)
        result[near] = odd | (dist2 <= tol * tol)
        if np.ndim(points) == 1:
            return bool(result[0])
        return result

    def distance(self, points):
        """Unsigned distance to the polygon: 0 inside, else distance to rings."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        odd, dist2 = self._edge_pass(pts)
        d = np.sqrt(dist2)
        d[odd | (dist2 <= self._tol * self._tol)] = 0.0
        return d if np.ndim(points) > 1 else float(d[0])


# ---------------------------------------------------------------------------
# triangular mesh
# ---------------------------------------------------------------------------

def _signed_areas(points, triangles):
    """Signed area of each triangle of ``points`` (rows of ``triangles``
    index them): positive for counter-clockwise vertex order."""
    a, b, c = (points[triangles[:, k]] for k in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _min_angles(points, triangles):
    """Smallest interior angle of each triangle, in radians."""
    a, b, c = (points[triangles[:, k]] for k in range(3))

    def ang(u, w):
        cosv = np.sum(u * w, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        return np.arccos(np.clip(cosv, -1.0, 1.0))

    A = ang(b - a, c - a)
    B = ang(a - b, c - b)
    return np.minimum(np.minimum(A, B), np.pi - A - B)


class TriMesh:
    """Conforming planar triangulation with piecewise-linear basis functions.

    ``vertices``: (m, 2) float array.  ``triangles``: (nt, 3) int array with
    counter-clockwise vertex order.  ``interior_flag`` marks vertices inside
    the study region as opposed to the coarse extension zone.
    """

    def __init__(self, vertices, triangles, interior_flag=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        if interior_flag is None:
            interior_flag = np.ones(len(self.vertices), dtype=bool)
        self.interior_flag = np.asarray(interior_flag, dtype=bool)
        self._orient()

    def _orient(self):
        flip = self.signed_areas() < 0
        if flip.any():
            self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]

    @property
    def num_vertices(self):
        return len(self.vertices)

    def signed_areas(self):
        return _signed_areas(self.vertices, self.triangles)

    def area(self):
        return float(np.abs(self.signed_areas()).sum())

    def submesh(self, polygons):
        """The triangles that can hold a point of any of ``polygons``, as a
        mesh, with the indices of its vertices in this mesh (ascending).

        Triangles keep their order and vertices their relative order, so
        :func:`project` of such a point picks the same triangle with the
        same weights on both meshes, bit for bit, its vertices renumbered.
        The test is conservative: a triangle is kept when a polygon comes
        within the triangle's centroid-to-vertex radius of its centroid,
        which every point the triangle holds does; the radius is widened
        by 1e-6 of itself for project's and the polygon's tolerances.
        """
        corners = self.vertices[self.triangles]
        centroids = corners.mean(axis=1)
        reach = np.sqrt(((corners - centroids[:, None]) ** 2).sum(axis=2)
                        ).max(axis=1) * (1.0 + 1e-6)
        keep = np.zeros(len(self.triangles), dtype=bool)
        for poly in polygons:
            rest = np.flatnonzero(~keep)
            keep[rest] = poly.distance(centroids[rest]) <= reach[rest]
        triangles = self.triangles[keep]
        used = np.unique(triangles)
        return TriMesh(self.vertices[used], np.searchsorted(used, triangles),
                       self.interior_flag[used]), used

    def edges(self):
        """Unique undirected edges and the number of adjacent triangles each."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        return uniq, counts

    def validate(self):
        """Raise InvalidGeometryError on any violated mesh invariant."""
        import scipy.sparse as sp
        from scipy.spatial import cKDTree

        if np.any(self.signed_areas() <= 0):
            raise InvalidGeometryError("mesh contains non-positive-area triangle")
        _, counts = self.edges()
        if counts.max() > 2:
            raise InvalidGeometryError("edge shared by more than 2 triangles")
        tree = cKDTree(self.vertices)
        if tree.query_pairs(_DUPLICATE_TOL):
            raise InvalidGeometryError("duplicate vertices within tolerance")
        uniq, _ = self.edges()
        adj = sp.coo_matrix(
            (np.ones(len(uniq)), (uniq[:, 0], uniq[:, 1])),
            shape=(self.num_vertices, self.num_vertices))
        ncomp = sp.csgraph.connected_components(
            adj + adj.T, directed=False, return_labels=False)
        if ncomp != 1:
            raise InvalidGeometryError(f"mesh has {ncomp} connected components")
        return True


# ---------------------------------------------------------------------------
# finite-element matrices
# ---------------------------------------------------------------------------

def fem_matrices(mesh):
    """Lumped mass matrix C (diagonal) and stiffness matrix G.

    C_ii is one third of the total area of triangles adjacent to vertex i,
    which equals the integral of the hat function phi_i.  G_ij integrates
    grad(phi_i) . grad(phi_j) over the mesh.
    """
    import scipy.sparse as sp

    v = mesh.vertices
    t = mesh.triangles
    m = mesh.num_vertices
    area = np.abs(mesh.signed_areas())
    cd = np.zeros(m)
    for i in range(3):
        np.add.at(cd, t[:, i], area / 3.0)

    x = v[:, 0][t]
    y = v[:, 1][t]
    # gradient coefficients of the three hat functions on each triangle
    gb = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    gc = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append((gb[:, i] * gb[:, j] + gc[:, i] * gc[:, j]) / (4.0 * area))
    g = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).tocsc()
    return sp.diags(cd).tocsc(), g


# ---------------------------------------------------------------------------
# point-to-mesh projection
# ---------------------------------------------------------------------------

@dataclass
class Projector:
    """Barycentric projection of query points onto mesh vertices.

    Row i holds the three vertices (ascending) of the triangle containing
    point i and the point's barycentric weights in it, non-negative and
    summing to 1.  A point outside the mesh hull is flagged in
    ``out_of_mesh`` and weighs nothing.
    """

    vertices: np.ndarray     # (n, 3) int
    weights: np.ndarray      # (n, 3) float
    out_of_mesh: np.ndarray  # (n,) bool
    num_vertices: int        # of the mesh

    def apply(self, x, rows=slice(None)):
        """Values at the points in ``rows`` of the vertex values ``x`` (one
        row per vertex), bit for bit ``matrix[rows] @ x``: each point sums
        over its vertices in ascending order, as a CSR row does."""
        return np.einsum("rk,rks->rs", self.weights[rows],
                         x[self.vertices[rows]])

    @property
    def matrix(self):
        """The projection as a (points, mesh vertices) scipy CSR matrix."""
        import scipy.sparse as sp

        n = len(self.weights)
        keep = self.weights > 0
        rows = np.repeat(np.arange(n), 3).reshape(n, 3)
        return sp.csr_matrix(
            (self.weights[keep], (rows[keep], self.vertices[keep])),
            shape=(n, self.num_vertices))


def project(mesh, points):
    """Barycentric projection of each point onto its containing triangle.

    Triangles are binned on a uniform grid, into every cell their bounding
    box meets; all (point, triangle of its cell) pairs are tested at once.
    The lowest-index triangle holding a point (weights down to
    ``-_PROJECT_TOL``) takes it, its weights clipped at 0 and rescaled.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    tol = _PROJECT_TOL
    corners = mesh.vertices[mesh.triangles]
    a = corners[:, 0]
    e1, e2 = corners[:, 1] - a, corners[:, 2] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    tmin, tmax = corners.min(axis=1), corners.max(axis=1)
    cell = max(*_row_medians((tmax - tmin).T), 1e-12)
    nx, ny = np.maximum(np.ceil((hi - lo) / cell).astype(int), 1)

    def cell_of(p):
        c = np.clip(((p - lo) / cell).astype(int), 0, [nx - 1, ny - 1])
        return c[:, 0] * ny + c[:, 1]

    # (triangle, cell) pairs, sorted by cell and then by triangle
    c0, c1 = cell_of(tmin), cell_of(tmax)
    span = c1 % ny - c0 % ny + 1
    count = (c1 // ny - c0 // ny + 1) * span
    tri = np.repeat(np.arange(len(count)), count)
    k = _ranges(0, count)
    key = c0[tri] + k // span[tri] * ny + k % span[tri]
    tri = tri[np.argsort(key, kind="stable")]
    start = np.concatenate([[0], np.cumsum(np.bincount(key,
                                                       minlength=nx * ny))])

    # (point, candidate) pairs, sorted by point and then by triangle
    sub = np.flatnonzero(((pts >= lo - tol) & (pts <= hi + tol)).all(axis=1))
    pc = cell_of(pts[sub])
    n_cand = start[pc + 1] - start[pc]
    pt = np.repeat(sub, n_cand)
    cand = tri[_ranges(start[pc], n_cand)]
    d = pts[pt] - a[cand]
    w1 = (d[:, 0] * e2[cand, 1] - d[:, 1] * e2[cand, 0]) / det[cand]
    w2 = (e1[cand, 0] * d[:, 1] - e1[cand, 1] * d[:, 0]) / det[cand]
    w = np.column_stack([1.0 - w1 - w2, w1, w2])
    hit = np.flatnonzero((w >= -tol).all(axis=1))
    first = hit[np.diff(pt[hit], prepend=-1) > 0]
    pt, held = pt[first], mesh.triangles[cand[first]]
    w = np.clip(w[first], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)

    order = np.argsort(held, axis=1)
    vertices = np.zeros((len(pts), 3), dtype=np.int64)
    weights = np.zeros((len(pts), 3))
    vertices[pt] = np.take_along_axis(held, order, axis=1)
    weights[pt] = np.take_along_axis(w, order, axis=1)
    return Projector(vertices, weights, ~weights.any(axis=1),
                     mesh.num_vertices)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _polygon_from_geojson_coords(coords, pid):
    rings = [np.asarray(ring, dtype=float) for ring in coords]
    return Polygon(rings, id=pid)


def _json_object(value, what):
    if not isinstance(value, dict):
        raise TypeError(f"{what} is not a JSON object")
    return value


def read_polygons_geojson(path):
    """Read polygons from a minimal GeoJSON file.

    Accepts a FeatureCollection, a bare Feature, or a bare geometry with
    type Polygon or MultiPolygon.  Lon-lat pairs are treated as planar
    map-unit coordinates.  Each MultiPolygon part becomes its own Polygon
    with a ``#part`` suffix on the id.
    """
    with reading(path):
        with open(path) as fh:
            obj = _json_object(json.load(fh), "the top level")
        if obj.get("type") == "FeatureCollection":
            feats = obj["features"]
        elif obj.get("type") == "Feature":
            feats = [obj]
        else:
            feats = [{"type": "Feature", "geometry": obj, "properties": {}}]
        out = []
        for i, feat in enumerate(feats):
            feat = _json_object(feat, f"feature {i}")
            geom, props = (_json_object(feat.get(k) or {}, f"feature {i}: {k}")
                           for k in ("geometry", "properties"))
            pid = str(props.get("id", i))
            gtype = geom.get("type")
            if gtype == "Polygon":
                out.append(_polygon_from_geojson_coords(geom["coordinates"],
                                                        pid))
            elif gtype == "MultiPolygon":
                parts = geom["coordinates"]
                for j, part in enumerate(parts):
                    suffix = f"#{j}" if len(parts) > 1 else ""
                    out.append(_polygon_from_geojson_coords(part,
                                                            pid + suffix))
            else:
                raise InvalidGeometryError(
                    f"unsupported geometry type: {gtype}")
    return out


def read_polygons_csv(path):
    """Read polygons from CSV rows (id, ring_index, vertex_index, x, y)."""
    data = {}
    with reading(path):
        for key, ring, vertex, x, y in zip(*_read_csv(
                path, ["id", "ring_index", "vertex_index", "x", "y"])):
            data.setdefault(key, {}).setdefault(int(ring), []).append(
                (int(vertex), float(x), float(y)))
        return [Polygon([np.array([(x, y) for _, x, y in sorted(rings[r])])
                         for r in sorted(rings)], id=pid)
                for pid, rings in data.items()]


def write_polygons_csv(path, polygons):
    rows = [(poly.id, ri, vi, x, y)
            for poly in polygons
            for ri, ring in enumerate(poly.rings)
            for vi, (x, y) in enumerate(ring.tolist())]
    _write_csv(path, ["id", "ring_index", "vertex_index", "x", "y"],
               [[row[k] for row in rows] for k in range(5)])
