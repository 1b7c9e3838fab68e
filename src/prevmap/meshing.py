"""Two-zone triangular mesh construction by Delaunay refinement.

The mesh covers the study polygon plus a rectangular extension zone whose
width is (extension_factor - 1) times the polygon's bounding-box diagonal.
Triangles are fine (edge <= interior_max_edge) in and near the polygon and
grow with distance from it up to ``exterior_max_edge``, which pushes the
Neumann boundary artifacts of Markovian field models away from the region
of interest.

Construction is a batched variant of Ruppert's algorithm: seed lattices are
laid down at the target densities, then passes alternate between splitting
extension-boundary segments encroached by mesh points and inserting
circumcenters of triangles that violate the size field or the minimum-angle
criterion.  Circumcenters that fall outside the domain or encroach a
boundary segment trigger a segment split instead, which is what guarantees
termination at the 20 degree default.
"""

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import InvalidGeometryError, RefinementError
from .geometry import TriMesh, _min_angles, _signed_areas

__all__ = ["build_mesh"]

_SIZE_FACTOR = 0.5      # enforce circumradius <= _SIZE_FACTOR * h
_SEED_SPACING = 0.85    # lattice spacing as a fraction of local h
_MIN_ANGLE_DEG = 20.0   # quality criterion, Ruppert-safe up to ~20.7
_GRADE = 0.9            # size-field growth per unit distance from the polygon
_MAX_PASSES = 200       # refinement passes before RefinementError
_CHUNK = 512            # candidates accepted together: part of the acceptance
                        # rule, so every mesh depends on it; bounds a chunk's
                        # pairwise distance matrix to 2 MB

# One row per wall of the extension box (x0, x1, y0, y1), in the order
# y = y0, y = y1, x = x0, x = x1: the axis the wall runs along (0: x, 1: y),
# the index in the box of the coordinate it lies on, and the side of it the
# box lies on (+1: towards larger coordinates).
_WALLS = np.array([(0, 2, 1), (0, 3, -1), (1, 0, 1), (1, 1, -1)])


def _hex_lattice(x0, x1, y0, y1, s):
    """Hexagonal point lattice covering [x0,x1] x [y0,y1] at spacing s."""
    if x1 <= x0 or y1 <= y0:
        return np.empty((0, 2))
    dy = s * np.sqrt(3) / 2
    # rows at y0 + j dy up to y1; the arange reaches one row past it
    ys = y0 + np.arange(int((y1 - y0) / dy) + 2) * dy
    rows = []
    for j, y in enumerate(ys[ys <= y1 + 1e-12]):
        xs = np.arange(x0 + (s / 2 if j % 2 else 0.0), x1 + 1e-12, s)
        rows.append(np.column_stack([xs, np.full(xs.size, y)]))
    return np.vstack(rows)


def _triangle_metrics(pts, tris):
    """Circumcenter, circumradius and smallest angle of each triangle."""
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    ab, ac = b - a, c - a
    la = np.linalg.norm(c - b, axis=1)
    lb = np.linalg.norm(ac, axis=1)
    lc = np.linalg.norm(ab, axis=1)
    d = 4.0 * _signed_areas(pts, tris)
    ux = np.sum(ac ** 2, axis=1) * ab[:, 1] - np.sum(ab ** 2, axis=1) * ac[:, 1]
    uy = np.sum(ab ** 2, axis=1) * ac[:, 0] - np.sum(ac ** 2, axis=1) * ab[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = a + np.column_stack([-ux, -uy]) / d[:, None]
        r = la * lb * lc / np.abs(d)
    return cc, r, _min_angles(pts, tris)


class _RectBoundary:
    """The four walls of the extension box as splittable segments: wall k
    (a row of ``_WALLS``) holds its segment ends ``pos[k]``, ascending
    coordinates along the wall."""

    def __init__(self, box, hfun):
        self.axis, at, self.side = _WALLS.T
        self.at = np.asarray(box, dtype=float)[at]
        self.pos = []
        for k, axis in enumerate(self.axis):
            lo, hi = box[2 * axis], box[2 * axis + 1]
            ts = [lo]
            t = lo
            while True:
                h = float(hfun(self._xy(k, np.array([t])))[0])
                t = t + _SEED_SPACING * h
                if t >= hi - 0.35 * _SEED_SPACING * h:
                    break
                ts.append(t)
            ts.append(hi)
            self.pos.append(np.array(ts))

    def _xy(self, k, t):
        """The points at coordinates t along wall k."""
        xy = np.full((len(t), 2), self.at[k])
        xy[:, self.axis[k]] = t
        return xy

    def points(self):
        # the walls along y skip their ends so each corner appears once
        return np.vstack([self._xy(k, pos if self.axis[k] == 0 else pos[1:-1])
                          for k, pos in enumerate(self.pos)])

    def _uv(self, pts):
        """Each point's coordinate along each wall and its distance from it
        into the box, as two (4, n) arrays."""
        u = pts[:, self.axis].T
        dist = self.side[:, None] * (pts[:, 1 - self.axis].T
                                     - self.at[:, None])
        return u, dist

    def _segment(self, k, u):
        """Index of the segment of wall k under wall coordinate(s) u."""
        return np.clip(np.searchsorted(self.pos[k], u) - 1,
                       0, len(self.pos[k]) - 2)

    def _encroach(self, pts):
        """Per wall k: the segment j under each point, and whether the point
        lies inside that segment's diametral circle."""
        u, dist = self._uv(pts)
        for k, pos in enumerate(self.pos):
            j = self._segment(k, u[k])
            yield k, j, ((u[k] - pos[j]) * (u[k] - pos[j + 1])
                         + dist[k] * dist[k] < -1e-14)

    def encroached_by(self, pts):
        """Segments whose diametral circle contains one of ``pts``."""
        return {(k, int(jj)) for k, j, enc in self._encroach(pts)
                for jj in j[enc]}

    def encroaches_any(self, pts):
        """Whether each of ``pts`` lies in some segment's diametral circle."""
        return np.any([enc for _, _, enc in self._encroach(pts)], axis=0)

    def segment_under(self, p):
        """The wall nearest to point p and its segment under p."""
        u, dist = self._uv(np.atleast_2d(p))
        k = int(np.argmin(dist[:, 0]))
        return k, int(self._segment(k, u[k, 0]))

    def split(self, keys):
        for k, jj in sorted(keys, key=lambda s: (s[0], -s[1])):
            pos = self.pos[k]
            self.pos[k] = np.insert(pos, jj + 1, 0.5 * (pos[jj] + pos[jj + 1]))


def build_mesh(boundary, interior_max_edge, extension_factor=1.5,
               exterior_max_edge=None):
    """Build the two-zone mesh for a study polygon.

    Parameters
    ----------
    boundary : Polygon
        Study region; the fine zone covers it (plus a one-edge halo).
    interior_max_edge : float
        Edge-length bound for triangles whose vertices lie in the polygon.
    extension_factor : float
        Mesh extends (extension_factor - 1) * bbox diagonal beyond the
        polygon's bounding box on every side.
    exterior_max_edge : float, optional
        Size cap in the extension zone; defaults to 5x the interior edge.

    Each pass ranks the circumcenters of the bad triangles (worst angle
    first, then largest circumradius) and accepts them in chunks of
    ``_CHUNK``.  A candidate keeps a separation of 0.4 times the smaller of
    its local size and its triangle's circumradius.  Within a chunk, an
    earlier kept candidate removes the later ones within its own
    separation; against the candidates kept from earlier chunks, a
    candidate is tested with its own separation.

    Raises :class:`RefinementError` with diagnostics if the quality targets
    (``_MIN_ANGLE_DEG``, the size field) are not met within ``_MAX_PASSES``
    refinement passes.
    """
    if interior_max_edge <= 0:
        raise InvalidGeometryError("interior_max_edge must be positive")
    if extension_factor < 1:
        raise InvalidGeometryError("extension_factor must be >= 1")
    if exterior_max_edge is None:
        exterior_max_edge = 5.0 * interior_max_edge
    if exterior_max_edge < interior_max_edge:
        raise InvalidGeometryError(
            "exterior_max_edge must be >= interior_max_edge")

    h_int = float(interior_max_edge)
    h_ext = float(exterior_max_edge)
    bx0, by0, bx1, by1 = boundary.bbox()
    diag = float(np.hypot(bx1 - bx0, by1 - by0))
    margin = (extension_factor - 1.0) * diag
    box = (bx0 - margin, bx1 + margin, by0 - margin, by1 + margin)
    x0, x1, y0, y1 = box

    def hfun(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return np.minimum(h_ext, h_int + _GRADE * boundary.distance(p))

    walls = _RectBoundary(box, hfun)

    s_f = _SEED_SPACING * h_int
    fine = _hex_lattice(max(bx0 - h_int, x0 + 0.4 * s_f),
                        min(bx1 + h_int, x1 - 0.4 * s_f),
                        max(by0 - h_int, y0 + 0.4 * s_f),
                        min(by1 + h_int, y1 - 0.4 * s_f), s_f)
    fine = fine[hfun(fine) <= h_int * 1.001]
    s_c = _SEED_SPACING * h_ext
    coarse = _hex_lattice(x0 + 0.5 * s_c, x1 - 0.5 * s_c,
                          y0 + 0.5 * s_c, y1 - 0.5 * s_c, s_c)
    coarse = coarse[hfun(coarse) >= h_ext * 0.999]
    coarse = coarse[cKDTree(fine).query(coarse)[0] > 0.5 * s_c]
    free = np.vstack([fine, coarse])

    # Split the wall segments the seeds encroach until none is; every seed
    # lies at least 0.4 s_f inside the box, so this ends.  No later point
    # encroaches: a candidate that would is sent to the wall instead, and
    # the diametral circle of half a segment lies in the segment's own.
    enc = walls.encroached_by(free)
    while enc:
        walls.split(enc)
        enc = walls.encroached_by(free)

    minrad = np.deg2rad(_MIN_ANGLE_DEG)
    last_stats = None
    for _ in range(_MAX_PASSES):
        pts = np.vstack([walls.points(), free])
        simplices = Delaunay(pts).simplices
        cc, r, minang = _triangle_metrics(pts, simplices)
        cent = pts[simplices].mean(axis=1)
        h_t = np.minimum(hfun(cent), hfun(pts)[simplices].min(axis=1))
        bad_size = r > _SIZE_FACTOR * h_t
        bad_q = minang < minrad
        bad = bad_size | bad_q
        last_stats = (len(pts), int(bad.sum()), float(np.degrees(minang.min())))
        if not bad.any():
            return TriMesh(pts, simplices, boundary.contains(pts))

        key = np.where(bad_q, minang, minrad + 1.0 / np.maximum(r, 1e-12))
        order = np.argsort(key, kind="stable")
        order = order[bad[order]]
        cand = cc[order]
        inside = ((cand[:, 0] > x0) & (cand[:, 0] < x1)
                  & (cand[:, 1] > y0) & (cand[:, 1] < y1))
        to_wall = ~inside
        to_wall[inside] = walls.encroaches_any(cand[inside])
        splits = {walls.segment_under(p)
                  for p in np.clip(cand[to_wall], [x0, y0], [x1, y1])}
        ci = cand[~to_wall]
        sep = 0.4 * np.minimum(hfun(ci), np.maximum(r[order][~to_wall], 1e-12))
        accepted = np.empty((0, 2))
        for s in range(0, len(ci), _CHUNK):
            chunk, csep = ci[s:s + _CHUNK], sep[s:s + _CHUNK]
            keep = cKDTree(accepted).query(chunk)[0] >= csep
            dm = np.hypot(chunk[:, 0, None] - chunk[None, :, 0],
                          chunk[:, 1, None] - chunk[None, :, 1])
            for i in range(len(chunk)):
                if keep[i]:
                    close = (dm[i] < csep[i]) & keep
                    close[:i + 1] = False
                    keep[close] = False
            accepted = np.vstack([accepted, chunk[keep]])
        walls.split(splits)
        if len(accepted) == 0 and not splits:
            break
        free = np.vstack([free, accepted])

    n, nbad, worst = last_stats if last_stats else (0, -1, float("nan"))
    raise RefinementError(
        f"refinement did not converge: {nbad} bad triangles remain after "
        f"{_MAX_PASSES} passes (n={n}, worst angle={worst:.2f} deg, "
        f"h_int={h_int}, h_ext={h_ext})")
