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


def _hex_lattice(x0, x1, y0, y1, s):
    """Hexagonal point lattice covering [x0,x1] x [y0,y1] at spacing s."""
    if x1 <= x0 or y1 <= y0:
        return np.empty((0, 2))
    dy = s * np.sqrt(3) / 2
    rows = []
    j = 0
    y = y0
    while y <= y1 + 1e-12:
        off = (s / 2) if (j % 2) else 0.0
        xs = np.arange(x0 + off, x1 + 1e-12, s)
        if xs.size:
            rows.append(np.column_stack([xs, np.full(xs.size, y)]))
        j += 1
        y = y0 + j * dy
    return np.vstack(rows) if rows else np.empty((0, 2))


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
    """The four walls of the extension rectangle as splittable segments."""

    def __init__(self, box, hfun):
        self.box = box
        x0, x1, y0, y1 = box
        self.pos = []
        for k in range(4):
            lo, hi = (x0, x1) if k < 2 else (y0, y1)
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
        x0, x1, y0, y1 = self.box
        t = np.asarray(t, dtype=float)
        const = {0: y0, 1: y1, 2: x0, 3: x1}[k]
        if k < 2:
            return np.column_stack([t, np.full(t.shape, const)])
        return np.column_stack([np.full(t.shape, const), t])

    def points(self):
        # walls 2 and 3 skip their endpoints so corners appear exactly once
        return np.vstack([
            self._xy(0, self.pos[0]),
            self._xy(1, self.pos[1]),
            self._xy(2, self.pos[2][1:-1]),
            self._xy(3, self.pos[3][1:-1]),
        ])

    def _uv(self, k, pts):
        x0, x1, y0, y1 = self.box
        if k == 0:
            return pts[:, 0], pts[:, 1] - y0
        if k == 1:
            return pts[:, 0], y1 - pts[:, 1]
        if k == 2:
            return pts[:, 1], pts[:, 0] - x0
        return pts[:, 1], x1 - pts[:, 0]

    def _segment(self, k, u):
        """Index of the segment of wall k under wall coordinate(s) u."""
        return np.clip(np.searchsorted(self.pos[k], u) - 1,
                       0, len(self.pos[k]) - 2)

    def _diametral(self, k, u, dist):
        """Segment of wall k under each point at wall coordinate u and
        distance dist from the wall, and whether the point lies inside that
        segment's diametral circle."""
        pos = self.pos[k]
        j = self._segment(k, u)
        return j, (u - pos[j]) * (u - pos[j + 1]) + dist * dist < -1e-14

    def encroached_by(self, pts):
        """Segments whose diametral circle contains one of ``pts``."""
        out = set()
        for k in range(4):
            u, dist = self._uv(k, pts)
            pos = self.pos[k]
            half = 0.5 * np.max(pos[1:] - pos[:-1])
            near = (dist > 1e-14) & (dist < half)
            if not near.any():
                continue
            j, enc = self._diametral(k, u[near], dist[near])
            for jj in np.unique(j[enc]):
                out.add((k, int(jj)))
        return out

    def encroaches_any(self, pts):
        res = np.zeros(len(pts), dtype=bool)
        for k in range(4):
            res |= self._diametral(k, *self._uv(k, pts))[1]
        return res

    def segment_under(self, p):
        x0, x1, y0, y1 = self.box
        dists = [p[1] - y0, y1 - p[1], p[0] - x0, x1 - p[0]]
        k = int(np.argmin(dists))
        return k, int(self._segment(k, p[0] if k < 2 else p[1]))

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
    if len(fine):
        fine = fine[hfun(fine) <= h_int * 1.001]
    s_c = _SEED_SPACING * h_ext
    coarse = _hex_lattice(x0 + 0.5 * s_c, x1 - 0.5 * s_c,
                          y0 + 0.5 * s_c, y1 - 0.5 * s_c, s_c)
    if len(coarse):
        coarse = coarse[hfun(coarse) >= h_ext * 0.999]
        if len(fine):
            tree = cKDTree(fine)
            d, _ = tree.query(coarse)
            coarse = coarse[d > 0.5 * s_c]
    free = np.vstack([a for a in (fine, coarse) if len(a)]) \
        if (len(fine) or len(coarse)) else np.empty((0, 2))

    minrad = np.deg2rad(_MIN_ANGLE_DEG)
    last_stats = None
    for _ in range(_MAX_PASSES):
        if len(free):
            enc = walls.encroached_by(free)
            if enc:
                walls.split(enc)
                continue
        pts = np.vstack([walls.points(), free]) if len(free) else walls.points()
        tri = Delaunay(pts)
        simplices = tri.simplices
        cc, r, minang = _triangle_metrics(pts, simplices)
        cent = pts[simplices].mean(axis=1)
        h_t = np.minimum(hfun(cent), hfun(pts)[simplices].min(axis=1))
        bad_size = r > _SIZE_FACTOR * h_t
        bad_q = minang < minrad
        bad = bad_size | bad_q
        last_stats = (len(pts), int(bad.sum()), float(np.degrees(minang.min())))
        if not bad.any():
            flags = boundary.contains(pts)
            mesh = TriMesh(pts, simplices, flags)
            return mesh

        key = np.where(bad_q, minang, minrad + 1.0 / np.maximum(r, 1e-12))
        order = np.argsort(key, kind="stable")
        order = order[bad[order]]
        cand = cc[order]
        inside = ((cand[:, 0] > x0) & (cand[:, 0] < x1)
                  & (cand[:, 1] > y0) & (cand[:, 1] < y1))
        encro = np.zeros(len(cand), dtype=bool)
        encro[inside] = walls.encroaches_any(cand[inside])
        to_wall = ~inside | encro
        splits = set()
        for p in np.clip(cand[to_wall], [x0, y0], [x1, y1]):
            splits.add(walls.segment_under(p))
        ci = cand[~to_wall]
        hc = hfun(ci) if len(ci) else np.empty(0)
        sep = 0.4 * np.minimum(hc, np.maximum(r[order][~to_wall], 1e-12))
        accepted = np.empty((0, 2))
        for s in range(0, len(ci), 512):
            chunk, csep = ci[s:s + 512], sep[s:s + 512]
            keep = np.ones(len(chunk), dtype=bool)
            if len(accepted):
                d, _ = cKDTree(accepted).query(chunk)
                keep &= d >= csep
            if len(chunk) > 1:
                dm = np.hypot(chunk[:, 0, None] - chunk[None, :, 0],
                              chunk[:, 1, None] - chunk[None, :, 1])
                for i in range(len(chunk)):
                    if keep[i]:
                        close = (dm[i] < csep[i]) & keep
                        close[:i + 1] = False
                        keep[close] = False
            accepted = np.vstack([accepted, chunk[keep]])
        if splits:
            walls.split(splits)
        if len(accepted) == 0 and not splits:
            break
        if len(accepted):
            free = np.vstack([free, accepted]) if len(free) else accepted

    n, nbad, worst = last_stats if last_stats else (0, -1, float("nan"))
    raise RefinementError(
        f"refinement did not converge: {nbad} bad triangles remain after "
        f"{_MAX_PASSES} passes (n={n}, worst angle={worst:.2f} deg, "
        f"h_int={h_int}, h_ext={h_ext})")
