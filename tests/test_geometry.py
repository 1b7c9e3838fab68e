"""Geometry: polygons, mesh construction, FEM matrices, projection."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from prevmap import geometry
from prevmap.errors import DataError, InvalidGeometryError
from prevmap.geometry import (_BOUNDARY_TOL, _PROJECT_TOL, Polygon,
                              _min_angles, fem_matrices, project,
                              read_polygons_csv, read_polygons_geojson,
                              write_polygons_csv, TriMesh)
from prevmap.meshing import build_mesh


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def test_polygon_orientation_normalized():
    # clockwise input outer ring is flipped to CCW
    p = Polygon([[(0, 0), (0, 1), (1, 1), (1, 0)]])
    x, y = p.rings[0][:, 0], p.rings[0][:, 1]
    signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed > 0


def test_polygon_rejects_degenerate():
    with pytest.raises(InvalidGeometryError):
        Polygon([[(0, 0), (1, 0)]])
    with pytest.raises(InvalidGeometryError):
        Polygon([[(0, 0), (1, 0), (2, 0)]])  # collinear, zero area
    with pytest.raises(InvalidGeometryError):
        Polygon([[(0, 0), (1, 1), (1, 0), (0, 1)]])  # bowtie


def test_polygon_area_with_hole():
    p = Polygon([[(0, 0), (4, 0), (4, 4), (0, 4)],
                 [(1, 1), (3, 1), (3, 3), (1, 3)]])
    assert p.area() == pytest.approx(16 - 4)


def test_point_in_area_basics(unit_square):
    # a single point gives a bool; the boundary counts inside
    assert unit_square.contains((0.5, 0.5)) is True
    assert unit_square.contains((0.0, 0.5)) is True
    assert unit_square.contains((1.5, 0.5)) is False
    assert unit_square.contains([[0.5, 0.5], [0.0, 0.5], [1.5, 0.5]]).tolist() \
        == [True, True, False]
    # just outside the bounding box: within the edge tolerance (1e-12 on a
    # unit square) counts inside, beyond it outside
    assert unit_square.contains([[1.0 + 5e-13, 0.5], [0.5, -5e-13],
                                 [1.0 + 1e-11, 0.5], [0.5, -1e-11]]).tolist() \
        == [True, True, False, False]


def test_point_in_hole_is_outside():
    p = Polygon([[(0, 0), (4, 0), (4, 4), (0, 4)],
                 [(1, 1), (3, 1), (3, 3), (1, 3)]])
    assert not p.contains((2, 2))
    assert p.contains((0.5, 0.5))
    assert p.contains((1.0, 2.0))  # on the hole's edge


def test_containment_monte_carlo_area_oracle():
    # acceptance fraction of uniform bbox points estimates the area ratio
    tri = Polygon([[(0, 0), (1, 0), (0, 1)]])
    rng = np.random.default_rng(0)
    pts = rng.random((10000, 2))
    frac = tri.contains(pts).mean()
    ratio = tri.area() / 1.0
    se = np.sqrt(ratio * (1 - ratio) / 10000)
    assert abs(frac - ratio) < 3 * se


def _star_ring(rng, k, r_lo, r_hi, centre):
    """k vertices at increasing angles, at most 90 degrees apart, and radii
    in [r_lo, r_hi] around ``centre``: a simple ring."""
    angles = 2 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    radii = rng.uniform(r_lo, r_hi, k)
    return centre + radii[:, None] * np.column_stack([np.cos(angles),
                                                      np.sin(angles)])


def _contains_oracle(rings, x, y):
    """Even-odd rule by counting, edge by edge, the crossings of the ray
    from (x, y) towards +x; a point within the boundary tolerance of an
    edge is inside."""
    outer = rings[0]
    tol = _BOUNDARY_TOL * max(np.ptp(outer[:, 0]), np.ptp(outer[:, 1]), 1.0)
    crossings = 0
    for ring in rings:
        for (xa, ya), (xb, yb) in zip(ring, np.roll(ring, -1, axis=0)):
            dx, dy = xb - xa, yb - ya
            t = min(max(((x - xa) * dx + (y - ya) * dy)
                        / (dx * dx + dy * dy), 0.0), 1.0)
            if math.hypot(x - xa - t * dx, y - ya - t * dy) <= tol:
                return True
            if (ya > y) != (yb > y) and x < xa + (y - ya) * dx / dy:
                crossings += 1
    return crossings % 2 == 1


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(k=st.integers(4, 9), k_hole=st.integers(3, 6),
       scale=st.floats(0.5, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_contains_matches_crossing_number_oracle(k, k_hole, scale, seed):
    # a star-shaped polygon with a star-shaped hole; points scattered over
    # the grown bounding box, on every edge, on the bounding box and just
    # outside it, within and beyond the boundary tolerance
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-5.0, 5.0, 2)
    outer = _star_ring(rng, k, 0.5 * scale, scale, centre)
    hole = _star_ring(rng, k_hole, 0.05 * scale, 0.2 * scale, centre)
    poly = Polygon([outer, hole])
    x0, y0, x1, y1 = poly.bbox()
    tol = _BOUNDARY_TOL * max(x1 - x0, y1 - y0, 1.0)
    grow = 0.1 * np.array([x1 - x0, y1 - y0])
    pts = [rng.uniform([x0, y0] - grow, [x1, y1] + grow, (40, 2))]
    for ring in poly.rings:
        t = rng.uniform(0.0, 1.0, (len(ring), 1))
        pts.append(ring + t * (np.roll(ring, -1, axis=0) - ring))
        pts.append(ring)
    u = rng.uniform(0.0, 1.0, 10)
    xs, ys = x0 + u * (x1 - x0), y0 + u[::-1] * (y1 - y0)
    ring = poly.rings[0]
    extreme = ring[[np.argmin(ring[:, 0]), np.argmax(ring[:, 0]),
                    np.argmin(ring[:, 1]), np.argmax(ring[:, 1])]]
    outwards = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    for gap in (0.0, 0.5 * tol, 2.0 * tol, 1e-9 * scale):
        pts += [np.column_stack([np.full(10, x0 - gap), ys]),
                np.column_stack([np.full(10, x1 + gap), ys]),
                np.column_stack([xs, np.full(10, y0 - gap)]),
                np.column_stack([xs, np.full(10, y1 + gap)]),
                # beside the extreme vertices, where the tolerance decides
                extreme + gap * outwards]
    pts = np.vstack(pts)
    got = poly.contains(pts)
    want = np.array([_contains_oracle(poly.rings, x, y) for x, y in pts])
    assert np.array_equal(got, want)
    assert poly.contains(pts[0]) == want[0]


def test_polygon_distance(unit_square):
    d = unit_square.distance(np.array([[0.5, 0.5], [2.0, 0.5], [-1.0, -1.0]]))
    assert d[0] == 0.0
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(np.sqrt(2))


def _circle(n, r=1.0, centre=(0.0, 0.0)):
    u = 2 * np.pi * np.arange(n) / n
    return np.asarray(centre) + r * np.column_stack([np.cos(u), np.sin(u)])


def _spiral(n):
    """Two turns of r = 1 + 0.3 u / (4 pi) at n angles u over [0, 4 pi):
    the closing edge, from the outer end back to the inner one, crosses
    the edge that ends the first turn (segment n / 2 - 1)."""
    u = 4 * np.pi * np.arange(n) / n
    r = 1 + 0.3 * u / (4 * np.pi)
    return r[:, None] * np.column_stack([np.cos(u), np.sin(u)])


@pytest.mark.parametrize("n, pair", [(40, (19, 39)), (2400, (1199, 2399))])
def test_polygon_rejects_self_intersection_at_any_size(n, pair):
    with pytest.raises(InvalidGeometryError,
                       match=f"between segments {pair[0]} and {pair[1]}$"):
        Polygon([_spiral(n)])


def test_polygon_validates_a_50000_vertex_circle():
    poly = Polygon([_circle(50_000)])
    assert poly.area() == pytest.approx(np.pi, rel=1e-8)


def test_polygon_point_tests_do_not_depend_on_block_size(monkeypatch):
    # a 600-vertex wavy outer ring with a 300-vertex hole, probed over the
    # bounding box and at vertices of both rings; the rings are validated
    # at each block size too
    u = 2 * np.pi * np.arange(600) / 600
    outer = (3 + 0.3 * np.sin(7 * u))[:, None] * np.column_stack(
        [np.cos(u), np.sin(u)])
    hole = _circle(300, 1.0, (0.2, -0.1))
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(-4.0, 4.0, (300, 2)), outer[::7],
                     hole[::5]])
    found = []
    for cells in (1, 10 ** 9):  # one row a block, then one block
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
        poly = Polygon([outer, hole])
        found.append((poly.contains(pts), poly.distance(pts)))
    (inside, dist), (inside_whole, dist_whole) = found
    assert np.array_equal(inside, inside_whole)
    assert np.array_equal(dist, dist_whole)
    assert np.array_equal(inside, dist == 0.0)
    assert inside[300:].all() and not inside[:300].all()


def _edge_pass_expressions(poly, points):
    """The crossing parity and squared edge distance of each point, written
    as one expression per quantity, 256 points at a time: the reference
    for the buffered pass."""
    xa, ya = poly._starts[:, 0], poly._starts[:, 1]
    xb, yb = poly._ends[:, 0], poly._ends[:, 1]
    dx, dy = xb - xa, yb - ya
    L2 = dx * dx + dy * dy
    L2 = np.where(L2 > 0, L2, 1.0)
    odd, dist2 = [], []
    for start in range(0, len(points), 256):
        px = points[start:start + 256, :1]
        py = points[start:start + 256, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = xa + (py - ya) * dx / dy
        crossing = ((ya > py) != (yb > py)) & (px < xint)
        odd.append(np.count_nonzero(crossing, axis=1) % 2 == 1)
        t = np.clip(((px - xa) * dx + (py - ya) * dy) / L2, 0.0, 1.0)
        dist2.append(((px - (xa + t * dx)) ** 2
                      + (py - (ya + t * dy)) ** 2).min(axis=1))
    return np.concatenate(odd), np.concatenate(dist2)


def test_contains_and_distance_are_the_expressions_bit_for_bit(monkeypatch):
    # a 2,000-vertex ring and a square hole (horizontal edges, dy = 0),
    # against random points, the vertices and the edge midpoints
    u = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    r = 5 + 0.4 * np.sin(7 * u)
    outer = np.column_stack([r * np.cos(u), r * np.sin(u)])
    hole = [(-1, -1), (-1, 1), (1, 1), (1, -1)]
    poly = Polygon([outer, hole])
    rng = np.random.default_rng(21)
    pts = np.vstack([rng.uniform(-6, 6, (1000, 2)), outer,
                     0.5 * (outer + np.roll(outer, -1, axis=0)), hole])
    got = poly.contains(pts), poly.distance(pts)
    monkeypatch.setattr(Polygon, "_edge_pass", _edge_pass_expressions)
    want = poly.contains(pts), poly.distance(pts)
    assert got[0].any() and not got[0].all()
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


def test_contains_memory_does_not_grow_with_points():
    # (points x edges) arrays would take 0.8 GB each
    poly = Polygon([_circle(2500)])
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (40_000, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inside = poly.contains(pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(inside.mean() - np.pi / 4) < 0.01
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------

def test_build_mesh_unit_square_quality(unit_square):
    mesh = build_mesh(unit_square, interior_max_edge=0.1,
                      extension_factor=1.5, exterior_max_edge=0.4)
    mesh.validate()
    min_angle = _min_angles(mesh.vertices, mesh.triangles).min()
    assert np.degrees(min_angle) >= 20.0
    # all interior triangle edges <= 0.1
    tri = mesh.triangles
    interior_tri = mesh.interior_flag[tri].all(axis=1)
    v = mesh.vertices
    for tid in np.where(interior_tri)[0]:
        a, b, c = v[tri[tid]]
        for e in (np.linalg.norm(a - b), np.linalg.norm(b - c),
                  np.linalg.norm(c - a)):
            assert e <= 0.1 + 1e-12


def test_build_mesh_two_zone_structure(square10):
    # Kenya-like: fine inside, triangles grow rapidly outside
    mesh = build_mesh(square10, interior_max_edge=0.5, extension_factor=1.5,
                      exterior_max_edge=3.0)
    v = mesh.vertices
    tri = mesh.triangles
    a, b, c = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
    lmax = np.maximum(np.maximum(np.linalg.norm(a - b, axis=1),
                                 np.linalg.norm(b - c, axis=1)),
                      np.linalg.norm(c - a, axis=1))
    cent = (a + b + c) / 3
    inner = ((cent[:, 0] > 0) & (cent[:, 0] < 10)
             & (cent[:, 1] > 0) & (cent[:, 1] < 10))
    far = square10.distance(cent) > 4.0
    assert lmax[inner].max() <= 0.5 + 1e-12
    assert np.median(lmax[far]) > 2.5 * np.median(lmax[inner])
    # extension covers (extension_factor - 1) * diagonal beyond the bbox
    margin = 0.5 * np.hypot(10, 10)
    assert v[:, 0].min() == pytest.approx(-margin)
    assert v[:, 0].max() == pytest.approx(10 + margin)


def test_build_mesh_tiny_polygon_still_covers():
    # interior edge larger than the polygon itself
    tri_poly = Polygon([[(0, 0), (1, 0), (0, 1)]])
    mesh = build_mesh(tri_poly, interior_max_edge=5.0, extension_factor=1.5)
    mesh.validate()
    assert len(mesh.triangles) >= 1
    # point-in-mesh sampling oracle: polygon and ring are covered
    rng = np.random.default_rng(1)
    pts = rng.random((500, 2)) * 1.0
    inside_poly = tri_poly.contains(pts)
    pr = project(mesh, pts[inside_poly])
    assert not pr.out_of_mesh.any()


def test_build_mesh_input_validation(unit_square):
    with pytest.raises(InvalidGeometryError):
        build_mesh(unit_square, interior_max_edge=-1)
    with pytest.raises(InvalidGeometryError):
        build_mesh(unit_square, 0.1, extension_factor=0.5)
    with pytest.raises(InvalidGeometryError):
        build_mesh(unit_square, 0.1, exterior_max_edge=0.05)


def test_mesh_determinism(unit_square):
    m1 = build_mesh(unit_square, 0.25, 1.5, 1.0)
    m2 = build_mesh(unit_square, 0.25, 1.5, 1.0)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)


# ---------------------------------------------------------------------------
# FEM matrices
# ---------------------------------------------------------------------------

def test_fem_single_right_triangle():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    c, g = fem_matrices(mesh)
    assert np.allclose(c.diagonal(), [1 / 6, 1 / 6, 1 / 6])
    # stiffness of the unit right triangle
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(g.toarray(), expected)


def test_fem_mass_conservation_and_nullspace(coarse_mesh10, coarse_fem10):
    c, g = coarse_fem10
    assert c.diagonal().sum() == pytest.approx(coarse_mesh10.area(), rel=1e-9)
    ones = np.ones(coarse_mesh10.num_vertices)
    rowmax = np.abs(g).max()
    assert np.abs(g @ ones).max() <= 1e-10 * rowmax


def test_fem_stiffness_symmetry(coarse_fem10):
    _, g = coarse_fem10
    assert abs(g - g.T).max() < 1e-12


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_vertex_and_centroid(coarse_mesh10):
    mesh = coarse_mesh10
    vid = 10
    pr = project(mesh, mesh.vertices[[vid]])
    row = pr.matrix.getrow(0)
    assert row.nnz == 1
    assert row.data[0] == pytest.approx(1.0)
    assert row.indices[0] == vid

    tri = mesh.triangles[5]
    centroid = mesh.vertices[tri].mean(axis=0)
    pr = project(mesh, centroid[None, :])
    row = pr.matrix.getrow(0).toarray().ravel()
    assert np.allclose(np.sort(row[tri]), [1 / 3] * 3)


def test_project_linear_exactness(coarse_mesh10):
    # piecewise-linear basis reproduces affine functions exactly
    mesh = coarse_mesh10
    f = lambda p: 2 * p[:, 0] + 3 * p[:, 1] - 1
    nodal = f(mesh.vertices)
    rng = np.random.default_rng(2)
    pts = rng.random((200, 2)) * 10
    pr = project(mesh, pts)
    assert not pr.out_of_mesh.any()
    assert np.abs(pr.matrix @ nodal - f(pts)).max() < 1e-12


def test_project_partition_of_unity(coarse_mesh10):
    rng = np.random.default_rng(3)
    pts = rng.random((500, 2)) * 24 - 7  # includes the extension zone
    pr = project(coarse_mesh10, pts)
    sums = np.asarray(pr.matrix.sum(axis=1)).ravel()
    inside = ~pr.out_of_mesh
    assert np.allclose(sums[inside], 1.0, atol=1e-12)
    assert np.all(sums[~inside] == 0.0)
    assert pr.matrix.toarray().min() >= 0
    # at most 3 nonzeros per row
    nnz_rows = np.diff(pr.matrix.indptr)
    assert nnz_rows.max() <= 3


def test_project_out_of_hull_flagged(coarse_mesh10):
    pr = project(coarse_mesh10, np.array([[100.0, 100.0]]))
    assert pr.out_of_mesh[0]


@functools.lru_cache(maxsize=None)
def _oracle_mesh(shape):
    """A two-zone mesh over a unit square or an L, its exterior coarse."""
    ring = {"square": [(0, 0), (1, 0), (1, 1), (0, 1)],
            "ell": [(0, 0), (1, 0), (1, 0.4), (0.4, 0.4), (0.4, 1), (0, 1)]}
    return build_mesh(Polygon([ring[shape]]), interior_max_edge=0.15,
                      extension_factor=1.3, exterior_max_edge=0.5)


def _barycentric_oracle(vertices, triangles, pts):
    """(points, triangles, 3) barycentric weights, each from the areas of
    the sub-triangles the point cuts."""
    def cross(o, p, q):
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    a, b, c = (vertices[triangles[:, k]][None] for k in range(3))
    p = pts[:, None]
    return np.stack([cross(p, b, c), cross(a, p, c), cross(a, b, p)],
                    axis=-1) / cross(a, b, c)[..., None]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(shape=st.sampled_from(["square", "ell"]),
       scale=st.floats(1e-3, 1e4), shift=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_project_matches_brute_force_oracle(shape, scale, shift, seed):
    # points uniform over the grown bounding box, at vertices, at edge
    # midpoints and beyond the hull, against a test of every triangle
    base = _oracle_mesh(shape)
    mesh = TriMesh(shift + scale * base.vertices, base.triangles)
    v, t = mesh.vertices, mesh.triangles
    rng = np.random.default_rng(seed)
    lo, hi = v.min(axis=0), v.max(axis=0)
    edges, _ = mesh.edges()
    edges = edges[rng.choice(len(edges), 60)]
    pts = np.vstack([rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo),
                                 (150, 2)),
                     v[rng.choice(len(v), 60)],
                     0.5 * (v[edges[:, 0]] + v[edges[:, 1]]),
                     hi + rng.uniform(1e-6, 1.0, (20, 2)) * (hi - lo)])
    pr = project(mesh, pts)

    bary = _barycentric_oracle(v, t, pts)
    holds = (bary >= -_PROJECT_TOL).all(axis=2)
    assert np.array_equal(pr.out_of_mesh, ~holds.any(axis=1))
    assert (pr.weights[pr.out_of_mesh] == 0).all()
    inside = ~pr.out_of_mesh
    rows, w = pr.vertices[inside], pr.weights[inside]
    tri_of = {tuple(tri): k for k, tri in enumerate(np.sort(t, axis=1))}
    tri = np.array([tri_of[tuple(r)] for r in rows])  # KeyError: no triangle
    # of the triangles holding a point, the lowest-index one takes it
    assert np.array_equal(tri, holds[inside].argmax(axis=1))
    assert (np.diff(rows, axis=1) > 0).all()
    assert (w >= 0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("ik,ikd->id", w, v[rows]),
                               pts[inside], rtol=0, atol=1e-9 * scale)

    n = len(pts)
    want = sp.csr_matrix((pr.weights.ravel(),
                          (np.repeat(np.arange(n), 3), pr.vertices.ravel())),
                         shape=(n, mesh.num_vertices))
    want.eliminate_zeros()
    got = pr.matrix
    assert (got != want).nnz == 0 and got.nnz == want.nnz
    x = rng.standard_normal((mesh.num_vertices, 7))
    assert np.array_equal(pr.apply(x), got @ x)
    assert np.array_equal(pr.apply(x, slice(5, 40)), got[5:40] @ x)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(shape=st.sampled_from(["square", "ell"]),
       scale=st.floats(1e-3, 1e4), shift=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_submesh_projects_points_of_its_polygons_bit_for_bit(shape, scale,
                                                             shift, seed):
    # points of the boundary, or of an area reaching into the extension
    # zone, at random, at mesh vertices and edge midpoints, and on the
    # polygon's edges, take the full mesh's vertices (renumbered) and
    # weights on the sub-mesh, bit for bit
    base = _oracle_mesh(shape)
    mesh = TriMesh(shift + scale * base.vertices, base.triangles,
                   base.interior_flag)
    ring = {"square": [(0, 0), (1, 0), (1, 1), (0, 1)],
            "ell": [(0, 0), (1, 0), (1, 0.4), (0.4, 0.4), (0.4, 1),
                    (0, 1)]}[shape]
    boundary = Polygon([shift + scale * np.array(ring, dtype=float)])
    area = Polygon([shift + scale * np.array(
        [(0.5, 0.5), (1.2, 0.6), (0.6, 1.2)])], id="beyond")
    rng = np.random.default_rng(seed)
    v = mesh.vertices
    edges, _ = mesh.edges()
    for polygons in ([boundary], [boundary, area], [area]):
        sub, used = mesh.submesh(polygons)
        assert 0 < len(used) < mesh.num_vertices
        assert np.array_equal(sub.vertices, v[used])
        assert np.array_equal(sub.interior_flag, mesh.interior_flag[used])
        on_edges = []
        for ring in (p.rings[0] for p in polygons):
            k = rng.integers(0, len(ring), 50)
            on_edges.append(ring[k] + rng.random((50, 1))
                            * (np.roll(ring, -1, axis=0)[k] - ring[k]))
        corners = np.vstack([p.rings[0] for p in polygons])
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        pts = np.vstack([rng.uniform(lo, hi, (400, 2)), v,
                         0.5 * (v[edges[:, 0]] + v[edges[:, 1]]),
                         *on_edges])
        pts = pts[np.any([p.contains(pts) for p in polygons], axis=0)]
        full, part = project(mesh, pts), project(sub, pts)
        assert not full.out_of_mesh.any()
        assert not part.out_of_mesh.any()
        assert np.array_equal(used[part.vertices], full.vertices)
        assert part.weights.tobytes() == full.weights.tobytes()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_polygon_geojson_roundtrip(tmp_path):
    import json
    gj = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": "poly"},
         "geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]],
                                      [[0.5, 0.5], [1, 0.5], [1, 1],
                                       [0.5, 1], [0.5, 0.5]]]}},
        {"type": "Feature", "properties": {"id": "multi"},
         "geometry": {"type": "MultiPolygon",
                      "coordinates": [
                          [[[3, 3], [4, 3], [4, 4], [3, 4], [3, 3]]],
                          [[[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]]]}},
    ]}
    path = tmp_path / "areas.geojson"
    path.write_text(json.dumps(gj))
    polys = read_polygons_geojson(path)
    assert [p.id for p in polys] == ["poly", "multi#0", "multi#1"]
    assert polys[0].area() == pytest.approx(4 - 0.25)


# arbitrary JSON values, with GeoJSON's keys and type names common enough
# that the reader's branches are reached
_GEOJSON_WORDS = st.sampled_from(["type", "features", "geometry",
                                  "properties", "coordinates", "id",
                                  "FeatureCollection", "Feature", "Polygon",
                                  "MultiPolygon"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3) | _GEOJSON_WORDS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_GEOJSON_WORDS | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=30)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=_JSON)
def test_geojson_reader_on_any_json_returns_polygons_or_a_data_error(
        tmp_path_factory, value):
    import json
    path = tmp_path_factory.getbasetemp() / "any.geojson"
    path.write_text(json.dumps(value))
    try:
        polys = read_polygons_geojson(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return
    assert all(isinstance(p, Polygon) for p in polys)


def test_polygon_csv_roundtrip(tmp_path):
    p = Polygon([[(0, 0), (3, 0), (3, 2), (0, 2)], [(1, 0.5), (2, 0.5), (2, 1.5), (1, 1.5)]],
                id="ring")
    path = tmp_path / "polys.csv"
    write_polygons_csv(path, [p])
    back = read_polygons_csv(path)
    assert len(back) == 1
    assert back[0].id == "ring"
    assert back[0].area() == pytest.approx(p.area())
