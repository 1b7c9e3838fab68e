"""Mesh construction: the extension walls and the quality of built meshes."""

import numpy as np
import pytest

from prevmap.geometry import Polygon, _min_angles
from prevmap.meshing import _RectBoundary, build_mesh

# a box wider than it is tall, walls in the order y = y0, y = y1, x = x0,
# x = x1, each wall's coordinate running along x (first two) or y
BOX = (0.0, 6.0, 0.0, 4.0)
H = 1.0


def _walls():
    return _RectBoundary(BOX, lambda p: np.full(len(np.atleast_2d(p)), H))


def _on_wall(k, u, dist):
    """The point at wall coordinate u and distance dist inside wall k."""
    x0, x1, y0, y1 = BOX
    return np.array([(u, y0 + dist), (u, y1 - dist),
                     (x0 + dist, u), (x1 - dist, u)][k])


def test_corners_appear_once():
    pts = _walls().points()
    x0, x1, y0, y1 = BOX
    for corner in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)]:
        assert np.sum(np.all(pts == corner, axis=1)) == 1
    assert len(np.unique(pts, axis=0)) == len(pts)


@pytest.mark.parametrize("k", range(4))
def test_point_in_a_diametral_circle_encroaches_that_segment(k):
    walls = _walls()
    pos = walls.pos[k]
    j = 2  # a middle segment, far from the other walls
    a, b = pos[j], pos[j + 1]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    inside = _on_wall(k, mid + 0.3 * half, 0.5 * half)[None]
    assert walls.encroached_by(inside) == {(k, j)}
    assert walls.encroaches_any(inside).tolist() == [True]
    outside = _on_wall(k, mid, half * (1 + 1e-6))[None]
    assert walls.encroached_by(outside) == set()
    assert walls.encroaches_any(outside).tolist() == [False]


def test_encroached_by_collects_every_wall():
    walls = _walls()
    pts = []
    for k in range(4):
        a, b = walls.pos[k][1], walls.pos[k][2]
        pts.append(_on_wall(k, 0.5 * (a + b), 0.25 * (b - a)))
    pts.append((3.0, 2.0))  # the centre encroaches nothing
    assert walls.encroached_by(np.array(pts)) == {(k, 1) for k in range(4)}
    assert walls.encroaches_any(np.array(pts)).tolist() == [True] * 4 + [False]


@pytest.mark.parametrize("k", range(4))
def test_segment_under_picks_the_nearest_wall(k):
    walls = _walls()
    pos = walls.pos[k]
    u = 0.5 * (pos[1] + pos[2])
    assert walls.segment_under(_on_wall(k, u, 0.3)) == (k, 1)
    # a point on the wall itself, as a clipped candidate can be
    assert walls.segment_under(_on_wall(k, u, 0.0)) == (k, 1)


def test_split_inserts_each_midpoint():
    walls = _walls()
    before = [p.copy() for p in walls.pos]
    n = len(walls.points())
    walls.split({(0, 1), (0, 3), (3, 0)})
    for k in range(4):
        mids = {0: [1, 3], 3: [0]}.get(k, [])
        expect = np.sort(np.concatenate(
            [before[k], [0.5 * (before[k][j] + before[k][j + 1])
                         for j in mids]]))
        assert np.array_equal(walls.pos[k], expect)
    assert len(walls.points()) == n + 3


# ---------------------------------------------------------------------------
# quality of the meshes the benchmark fits on
# ---------------------------------------------------------------------------

def _ring400():
    u = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    r = 5 + 0.4 * np.sin(7 * u)
    return Polygon([list(zip(r * np.cos(u), r * np.sin(u)))])


_SQUARE10 = [(0, 0), (10, 0), (10, 10), (0, 10)]


@pytest.mark.parametrize("ring, edge", [
    (_SQUARE10, 0.6), (_SQUARE10, 1.0), ("ring400", 0.6)])
def test_built_mesh_meets_its_quality_targets(ring, edge):
    poly = _ring400() if ring == "ring400" else Polygon([ring])
    mesh = build_mesh(poly, interior_max_edge=edge)
    mesh.validate()
    v, tri = mesh.vertices, mesh.triangles
    assert np.degrees(_min_angles(v, tri).min()) >= 20.0
    lengths = np.linalg.norm(v[tri] - v[np.roll(tri, 1, axis=1)], axis=2)
    interior = mesh.interior_flag[tri].all(axis=1)
    assert interior.any()
    assert lengths[interior].max() <= edge + 1e-12
    assert lengths.max() <= 5.0 * edge + 1e-12
