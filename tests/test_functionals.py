"""Area averages, exceedance probabilities, excursion regions."""

import csv
import io
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import norm

from prevmap import functionals, geometry
from prevmap.errors import InvalidGeometryError
from prevmap.functionals import (SurfaceSpec, area_averages, make_grid,
                                 pointwise_median, sample_points_in_polygon,
                                 simultaneous_excursions, write_area_csv,
                                 write_grid_csv)
from prevmap.geometry import Polygon, TriMesh, _signed_areas, project
from prevmap.inference import JointSamples
from prevmap.meshing import build_mesh


@pytest.fixture(scope="module")
def surface(square10):
    mesh = build_mesh(square10, interior_max_edge=0.8, extension_factor=1.5,
                      exterior_max_edge=3.0)
    spec = SurfaceSpec(mesh=mesh, field_slice=slice(0, mesh.num_vertices),
                       beta0_index=mesh.num_vertices)
    return mesh, spec


def _exceed_prob(samples, spec, points, u):
    """Per point: the share of samples with prevalence above u."""
    return simultaneous_excursions(samples, spec, points, u).exceed_prob


def _samples_from_fields(mesh, fields, beta0):
    """JointSamples whose field block holds given nodal values."""
    fields = np.atleast_2d(fields)
    b0 = np.broadcast_to(np.atleast_1d(beta0), (fields.shape[0],))
    samples = np.hstack([fields, b0[:, None]])
    return JointSamples(samples=samples,
                        theta_index=np.zeros(fields.shape[0], dtype=int))


# ---------------------------------------------------------------------------
# polygon sampling
# ---------------------------------------------------------------------------

def test_sample_points_uniform_in_polygon(unit_square):
    rng = np.random.default_rng(0)
    pts = sample_points_in_polygon(unit_square, 4000, rng)
    assert pts.shape == (4000, 2)
    assert unit_square.contains(pts).all()
    # mean near centroid
    assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.02


def test_sample_points_thin_polygon_triangulation_path():
    thin = Polygon([[(0, 0), (1000.0, 0), (1000.0, 4e-4), (0, 4e-4)]])
    rng = np.random.default_rng(1)
    pts = sample_points_in_polygon(thin, 500, rng)
    assert thin.contains(pts).all()
    # a diagonal strip filling 9.4e-4 of its box, with a hole of 6% of it:
    # the triangles of the outer ring cover the hole, whose points are
    # drawn again
    hole = [(400, 399.9), (600, 599.7), (600, 600.0), (400, 400.2)]
    holed = Polygon([[(0, 0), (1000, 999), (1000, 1000), (0, 1)], hole])
    pts = sample_points_in_polygon(holed, 5000, rng)
    assert holed.contains(pts).all()
    assert not Polygon([hole]).contains(pts).any()
    # a thin V filling 9.99e-4 of its box, one unit tall over every x, so
    # each half of each arm holds a quarter of the points; a Delaunay
    # triangle of its ring has its centroid outside it yet holds the lower
    # half of both arms
    vee = Polygon([[(0, 0), (500, 1000), (1000, 0), (1000, 1), (500, 1001),
                    (0, 1)]])
    pts = sample_points_in_polygon(vee, 8000, rng)
    assert vee.contains(pts).all()
    share = np.histogram(pts[:, 0], bins=4, range=(0, 1000))[0] / 8000
    np.testing.assert_allclose(share, 0.25, atol=0.025)


def test_ear_clip_tiles_non_convex_rings():
    # a comb with a collinear vertex on its base: the ears
    # cover the ring exactly and lie inside it
    comb = Polygon([[(0, 0), (3, 0), (6, 0), (6, 3), (5, 3), (5, 1), (4, 1),
                     (4, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]])
    ring = comb.rings[0]
    tris = functionals._ear_clip(ring)
    areas = _signed_areas(ring, tris)
    assert (areas >= 0).all()
    assert np.isclose(areas.sum(), comb.area(), rtol=0, atol=1e-12)
    assert comb.contains(ring[tris[areas > 0]].mean(axis=1)).all()


@pytest.mark.parametrize("ratio", [5e-6, 2e-6, 5e-4])
def test_sample_points_sliver_below_the_batch_cap(ratio):
    # the sliver (0, 0), (1, 1), (1, 1 - e) fills e / 2 of its unit box;
    # rejection with batches capped at 1000 candidates a point ran out of
    # tries below ~1e-5, so every ratio under the cap is triangulated
    sliver = Polygon([[(0, 0), (1, 1), (1, 1 - 2 * ratio)]])
    for seed in range(5):
        pts = sample_points_in_polygon(sliver, 100,
                                       np.random.default_rng(seed))
        assert pts.shape == (100, 2)
        assert sliver.contains(pts).all()


def test_sample_points_frame_whose_hole_covers_most_of_its_ring(monkeypatch):
    # a 10 x 10 square less a hole inset by 5e-4 fills 2e-4 of its outer
    # ring: batches of one candidate a missing point ran out of tries
    inset = 5e-4
    hole = [(inset, inset), (10 - inset, inset), (10 - inset, 10 - inset),
            (inset, 10 - inset)]
    frame = Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)], hole], id="frame")
    pts = sample_points_in_polygon(frame, 100, np.random.default_rng(0))
    assert pts.shape == (100, 2)
    assert frame.contains(pts).all()
    assert not Polygon([hole]).contains(pts).any()
    # a polygon the candidate budget cannot fill is named in a data error
    monkeypatch.setattr(functionals, "_MAX_BATCH", 1000)
    monkeypatch.setattr(functionals, "_MAX_CANDIDATES", 3000)
    with pytest.raises(InvalidGeometryError, match="polygon frame: "):
        sample_points_in_polygon(frame, 100, np.random.default_rng(0))


def test_sample_points_unfillable_polygon_fails_at_once():
    # a hole inset by 1e-9 leaves 4e-10 of the outer ring: 100 points would
    # take ~2.5e11 candidates, and batches of 2**20 ran ~20 minutes before
    # giving up
    inset = 1e-9
    hole = [(inset, inset), (10 - inset, inset), (10 - inset, 10 - inset),
            (inset, 10 - inset)]
    frame = Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)], hole], id="frame")
    t0 = time.perf_counter()
    with pytest.raises(InvalidGeometryError, match="polygon frame: fills"):
        sample_points_in_polygon(frame, 100, np.random.default_rng(0))
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# area averages
# ---------------------------------------------------------------------------

def test_area_average_constant_field(surface, square10):
    mesh, spec = surface
    beta0 = np.log(0.07 / 0.93)
    fields = np.zeros((50, mesh.num_vertices))  # sigma2 -> 0 limit
    samples = _samples_from_fields(mesh, fields, beta0)
    res = area_averages(samples, spec, [square10], points_per_area=100,
                        seed=3)
    assert res.mean[0] == pytest.approx(expit(beta0), abs=1e-3)
    assert res.sd[0] == pytest.approx(0.0, abs=1e-12)


def test_area_average_linear_field_vs_quadrature(surface, unit_square):
    # single sample, field linear in x; oracle = high-resolution quadrature
    mesh, spec = surface
    a, b, c = 0.8, -0.3, -2.0
    nodal = a * mesh.vertices[:, 0] + b * mesh.vertices[:, 1] + c
    samples = _samples_from_fields(mesh, nodal, 0.0)
    j = 200
    res = area_averages(samples, spec, [unit_square], points_per_area=j,
                        seed=11)
    # 1000 x 1000 midpoint quadrature over the unit square
    g = (np.arange(1000) + 0.5) / 1000
    xx, yy = np.meshgrid(g, g)
    t_true = expit(a * xx + b * yy + c).mean()
    # Monte Carlo standard error from the integrand variance
    var = expit(a * xx + b * yy + c).var()
    se = np.sqrt(var / j)
    assert abs(res.mean[0] - t_true) < 3 * se


def test_area_average_many_areas_runs(surface):
    from conftest import grid_areas
    mesh, spec = surface
    rng = np.random.default_rng(5)
    fields = rng.standard_normal((40, mesh.num_vertices)) * 0.3
    samples = _samples_from_fields(mesh, fields, -2.5)
    areas = grid_areas(0, 0, 10, 10, 7, 7)[:47]
    res = area_averages(samples, spec, areas, points_per_area=100, seed=1)
    assert len(res.area_ids) == 47
    assert np.all((res.mean > 0) & (res.mean < 1))
    assert np.all(res.q025 <= res.q50) and np.all(res.q50 <= res.q975)


# ---------------------------------------------------------------------------
# exceedance
# ---------------------------------------------------------------------------

def test_pointwise_exceedance_threshold_limits(surface):
    mesh, spec = surface
    rng = np.random.default_rng(7)
    fields = rng.standard_normal((200, mesh.num_vertices)) * 0.4
    samples = _samples_from_fields(mesh, fields, -2.5)
    grid = np.array([[2.0, 2.0], [5.0, 5.0], [8.0, 8.0]])
    p_low = _exceed_prob(samples, spec, grid, 1e-9)
    p_high = _exceed_prob(samples, spec, grid, 1 - 1e-9)
    assert np.allclose(p_low, 1.0)
    assert np.allclose(p_high, 0.0)


def test_pointwise_exceedance_gaussian_analytic(surface):
    # fixed theta Gaussian case: P(expit(b0 + S) > u) = Phi((mu - logit u)/sd)
    mesh, spec = surface
    rng = np.random.default_rng(9)
    n_samp = 10000
    mu_field, sd_field = 0.3, 0.5
    fields = mu_field + sd_field * rng.standard_normal((n_samp, 1)) \
        * np.ones((1, mesh.num_vertices))
    beta0 = -2.0
    samples = _samples_from_fields(mesh, fields, beta0)
    u = 0.2
    probs = _exceed_prob(samples, spec, np.array([[5.0, 5.0]]), u)
    target = norm.sf((logit(u) - beta0 - mu_field) / sd_field)
    se = np.sqrt(target * (1 - target) / n_samp)
    assert abs(probs[0] - target) < 4 * se


# ---------------------------------------------------------------------------
# simultaneous excursions
# ---------------------------------------------------------------------------

def _fan(eta):
    """Samples, spec and points for a synthetic posterior ``eta`` (samples x
    points) of the linear predictor.  The points are the vertices of a fan
    of triangles on the x axis, with the field samples ``eta`` there and 0
    at the apex, so each point projects with weights (1, 0, 0) and its
    predictor is ``eta`` bit for bit."""
    n_samp, n = eta.shape
    points = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    mesh = TriMesh(np.vstack([points, [(n - 1) / 2, 1.0]]),
                   [(i, i + 1, n) for i in range(n - 1)])
    # vertices in rows, so the surface reads the field without a copy
    fields = np.vstack([eta.T, np.zeros((1, n_samp))])
    samples = JointSamples(samples=fields.T,
                           theta_index=np.zeros(n_samp, dtype=int))
    return samples, SurfaceSpec(mesh=mesh, field_slice=slice(0, n + 1)), \
        points


def _direct_excursion(eta, u, alpha):
    """Excursions of a synthetic posterior ``eta`` (samples x points)."""
    return simultaneous_excursions(*_fan(eta), u, alpha_level=alpha)


def test_excursions_perfectly_correlated_equal_pointwise():
    # one sample repeated: joint set == pointwise set
    rng = np.random.default_rng(11)
    eta_row = rng.standard_normal(60) * 2 - 2.0
    eta = np.tile(eta_row, (500, 1))
    u = 0.2
    res = _direct_excursion(eta, u, 0.05)
    pointwise_above = eta_row > logit(u)
    assert np.array_equal(res.above(), pointwise_above)
    assert np.array_equal(res.below(), ~pointwise_above)


def test_excursions_independent_coordinates_product_bound():
    # 100 independent points each with pointwise exceedance 0.99: the joint
    # above-set size k* satisfies 0.99^k* >= 0.95, i.e. k* <= 5
    n_pts = 100
    n_samp = 200000
    rng = np.random.default_rng(13)
    # construct exact exceedance 0.99 per coordinate independently
    exceed = rng.random((n_samp, n_pts)) < 0.99
    eta = np.where(exceed, 1.0, -1.0)  # above/below logit(u)=0 -> u=0.5
    res = _direct_excursion(eta, 0.5, 0.05)
    k_star = int(res.above().sum())
    analytic = int(np.floor(np.log(0.95) / np.log(0.99)))
    assert analytic == 5
    assert k_star <= analytic
    assert k_star >= analytic - 1  # empirical joint prob tracks the product


def test_excursion_invariants_randomized():
    rng = np.random.default_rng(17)
    for rep in range(60):
        n_pts = rng.integers(10, 60)
        n_samp = 400
        mu = rng.standard_normal(n_pts) * 1.5
        # random correlation via a shared factor
        lam = rng.random(n_pts)
        z = rng.standard_normal((n_samp, 1))
        eps = rng.standard_normal((n_samp, n_pts))
        eta = mu + lam * z + np.sqrt(1 - lam ** 2) * eps
        u = float(rng.uniform(0.1, 0.9))
        alpha = float(rng.uniform(0.01, 0.5))
        res = _direct_excursion(eta, u, alpha)
        above, below = res.above(), res.below()
        # disjoint
        assert not np.any(above & below)
        # nesting in the pointwise sets at the same level
        pw_above = res.exceed_prob >= 1 - alpha
        pw_below = (1 - res.exceed_prob) >= 1 - alpha
        assert np.all(pw_above[above])
        assert np.all(pw_below[below])
        # monotonicity in confidence level
        res_stricter = _direct_excursion(eta, u, alpha / 2)
        assert res_stricter.above().sum() <= above.sum()
        assert res_stricter.below().sum() <= below.sum()
        # monotonicity in threshold
        u2 = min(u + 0.05, 0.95)
        res_u2 = _direct_excursion(eta, u2, alpha)
        assert res_u2.above().sum() <= above.sum()


def test_excursion_multiple_testing_strictness():
    # independent points, eta ~ N(1.9, 1), u = 0.5 so the threshold is
    # logit(u) = 0: each point exceeds it with Phi(1.9) = 0.971 > 0.95, so
    # every point is in the pointwise set, while under independence the
    # joint probability Phi(1.9)^k drops below 0.95 after one or two
    # points, so the joint set is strictly smaller than the pointwise set
    rng = np.random.default_rng(19)
    n_pts, n_samp = 80, 4000
    alpha = 0.05
    mu = 1.9 * np.ones(n_pts)
    assert norm.cdf(mu[0]) > 1 - alpha
    eta = mu + rng.standard_normal((n_samp, n_pts))
    res = _direct_excursion(eta, 0.5, alpha)
    pw = (res.exceed_prob >= 1 - alpha).sum()
    assert pw > 0
    assert res.above().sum() < pw
    assert res.joint_above_prob >= 1 - alpha
    assert (res.exceed_prob[res.above()] >= 1 - alpha).all()


def test_excursion_tie_break_deterministic():
    rng = np.random.default_rng(23)
    eta = rng.standard_normal((300, 40))
    r1 = _direct_excursion(eta, 0.3, 0.1)
    r2 = _direct_excursion(eta, 0.3, 0.1)
    assert np.array_equal(r1.labels, r2.labels)


def test_excursions_where_eta_equals_the_threshold():
    # u = 0.5 puts the threshold at eta = 0 exactly: a sample at 0 is
    # neither above nor below it, for the pointwise probability and for
    # both joint sets
    rng = np.random.default_rng(53)
    n_samp, n, level = 400, 30, 0.9
    p_zero = np.repeat([0.01, 0.01, 0.3], 10)
    p_above = np.repeat([0.99, 0.0, 0.35], 10)
    draw = rng.random((n_samp, n))
    eta = np.where(draw < p_above, 1.0,
                   np.where(draw < p_above + p_zero, 0.0, -1.0))
    assert (eta == 0.0).any(axis=0).all()
    res = _direct_excursion(eta, 0.5, 1.0 - level)

    above, below = eta > 0.0, eta < 0.0
    probs = above.mean(axis=0)
    idx = np.arange(n)

    def greedy(holds, order):
        joint = np.logical_and.accumulate(holds[:, order], axis=1).mean(
            axis=0)
        k = int(np.count_nonzero(joint >= level))
        return order[:k], float(joint[k - 1]) if k else 1.0

    above_set, p_above_joint = greedy(above, np.lexsort((idx, -probs)))
    below_set, p_below_joint = greedy(below, np.lexsort((idx, probs)))
    assert len(above_set) and len(below_set)
    labels = np.full(n, "indeterminate", dtype=object)
    labels[above_set] = "above"
    labels[below_set] = "below"
    assert res.exceed_prob.tobytes() == probs.tobytes()
    assert res.labels.tolist() == labels.tolist()
    assert (res.joint_above_prob, res.joint_below_prob) == (p_above_joint,
                                                            p_below_joint)
    prev = 1.0 / (1.0 + np.exp(-eta))
    assert np.allclose(res.mean, prev.mean(axis=0), rtol=1e-14, atol=0.0)
    assert np.allclose(res.sd, prev.std(axis=0, ddof=1), rtol=1e-12,
                       atol=0.0)


def test_excursion_passed_surface_keeps_out_of_mesh_mask():
    # point 0 is far above u in every sample but lies outside the mesh: it
    # gets no probability and joins neither joint set
    eta = np.full((200, 2), 5.0)
    eta[:, 1] = -5.0
    samples, spec, points = _fan(eta)
    points = np.vstack([[50.0, 50.0], points])
    res = simultaneous_excursions(samples, spec, points, 0.5,
                                  alpha_level=0.05)
    assert np.isnan(res.exceed_prob[0])
    assert list(res.labels) == ["indeterminate", "above", "below"]


# ---------------------------------------------------------------------------
# row-block evaluation of the surface
# ---------------------------------------------------------------------------

def _gradient_samples(mesh, n_samp, seed):
    """Field rising from -3 at x = 0 to 3 at x = 10, plus a shared and a
    nodal perturbation per sample: points near x = 0 fall below u = 0.5 and
    points near x = 10 exceed it, jointly."""
    rng = np.random.default_rng(seed)
    trend = 0.6 * mesh.vertices[:, 0] - 3.0
    fields = (trend + 0.3 * rng.standard_normal((n_samp, 1))
              + 0.2 * rng.standard_normal((n_samp, mesh.num_vertices)))
    return _samples_from_fields(mesh, fields, 0.0)


def test_area_averages_do_not_depend_on_block_size(surface, monkeypatch):
    from conftest import grid_areas
    mesh, spec = surface
    samples = _gradient_samples(mesh, 30, 29)
    areas = grid_areas(0, 0, 10, 10, 5, 1)
    run = lambda: area_averages(samples, spec, areas, points_per_area=10,
                                seed=4)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    whole = run()
    # one area a tile, with all 30 samples; then walked over 15 chunks of
    # 2 samples
    for cells in (2 * 10 * 30, 7):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
        blocked = run()
        for name in ("mean", "sd", "q025", "q50", "q975"):
            assert np.array_equal(getattr(blocked, name),
                                  getattr(whole, name)), name
        assert blocked.flagged == whole.flagged


def test_pointwise_maps_do_not_depend_on_block_size(surface, monkeypatch):
    mesh, spec = surface
    samples = _gradient_samples(mesh, 30, 31)
    pts = np.column_stack([np.linspace(0.2, 9.8, 23), np.full(23, 4.0)])
    field = SurfaceSpec(mesh=mesh, field_slice=spec.field_slice)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    probs = _exceed_prob(samples, spec, pts, 0.5)
    med = pointwise_median(samples, field, pts)
    # 4, 4, ..., 3 rows a block; then a cap below one row of 30 samples,
    # which still gives blocks of one whole row
    for cells in (4 * 30, 7):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
        assert np.array_equal(_exceed_prob(samples, spec, pts, 0.5), probs)
        assert np.array_equal(pointwise_median(samples, field, pts), med)
    assert np.isfinite(probs).all() and np.isfinite(med).all()


@pytest.mark.parametrize("width", [1, 2, 3, 36, 37, 38])
@pytest.mark.parametrize("cells", [1, 7, 20, 41, 80, 10 ** 9])
def test_tiles_cover_each_cell_once_in_whole_groups(width, cells,
                                                    monkeypatch):
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
    unit, n = 4, 12
    seen = np.zeros((n, width), dtype=int)
    step = max(2, cells // unit)
    for rows, cols in geometry._tiles(n, width, unit):
        # one group, in chunks of the cap (at least 2 columns)
        assert rows.start % unit == 0 and rows.stop - rows.start == unit
        c = cols.stop - cols.start
        assert c in (step, step + 1, width % step)
        # never one column wide unless the matrix is
        assert c >= min(width, 2)
        seen[rows, cols] += 1
    assert (seen == 1).all()


@pytest.mark.parametrize("step", [2, 3, 4, 6, 9, 12, 18, 36])
def test_area_draws_column_chunks_leave_no_one_column_remainder(
        surface, monkeypatch, step):
    # 37 samples in chunks of ``step`` would leave one column over, whose
    # sums numpy would take along another path; it joins the last chunk,
    # and every area draw equals that of the whole matrix bit for bit
    mesh, spec = surface
    samples = _gradient_samples(mesh, 37, 43)
    pts = np.random.default_rng(6).uniform(0.0, 10.0, (3 * 10, 2))
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    whole, _ = functionals._area_draws(samples, spec, pts, 10)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 * step)
    widths = [c.stop - c.start
              for r, c in geometry._tiles(30, 37, 10) if r.start == 0]
    assert widths == [step] * (36 // step - 1) + [step + 1]
    blocked, _ = functionals._area_draws(samples, spec, pts, 10)
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("num_samples", [1, 30])
def test_area_averages_under_column_tiles_flag_outside_areas_once(
        surface, monkeypatch, num_samples):
    # areas inside, wholly outside and partly outside the mesh; at a cap
    # of 7 cells each is walked over chunks of 2 samples (of 1 sample when
    # there is only one)
    mesh, spec = surface
    samples = _gradient_samples(mesh, num_samples, 47)
    areas = [Polygon([[(1, 1), (4, 1), (4, 4), (1, 4)]], id="in"),
             Polygon([[(100, 100), (101, 100), (101, 101), (100, 101)]],
                     id="out"),
             Polygon([[(-100, 4), (5, 4), (5, 6), (-100, 6)]], id="part")]
    p, seed = 40, 8
    run = lambda: area_averages(samples, spec, areas, points_per_area=p,
                                seed=seed)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    whole = run()
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 7)
    blocked = run()
    assert blocked.flagged == whole.flagged == ["out"]
    for name in ("mean", "sd", "q025", "q50", "q975"):
        a, b = getattr(blocked, name), getattr(whole, name)
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.isnan(a[1]) and np.isfinite(a[[0, 2]]).all(), name
    # the draws too, at both caps; the partial area averages its points
    # inside the mesh alone
    rng = np.random.default_rng(seed)
    pts = np.vstack([sample_points_in_polygon(a, p, rng) for a in areas])
    draws, ok = functionals._area_draws(samples, spec, pts, p)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    assert np.array_equal(functionals._area_draws(samples, spec, pts, p)[0],
                          draws, equal_nan=True)
    assert ok.tolist() == [True, False, True]
    proj = project(mesh, pts)
    part = slice(2 * p, 3 * p)
    inside = ~proj.out_of_mesh[part]
    assert 0 < inside.sum() < p
    eta = (proj.matrix[part] @ samples.samples[:, spec.field_slice].T
           + samples.samples[:, spec.beta0_index])
    assert np.allclose(draws[2], expit(eta[inside]).mean(axis=0),
                       rtol=1e-12, atol=0.0)


def test_excursions_do_not_depend_on_block_size(surface, monkeypatch):
    mesh, spec = surface
    n_samp = 40
    samples = _gradient_samples(mesh, n_samp, 37)
    pts = np.column_stack([np.linspace(0.2, 9.8, 49), np.full(49, 6.0)])
    pts[3] = (30.0, 30.0)  # outside the mesh
    run = lambda: simultaneous_excursions(samples, spec, pts, 0.5,
                                          alpha_level=0.1)
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 10 ** 9)
    whole = run()
    # both joint sets span several 5-row blocks; 49 rows leave a ragged
    # last block
    assert whole.above().sum() > 5 and whole.below().sum() > 5
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", 5 * n_samp)
    blocked = run()
    for name in ("exceed_prob", "labels", "joint_above_prob",
                 "joint_below_prob", "mean", "sd"):
        a, b = getattr(blocked, name), getattr(whole, name)
        assert np.array_equal(a, b, equal_nan=name != "labels"), name


def test_excursion_mean_and_sd_are_of_the_prevalence(surface):
    mesh, spec = surface
    samples = _gradient_samples(mesh, 50, 41)
    pts = np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 2.0]])
    res = simultaneous_excursions(samples, spec, pts, 0.5)
    eta = (project(mesh, pts).matrix
           @ samples.samples[:, spec.field_slice].T)
    prev = expit(eta)
    assert np.allclose(res.mean, prev.mean(axis=1), rtol=1e-13)
    assert np.allclose(res.sd, prev.std(axis=1, ddof=1), rtol=1e-12)


def test_excursions_of_one_sample_have_sd_zero(surface):
    # one draw spreads nowhere: sd 0 as area_averages gives it, with no
    # division by zero
    mesh, spec = surface
    samples = _gradient_samples(mesh, 1, 47)
    pts = np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simultaneous_excursions(samples, spec, pts, 0.5)
    assert np.array_equal(res.sd, np.zeros(3))
    eta = project(mesh, pts).matrix @ samples.samples[0, spec.field_slice]
    assert np.allclose(res.mean, expit(eta), rtol=1e-13)


def test_out_of_mesh_points_get_nan_statistics(unit_square):
    # a small mesh over the unit square; the last point lies far outside
    mesh = build_mesh(unit_square, interior_max_edge=0.3,
                      extension_factor=1.2, exterior_max_edge=0.5)
    samples = _samples_from_fields(
        mesh, np.random.default_rng(43).standard_normal(
            (20, mesh.num_vertices)), -1.0)
    spec = SurfaceSpec(mesh=mesh, field_slice=slice(0, mesh.num_vertices),
                       beta0_index=mesh.num_vertices)
    pts = np.array([[0.5, 0.5], [0.2, 0.7], [50.0, 50.0]])
    res = simultaneous_excursions(samples, spec, pts, 0.3)
    for values in (res.exceed_prob, res.mean, res.sd,
                   pointwise_median(samples, spec, pts)):
        assert np.isnan(values[2])
        assert np.isfinite(values[:2]).all()
    assert res.labels[2] == "indeterminate"


@pytest.mark.parametrize("num_samples", [1, 2, 3, 2000, 2001])
def test_pointwise_median_is_numpy_median_bit_for_bit(coarse_mesh10,
                                                      num_samples):
    mesh = coarse_mesh10
    rng = np.random.default_rng(num_samples)
    # one decimal: ties between samples, and exact zeros of either sign
    pts = np.column_stack([rng.uniform(0, 10, 400), rng.uniform(0, 10, 400)])
    pts[7] = (40.0, 40.0)  # outside the mesh
    proj = project(mesh, pts)
    samples = np.round(rng.normal(size=(num_samples, mesh.num_vertices + 1)),
                       1)
    # a NaN in the field at a vertex of the first three points' triangles
    samples[rng.integers(num_samples), proj.vertices[:3, 0]] = np.nan
    spec = SurfaceSpec(mesh=mesh, field_slice=slice(0, mesh.num_vertices),
                       beta0_index=mesh.num_vertices)
    js = JointSamples(samples=samples,
                      theta_index=np.zeros(num_samples, dtype=int))
    eta = proj.apply(samples[:, spec.field_slice].T) + samples[:, -1]
    want = np.median(eta, axis=1)
    want[proj.out_of_mesh] = np.nan
    got = pointwise_median(js, spec, pts)
    assert 0 < np.isnan(got[~proj.out_of_mesh]).sum() < len(pts) - 1
    assert got.tobytes() == want.tobytes()


def test_row_medians_of_signed_zeros_and_nans():
    eta = np.array([[-0.0, -0.0, 1.0], [-0.0, -0.0, -1.0], [0.0, -0.0, 2.0],
                    [3.0, np.nan, 1.0], [np.nan, 2.0, 1.0]])
    for width in (1, 2, 3):
        block = eta[:, :width].copy()
        want = np.median(block, axis=1)
        assert geometry._row_medians(block).tobytes() == want.tobytes()


def test_row_quantiles_are_np_quantile_bit_for_bit():
    # odd and even widths, one column, ties (rounded draws), a NaN row
    rng = np.random.default_rng(12)
    probs = (0.025, 0.5, 0.975)
    for width in (1, 2, 3, 40, 41, 1000, 1001):
        for x in (rng.random((6, width)), np.round(rng.random((6, width)), 1)):
            x[5, rng.integers(width)] = np.nan
            want = np.quantile(x, probs, axis=1)
            got = geometry._row_quantiles(x.copy(), probs)
            assert got.tobytes() == want.tobytes()


def test_excursion_pass_holds_no_dense_surface(coarse_mesh10):
    # one float64 surface of 20,000 points x 500 samples is 80 MB; the
    # excursion pass keeps one int8 sign matrix (10 MB) and row blocks,
    # where two bool indicators took 20 MB
    mesh = coarse_mesh10
    samples = _gradient_samples(mesh, 500, 47)
    spec = SurfaceSpec(mesh=mesh, field_slice=slice(0, mesh.num_vertices),
                       beta0_index=mesh.num_vertices)
    pts = np.random.default_rng(47).uniform(0.0, 10.0, (20000, 2))
    dense = pts.shape[0] * samples.num_samples * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = simultaneous_excursions(samples, spec, pts, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.above().any() and res.below().any()
    assert peak < dense / 4, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# grid + exports
# ---------------------------------------------------------------------------

def test_make_grid_clips_to_polygon():
    tri = Polygon([[(0, 0), (4, 0), (0, 4)]])
    grid = make_grid(tri, 0.5)
    assert grid.points.shape[1] == 2
    assert tri.contains(grid.points).all()
    # full() scatters back
    vals = np.arange(len(grid.points), dtype=float)
    full = grid.full(vals)
    assert np.isnan(full[~grid.mask]).all()
    assert np.array_equal(full[grid.mask], vals)


def test_csv_outputs(tmp_path, surface, unit_square):
    mesh, spec = surface
    fields = np.zeros((5, mesh.num_vertices))
    samples = _samples_from_fields(mesh, fields, -1.0)
    res = area_averages(samples, spec, [unit_square], points_per_area=10,
                        seed=0)
    write_area_csv(tmp_path / "areas.csv", res)
    assert (tmp_path / "areas.csv").read_text().startswith("area_id,")
    grid = make_grid(Polygon([[(0, 0), (2, 0), (0, 2)]]), 1.0)
    write_grid_csv(tmp_path / "grid.csv", grid, mean=np.array([0.1]),
                   labels=np.array(["above"]))
    text = (tmp_path / "grid.csv").read_text()
    assert text.splitlines() == ["x,y,mean,label", "0.5,0.5,0.1,above"]


def test_grid_csv_rows_are_the_points_of_a_masked_lattice(tmp_path):
    # a square with a square hole, at a spacing no axis value of which is
    # a short decimal: each row's x and y are the repr of its point's, as
    # when every point was formatted on its own
    holed = Polygon([[(0.1, 0.2), (9.7, 0.2), (9.7, 8.9), (0.1, 8.9)],
                     [(3.0, 3.0), (6.0, 3.0), (6.0, 6.0), (3.0, 6.0)]])
    grid = make_grid(holed, 0.7)
    assert not grid.mask.all() and grid.mask[0].all()
    assert not grid.mask[len(grid.y) // 2].all()
    n = len(grid.points)
    mean, sd = np.random.default_rng(5).normal(size=(2, n))
    labels = np.array(["above", "below", "indeterminate"])[np.arange(n) % 3]
    write_grid_csv(tmp_path / "grid.csv", grid, mean=mean, sd=sd,
                   labels=labels)
    want = io.StringIO()
    csv.writer(want).writerows(
        [["x", "y", "mean", "sd", "label"]]
        + [[repr(float(v)) for v in (px, py, m, s)] + [str(label)]
           for (px, py), m, s, label in zip(grid.points, mean, sd, labels)])
    assert (tmp_path / "grid.csv").read_bytes() == want.getvalue().encode()
