"""ICAR structure and BYM smoothing of direct estimates."""

import csv

import numpy as np
import pytest

from prevmap.areal import (AdjacencyGraph, BymModel, IcarPrecision,
                           _build_latent_model, adjacency_from_csv,
                           adjacency_from_polygons, fit_bym, icar_precision)


def path_graph(k):
    return AdjacencyGraph(k, [(i, i + 1) for i in range(k - 1)])


def test_icar_path_graph():
    q = icar_precision(path_graph(3)).toarray()
    assert np.allclose(q, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_icar_rowsums_zero_per_component():
    g = AdjacencyGraph(6, [(0, 1), (1, 2), (3, 4)])  # 5 isolated
    q = icar_precision(g)
    assert np.abs(q @ np.ones(6)).max() < 1e-14


def test_icar_complete_graph():
    g = AdjacencyGraph(3, [(0, 1), (0, 2), (1, 2)])
    q = icar_precision(g).toarray()
    assert np.allclose(np.diag(q), 2)
    assert np.allclose(q - np.diag(np.diag(q)), -1 + np.eye(3))


def test_icar_logdet_is_the_generalized_determinant():
    # a 4-area component with a chord and a blind 3-area path
    g = AdjacencyGraph(7, [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5), (5, 6)])
    r = icar_precision(g)
    observed = np.array([True, False, True, True, False, False, False])
    prec = IcarPrecision(r, g.component_labels(), observed)
    eig = np.linalg.eigvalsh(r.toarray())  # two zeros, one per component
    assert prec.rank == 5
    for theta in (-1.3, 0.0, 2.2):
        assert prec.logdet([theta]) == pytest.approx(
            5 * theta + np.log(eig[2:]).sum(), rel=1e-12)
    # only the blind component's block gains 1 1^T / n_c
    extra = prec([0.0]).toarray() - r.toarray()
    assert np.abs(extra[:4]).max() == 0 and np.abs(extra[:, :4]).max() == 0
    assert np.allclose(extra[4:, 4:], 1 / 3, rtol=0, atol=1e-15)


def test_graph_validation():
    with pytest.raises(ValueError):
        AdjacencyGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        AdjacencyGraph(3, [(0, 5)])
    # duplicate and reversed edges collapse
    g = AdjacencyGraph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == [(0, 1)]


# ---------------------------------------------------------------------------
# BYM fitting
# ---------------------------------------------------------------------------

def _theta_fixed():
    return [np.array([np.log(4.0), np.log(6.0)])]


def test_bym_small_variance_interpolates():
    rng = np.random.default_rng(0)
    k = 8
    y = rng.standard_normal(k)
    model = BymModel(y=y, v_hat=np.full(k, 1e-8), graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    assert np.abs(res.eta_mean - y).max() < 1e-3


def test_bym_large_variance_shrinks_to_intercept():
    rng = np.random.default_rng(1)
    k = 8
    y = rng.standard_normal(k) * 2
    model = BymModel(y=y, v_hat=np.full(k, 1e6), graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    spread_in = y.max() - y.min()
    spread_out = res.eta_mean.max() - res.eta_mean.min()
    assert spread_out < 0.01 * spread_in


def _dense_bym_oracle(y, v, graph, tau_s, tau_e, fixed_prec=1e-3):
    """Constrained conjugate posterior of the convolution model, dense."""
    k = len(y)
    q_icar = icar_precision(graph).toarray()
    d = 2 * k + 1
    bd = np.hstack([np.eye(k), np.eye(k), np.ones((k, 1))])
    qp = np.zeros((d, d))
    qp[:k, :k] = tau_s * q_icar
    qp[k:2 * k, k:2 * k] = tau_e * np.eye(k)
    qp[2 * k, 2 * k] = fixed_prec
    q_post = qp + bd.T @ np.diag(1 / v) @ bd
    sig = np.linalg.inv(q_post)
    mu = sig @ (bd.T @ (y / v))
    labels = graph.component_labels()
    a = np.zeros((len(np.unique(labels)), d))
    for c in np.unique(labels):
        a[c, :k][labels == c] = 1.0
    sa = sig @ a.T
    mu_c = mu - sa @ np.linalg.solve(a @ sa, a @ mu)
    sig_c = sig - sa @ np.linalg.solve(a @ sa, sa.T)
    eta_mean = bd @ mu_c
    eta_var = np.diag(bd @ sig_c @ bd.T)
    return mu_c, eta_mean, eta_var


def _dense_pinv_oracle(y, v, graph, tau_s, tau_e, fixed_prec=1e-3):
    """The convolution model in covariance form, dense: S ~ N(0, (tau_s
    R)^+), and the areas with a finite y observe S + eps + beta0*.  Returns
    every area's eta mean and variance and the log marginal likelihood."""
    k = len(y)
    obs = np.isfinite(y)
    cov = np.zeros((2 * k + 1, 2 * k + 1))
    cov[:k, :k] = np.linalg.pinv(tau_s * icar_precision(graph).toarray(),
                                 rcond=1e-10, hermitian=True)
    cov[k:2 * k, k:2 * k] = np.eye(k) / tau_e
    cov[2 * k, 2 * k] = 1 / fixed_prec
    bd = np.hstack([np.eye(k), np.eye(k), np.ones((k, 1))])
    bo, yo = bd[obs], y[obs]
    s = bo @ cov @ bo.T + np.diag(v[obs])
    gain = np.linalg.solve(s, bo @ cov).T
    post = cov - gain @ bo @ cov
    log_ml = -0.5 * (len(yo) * np.log(2 * np.pi) + np.linalg.slogdet(s)[1]
                     + yo @ np.linalg.solve(s, yo))
    return bd @ (gain @ yo), np.diag(bd @ post @ bd.T), log_ml


def test_bym_log_evidence_matches_dense_marginal_likelihood():
    from prevmap.inference import gaussian_approx
    rng = np.random.default_rng(9)
    k = 12
    graph = AdjacencyGraph(k, [(i, i + 1) for i in range(k - 1)]
                           + [(0, 5), (3, 9), (6, 11)])
    y = rng.standard_normal(k)
    v = 0.1 + rng.random(k)
    lm = _build_latent_model(BymModel(y=y, v_hat=v, graph=graph))[0]
    for theta in ([np.log(4.0), np.log(6.0)], [0.3, 2.5], [2.8, -0.4]):
        log_ev = gaussian_approx(lm, theta).log_evidence
        log_ml = _dense_pinv_oracle(y, v, graph, *np.exp(theta))[2]
        assert log_ev == pytest.approx(log_ml, rel=1e-11)


def test_bym_unobserved_island_matches_dense_pinv_oracle():
    # a 2-area island with no direct estimate beside an observed path: no
    # data reach the island's ICAR level, which only its constraint fixes
    rng = np.random.default_rng(10)
    k = 7
    graph = AdjacencyGraph(k, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
    y = rng.standard_normal(k)
    y[5:] = np.nan
    v = 0.2 + rng.random(k)
    res = fit_bym(BymModel(y=y, v_hat=v, graph=graph),
                  thetas=_theta_fixed())
    eta_mean, eta_var, _ = _dense_pinv_oracle(y, v, graph, 4.0, 6.0)
    assert np.abs(res.eta_mean - eta_mean).max() < 1e-8
    assert np.abs(res.eta_sd - np.sqrt(eta_var)).max() < 1e-8


def test_bym_layout_over_singleton_unobserved_and_blind_areas():
    # component {0, 2, 5, 6} with area 5 unobserved, the blind component
    # {1, 4} and the singleton area 3, their areas interleaved
    rng = np.random.default_rng(11)
    k = 7
    graph = AdjacencyGraph(k, [(0, 2), (2, 5), (5, 6), (1, 4)])
    y = rng.standard_normal(k)
    y[[1, 4, 5]] = np.nan
    v = 0.2 + rng.random(k)
    lm = _build_latent_model(BymModel(y=y, v_hat=v, graph=graph))[0]
    icar_cols = np.array([0, 1, 2, 4, 5, 6])
    obs = np.isfinite(y)
    eye = np.eye(k)[obs]
    assert np.array_equal(lm.design.toarray(), np.hstack(
        [eye[:, icar_cols], eye, np.ones((obs.sum(), 1))]))
    # one sum-to-zero row per component of two or more areas
    block = np.zeros((2, lm.latent_dim))
    block[0, lm.slices["icar"]] = np.isin(icar_cols, [0, 2, 5, 6])
    block[1, lm.slices["icar"]] = np.isin(icar_cols, [1, 4])
    assert np.array_equal(lm.constraint, block)

    res = fit_bym(BymModel(y=y, v_hat=v, graph=graph), thetas=_theta_fixed())
    assert res.singleton_areas == [3]
    eta_mean, eta_var, _ = _dense_pinv_oracle(y, v, graph, 4.0, 6.0)
    assert np.abs(res.eta_mean - eta_mean).max() < 1e-8
    assert np.abs(res.eta_sd - np.sqrt(eta_var)).max() < 1e-8


def test_bym_without_edges_fits_iid_and_intercept():
    rng = np.random.default_rng(12)
    k, tau_e, fixed_prec = 6, 6.0, 1e-3
    y = rng.standard_normal(k)
    y[2] = np.nan
    v = 0.2 + rng.random(k)
    res = fit_bym(BymModel(y=y, v_hat=v, graph=AdjacencyGraph(k, [])),
                  thetas=[np.array([np.log(tau_e)])])
    assert res.fit.model.theta_names == ["log_iid_prec"]
    assert res.singleton_areas == list(range(k))
    # eta = eps + beta0*: iid plus one shared intercept, dense
    obs = np.isfinite(y)
    cov = np.eye(k) / tau_e + 1 / fixed_prec
    gain = np.linalg.solve(cov[np.ix_(obs, obs)] + np.diag(v[obs]),
                           cov[obs]).T
    eta_var = np.diag(cov - gain @ cov[obs])
    assert np.abs(res.eta_mean - gain @ y[obs]).max() < 1e-8
    assert np.abs(res.eta_sd - np.sqrt(eta_var)).max() < 1e-8


def test_bym_dense_oracle_path_graph():
    rng = np.random.default_rng(2)
    k = 3
    y = rng.standard_normal(k)
    v = 0.2 + rng.random(k)
    tau_s, tau_e = 4.0, 6.0
    model = BymModel(y=y, v_hat=v, graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    _, eta_mean, eta_var = _dense_bym_oracle(y, v, path_graph(k), tau_s, tau_e)
    assert np.abs(res.eta_mean - eta_mean).max() < 1e-8
    assert np.abs(res.eta_sd - np.sqrt(eta_var)).max() < 1e-8


def test_bym_dense_oracle_k50_random_graph():
    rng = np.random.default_rng(3)
    k = 50
    edges = [(i, i + 1) for i in range(k - 1)]
    extra = set()
    while len(extra) < 40:
        i, j = sorted(rng.integers(0, k, 2))
        if i != j:
            extra.add((int(i), int(j)))
    graph = AdjacencyGraph(k, edges + sorted(extra))
    y = rng.standard_normal(k)
    v = 0.1 + rng.random(k)
    model = BymModel(y=y, v_hat=v, graph=graph)
    res = fit_bym(model, thetas=_theta_fixed())
    _, eta_mean, eta_var = _dense_bym_oracle(y, v, graph, 4.0, 6.0)
    assert np.abs(res.eta_mean - eta_mean).max() < 1e-8
    assert np.abs(res.eta_sd - np.sqrt(eta_var)).max() < 1e-8


def test_bym_icar_sum_to_zero():
    rng = np.random.default_rng(4)
    k = 12
    y = rng.standard_normal(k)
    model = BymModel(y=y, v_hat=np.full(k, 0.3), graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    lm = res.fit.model
    s_mean = res.fit.points[0].mean[lm.slices["icar"]]
    assert abs(s_mean.sum()) < 1e-6


def test_fit_bym_refactors_each_grid_point_once_after_the_grid(
        monkeypatch):
    # the area marginals take one pass over the grid: each point's factor
    # is rebuilt once, from its own curvature, after the last one is freed
    import weakref

    from prevmap import areal, inference
    log, grid = [], []
    init = inference._PosteriorFactor.__init__
    fit_latent_model = areal.fit_latent_model

    def factor_spy(self, pat, prior, h, constraint):
        alive = sum(ref() is not None for _, ref, _ in log)
        init(self, pat, prior, h, constraint)
        log.append((h, weakref.ref(self), alive))

    def fit_spy(*args, **kwargs):
        fit = fit_latent_model(*args, **kwargs)
        grid.append((fit, len(log)))
        return fit

    monkeypatch.setattr(inference._PosteriorFactor, "__init__", factor_spy)
    monkeypatch.setattr(areal, "fit_latent_model", fit_spy)
    rng = np.random.default_rng(6)
    k = 12
    fit_bym(BymModel(y=rng.standard_normal(k), v_hat=np.full(k, 0.3),
                     graph=path_graph(k)))
    (fit, start), = grid
    after = log[start:]
    assert len(fit.points) > 1
    assert len(after) == len(fit.points)
    assert all(h is p.h for (h, _, _), p in zip(after, fit.points))
    assert all(alive == 0 for _, _, alive in after)


def test_bym_shrinkage_monotonicity():
    rng = np.random.default_rng(5)
    k = 10
    y = rng.standard_normal(k) * 1.5
    spreads = []
    for scale in (0.05, 0.5, 5.0):
        model = BymModel(y=y, v_hat=np.full(k, scale), graph=path_graph(k))
        res = fit_bym(model, thetas=_theta_fixed())
        spreads.append(res.eta_mean.std())
    assert spreads[0] >= spreads[1] >= spreads[2]


def test_bym_singleton_area_dropped_from_icar():
    rng = np.random.default_rng(6)
    k = 5
    g = AdjacencyGraph(k, [(0, 1), (1, 2), (2, 3)])  # area 4 isolated
    y = rng.standard_normal(k)
    model = BymModel(y=y, v_hat=np.full(k, 0.5), graph=g)
    res = fit_bym(model, thetas=_theta_fixed())
    assert res.singleton_areas == [4]
    assert np.all(np.isfinite(res.eta_mean))


def test_bym_missing_area_predicted():
    rng = np.random.default_rng(7)
    k = 6
    y = rng.standard_normal(k)
    y[3] = np.nan
    model = BymModel(y=y, v_hat=np.full(k, 0.4), graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    assert np.isfinite(res.eta_mean[3])
    # prediction should sit between the neighbors' influence and the mean
    assert res.eta_sd[3] > res.eta_sd[2]


def test_bym_p_scale_quantile_transform():
    rng = np.random.default_rng(8)
    k = 6
    y = rng.standard_normal(k) - 2
    model = BymModel(y=y, v_hat=np.full(k, 0.3), graph=path_graph(k))
    res = fit_bym(model, thetas=_theta_fixed())
    expit = lambda t: 1 / (1 + np.exp(-t))
    assert np.allclose(res.p_q50, expit(res.eta_q50))
    assert np.all(res.p_q025 < res.p_mean)
    assert np.all(res.p_mean < res.p_q975)
    assert np.all((res.p_mean > 0) & (res.p_mean < 1))


# ---------------------------------------------------------------------------
# adjacency ingestion
# ---------------------------------------------------------------------------

def test_adjacency_from_polygons_grid():
    from conftest import grid_areas
    polys = grid_areas(0, 0, 3, 3, 3, 3)
    g = adjacency_from_polygons(polys)
    w = g.adjacency()
    # corner cell 0 touches right and upper neighbors (rook adjacency has
    # 2 shared vertices; diagonal touch shares only 1)
    assert set(w[0].indices) == {1, 3}
    assert set(w[4].indices) == {1, 3, 5, 7}


def test_adjacency_csv_roundtrip(tmp_path):
    g = AdjacencyGraph(4, [(0, 1), (2, 3), (1, 2)])
    ids = ["w", "x", "y", "z"]
    path = tmp_path / "adj.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["area_i", "area_j"])
        w.writerows([ids[i], ids[j]] for i, j in g.edges)
    back = adjacency_from_csv(path, ids)
    assert back.edges == g.edges
