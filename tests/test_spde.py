"""Matern covariance, parameterization identities, SPDE precision."""

import numpy as np
import pytest
import scipy.sparse as sp

from prevmap.errors import NotPositiveDefiniteError
from prevmap.geometry import fem_matrices
from prevmap.matern import (MaternParams, matern_cov, practical_range,
                            sigma_from_tau, tau_from_sigma)
from prevmap.meshing import build_mesh
from prevmap.sparsela import SparseCholesky
from prevmap.spde import SpdePrecision, assemble_precision

from conftest import solve_columns


def test_matern_at_zero_is_variance():
    p = MaternParams(sigma2=2.5, kappa=1.3, nu=1.0)
    assert matern_cov(0.0, p) == pytest.approx(2.5)


def test_matern_correlation_at_practical_range():
    # correlation drops to roughly 0.13 at sqrt(8 nu)/kappa
    kappa = np.exp(0.5)
    p = MaternParams(sigma2=1.0, kappa=kappa, nu=1.0)
    d = np.sqrt(8.0) / kappa
    assert d == pytest.approx(1.7155, abs=2e-4)
    corr = matern_cov(d, p)
    assert 0.10 <= corr <= 0.15
    for nu in (1.0, 2.0):
        pn = MaternParams(sigma2=1.0, kappa=2.0, nu=nu)
        c = matern_cov(practical_range(2.0, nu), pn)
        assert 0.10 <= c <= 0.15


def test_matern_exponential_special_case():
    # nu = 1/2 reduces to sigma2 * exp(-kappa d)
    p = MaternParams(sigma2=1.0, kappa=1.0, nu=0.5)
    assert matern_cov(1.0, p) == pytest.approx(np.exp(-1.0), rel=1e-10)
    d = np.linspace(0.01, 5, 40)
    assert np.allclose(matern_cov(d, p), np.exp(-d), rtol=1e-9)


def test_tau_sigma_paper_values():
    # kappa = e^{1/2}, sigma2 = 1/(4 pi)  ->  tau = e^{-1/2}
    tau = tau_from_sigma(1.0 / (4 * np.pi), np.exp(0.5), 1.0)
    assert tau == pytest.approx(np.exp(-0.5), rel=1e-12)
    s2 = sigma_from_tau(np.exp(-0.5), np.exp(0.5), 1.0)
    assert s2 == pytest.approx(1.0 / (4 * np.pi), rel=1e-12)
    assert tau_from_sigma(1.0, 1.0, 1.0) ** 2 == pytest.approx(1 / (4 * np.pi))


def test_tau_sigma_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s2 = float(rng.uniform(0.01, 10))
        kappa = float(rng.uniform(0.1, 5))
        nu = float(rng.uniform(0.5, 3))
        tau = tau_from_sigma(s2, kappa, nu)
        assert sigma_from_tau(tau, kappa, nu) == pytest.approx(s2, rel=1e-12)


def test_practical_range_values():
    assert practical_range(np.exp(0.5), 1.0) == pytest.approx(1.7155, abs=1e-4)
    assert practical_range(np.sqrt(8.0), 1.0) == pytest.approx(1.0)


def test_assemble_precision_spd_and_pattern(coarse_fem10):
    c, g = coarse_fem10
    theta = (np.log(tau_from_sigma(0.5, 1.0)), 0.0)
    q = assemble_precision(c, g, theta)
    SparseCholesky(q)  # SPD: factorization succeeds
    assert abs(q - q.T).max() < 1e-12


def test_spde_precision_matches_formula_and_k_logdet(coarse_fem10):
    c, g = coarse_fem10
    cd = c.diagonal()
    c_d, g_d = np.diag(cd), g.toarray()
    prec = SpdePrecision(c, g)
    rng = np.random.default_rng(4)
    for _ in range(5):
        log_tau, log_kappa = rng.normal(0.0, 1.0, 2)
        tau, kappa = np.exp(log_tau), np.exp(log_kappa)
        q = prec((log_tau, log_kappa))
        ref = tau ** 2 * (kappa ** 4 * c_d + 2 * kappa ** 2 * g_d
                          + g_d @ np.diag(1 / cd) @ g_d)
        dense = q.toarray()
        assert np.abs(dense - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(dense, dense.T)
        # log|Q| from K = kappa^2 C + G, against a factorization of Q
        assert prec.logdet((log_tau, log_kappa)) == pytest.approx(
            SparseCholesky(q).logdet, rel=1e-12)
    # assemble_precision is the same matrix
    q = assemble_precision(c, g, (log_tau, log_kappa))
    assert np.array_equal(q.toarray(), dense)


def test_spde_logdet_first_and_later_k_share_arithmetic(coarse_fem10):
    # the first K of a pattern goes through the stored ordering too, so the
    # same theta gives the same bits on the first call and on later ones
    prec = SpdePrecision(*coarse_fem10)
    theta = (0.3, -0.4)
    first = prec.logdet(theta)
    assert prec.logdet((1.0, 0.5)) != first
    prec.logdet((1.0, 0.6))  # log|K| at theta's kappa is no longer kept
    assert prec.logdet(theta) == first


def test_spde_logdet_keeps_log_k_of_the_last_two_kappas(coarse_fem10,
                                                        monkeypatch):
    # a new tau at one of the last two log kappa values seen factors no K
    # and gives a fresh instance's value bit for bit; a third kappa drops
    # the one seen least recently
    from prevmap import spde
    prec = SpdePrecision(*coarse_fem10)
    prec.logdet((0.3, -0.4))
    prec.logdet((0.3, 0.2))
    built = []
    init = SparseCholesky.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spde.SparseCholesky, "__init__", spy)
    thetas = [(1.1, -0.4), (-0.7, 0.2), (0.3, -0.4)]
    kept = [prec.logdet(t) for t in thetas]
    assert built == []
    prec.logdet((0.0, 0.9))
    prec.logdet((0.0, -0.4))
    assert len(built) == 1
    prec.logdet((0.0, 0.2))
    assert len(built) == 2
    monkeypatch.undo()
    assert kept == [SpdePrecision(*coarse_fem10).logdet(t) for t in thetas]


def test_spde_k_laid_out_in_its_fill_reducing_order(coarse_fem10):
    # K = kappa^2 C + G is stored on the pattern of C + G in the mesh's
    # order; the layout kept with it holds that pattern's band order, and K
    # factors on it with the band, border and logdet of its own factor
    c, g = coarse_fem10
    prec = SpdePrecision(c, g)
    k = sp.csc_matrix((0.7 ** 2 * prec._kc + prec._kg, prec._k_indices,
                       prec._k_indptr), shape=(prec.n, prec.n))
    ref = (0.7 ** 2 * c + 0.5 * (g + g.T)).tocsc()
    assert np.abs(k - ref).max() <= 1e-15 * abs(ref).max()
    own = SparseCholesky(ref)
    f = SparseCholesky(k, layout=prec._k_layout)
    assert np.array_equal(f.layout.perm, own.layout.perm)
    assert (f.layout.bandwidth, f.layout.border, f.nnz) \
        == (own.layout.bandwidth, own.layout.border, own.nnz)
    assert f.logdet == pytest.approx(own.logdet, rel=1e-12)


def test_assemble_rejects_non_diagonal_mass(coarse_fem10):
    _, g = coarse_fem10
    with pytest.raises(ValueError):
        assemble_precision(g, g, (0.0, 0.0))


@pytest.mark.parametrize("theta", [(np.nan, 0.0), (0.0, np.inf),
                                   (np.inf, 0.0), (0.0, np.nan)])
def test_non_finite_theta_fails_in_the_factorization(coarse_fem10, theta):
    c, g = coarse_fem10
    with np.errstate(invalid="ignore"), \
            pytest.raises(NotPositiveDefiniteError):
        assemble_precision(c, g, theta)


def test_large_kappa_kills_correlation(coarse_fem10):
    # as kappa grows with sigma2 held fixed, off-diagonal correlation -> 0
    c, g = coarse_fem10
    sigma2 = 1.0
    cors = []
    for kappa in (1.0, 8.0):
        tau = tau_from_sigma(sigma2, kappa)
        q = assemble_precision(c, g, (np.log(tau), np.log(kappa)))
        f = SparseCholesky(q)
        i, j = 200, 260  # two interior vertices at a fixed distance
        cols = solve_columns(f, [i, j])
        cors.append(abs(cols[j, 0]) / np.sqrt(cols[i, 0] * cols[j, 1]))
    assert cors[1] < cors[0] * 0.2


@pytest.fixture(scope="module")
def spde_oracle_mesh(square10):
    mesh = build_mesh(square10, interior_max_edge=0.35, extension_factor=1.5,
                      exterior_max_edge=2.0)
    return mesh, fem_matrices(mesh)


def _fem_correlations(mesh, c, g, params, max_dist=5.0, min_dist=0.0):
    tau = tau_from_sigma(params.sigma2, params.kappa, params.nu)
    q = assemble_precision(c, g, (np.log(tau), np.log(params.kappa)))
    f = SparseCholesky(q)
    center = np.array([5.0, 5.0])
    dc = np.linalg.norm(mesh.vertices - center, axis=1)
    anchor = int(np.argmin(dc))
    cand = np.where(dc < max_dist * 1.05)[0]
    d_all = np.linalg.norm(mesh.vertices[cand] - mesh.vertices[anchor], axis=1)
    sel = cand[(d_all >= min_dist) & (d_all <= max_dist)]
    sel = sel[:: max(1, len(sel) // 150)]
    cols = solve_columns(f, np.concatenate([[anchor], sel]))
    var_a = cols[anchor, 0]
    var_s = cols[sel, 1:][np.arange(len(sel)), np.arange(len(sel))]
    corr = cols[sel, 0] / np.sqrt(var_a * var_s)
    dist = np.linalg.norm(mesh.vertices[sel] - mesh.vertices[anchor], axis=1)
    return dist, corr, var_a, var_s


def test_spde_correlation_matches_matern(spde_oracle_mesh):
    mesh, (c, g) = spde_oracle_mesh
    params = MaternParams(sigma2=1.0 / (4 * np.pi), kappa=np.exp(0.5), nu=1.0)
    dist, corr, _, _ = _fem_correlations(mesh, c, g, params,
                                         min_dist=0.7, max_dist=5.0)
    target = matern_cov(dist, params) / params.sigma2
    assert np.abs(corr - target).max() < 0.05


def test_spde_marginal_variance_near_sigma2(spde_oracle_mesh):
    mesh, (c, g) = spde_oracle_mesh
    params = MaternParams(sigma2=1.0 / (4 * np.pi), kappa=np.exp(0.5), nu=1.0)
    _, _, var_a, var_s = _fem_correlations(mesh, c, g, params, max_dist=3.0)
    allv = np.concatenate([[var_a], var_s])
    assert np.abs(allv / params.sigma2 - 1.0).max() < 0.10


def test_spde_interior_variance_stationarity(spde_oracle_mesh):
    # coefficient of variation of interior-vertex variances < 10%
    mesh, (c, g) = spde_oracle_mesh
    params = MaternParams(sigma2=1.0, kappa=np.exp(0.5), nu=1.0)
    tau = tau_from_sigma(params.sigma2, params.kappa)
    q = assemble_precision(c, g, (np.log(tau), np.log(params.kappa)))
    f = SparseCholesky(q)
    rng = np.random.default_rng(0)
    interior = np.where(
        (np.abs(mesh.vertices[:, 0] - 5) < 4)
        & (np.abs(mesh.vertices[:, 1] - 5) < 4))[0]
    sel = rng.choice(interior, size=60, replace=False)
    cols = solve_columns(f, sel)
    v = cols[sel, np.arange(len(sel))]
    assert v.std() / v.mean() < 0.10
