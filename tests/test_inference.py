"""Latent Gaussian engine: approximation, grid, marginals, sampling."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from prevmap import inference
from prevmap.errors import ConvergenceError
from prevmap.inference import (BinomialObs, FitResult, GaussianObs,
                               LatentComponent, LatentModel, ScaledPrecision,
                               fit_latent_model, gaussian_approx, hyper_grid,
                               marginals, sample_joint,
                               write_fit_summary_csv, write_theta_grid_csv)

from conftest import block_matrix, dense_factor


def _assert_factor_of(factor, q_post, rel=1e-12):
    """``factor`` solves with and has the log-determinant of the dense
    Q_post."""
    rhs = np.random.default_rng(0).standard_normal((len(q_post), 3))
    ref = np.linalg.solve(q_post, rhs)
    assert np.abs(factor.solve(rhs) - ref).max() <= rel * np.abs(ref).max()
    assert np.abs(factor.solve(rhs[:, 0]) - ref[:, 0]).max() \
        <= rel * np.abs(ref).max()
    assert factor.logdet == pytest.approx(np.linalg.slogdet(q_post)[1],
                                          rel=rel)


def _gaussian_problem(n=40, m=25, seed=1, q_scale=2.0):
    rng = np.random.default_rng(seed)
    b = sp.csr_matrix(rng.standard_normal((n, m)) * 0.5)
    v = 0.5 + rng.random(n)
    y = b @ rng.standard_normal(m) + rng.standard_normal(n) * np.sqrt(v)
    comp = LatentComponent("u", b, ScaledPrecision(sp.identity(m) * q_scale,
                                                   0))
    model = LatentModel(GaussianObs(y, v), [comp])
    q_post = q_scale * np.eye(m) + (b.T.toarray() * (1 / v)) @ b.toarray()
    mu = np.linalg.solve(q_post, b.T.toarray() @ (y / v))
    return model, q_post, mu, b, v, y, q_scale


def test_gaussian_stage_one_newton_step_exact():
    model, q_post, mu, *_ = _gaussian_problem()
    ga = gaussian_approx(model, np.empty(0))
    assert ga.n_iter == 1
    assert np.abs(ga.mean - mu).max() < 1e-10
    _assert_factor_of(ga.factor, q_post)


def test_gaussian_stage_factors_once(monkeypatch):
    # h does not depend on eta, so the factor of the exact Newton step
    # serves the convergence check and the mean
    from prevmap import sparsela
    calls = []
    init = sparsela.SparseCholesky.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    model = _gaussian_problem()[0]
    gaussian_approx(model, np.empty(0))  # computes the ordering
    monkeypatch.setattr(sparsela.SparseCholesky, "__init__", counting_init)
    gaussian_approx(model, np.empty(0))
    assert len(calls) == 1


def test_gaussian_stage_evidence_matches_dense_marginal_likelihood():
    model, _, _, b, v, y, q_scale = _gaussian_problem()
    n, m = b.shape
    cov_y = b.toarray() @ np.linalg.inv(q_scale * np.eye(m)) @ b.T.toarray() \
        + np.diag(v)
    ev = -0.5 * (n * np.log(2 * np.pi) + np.linalg.slogdet(cov_y)[1]
                 + y @ np.linalg.solve(cov_y, y))
    ga = gaussian_approx(model, np.empty(0))
    assert ga.log_evidence == pytest.approx(ev, abs=1e-8)


def test_binomial_scalar_mode():
    # y=3, N=10 with a flat-ish prior: mode -> logit(0.3)
    obs = BinomialObs(np.array([3.0]), np.array([10.0]))
    comp = LatentComponent("eta", sp.identity(1, format="csr"),
                           ScaledPrecision(sp.identity(1) * 1e-6, 0))
    ga = gaussian_approx(LatentModel(obs, [comp]), np.empty(0))
    assert ga.mean[0] == pytest.approx(np.log(0.3 / 0.7), abs=1e-6)


def test_binomial_all_zeros_prior_regularizes():
    obs = BinomialObs(np.zeros(5), np.full(5, 8.0))
    comp = LatentComponent("eta", sp.identity(5, format="csr"),
                           ScaledPrecision(sp.identity(5), 0))
    ga = gaussian_approx(LatentModel(obs, [comp]), np.empty(0))
    assert np.all(np.isfinite(ga.mean))
    assert np.abs(ga.mean).max() < 10


def test_newton_monotone_trace():
    rng = np.random.default_rng(5)
    n = 60
    b = sp.identity(n, format="csr")
    obs = BinomialObs(rng.integers(0, 9, n).astype(float), np.full(n, 10.0))
    comp = LatentComponent("eta", b, ScaledPrecision(sp.identity(n) * 0.5, 0))
    model = LatentModel(obs, [comp])
    try:
        gaussian_approx(model, np.empty(0))
    except ConvergenceError as exc:  # pragma: no cover - should converge
        raise AssertionError(exc)
    # monotonicity is enforced by the line search; re-run and inspect trace
    # via a tiny custom run
    u = np.zeros(n)
    q = (sp.identity(n, format="csc") * 0.5).toarray()
    f_prev = -np.inf
    for _ in range(50):
        eta = u
        g = obs.grad(eta)
        h = obs.neg_hess(eta)
        qp = q + np.diag(h)
        delta = np.linalg.solve(qp, g - q @ u)
        u = u + delta
        f = obs.loglik(u) - 0.5 * u @ q @ u
        assert f >= f_prev - 1e-9
        f_prev = f
        if np.abs(delta).max() < 1e-10:
            break


def test_binomial_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    obs = BinomialObs(rng.integers(0, 12, 30).astype(float), np.full(30, 12.0))
    eta = rng.standard_normal(30)
    eps = 1e-6
    fd = (obs.grad(eta + eps) - obs.grad(eta - eps)) / (2 * eps)
    assert np.abs(-fd - obs.neg_hess(eta)).max() < 1e-5 * np.abs(fd).max()


def test_hyper_grid_single_point_weight_one():
    model, *_ = _gaussian_problem()
    pts = hyper_grid(model)
    assert len(pts) == 1
    assert pts[0].weight == pytest.approx(1.0)


def _theta_problem(seed=0, n=50):
    """Gaussian stage whose single theta scales an iid latent precision."""
    rng = np.random.default_rng(seed)
    b = sp.identity(n, format="csr")
    v = np.full(n, 0.5)
    y = rng.standard_normal(n) * 1.2
    comp = LatentComponent("u", b, ScaledPrecision(sp.identity(n), 1),
                           theta_names=("log_prec",))
    return LatentModel(GaussianObs(y, v), [comp], theta_init=[0.0]), y, v, n


def _dense_log_evidence(theta, y, v, n):
    cov = np.eye(n) / np.exp(theta) + np.diag(v)
    return -0.5 * (n * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]
                   + y @ np.linalg.solve(cov, y))


def test_hyper_grid_log_posterior_matches_dense_oracle():
    model, y, v, n = _theta_problem()
    thetas = [[-1.5], [-0.75], [0.0], [0.75], [1.5]]
    pts = fit_latent_model(model, thetas=thetas).points
    assert [list(p.theta) for p in pts] == thetas
    for p in pts:
        expected = _dense_log_evidence(p.theta[0], y, v, n) \
            + model.log_theta_prior(p.theta)
        assert p.log_post == pytest.approx(expected, abs=1e-6)
    assert sum(p.weight for p in pts) == pytest.approx(1.0, abs=1e-12)


class _MirroredPrecision:
    """A prior block defined outside the package: the diagonal precision
    exp(theta) over n coordinates and exp(-theta) over n more."""

    n_theta = 1
    constraint = None

    def __init__(self, n):
        self.indptr, self.indices = np.arange(2 * n + 1), np.arange(2 * n)
        self._sign = np.r_[np.ones(n), -np.ones(n)]

    def data(self, theta):
        return np.exp(self._sign * theta[0])

    def logdet(self, theta):
        return float(np.log(self.data(theta)).sum())


def test_hyper_grid_symmetric_weights():
    # A posterior exactly symmetric in theta: two mirrored iid blocks with
    # precisions exp(theta) and exp(-theta) observing identical data, so
    # theta -> -theta swaps the blocks and leaves the evidence unchanged.
    rng = np.random.default_rng(3)
    n = 20
    y_half = rng.standard_normal(n)
    y = np.concatenate([y_half, y_half])
    v = np.full(2 * n, 0.5)
    eye_obs = sp.identity(2 * n, format="csr")

    comp = LatentComponent("u", eye_obs, _MirroredPrecision(n),
                           theta_names=("log_ratio",))
    model = LatentModel(GaussianObs(y, v), [comp], theta_init=[0.0])
    pts = fit_latent_model(
        model, thetas=[[-1.5], [-0.75], [0.0], [0.75], [1.5]]).points
    w = {round(float(p.theta[0]), 6): p.weight for p in pts}
    assert w[0.75] == pytest.approx(w[-0.75], abs=1e-6)
    assert w[1.5] == pytest.approx(w[-1.5], abs=1e-6)
    # the explored grid: the mode search starts at the mode, theta = 0, so
    # the grid is the centre and two mirrored points of equal weight
    pts = hyper_grid(model)
    thetas = sorted(float(p.theta[0]) for p in pts)
    assert len(pts) == 3 and thetas[1] == 0.0
    assert thetas[0] == pytest.approx(-thetas[2], rel=1e-6)
    w = sorted(pts, key=lambda p: float(p.theta[0]))
    assert w[0].weight == pytest.approx(w[2].weight, rel=1e-6)


def _two_theta_problem(seed=1, n=120, m=20):
    """Gaussian observations of an intercept, a group effect u (m groups,
    log-precision theta[0]) and an iid effect per observation
    (theta[1])."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, m, n)
    b = sp.csr_matrix((np.ones(n), (np.arange(n), group)), shape=(n, m))
    v = np.full(n, 0.3)
    y = 0.5 + rng.normal(0, 0.8, m)[group] + rng.normal(0, 0.5, n) \
        + rng.normal(0, np.sqrt(v))
    comps = [LatentComponent(
        name, design, ScaledPrecision(sp.identity(design.shape[1]), 1))
        for name, design in (("u", b), ("eps", sp.identity(n, format="csr")))]
    return LatentModel(GaussianObs(y, v), comps, fixed_design=np.ones((n, 1)),
                       theta_init=[0.0, 1.0])


def _two_theta_oracle(model, theta):
    """Dense log pi(theta | y) up to a constant, and the posterior mean
    and variances of (u, beta0), with the iid effect folded into the
    observation variance v + exp(-theta[1])."""
    u = model.slices["u"]
    b = np.hstack([model.design[:, u].toarray(), model.fixed_design])
    y = model.obs.y
    dvar = model.obs.variance + np.exp(-theta[1])
    q = np.diag(np.r_[np.full(u.stop - u.start, np.exp(theta[0])), 1e-3])
    p = q + (b.T / dvar) @ b
    r = b.T @ (y / dvar)
    mean = np.linalg.solve(p, r)
    log_post = -0.5 * (len(y) * np.log(2 * np.pi) + np.log(dvar).sum()
                       + np.linalg.slogdet(p)[1] - np.linalg.slogdet(q)[1]
                       + y @ (y / dvar) - r @ mean)
    return (log_post + model.log_theta_prior(theta), mean,
            np.diag(np.linalg.inv(p)))


def test_hyper_grid_mixture_matches_tensor_grid_oracle():
    from prevmap.inference import _neg_hessian
    model = _two_theta_problem()
    fit = FitResult(model=model, points=hyper_grid(model))
    assert len(fit.points) == 9  # centre, 4 axial points, 4 corners
    mode = fit.points[0].theta

    # the finite-difference Hessian at the mode against the oracle's, by
    # central differences of step 1e-3
    def lp(t):
        return _two_theta_oracle(model, t)[0]

    h, eye = 1e-3, np.eye(2)
    hess = np.array([[(lp(mode + h * (ei + ej)) - lp(mode + h * (ei - ej))
                       - lp(mode - h * (ei - ej)) + lp(mode - h * (ei + ej)))
                      / (4 * h * h) for ej in eye] for ei in eye])
    fd = _neg_hessian(model, mode, fit.points[0].log_post,
                      fit.points[0].mean)
    assert np.abs(fd + hess).max() <= 0.01 * np.abs(hess).max()

    # the mixture marginals of u and beta0 against a 41 x 41 tensor grid
    # over +-6 posterior sd of each theta: sds within 2%, means within 5%
    # of an sd (seeds 1-8 of this problem read at most 1.4% and 2.3%)
    sd = np.sqrt(np.diag(np.linalg.inv(-hess)))
    grid = [np.linspace(mode[k] - 6 * sd[k], mode[k] + 6 * sd[k], 41)
            for k in range(2)]
    lps, means, variances = map(np.array, zip(*(
        _two_theta_oracle(model, np.array([t0, t1]))
        for t0 in grid[0] for t1 in grid[1])))
    w = np.exp(lps - lps.max())
    w /= w.sum()
    assert w.reshape(41, 41)[[0, -1]].max() < 1e-4
    assert w.reshape(41, 41)[:, [0, -1]].max() < 1e-4
    mean = w @ means
    sd_oracle = np.sqrt(w @ (variances + means ** 2) - mean ** 2)
    coords = np.r_[np.arange(model.latent_dim)[model.slices["u"]],
                   model.latent_dim - 1]
    marg = marginals(fit, coords=coords)
    assert np.all(np.abs(marg.mean - mean) <= 0.05 * sd_oracle)
    assert np.abs(marg.sd / sd_oracle - 1).max() <= 0.02


def test_ccd_design_keeps_a_gaussian_spread():
    from prevmap.inference import _ccd_design
    for dim in (1, 2, 3, 4):
        z, log_delta = _ccd_design(dim)
        assert len(z) == 1 + 2 * dim + (2 ** dim if dim > 1 else 0)
        assert len(np.unique(z, axis=0)) == len(z)
        w = np.exp(log_delta - 0.5 * np.sum(z * z, axis=1))
        w /= w.sum()
        assert np.abs(w @ z).max() < 1e-12
        assert np.abs((w[:, None] * z).T @ z - np.eye(dim)).max() < 1e-12


def test_hyper_grid_skewness_correction_and_weights():
    # The log-precision posterior of _theta_problem is skewed: unscaled
    # axial points at z = +-f0 fall by 0.55 and 0.64.  The skewness
    # correction puts each side at the standardized radius f0, where a
    # Gaussian falls by f0^2 / 2, and each weight is Delta pi~(theta).
    from prevmap.inference import _CCD_F0, _ccd_design
    pts = hyper_grid(_theta_problem()[0])
    assert len(pts) == 3
    lps = np.array([p.log_post for p in pts])
    drops = lps[0] - lps[1:]
    assert np.abs(drops - _CCD_F0 ** 2 / 2).max() < 0.03
    assert pts[1].theta[0] > pts[0].theta[0] > pts[2].theta[0]
    log_delta = _ccd_design(1)[1]
    w = np.array([p.weight for p in pts])
    assert w == pytest.approx(np.exp(log_delta + lps - lps.max())
                              / np.exp(log_delta + lps - lps.max()).sum(),
                              rel=1e-12)


def test_hyper_grid_floors_a_flat_direction_at_the_prior(monkeypatch):
    # a Hessian that sees no curvature must not stretch the grid past the
    # theta prior's own spread
    from prevmap import inference
    monkeypatch.setattr(inference, "_neg_hessian",
                        lambda *args, **kwargs: np.array([[1e-12]]))
    pts = hyper_grid(_theta_problem()[0])
    offsets = [abs(float(p.theta[0] - pts[0].theta[0])) for p in pts]
    assert 0 < max(offsets) <= 2 * inference._THETA_PRIOR_SD


def test_hyper_grid_searches_through_module_minimize(monkeypatch):
    # the benchmark times the search by wrapping inference.minimize
    from prevmap import inference
    calls = []
    minimize = inference.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(inference, "minimize", counting_minimize)
    hyper_grid(_gaussian_problem()[0])  # no theta: no search
    assert calls == []
    hyper_grid(_theta_problem()[0])
    assert calls == [1]


def _counted(fun):
    """``fun`` and the list of its calls' arguments."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return fun(*args)
    return wrapped, calls


def test_minimize_reaches_the_minimum_of_a_quadratic(monkeypatch):
    # curvatures 0.5 to 50 along rotated axes; the oracle is a dense solve
    rng = np.random.default_rng(4)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = rot @ np.diag([0.5, 5.0, 50.0]) @ rot.T
    b = rng.normal(size=3)
    fun, f_calls = _counted(lambda x: 0.5 * x @ a @ x - b @ x)
    grad, g_calls = _counted(lambda x, f: a @ x - b)
    monkeypatch.setattr(inference, "_MODE_GTOL", 1e-9)
    x, failure = inference.minimize(fun, grad, np.zeros(3))
    assert failure is None
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-9)
    assert len(f_calls) <= 15 and len(g_calls) <= 12
    # the gradient is taken only where the line search accepted a step
    assert all(f == fun(x_) for x_, f in g_calls)


def _skewed(x, y):
    """A convex, skewed function of two variables (broadcasts)."""
    return np.exp(x) - 3.0 * x + np.exp(y - x) - y + 0.125 * (x + y) ** 2


def test_minimize_reaches_a_dense_grid_minimum_of_a_skewed_function(
        monkeypatch):
    def grad(p, f):
        x, y = p
        return np.array([np.exp(x) - 3.0 - np.exp(y - x) + 0.25 * (x + y),
                         np.exp(y - x) - 1.0 + 0.25 * (x + y)])

    fun, f_calls = _counted(lambda p: _skewed(*p))
    monkeypatch.setattr(inference, "_MODE_GTOL", 1e-8)
    x, failure = inference.minimize(fun, grad, np.array([-2.0, 3.0]))
    assert failure is None
    assert len(f_calls) <= 25
    # oracle: the least value over a dense grid, refined once around it
    centre, half = np.zeros(2), 4.0
    for _ in range(2):
        axes = [np.linspace(c - half, c + half, 1601) for c in centre]
        vals = _skewed(*np.meshgrid(*axes, indexing="ij"))
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        centre, spacing = np.array([axes[0][i], axes[1][j]]), half / 800
        half = 4 * spacing
    np.testing.assert_allclose(x, centre, rtol=0, atol=2 * spacing)
    assert _skewed(*x) <= vals.min()


def test_minimize_reports_a_line_search_without_decrease():
    # a gradient of the wrong sign: every trial step goes uphill
    fun, f_calls = _counted(lambda x: float(x @ x))
    x, failure = inference.minimize(fun, lambda x, f: -2.0 * x,
                                    np.array([1.0, 0.5]))
    assert failure == "the line search found no decrease"
    assert np.array_equal(x, [1.0, 0.5])
    assert len(f_calls) == 1 + inference._MAX_HALVINGS


def test_mode_search_warns_and_keeps_the_best_point(monkeypatch):
    model = _theta_problem()[0]
    seen = []

    def stopping_minimize(fun, grad, x0):
        seen.extend(-fun(x0 + d) for d in (0.0, 0.4, -0.4))
        return x0, "the iteration limit was reached"

    monkeypatch.setattr(inference, "minimize", stopping_minimize)
    with pytest.warns(UserWarning, match="did not fully converge "
                      r"\(the iteration limit was reached\)"):
        theta, lp, mean = inference._mode_search(model)
    assert lp == max(seen)
    assert theta == pytest.approx(model.theta_init
                                  + [0.0, 0.4, -0.4][int(np.argmax(seen))])
    assert mean is not None


def test_marginals_single_component_gaussian_quantiles():
    model, q_post, mu, *_ = _gaussian_problem()
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    marg = marginals(fit)
    sd = np.sqrt(np.diag(np.linalg.inv(q_post)))
    assert np.abs(marg.mean - mu).max() < 1e-9
    assert np.abs(marg.sd - sd).max() < 1e-9
    assert np.abs(marg.q975 - (mu + 1.959963985 * sd)).max() < 1e-6
    assert np.abs(marg.q025 - (mu - 1.959963985 * sd)).max() < 1e-6
    assert np.abs(marg.q50 - mu).max() < 1e-6


def test_marginals_distinct_coordinate_sets_same_ends_and_length():
    # [0, 5, 9] and [0, 7, 9] share first, last and length; each call must
    # return the variances of its own coordinates
    model, q_post, *_ = _gaussian_problem()
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    var = np.diag(np.linalg.inv(q_post))
    for coords in ([0, 5, 9], [0, 7, 9]):
        marg = marginals(fit, coords=coords)
        assert np.abs(marg.sd ** 2 - var[coords]).max() < 1e-10


def test_mixture_median_and_mean():
    from prevmap.inference import _mixture_quantiles

    # two equal-weight components N(-1, 1), N(1, 1) -> median 0
    mus = np.array([[-1.0], [1.0]])
    sds = np.ones((2, 1))
    q = _mixture_quantiles(mus, sds, np.array([0.5, 0.5]), (0.5,))
    assert abs(q[0, 0]) < 1e-7
    # mixture mean is the weighted component mean
    rng = np.random.default_rng(11)
    w = rng.random(4)
    w /= w.sum()
    mus = rng.standard_normal((4, 6))
    sds = 0.5 + rng.random((4, 6))
    mean = w @ mus
    second = w @ (sds ** 2 + mus ** 2)
    assert np.all(second - mean ** 2 > 0)


def test_sample_joint_moments_and_determinism():
    model, q_post, mu, *_ = _gaussian_problem(n=30, m=12, seed=9)
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    s = sample_joint(fit, 50000, seed=42)
    s2 = sample_joint(fit, 50000, seed=42)
    assert np.array_equal(s.samples, s2.samples)
    cov = np.linalg.inv(q_post)
    sd = np.sqrt(np.diag(cov))
    se = sd / np.sqrt(50000)
    assert np.all(np.abs(s.samples.mean(axis=0) - mu) < 4 * se)
    # covariance of a coordinate pair within 10% relative
    emp = np.cov(s.samples[:, 0], s.samples[:, 1])[0, 1]
    assert emp == pytest.approx(cov[0, 1], abs=0.1 * max(abs(cov[0, 1]), sd[0] * sd[1] * 0.1))


def test_sampling_consistency_with_marginals():
    model, *_ = _gaussian_problem(n=30, m=12, seed=13)
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    marg = marginals(fit)
    s = sample_joint(fit, 80000, seed=5)
    emp_mean = s.samples.mean(axis=0)
    emp_sd = s.samples.std(axis=0, ddof=1)
    assert np.abs(emp_mean - marg.mean).max() < 4 * marg.sd.max() / np.sqrt(80000) * 3
    assert np.abs(emp_sd / marg.sd - 1).max() < 0.05


def test_gaussian_stage_full_machinery_dense_oracle():
    # n = 200 problem: means, sds, evidence all match dense formulas to 1e-6
    rng = np.random.default_rng(17)
    n, m = 200, 60
    b = sp.csr_matrix(rng.standard_normal((n, m)) * 0.3)
    v = 0.4 + rng.random(n)
    y = rng.standard_normal(n)
    comp = LatentComponent("u", b, ScaledPrecision(sp.identity(m) * 1.5, 0))
    model = LatentModel(GaussianObs(y, v), [comp],
                        fixed_design=np.ones((n, 1)))
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    marg = marginals(fit)
    bd = np.hstack([b.toarray(), np.ones((n, 1))])
    qp = np.diag(np.r_[np.full(m, 1.5), 1e-3])
    q_post = qp + bd.T @ np.diag(1 / v) @ bd
    mu = np.linalg.solve(q_post, bd.T @ (y / v))
    sd = np.sqrt(np.diag(np.linalg.inv(q_post)))
    assert np.abs(marg.mean - mu).max() < 1e-6
    assert np.abs(marg.sd - sd).max() < 1e-6
    cov_y = bd @ np.linalg.inv(qp) @ bd.T + np.diag(v)
    ev = -0.5 * (n * np.log(2 * np.pi) + np.linalg.slogdet(cov_y)[1]
                 + y @ np.linalg.solve(cov_y, y))
    assert fit.points[0].log_post - model.log_theta_prior(np.empty(0)) \
        == pytest.approx(ev, abs=1e-6)


def test_fit_exports(tmp_path):
    model, *_ = _gaussian_problem()
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    marg = marginals(fit)
    write_fit_summary_csv(tmp_path / "fit.csv", marg)
    write_theta_grid_csv(tmp_path / "grid.csv", fit)
    import csv
    with open(tmp_path / "fit.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == model.latent_dim
    assert float(rows[0]["mean"]) == pytest.approx(marg.mean[0])


def test_marginals_names_of_unsorted_coordinate_subset():
    model, *_ = _gaussian_problem()
    fit = fit_latent_model(model, thetas=[np.empty(0)])
    coords = [17, 3, 24, 0]
    names = model.coord_names()
    assert marginals(fit, coords=coords).names == [names[i] for i in coords]


# ---------------------------------------------------------------------------
# warm starts and reused orderings
# ---------------------------------------------------------------------------

def _rw1_precision(m):
    """Random-walk structure plus a small ridge: tridiagonal, SPD."""
    main = np.r_[1.0, np.full(m - 2, 2.0), 1.0] + 1e-3
    return sp.diags([main, -np.ones(m - 1), -np.ones(m - 1)], [0, 1, -1],
                    format="csc")


def _binomial_problem(seed=2, n=80, m=30):
    """Binomial counts over a smooth latent curve: eta = intercept + B u,
    u ~ RW1 with log-precision theta[0] and an iid term with theta[1]."""
    rng = np.random.default_rng(seed)
    site = rng.integers(0, m, n)
    b = sp.csr_matrix((np.ones(n), (np.arange(n), site)), shape=(n, m))
    truth = np.sin(np.linspace(0, 3, m))[site] - 1.0
    trials = rng.integers(5, 15, n).astype(float)
    y = rng.binomial(trials.astype(int), expit(truth)).astype(float)
    comps = [
        LatentComponent("rw", b, ScaledPrecision(_rw1_precision(m), 1)),
        LatentComponent("iid", sp.identity(n, format="csr"),
                        ScaledPrecision(sp.identity(n), 1)),
    ]
    return LatentModel(BinomialObs(y, trials), comps,
                       fixed_design=np.ones((n, 1)), theta_init=[1.0, 3.0])


def _binomial_bym_problem(seed=4, k_side=5):
    """Binomial counts per area of a k_side x k_side grid: intercept + ICAR
    (sum to zero) + iid area effects."""
    rng = np.random.default_rng(seed)
    k = k_side * k_side
    edges = [(i, i + 1) for i in range(k) if (i + 1) % k_side] + \
        [(i, i + k_side) for i in range(k - k_side)]
    from prevmap.areal import AdjacencyGraph, IcarPrecision, icar_precision
    q_icar = IcarPrecision(icar_precision(AdjacencyGraph(k, edges)),
                           np.zeros(k), np.ones(k, dtype=bool))
    trials = rng.integers(20, 40, k).astype(float)
    y = rng.binomial(trials.astype(int),
                     expit(rng.normal(-1.0, 0.5, k))).astype(float)
    eye = sp.identity(k, format="csr")
    comps = [LatentComponent("icar", eye, q_icar),
             LatentComponent("iid", eye, ScaledPrecision(eye, 1))]
    return LatentModel(BinomialObs(y, trials), comps,
                       fixed_design=np.ones((k, 1)), theta_init=[1.0, 2.0])


@pytest.mark.parametrize("problem", [_binomial_problem, _binomial_bym_problem])
def test_warm_start_matches_cold(problem):
    model = problem()
    near = model.theta_init + np.array([0.3, -0.2])
    start = gaussian_approx(model, model.theta_init).mean
    cold = gaussian_approx(model, near)
    warm = gaussian_approx(model, near, u0=start)
    scale = np.abs(cold.mean).max()
    assert np.abs(warm.mean - cold.mean).max() <= 1e-6 * scale
    assert warm.log_evidence == pytest.approx(cold.log_evidence, abs=1e-10)
    assert warm.n_iter < cold.n_iter
    if model.constraint is not None:
        assert np.abs(model.constraint @ warm.mean).max() < 1e-9 * scale


@pytest.mark.parametrize("problem", [_binomial_problem, _binomial_bym_problem])
@pytest.mark.parametrize("short", [1, 2])
def test_newton_limit_raises_with_a_trace_of_each_step(problem, short,
                                                       monkeypatch):
    # k steps allowed, fewer than the model needs: the error carries the
    # starting value and one value per step taken
    model = problem()
    k = gaussian_approx(model, model.theta_init).n_iter - short
    monkeypatch.setattr(inference, "_MAX_ITER", k)
    with pytest.raises(ConvergenceError,
                       match=f"did not converge in {k} iterations") as err:
        gaussian_approx(model, model.theta_init)
    assert len(err.value.trace) == k + 1
    assert np.all(np.diff(err.value.trace) >= 0)


def test_newton_limit_of_exactly_its_steps_returns_them(monkeypatch):
    # the BYM model's last step converges by its relative change, which is
    # tested after the step the limit allows
    model = _binomial_bym_problem()
    free = gaussian_approx(model, model.theta_init)
    monkeypatch.setattr(inference, "_MAX_ITER", free.n_iter)
    capped = gaussian_approx(model, model.theta_init)
    assert capped.n_iter == free.n_iter
    assert np.array_equal(capped.mean, free.mean)
    assert capped.log_evidence == free.log_evidence


def test_newton_line_search_failure_names_its_iteration():
    # the log-likelihood is -inf after its first three values (the start
    # and two full steps): the third step's line search finds no
    # improvement in _MAX_HALVINGS trials
    model = _binomial_problem()
    loglik = model.obs.loglik
    calls = []

    def failing(eta):
        calls.append(1)
        return loglik(eta) if len(calls) <= 3 else -np.inf

    model.obs.loglik = failing
    with pytest.raises(ConvergenceError,
                       match="line search failed at iteration 2") as err:
        gaussian_approx(model, model.theta_init)
    assert len(err.value.trace) == 3
    assert len(calls) == 3 + inference._MAX_HALVINGS


def test_spde_fit_computes_each_ordering_once(monkeypatch, coarse_mesh10,
                                              coarse_fem10):
    # The patterns of Q_prior and Q_post do not change with theta or eta, so
    # a whole fit builds at most two band layouts (each computes its
    # ordering), while it factors at every evaluation.
    from prevmap import sparsela
    from prevmap.geometry import project
    from prevmap.inference import make_spde_model

    calls = {"ordered": 0, "factored": 0}
    layout_init = sparsela.BandLayout.__init__
    init = sparsela.SparseCholesky.__init__

    def counting_layout(self, *args, **kwargs):
        calls["ordered"] += 1
        layout_init(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["factored"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparsela.BandLayout, "__init__", counting_layout)
    monkeypatch.setattr(sparsela.SparseCholesky, "__init__", counting_init)
    rng = np.random.default_rng(8)
    locs = rng.uniform(0, 10, (120, 2))
    trials = np.full(120, 10.0)
    y = rng.binomial(10, expit(-1.0 + 0.5 * np.sin(locs[:, 0]))).astype(float)
    model = make_spde_model(BinomialObs(y, trials),
                            project(coarse_mesh10, locs), *coarse_fem10,
                            nugget=False)
    fit = fit_latent_model(model)
    assert len(fit.points) > 1
    assert 1 <= calls["ordered"] <= 2
    assert calls["factored"] > len(fit.points)


# ---------------------------------------------------------------------------
# fixed-pattern Q_post and the blockwise prior log-determinant
# ---------------------------------------------------------------------------

def _spde_problem(mesh, fem, nugget, seed=8, n=120):
    from prevmap.geometry import project
    from prevmap.inference import make_spde_model
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0, 10, (n, 2))
    y = rng.binomial(10, expit(-1.0 + 0.5 * np.sin(locs[:, 0]))).astype(float)
    theta_init = [0.0, 0.0] + ([np.log(100.0)] if nugget else [])
    return make_spde_model(BinomialObs(y, np.full(n, 10.0)),
                           project(mesh, locs), *fem, nugget=nugget,
                           theta_init=theta_init)


def _bym_problem(seed=6, side=6):
    """The BYM latent model of a side x side grid of areas, one unobserved:
    ICAR with its sum-to-zero constraint, iid and an intercept."""
    from prevmap.areal import AdjacencyGraph, BymModel, _build_latent_model
    k = side * side
    edges = [(i, i + 1) for i in range(k) if (i + 1) % side] + \
        [(i, i + side) for i in range(k - side)]
    rng = np.random.default_rng(seed)
    y = rng.normal(-1.0, 0.6, k)
    y[3] = np.nan
    return _build_latent_model(BymModel(y=y, v_hat=rng.uniform(0.05, 0.3, k),
                                        graph=AdjacencyGraph(k, edges)))[0]


def _iid_iid_problem(seed=5, n=40):
    """Binomial counts with two iid terms on the same observations and an
    intercept: only the first iid term can be integrated out."""
    rng = np.random.default_rng(seed)
    trials = rng.integers(5, 15, n).astype(float)
    y = rng.binomial(trials.astype(int), 0.3).astype(float)
    comps = [LatentComponent(name, sp.identity(n, format="csr"),
                             ScaledPrecision(sp.identity(n), 1))
             for name in ("iid", "iid2")]
    return LatentModel(BinomialObs(y, trials), comps,
                       fixed_design=np.ones((n, 1)), theta_init=[1.0, 2.0])


def _models(mesh, fem):
    return {"spde_nugget": _spde_problem(mesh, fem, nugget=True),
            "spde": _spde_problem(mesh, fem, nugget=False),
            "bym": _bym_problem(),
            "rw1_iid": _binomial_problem(),
            "iid_iid": _iid_iid_problem()}


def _reference_q_post(model, theta, eta):
    """Q_prior + B^T diag(h) B assembled by sparse algebra and symmetrized."""
    b = model.design
    q = (model.prior_precision(theta)
         + b.T.multiply(model.obs.neg_hess(eta)) @ b).tocsc()
    return ((q + q.T) * 0.5).toarray()


# the components whose coordinates the factorization integrates out
_ELIMINATED = {"spde_nugget": ["eps"], "spde": [], "bym": ["iid"],
               "rw1_iid": ["iid"], "iid_iid": ["iid"]}


def _coords(model, names):
    return np.concatenate([np.arange(model.latent_dim)[model.slices[c]]
                           for c in names] + [np.zeros(0, dtype=int)])


@pytest.mark.parametrize("name", sorted(_ELIMINATED))
def test_schur_complement_matches_dense_oracle(name, coarse_mesh10,
                                               coarse_fem10):
    from prevmap.inference import _PosteriorFactor
    model = _models(coarse_mesh10, coarse_fem10)[name]
    pat = model._pattern
    elim = _coords(model, _ELIMINATED[name])
    keep = np.setdiff1d(np.arange(model.latent_dim), elim)
    rng = np.random.default_rng(21)
    for _ in range(3):
        theta = model.theta_init + rng.normal(0.0, 0.5, model.n_theta)
        eta = rng.normal(-1.0, 1.0, model.obs.n)
        assert np.array_equal(pat.elim, elim)
        # R, in ascending latent order
        assert np.array_equal(pat.keep, keep)
        prior = pat.prior(model.prior_data(theta))
        s_mat = pat.schur(prior, model.obs.neg_hess(eta))[0].toarray()
        ref = _reference_q_post(model, theta, eta)
        q_re = ref[np.ix_(pat.keep, elim)]
        schur = ref[np.ix_(pat.keep, pat.keep)] \
            - q_re @ np.linalg.solve(ref[np.ix_(elim, elim)], q_re.T)
        assert np.abs(s_mat - schur).max() <= 1e-13 * np.abs(schur).max()
        assert np.array_equal(s_mat, s_mat.T)
        if not len(elim):
            assert np.abs(s_mat - ref[np.ix_(pat.keep, pat.keep)]).max() \
                <= 1e-14 * np.abs(ref).max()
        # Q_prior laid out on the same pattern and its eliminated diagonal
        q_prior = model.prior_precision(theta).toarray()
        assert np.array_equal(pat.matrix(prior[0]).toarray(),
                              q_prior[np.ix_(pat.keep, pat.keep)])
        assert np.array_equal(prior[1], np.diag(q_prior)[elim])
        # the factor of the full Q_post
        factor = _PosteriorFactor(pat, prior, model.obs.neg_hess(eta),
                                  model.constraint)
        _assert_factor_of(factor, ref, rel=1e-10)
        draws = factor.sample(np.eye(model.latent_dim))
        cov = np.linalg.inv(ref)
        assert np.abs(draws @ draws.T - cov).max() \
            <= 1e-10 * np.abs(cov).max()


@pytest.mark.parametrize("name", sorted(_ELIMINATED))
def test_blockwise_prior_logdet_matches_full_factor(name, coarse_mesh10,
                                                    coarse_fem10):
    from prevmap.inference import _prior_logdet
    from prevmap.sparsela import SparseCholesky
    model = _models(coarse_mesh10, coarse_fem10)[name]
    rng = np.random.default_rng(33)
    for _ in range(5):
        theta = model.theta_init + rng.normal(0.0, 0.7, model.n_theta)
        logdet = _prior_logdet(model, theta)
        q_prior = model.prior_precision(theta)
        if model.constraint is None:
            ref = SparseCholesky(q_prior).logdet
        else:
            # BYM's intrinsic ICAR block: the generalized determinant is the
            # product of the nonzero eigenvalues, one zero per sum-to-zero row
            eig = np.linalg.eigvalsh(q_prior.toarray())
            ref = np.log(eig[model.constraint.shape[0]:]).sum()
        assert logdet == pytest.approx(ref, rel=1e-12)


def _prior_block_cases(fem):
    """Each kind of prior block with a theta, its dense precision there and
    the log of the product of the precision's nonzero eigenvalues."""
    from prevmap.areal import AdjacencyGraph, IcarPrecision, icar_precision
    from prevmap.spde import SpdePrecision
    diag = sp.diags(np.random.default_rng(12).uniform(0.5, 2.0, 7))
    tri = _rw1_precision(9)
    # a 4-area component with a chord, a blind 3-area path and an observed
    # singleton area
    graph = AdjacencyGraph(8, [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5),
                               (5, 6)])
    r = icar_precision(graph).toarray()
    blind = np.zeros((8, 8))
    blind[4:7, 4:7] = 1.0 / 3.0
    icar = IcarPrecision(sp.csc_matrix(r), graph.component_labels(),
                         ~np.isin(np.arange(8), [4, 5, 6]))
    c, g = fem
    cd, g = c.diagonal(), g.toarray()
    log_tau, log_kappa = 0.3, -0.2
    spde = np.exp(2 * log_tau) * (
        np.exp(4 * log_kappa) * np.diag(cd) + 2 * np.exp(2 * log_kappa) * g
        + g @ np.diag(1.0 / cd) @ g)

    def logdet(q):
        return np.linalg.slogdet(q)[1]

    return {
        "diagonal": (ScaledPrecision(diag, 1), [0.4],
                     np.exp(0.4) * diag.toarray(),
                     logdet(np.exp(0.4) * diag.toarray())),
        "tridiagonal": (ScaledPrecision(tri, 1), [-0.7],
                        np.exp(-0.7) * tri.toarray(),
                        logdet(np.exp(-0.7) * tri.toarray())),
        "theta_free_diagonal": (ScaledPrecision(diag, 0), [],
                                diag.toarray(), logdet(diag.toarray())),
        "theta_free_tridiagonal": (ScaledPrecision(tri * 2.0, 0), [],
                                   2.0 * tri.toarray(),
                                   logdet(2.0 * tri.toarray())),
        # three components, so three zero eigenvalues of R
        "icar": (icar, [0.8], np.exp(0.8) * (r + blind),
                 5 * 0.8 + np.log(np.linalg.eigvalsh(r)[3:]).sum()),
        "spde": (SpdePrecision(*fem), [log_tau, log_kappa], spde,
                 logdet(spde)),
    }


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal",
                                  "theta_free_diagonal",
                                  "theta_free_tridiagonal", "icar", "spde"])
def test_prior_block_matches_dense_oracle(kind, coarse_fem10):
    # the data on the block's own pattern is the dense precision, and its
    # logdet the (generalized) log-determinant
    block, theta, dense, logdet = _prior_block_cases(coarse_fem10)[kind]
    q = block_matrix(block, theta)
    assert q.has_canonical_format and block.n_theta == len(theta)
    assert np.abs(q.toarray() - dense).max() <= 1e-13 * np.abs(dense).max()
    assert block.logdet(theta) == pytest.approx(logdet, rel=1e-12)
    assert (block.constraint is None) == (kind != "icar")


def _broken_blocks():
    upper = sp.csc_matrix(np.triu(np.ones((3, 3))) + 2.0 * np.eye(3))
    values = sp.csc_matrix([[2.0, 1.0, 0.0], [0.5, 2.0, 0.0],
                            [0.0, 0.0, 2.0]])
    short = ScaledPrecision(sp.identity(3), 1)
    short.data = lambda theta: np.ones(2)
    return {"pattern": (ScaledPrecision(upper, 1), "not symmetric"),
            "values": (ScaledPrecision(values, 0), "not symmetric"),
            "data": (short, "2 data for 3 pattern entries")}


@pytest.mark.parametrize("fault", ["pattern", "values", "data"])
def test_model_refuses_an_asymmetric_or_short_block(fault):
    block, message = _broken_blocks()[fault]
    comp = LatentComponent("u", sp.identity(3, format="csr"), block)
    with pytest.raises(ValueError, match=f"component u: .*{message}"):
        LatentModel(GaussianObs(np.zeros(3), np.ones(3)), [comp])


@pytest.mark.parametrize("name", ["spde_nugget", "bym"])
def test_fit_builds_one_pattern_per_model(name, monkeypatch, coarse_mesh10,
                                          coarse_fem10):
    built = []
    init = inference._Pattern.__init__

    def spy(self, model):
        built.append(model)
        init(self, model)

    monkeypatch.setattr(inference._Pattern, "__init__", spy)
    if name == "bym":
        model = _bym_problem()
    else:
        model = _spde_problem(coarse_mesh10, coarse_fem10, nugget=True)
    fit = fit_latent_model(model)
    marginals(fit, [0])
    assert len(fit.points) > 1
    assert built == [model]


def test_factor_first_and_later_matrices_share_arithmetic():
    # the first evaluation of a fresh model factors on the pattern and
    # ordering the model built, like every later one: the same theta gives
    # the same bits (_binomial_problem's RW1 block factored its R once)
    for problem in (_bym_problem, _binomial_problem):
        model = problem()
        first = gaussian_approx(model, model.theta_init)
        second = gaussian_approx(model, model.theta_init)
        assert np.array_equal(first.mean, second.mean)
        assert first.log_evidence == second.log_evidence


@pytest.mark.parametrize("name", sorted(_ELIMINATED))
def test_pattern_lays_s_out_in_its_fill_reducing_order(name, coarse_mesh10,
                                                       coarse_fem10):
    # S is laid out once, R in ascending latent order, and its layout holds
    # the band order of its pattern: every S factors on the pattern's
    # layout with the order, band, border and logdet of its own factor
    from prevmap.inference import _PosteriorFactor
    from prevmap.sparsela import SparseCholesky
    model = _models(coarse_mesh10, coarse_fem10)[name]
    pat = model._pattern
    prior = pat.prior(model.prior_data(model.theta_init))
    assert np.all(np.diff(pat.keep) > 0)
    h = model.obs.neg_hess(np.full(model.obs.n, -1.0))
    schur = _PosteriorFactor(pat, prior, h, model.constraint).schur
    assert schur.layout is pat.layout
    own = SparseCholesky(pat.schur(prior, h)[0])
    assert np.array_equal(schur.layout.perm, own.layout.perm)
    assert (schur.layout.bandwidth, schur.layout.border, schur.nnz) \
        == (own.layout.bandwidth, own.layout.border, own.nnz)
    assert schur.logdet == pytest.approx(own.logdet, rel=1e-12)


@pytest.mark.parametrize("name", ["bym", "spde", "spde_nugget"])
def test_draws_feed_kept_normals_to_factor_rows_in_latent_order(
        name, coarse_mesh10, coarse_fem10):
    # the map from standard normals to draws does not depend on the order
    # in which S is factored: z's kept entries, in ascending latent index,
    # feed the rows of S's factor L L^T in order, x_R = P^T L^{-T} z_R
    import scipy.linalg as sla
    from prevmap.inference import _PosteriorFactor
    model = _models(coarse_mesh10, coarse_fem10)[name]
    pat = model._pattern
    factor = _PosteriorFactor(
        pat, pat.prior(model.prior_data(model.theta_init)),
        model.obs.neg_hess(np.full(model.obs.n, -1.0)), model.constraint)
    z = np.random.default_rng(5).standard_normal(model.latent_dim)
    x_r = sla.solve_triangular(dense_factor(factor.schur).T, z[pat.keep],
                               lower=False)
    draw = factor.sample(z)[pat.keep[factor.schur.layout.perm]]
    assert np.abs(draw - x_r).max() <= 1e-12 * np.abs(x_r).max()


def _two_point_fit(model):
    """A fit on theta_init and a point beside it, both with weight."""
    return fit_latent_model(model, thetas=[model.theta_init,
                                           model.theta_init + 0.3])


def _replayed_draws(fit, num_samples, seed):
    """Full joint draws replayed from the documented stream: the theta
    indices, then one (d, k) standard normal block per grid point."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(fit.points), size=num_samples, p=fit.weights)
    out = np.empty((num_samples, fit.model.latent_dim))
    for j, point in enumerate(fit.points):
        sel = np.flatnonzero(idx == j)
        if len(sel):
            factor = gaussian_approx(fit.model, point.theta).factor
            z = rng.standard_normal((fit.model.latent_dim, len(sel)))
            out[sel] = (point.mean[:, None]
                        + factor.krige(factor.sample(z))).T
    return out, idx


@pytest.mark.parametrize("name", ["spde_nugget", "bym"])
def test_sample_joint_coords_are_the_full_draws_columns(name, coarse_mesh10,
                                                        coarse_fem10):
    # the spde_nugget selections without eps take the fast path, the rest
    # (eps coordinates, BYM's constraint) the full draw; every one gives
    # the full draw's columns bit for bit, in the order asked for
    model = _models(coarse_mesh10, coarse_fem10)[name]
    fit = _two_point_fit(model)
    full = sample_joint(fit, 300, seed=11)
    replay, idx = _replayed_draws(fit, 300, seed=11)
    assert np.array_equal(full.samples, replay)
    assert np.array_equal(full.theta_index, idx)
    assert len(set(idx)) == 2
    first = _coords(model, [model.components[0].name])
    beta0 = model.slices["fixed"].start
    eliminated = _coords(model, _ELIMINATED[name])
    rng = np.random.default_rng(3)
    for coords in (np.r_[first, beta0], rng.permutation(np.r_[first, beta0]),
                   np.r_[beta0, first[::-1][:7]],
                   rng.permutation(model.latent_dim)[:40],
                   np.r_[eliminated[:5], beta0, first[:3]]):
        part = sample_joint(fit, 300, seed=11, coords=coords)
        assert np.array_equal(part.samples, full.samples[:, coords])
        assert np.array_equal(part.theta_index, full.theta_index)


def test_sample_joint_fast_path_solves_no_eliminated_block(
        monkeypatch, coarse_mesh10, coarse_fem10):
    from prevmap.inference import _PosteriorFactor
    model = _models(coarse_mesh10, coarse_fem10)["spde_nugget"]
    fit = _two_point_fit(model)
    calls = []
    q_er = _PosteriorFactor._q_er

    def spy(self, x_r):
        calls.append(x_r.shape)
        return q_er(self, x_r)

    monkeypatch.setattr(_PosteriorFactor, "_q_er", spy)
    field = _coords(model, ["field"])
    beta0 = model.slices["fixed"].start
    part = sample_joint(fit, 200, seed=4, coords=np.r_[field, beta0])
    assert calls == []
    assert part.samples.shape == (200, len(field) + 1)
    sample_joint(fit, 200, seed=4)
    assert len(calls) == 2  # one per grid point on the full path


def _factor_log(monkeypatch):
    """Every posterior factor built from now on, as (its curvature array,
    a weak reference to it, how many factors logged before it were alive
    when it was built)."""
    import weakref
    log = []
    init = inference._PosteriorFactor.__init__

    def spy(self, pat, prior, h, constraint):
        alive = sum(ref() is not None for _, ref, _ in log)
        init(self, pat, prior, h, constraint)
        log.append((h, weakref.ref(self), alive))

    monkeypatch.setattr(inference._PosteriorFactor, "__init__", spy)
    return log


@pytest.mark.parametrize("name", ["spde_nugget", "bym"])
def test_rebuilt_factor_is_gaussian_approx_factor_bit_for_bit(
        name, monkeypatch, coarse_mesh10, coarse_fem10):
    # a grid point keeps theta and the curvature h, not its factor; the
    # factor rebuilt from them is the one gaussian_approx returned
    from prevmap.inference import _factor
    model = _models(coarse_mesh10, coarse_fem10)[name]
    approxes = []
    approx = inference.gaussian_approx

    def spy(*args, **kwargs):
        approxes.append(approx(*args, **kwargs))
        return approxes[-1]

    monkeypatch.setattr(inference, "gaussian_approx", spy)
    fit = _two_point_fit(model)
    assert len(approxes) == len(fit.points) == 2
    rhs = np.random.default_rng(8).standard_normal((model.latent_dim, 3))
    for point, ga in zip(fit.points, approxes):
        old, new = ga.factor, _factor(model, point)
        assert new is not old and point.h is old.h
        assert np.array_equal(point.mean, ga.mean)
        assert new.logdet == old.logdet
        assert np.array_equal(new.solve(rhs), old.solve(rhs))
        assert np.array_equal(new.draw(np.random.default_rng(3), 5),
                              old.draw(np.random.default_rng(3), 5))
        if model.constraint is not None:
            assert np.array_equal(new.w, old.w)
            assert np.array_equal(new.m, old.m)


@pytest.mark.parametrize("name", ["spde_nugget", "bym"])
def test_fit_holds_no_factor(name, monkeypatch, coarse_mesh10, coarse_fem10):
    # no factor is built while another is alive (Newton frees its last
    # factor before it builds the next), and once fit_latent_model returns,
    # no factor of the mode search, the Hessian or the grid is alive: no
    # grid point holds one
    import gc
    model = _models(coarse_mesh10, coarse_fem10)[name]
    log = _factor_log(monkeypatch)
    fit = fit_latent_model(model)
    assert [alive for _, _, alive in log] == [0] * len(log)
    gc.collect()
    assert len(fit.points) > 1 and len(log) > len(fit.points)
    assert all(ref() is None for _, ref, _ in log)
    for point in fit.points:
        assert set(vars(point)) == {"theta", "log_post", "weight", "mean",
                                    "h"}


def _hint_models(mesh, fem):
    return {"spde_nugget": _spde_problem(mesh, fem, nugget=True),
            "rw1_iid": _binomial_problem(),
            "binomial_bym": _binomial_bym_problem()}


@pytest.mark.parametrize("name", ["spde_nugget", "rw1_iid", "binomial_bym"])
@pytest.mark.parametrize("offset", [1e-3, 0.05, 2.0])
def test_hinted_approx_matches_cold(name, offset, monkeypatch, coarse_mesh10,
                                    coarse_fem10):
    # Newton started on the factor of a theta `offset` away in every
    # coordinate takes chord steps on it and ends within the Newton
    # tolerance of a cold start, on the factor that a grid point at its
    # theta and curvature rebuilds
    from prevmap.inference import HyperPoint, _factor
    model = _hint_models(coarse_mesh10, coarse_fem10)[name]
    theta = model.theta_init
    other = gaussian_approx(model, theta + offset)
    log = _factor_log(monkeypatch)
    cold = gaussian_approx(model, theta, other.mean)
    n_cold = len(log)
    hinted = gaussian_approx(model, theta, other.mean, other.factor)
    n_hinted = len(log) - n_cold
    scale = np.abs(cold.mean).max()
    assert np.abs(hinted.mean - cold.mean).max() <= 1e-9 * scale
    assert hinted.log_evidence == pytest.approx(cold.log_evidence, rel=1e-9)
    point = HyperPoint(theta, 0.0, 1.0, hinted.mean, hinted.factor.h)
    rebuilt = _factor(model, point)
    rhs = np.random.default_rng(2).standard_normal((model.latent_dim, 2))
    assert rebuilt.logdet == hinted.factor.logdet
    assert np.array_equal(rebuilt.solve(rhs), hinted.factor.solve(rhs))
    if offset == 1e-3:
        assert n_hinted < n_cold
    if model.constraint is not None:
        assert np.abs(model.constraint @ hinted.mean).max() <= 1e-10


def test_hint_of_another_pattern_or_for_a_gaussian_stage_is_dropped(
        monkeypatch):
    # a hint serves only the model and pattern it was built on, and a
    # Gaussian stage, whose one exact step builds its one factor anyway,
    # takes none: each result is the cold one bit for bit
    gaussian = _bym_problem()
    binomial, twin = _binomial_problem(), _binomial_problem()
    for model, hint_of in ((gaussian, gaussian), (binomial, twin)):
        theta = model.theta_init
        hint = gaussian_approx(hint_of, theta + 0.05).factor
        log = _factor_log(monkeypatch)
        cold = gaussian_approx(model, theta)
        n_cold = len(log)
        hinted = gaussian_approx(model, theta, hint=hint)
        assert len(log) - n_cold == n_cold
        assert np.array_equal(hinted.mean, cold.mean)
        assert hinted.log_evidence == cold.log_evidence
        assert hinted.n_iter == cold.n_iter
        monkeypatch.undo()


def _fit_factor_count(monkeypatch, model):
    """How many SparseCholesky factorizations fit_latent_model builds."""
    from prevmap import sparsela
    count = []
    init = sparsela.SparseCholesky.__init__

    def counting_init(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparsela.SparseCholesky, "__init__", counting_init)
    fit_latent_model(model)
    return len(count)


def test_fit_factor_budget(monkeypatch, coarse_mesh10, coarse_fem10):
    # a Newton refactorization per step, and one K per evaluation for
    # log|Q_prior|, built 244 factors on spde_nugget; the chord steps
    # across the theta search and the kept log|K| build at most 0.7 times
    # that.  BYM's Gaussian stage builds one factor per evaluation, as
    # before: 33.
    models = _models(coarse_mesh10, coarse_fem10)
    assert _fit_factor_count(monkeypatch, models["spde_nugget"]) \
        <= 0.7 * 244
    assert _fit_factor_count(monkeypatch, models["bym"]) == 33


def test_each_grid_point_is_refactored_once_after_the_grid(
        monkeypatch, coarse_mesh10, coarse_fem10):
    # the draws and the marginals share one pass over the grid: each
    # point's factor is rebuilt once, after the last one is freed, and the
    # results are those of sample_joint and marginals
    from prevmap.inference import sample_with_marginals
    model = _models(coarse_mesh10, coarse_fem10)["spde_nugget"]
    fit = fit_latent_model(model, thetas=[model.theta_init + d for d in
                                          (0.0, 0.3, -0.3)])
    field = _coords(model, ["field"])
    fixed = np.arange(model.slices["fixed"].start, model.latent_dim)
    coords = np.r_[field[::2], fixed]
    log = _factor_log(monkeypatch)
    samples, marg = sample_with_marginals(fit, 200, 6, coords, fixed)
    assert [h for h, _, _ in log] == [p.h for p in fit.points]
    assert all(h is p.h for (h, _, _), p in zip(log, fit.points))
    assert [alive for _, _, alive in log] == [0, 0, 0]
    assert len(set(samples.theta_index)) == 3
    alone = sample_joint(fit, 200, 6, coords)
    assert np.array_equal(samples.samples, alone.samples)
    assert np.array_equal(samples.theta_index, alone.theta_index)
    assert samples.samples.flags.f_contiguous
    ref = marginals(fit, fixed)
    for key in ("names", "mean", "sd", "q025", "q50", "q975"):
        assert np.array_equal(getattr(marg, key), getattr(ref, key))


def test_constrained_draws_and_variances_match_dense_oracle():
    # kriged draws are N(0, Sigma - Sigma A^T (A Sigma A^T)^{-1} A Sigma)
    # for the dense Sigma = Q_post^{-1}: the BYM model's ICAR block sums
    # to zero
    from prevmap.inference import _combination_variance
    model = _bym_problem()
    approx = gaussian_approx(model, model.theta_init)
    factor = approx.factor
    a, b, d = model.constraint, model.design.toarray(), model.latent_dim
    draws = factor.krige(factor.sample(np.eye(d)))
    assert np.abs(a @ draws).max() < 1e-12
    q_post = model.prior_precision(model.theta_init).toarray() \
        + (b.T * factor.h) @ b
    sigma = np.linalg.inv(0.5 * (q_post + q_post.T))
    sa = sigma @ a.T
    cov = sigma - sa @ np.linalg.solve(a @ sa, sa.T)
    scale = np.abs(cov).max()
    assert np.abs(draws @ draws.T - cov).max() <= 1e-10 * scale
    var = _combination_variance(factor, sp.identity(d, format="csr"))
    assert np.abs(var - np.diag(cov)).max() <= 1e-10 * scale
    x = np.random.default_rng(7).standard_normal((d, 3))
    once = factor.krige(x)
    assert np.abs(factor.krige(once) - once).max() \
        <= 1e-12 * np.abs(once).max()


def _random_model(kinds, fixed, n, seed):
    """A model with one prior block per entry of ``kinds``: "elim", a
    diagonal whose design has at most one nonzero per row and per column,
    on rows no earlier "elim" block observes; "diag", a diagonal whose
    design's first column observes every row; "tri", a random-walk
    precision.  Returns the model and its eliminated coordinates."""
    rng = np.random.default_rng(seed)
    comps, elim, start, free = [], [], 0, rng.permutation(n)
    for i, kind in enumerate(kinds):
        m = int(rng.integers(2 if kind == "tri" else 1, 7))
        if kind == "elim":
            rows, free = free[:m], free[m:]
            design = sp.csr_matrix(
                (rng.uniform(0.5, 2.0, len(rows)),
                 (rows, rng.permutation(m)[:len(rows)])), shape=(n, m))
            elim.extend(range(start, start + m))
        else:
            design = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.5)
            design[:, 0] = rng.uniform(0.5, 2.0, n)
            design = sp.csr_matrix(design)
        r = _rw1_precision(m) if kind == "tri" \
            else sp.diags(rng.uniform(0.5, 2.0, m))
        comps.append(LatentComponent(f"c{i}", design, ScaledPrecision(r, 1)))
        start += m
    model = LatentModel(GaussianObs(np.zeros(n), np.ones(n)), comps,
                        fixed_design=rng.normal(size=(n, 1)) if fixed
                        else None)
    return model, np.array(elim, dtype=int)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["elim", "diag", "tri"]), min_size=1,
                      max_size=3),
       fixed=st.booleans(), n=st.integers(2, 10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_posterior_factor_matches_dense_oracle_on_random_models(kinds, fixed,
                                                                n, seed):
    # Q_post = Q_prior + B^T diag(h) B from the blocks' data, with the
    # eliminable diagonals integrated out, against dense algebra
    from prevmap.inference import _PosteriorFactor
    model, elim = _random_model(kinds, fixed, n, seed)
    pat = model._pattern
    assert np.array_equal(pat.elim, elim)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 1.0, model.n_theta)
    h = rng.uniform(0.1, 3.0, n)
    factor = _PosteriorFactor(pat, pat.prior(model.prior_data(theta)), h,
                              None)
    b = model.design.toarray()
    q_post = model.prior_precision(theta).toarray() + (b.T * h) @ b
    assert factor.logdet == pytest.approx(np.linalg.slogdet(q_post)[1],
                                          rel=1e-10)
    rhs = rng.standard_normal((model.latent_dim, 2))
    ref = np.linalg.solve(q_post, rhs)
    assert np.abs(factor.solve(rhs) - ref).max() <= 1e-10 * np.abs(ref).max()
