"""The numpy Matern module: its Bessel function against scipy's, and the
covariance at the ends of its range."""

import numpy as np
import pytest
from scipy.special import gamma, kv

from prevmap.matern import MaternParams, _kv, matern_cov


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_kv_matches_scipy(nu):
    x = np.geomspace(1e-6, 700.0, 4001)
    want = kv(nu, x)
    # scipy returns 0 above x ~ 697.9, where K_nu(x) is ~4e-305
    pos = want > 0
    assert pos.sum() > 3990
    got = _kv(nu, x)
    assert np.abs(got[pos] / want[pos] - 1.0).max() <= 1e-12
    assert np.all(got[~pos] < 1e-304)


def test_matern_cov_is_the_variance_at_distance_zero():
    p = MaternParams(sigma2=2.5, kappa=1.3, nu=1.0)
    assert matern_cov(0.0, p) == 2.5
    cov = matern_cov(np.array([0.0, 1.0, 0.0]), p)
    assert cov[0] == cov[2] == 2.5
    assert 0.0 < cov[1] < 2.5


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_matern_cov_is_zero_where_kv_underflows(nu):
    p = MaternParams(sigma2=1.0, kappa=2.0, nu=nu)
    kd = np.array([800.0, 1e4, 1e100])
    assert np.all(kv(nu, kd) == 0.0)
    cov = matern_cov(kd / p.kappa, p)
    assert cov.tolist() == [0.0, 0.0, 0.0]


def test_matern_cov_refuses_a_negative_distance():
    p = MaternParams(sigma2=1.0, kappa=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        matern_cov(np.array([0.5, -1e-300]), p)
    with pytest.raises(ValueError, match="nonnegative"):
        matern_cov(-1.0, p)


@pytest.mark.parametrize("nu", [1.0, 3.0])
def test_matern_cov_is_the_variance_at_tiny_distances(nu):
    # (kappa d) ** nu underflows while _kv overflows (for nu = 3 from
    # 1e-103 down, for nu = 1 below 2.2e-308): the limit is sigma2, not
    # their product's NaN or inf
    p = MaternParams(sigma2=2.0, kappa=1.0, nu=nu)
    d = np.array([0.0, 1e-310, 1e-300, 1e-200, 1e-110, 1.0, np.inf])
    with np.errstate(all="ignore"):
        cov = matern_cov(d, p)
    assert cov[0] == 2.0
    assert cov[1:5] == pytest.approx(2.0, rel=1e-15)
    mid = 2.0 * 2.0 ** (1 - nu) / gamma(nu) * kv(nu, 1.0)
    assert cov[5] == pytest.approx(mid, rel=1e-12)
    assert cov[6] == 0.0
