"""Synthetic survey generator: circulant-embedding field moments and its
FFT lengths."""

import numpy as np
from scipy.fft import next_fast_len

from prevmap.simulate import _next_fast_len, lattice_field
from prevmap.matern import MaternParams, matern_cov


def test_lattice_field_moments_match_matern():
    # unequal x and y spacings, so a transposed lattice shows up as a wrong
    # covariance at the lags below
    params = MaternParams(sigma2=0.5, kappa=float(np.exp(0.5)), nu=1.0)
    hx, hy = 0.25, 0.5
    xs = np.arange(24) * hx
    ys = np.arange(16) * hy
    n = 2000
    rng = np.random.default_rng(0)
    fields = np.array([lattice_field(xs, ys, params, rng) for _ in range(n)])
    assert fields.shape == (n, len(ys), len(xs))

    j, i = 8, 10
    x = fields[:, j, i]
    # zero-mean field: E[x^2] = sigma2, with Monte Carlo sd sigma2 sqrt(2/n)
    se = params.sigma2 * np.sqrt(2.0 / n)
    assert abs(np.mean(x * x) - params.sigma2) < 4 * se
    # E[x y] = C(h), with Monte Carlo sd sqrt((sigma2^2 + C(h)^2) / n)
    for dj, di in ((0, 4), (1, 0), (2, 3)):
        y = fields[:, j + dj, i + di]
        c = float(matern_cov(np.array(np.hypot(di * hx, dj * hy)), params))
        se = np.sqrt((params.sigma2 ** 2 + c * c) / n)
        assert abs(np.mean(x * y) - c) < 4 * se, (dj, di)


def test_next_fast_len_is_scipys_real_length():
    # every length up to 20,000, then a spread of larger ones and the
    # 5-smooth numbers themselves and their neighbours near 2 ** 20
    rng = np.random.default_rng(2)
    smooth = [2 ** 20, 3 ** 12, 5 ** 8, 2 ** 7 * 3 ** 5 * 5 ** 2]
    lengths = (list(range(1, 20_001))
               + rng.integers(20_001, 2_000_000, 2000).tolist()
               + [m + d for m in smooth for d in (-1, 0, 1)])
    for n in lengths:
        assert _next_fast_len(n) == next_fast_len(n, real=True), n
