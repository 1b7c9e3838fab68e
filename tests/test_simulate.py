"""Synthetic survey generator: circulant-embedding field moments, its FFT
lengths and the bytes of the survey it writes."""

import hashlib
import os

import numpy as np
from scipy.fft import next_fast_len

from prevmap import cli
from prevmap.config import load_config
from prevmap.functionals import _expit_of_negated
from prevmap.geometry import Polygon
from prevmap.simulate import _next_fast_len, lattice_field, simulate_survey
from prevmap.matern import MaternParams, matern_cov

from test_cli import _write_config


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


def test_simulate_writes_the_pinned_bytes(tmp_path):
    # the small pipeline config's survey and truth, byte for byte:
    # a change to the generator, its area test or the CSV writer that
    # moves one of them shows here
    ini = _write_config(str(tmp_path))
    assert cli.main(["simulate", "-c", ini]) == 0
    digests = {}
    for name in ("frame.csv", "truth_lattice.csv", "truth_areas.csv"):
        with open(os.path.join(tmp_path, "out", name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == {
        "frame.csv": "b7f5e9b52413b46d8672bf59dfb05b29"
                     "ad17c7233e5b87be166514b0ac862fae",
        "truth_lattice.csv": "4d8d5f4ea038fc165917042a2f38a474"
                             "cb3005cf3ab9f0dd5889b300f7499924",
        "truth_areas.csv": "8a2aea1a7fd3955422f90c02cbd734b6"
                           "1944eacb2bb7283a4306342f7cf20b26",
    }


def test_area_truth_is_the_mean_over_the_whole_lattice_mask(tmp_path):
    # each area is tested on the lattice block inside its grown bounding
    # box; the test of every lattice point, kept here as the reference,
    # gives the same means bit for bit.  Triangles, so that a block holds
    # points outside its area.
    cfg = load_config(_write_config(str(tmp_path)))
    boundary = Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)]])
    areas = []
    for x0, y0 in ((0, 0), (5, 0), (0, 5), (5, 5)):
        x1, y1 = x0 + 5, y0 + 5
        areas += [Polygon([[(x0, y0), (x1, y0), (x1, y1)]], id=f"{x0}{y0}a"),
                  Polygon([[(x0, y0), (x1, y1), (x0, y1)]], id=f"{x0}{y0}b")]
    sim = simulate_survey(cfg, boundary, areas=areas)
    xs, ys = sim.truth.x, sim.truth.y
    pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])
    prevalence = _expit_of_negated(-(cfg.sim_beta0 + sim.truth.field))
    want = {}
    for poly in areas:
        in_area = poly.contains(pts).reshape(len(ys), len(xs))
        if in_area.any():
            want[poly.id] = float(prevalence[in_area].mean())
    assert len(want) == len(areas)
    assert sim.area_truth == want
