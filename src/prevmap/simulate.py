"""Synthetic two-stage prevalence surveys over a Matern field.

The generator is deliberately independent of the mesh approximation under
test: the truth surface on the reporting lattice comes from circulant
embedding (exact stationary simulation on a regular grid), with cluster
values read off the same surface so that truth and data share one
realization.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._csv import _read_csv, _write_csv
from .errors import DataError, reading
from .functionals import _expit_of_negated, sample_points_in_polygon
from .matern import MaternParams, matern_cov, practical_range, sigma_from_tau
from .survey import SurveyFrame, design_weights

__all__ = [
    "SimOutput",
    "TruthLattice",
    "lattice_field",
    "simulate_survey",
    "read_locations_csv",
    "read_household_size_csv",
    "write_truth_lattice_csv",
    "write_truth_areas_csv",
]

# lattice_field pads the circulant torus by this many practical ranges and,
# on an indefinite embedding, doubles the padding up to _MAX_GROW times.
_PAD_RANGES = 4.0
_MAX_GROW = 3
_HOUSEHOLD_SIZES = (tuple(range(1, 13)), tuple([1.0 / 12] * 12))


@dataclass
class TruthLattice:
    x: np.ndarray
    y: np.ndarray
    field: np.ndarray          # (ny, nx) field values S
    prevalence: np.ndarray     # (ny, nx), NaN outside the boundary
    inside: np.ndarray         # (ny, nx) bool


@dataclass
class SimOutput:
    frame: SurveyFrame
    truth: TruthLattice
    area_truth: dict           # area id -> true T_k


def _next_fast_len(n):
    """Smallest 2**a * 3**b * 5**c >= n: the FFT lengths pocketfft
    transforms fastest, as ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()  # the smallest power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def lattice_field(xs, ys, params, rng):
    """Stationary Matern field on a regular lattice by circulant embedding.

    Returns an array of shape (len(ys), len(xs)).  The torus is padded by
    ``_PAD_RANGES`` practical ranges; on an indefinite embedding the padding
    doubles up to ``_MAX_GROW`` times before small negative eigenvalues are
    clipped with a warning.
    """
    hx = float(xs[1] - xs[0]) if len(xs) > 1 else 1.0
    hy = float(ys[1] - ys[0]) if len(ys) > 1 else 1.0
    nx, ny = len(xs), len(ys)
    rng_len = practical_range(params.kappa, params.nu)
    pad = _PAD_RANGES
    for attempt in range(_MAX_GROW + 1):
        mx = _next_fast_len(nx + int(np.ceil(pad * rng_len / hx)))
        my = _next_fast_len(ny + int(np.ceil(pad * rng_len / hy)))
        ix = np.minimum(np.arange(mx), mx - np.arange(mx))
        iy = np.minimum(np.arange(my), my - np.arange(my))
        # a torus distance depends only on the folded lags (ix, iy): take
        # the covariance once per pair of them and spread it over the torus
        lags = np.hypot(np.arange(ix.max() + 1)[:, None] * hx,
                        np.arange(iy.max() + 1)[None, :] * hy)
        cov = matern_cov(lags, params)[np.ix_(ix, iy)]
        lam = np.fft.fft2(cov).real
        if lam.min() >= -1e-9 * lam.max():
            break
        pad *= 2
    else:
        warnings.warn("circulant embedding not nonnegative definite; "
                      "clipping eigenvalues", stacklevel=2)
    lam = np.maximum(lam, 0.0)
    z = rng.standard_normal((mx, my)) + 1j * rng.standard_normal((mx, my))
    f = np.fft.ifft2(np.fft.fft2(z) * np.sqrt(lam / (mx * my)))
    # real part is one exact field; transpose to (ny, nx)
    return (np.real(f) * np.sqrt(mx * my))[:nx, :ny].T


def _bilinear(xs, ys, grid, pts):
    """Bilinear interpolation of grid (ny, nx) at pts; clamped to the edge."""
    fx = np.clip((pts[:, 0] - xs[0]) / (xs[1] - xs[0]), 0, len(xs) - 1 - 1e-12)
    fy = np.clip((pts[:, 1] - ys[0]) / (ys[1] - ys[0]), 0, len(ys) - 1 - 1e-12)
    ix = fx.astype(int)
    iy = fy.astype(int)
    tx = fx - ix
    ty = fy - iy
    return ((1 - tx) * (1 - ty) * grid[iy, ix]
            + tx * (1 - ty) * grid[iy, ix + 1]
            + (1 - tx) * ty * grid[iy + 1, ix]
            + tx * ty * grid[iy + 1, ix + 1])


def _span(values, lo, hi):
    """The slice of the sorted array ``values`` that lies in [lo, hi]."""
    return slice(int(np.searchsorted(values, lo, side="left")),
                 int(np.searchsorted(values, hi, side="right")))


def simulate_survey(cfg, boundary, household_sizes=None, areas=None,
                    cluster_locations=None):
    """Generate a full synthetic survey plus its truth surfaces.

    ``cfg`` is the parsed (so validated) pipeline configuration;
    ``household_sizes`` a pair from :func:`read_household_size_csv`, or by
    default 1 to 12 members equally likely.  Cluster locations default to
    uniform draws in the boundary polygon; given ones must lie in it (the
    field is clamped to the truth lattice's edge, and ``prevmap simulate``
    refuses a location file that does not).  Households per cluster are
    uniform on [m_min, m_max], member counts follow the household sizes,
    and outcomes are binomial with logit p = beta0 + S_i + eps_ij.  Design
    weights are the two-stage reciprocals.  The truth lattice
    (truth_resolution points a side over the boundary bbox) carries the
    same field realization used for clusters.  With ``areas``, each
    cluster takes the id of the first area that contains it, and a cluster
    in no area raises :class:`DataError` naming ``cfg.areas``; a boundary
    too thin to sample raises one naming ``cfg.boundary``.
    """
    rng = np.random.default_rng(cfg.seed)
    params = MaternParams(sigma_from_tau(cfg.sim_tau, cfg.sim_kappa, 1.0),
                          cfg.sim_kappa, nu=1.0)

    res = cfg.sim_truth_resolution
    x0, y0, x1, y1 = boundary.bbox()
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    field = lattice_field(xs, ys, params, rng)

    if cluster_locations is None:
        with reading(cfg.boundary):
            locs = sample_points_in_polygon(boundary, cfg.sim_n_clusters, rng)
    else:
        locs = np.atleast_2d(np.asarray(cluster_locations, dtype=float))
    n_cl = len(locs)
    s_cluster = _bilinear(xs, ys, field, locs)

    m_i = rng.integers(cfg.sim_m_min, cfg.sim_m_max + 1, size=n_cl)
    hh_cluster = np.repeat(np.arange(n_cl), m_i)
    n_households = int(m_i.sum())
    sizes, probs = household_sizes or _HOUSEHOLD_SIZES
    sizes = rng.choice(np.asarray(sizes), size=n_households,
                       p=np.asarray(probs))
    eps = rng.normal(0.0, np.sqrt(cfg.sim_nugget_var), size=n_households) \
        if cfg.sim_nugget_var > 0 else np.zeros(n_households)
    p_ij = _expit_of_negated(-(cfg.sim_beta0 + s_cluster[hh_cluster] + eps))
    y_ij = rng.binomial(sizes.astype(int), p_ij)
    weights = design_weights(n_cl, cfg.total_psu, m_i[hh_cluster],
                             cfg.households_per_ea)

    if areas:
        area_of_cluster = np.empty(n_cl, dtype=object)
        found = np.zeros(n_cl, dtype=bool)
        for poly in areas:
            hit = poly.contains(locs) & ~found
            area_of_cluster[hit] = poly.id
            found |= hit
        if not found.all():
            x, y = locs[np.argmin(found)]
            raise DataError(f"{cfg.areas}: {int(np.sum(~found))} of {n_cl} "
                            f"clusters lie in no area, the first at "
                            f"({x:.6g}, {y:.6g})")
        area_ids = area_of_cluster[hh_cluster]
    else:
        area_ids = np.zeros(n_households, dtype=int)

    hh_index = np.concatenate([np.arange(m) for m in m_i])
    frame = SurveyFrame(
        cluster_id=hh_cluster,
        area_id=np.asarray(area_ids),
        x=locs[hh_cluster, 0],
        y=locs[hh_cluster, 1],
        household_id=hh_index,
        n_members=sizes,
        positives=y_ij,
        weight=weights,
    )

    grid_pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])
    inside = boundary.contains(grid_pts).reshape(res, res)
    prevalence = _expit_of_negated(-(cfg.sim_beta0 + field))
    prev_masked = np.where(inside, prevalence, np.nan)
    truth = TruthLattice(x=xs, y=ys, field=field, prevalence=prev_masked,
                         inside=inside)

    area_truth = {}
    if areas:
        # contains() tests only points in a polygon's bounding box grown by
        # its tolerance: hand it just that block of the lattice, row-major
        lattice = grid_pts.reshape(res, res, 2)
        for poly in areas:
            bx0, by0, bx1, by1 = poly.bbox()
            block = (_span(ys, by0 - poly._tol, by1 + poly._tol),
                     _span(xs, bx0 - poly._tol, bx1 + poly._tol))
            in_area = poly.contains(lattice[block].reshape(-1, 2))
            if in_area.any():
                area_truth[poly.id] = float(
                    prevalence[block].ravel()[in_area].mean())
    return SimOutput(frame=frame, truth=truth, area_truth=area_truth)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_locations_csv(path):
    with reading(path):
        x, y = _read_csv(path, ["x", "y"])
        pts = np.array([(float(a), float(b)) for a, b in zip(x, y)])
        if not len(pts) or not np.isfinite(pts).all():
            raise ValueError("column x, y: no rows or a non-finite value")
    return pts


def read_household_size_csv(path):
    with reading(path):
        sizes, probs = _read_csv(path, ["size", "probability"])
        sizes, probs = tuple(map(int, sizes)), tuple(map(float, probs))
        if min(sizes, default=0) < 0:
            raise ValueError("column size: must be non-negative")
        if min(probs, default=0) < 0 or abs(sum(probs) - 1) > 1e-9:
            raise ValueError("column probability: must be non-negative "
                             "and sum to 1")
    return sizes, probs


def write_truth_lattice_csv(path, truth):
    ny, nx = len(truth.y), len(truth.x)
    # each coordinate is formatted once, not once per lattice row or column
    x, y = (list(map(repr, v.tolist())) for v in (truth.x, truth.y))
    _write_csv(path, ["x", "y", "field", "prevalence", "inside"],
               [x * ny, [c for c in y for _ in range(nx)],
                truth.field.ravel(), truth.prevalence.ravel(),
                truth.inside.ravel()])


def write_truth_areas_csv(path, area_truth):
    _write_csv(path, ["area_id", "t_true"],
               [list(area_truth), [float(t) for t in area_truth.values()]])
