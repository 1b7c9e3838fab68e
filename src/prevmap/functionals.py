"""Post-fit spatial targets computed from joint posterior samples.

Area averages integrate the prevalence surface expit(beta0 + S(x)) by
Monte Carlo over uniform points in each polygon; the household nugget is
deliberately excluded from the surface.  Excursion regions are built
greedily on the sample matrix: grid points join the joint set in order of
pointwise probability for as long as the empirical probability that all
members exceed (fall below) the threshold stays at the target level, which
splits the map into above / below / indeterminate regions.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from .geometry import project

__all__ = [
    "AreaAverageResult",
    "ExcursionResult",
    "EvalGrid",
    "SurfaceSpec",
    "sample_points_in_polygon",
    "area_averages",
    "pointwise_exceedance",
    "simultaneous_excursions",
    "make_grid",
    "write_area_csv",
    "write_grid_csv",
]

_LABELS = ("below", "indeterminate", "above")


def sample_points_in_polygon(polygon, n, rng, max_tries=1000):
    """Uniform points in a polygon by bounding-box rejection.

    Polygons thinner than 1e-6 of their bounding box fall back to a
    triangulation-based direct sampler.
    """
    x0, y0, x1, y1 = polygon.bbox()
    box_area = (x1 - x0) * (y1 - y0)
    ratio = polygon.area() / box_area if box_area > 0 else 0.0
    if ratio < 1e-6:
        return _triangle_sampler(polygon, n, rng)
    out = np.empty((n, 2))
    got = 0
    for _ in range(max_tries):
        need = n - got
        batch = max(int(need / max(ratio, 1e-3)) + 8, need)
        cand = np.column_stack([rng.uniform(x0, x1, batch),
                                rng.uniform(y0, y1, batch)])
        keep = cand[polygon.contains(cand)]
        take = min(len(keep), need)
        out[got:got + take] = keep[:take]
        got += take
        if got == n:
            return out
    raise RuntimeError("rejection sampling failed to fill the polygon")


def _triangle_sampler(polygon, n, rng):
    ring = polygon.rings[0]
    tri = Delaunay(ring)
    cent = ring[tri.simplices].mean(axis=1)
    keep = polygon.contains(cent)
    simplices = tri.simplices[keep]
    a = ring[simplices[:, 0]]
    b = ring[simplices[:, 1]]
    c = ring[simplices[:, 2]]
    areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                         - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    p = areas / areas.sum()
    pick = rng.choice(len(simplices), size=n, p=p)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1
    u[flip] = 1 - u[flip]
    v[flip] = 1 - v[flip]
    return a[pick] + u[:, None] * (b[pick] - a[pick]) \
        + v[:, None] * (c[pick] - a[pick])


@dataclass
class AreaAverageResult:
    area_ids: list
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q50: np.ndarray
    q975: np.ndarray
    points_per_area: int
    flagged: list = field(default_factory=list)  # area ids with no mesh coverage


@dataclass
class SurfaceSpec:
    """Minimal description of the prevalence surface inside a sample matrix:
    the mesh, the field coefficient columns, and the intercept column."""

    mesh: object
    field_slice: slice
    beta0_index: int = None


def _spec_of(model):
    if isinstance(model, SurfaceSpec):
        return model
    mesh = model.meta.get("mesh")
    if mesh is None:
        raise ValueError("model.meta['mesh'] is required to evaluate the "
                         "field at new locations")
    b0 = None
    if "beta0" in model.fixed_names:
        b0 = model.slices["fixed"].start + model.fixed_names.index("beta0")
    return SurfaceSpec(mesh=mesh, field_slice=model.slices["field"],
                       beta0_index=b0)


def _surface_matrix(samples, model, points):
    """Sampled prevalence-scale linear predictor at arbitrary points.

    Rows are points, columns are joint samples; the linear predictor uses
    the intercept and the projected field only (no nugget, no covariates).
    """
    spec = _spec_of(model)
    proj = project(spec.mesh, points)
    w = samples.samples[:, spec.field_slice]
    eta = proj.matrix @ w.T
    if spec.beta0_index is not None:
        eta = eta + samples.samples[:, spec.beta0_index][None, :]
    return eta, proj.out_of_mesh


def area_averages(samples, model, areas, points_per_area=100, seed=0):
    """Monte Carlo posterior of the area-average prevalences T_k."""
    if points_per_area < 1:
        raise ValueError("points_per_area must be >= 1")
    rng = np.random.default_rng(seed)
    pts = []
    ids = []
    for poly in areas:
        pts.append(sample_points_in_polygon(poly, points_per_area, rng))
        ids.append(poly.id)
    pts = np.vstack(pts)
    eta, out = _surface_matrix(samples, model, pts)
    prev = 1.0 / (1.0 + np.exp(-eta))
    k = len(areas)
    t = np.empty((k, samples.num_samples))
    flagged = []
    for i in range(k):
        sl = slice(i * points_per_area, (i + 1) * points_per_area)
        good = ~out[sl]
        if not good.any():
            flagged.append(ids[i])
            t[i] = np.nan
            continue
        t[i] = prev[sl][good].mean(axis=0)
    mean = np.full(k, np.nan)
    sd = np.full(k, np.nan)
    q = np.full((3, k), np.nan)
    ok = ~np.isnan(t[:, 0])
    if ok.any():
        mean[ok] = t[ok].mean(axis=1)
        sd[ok] = t[ok].std(axis=1, ddof=1) if samples.num_samples > 1 else 0.0
        q[:, ok] = np.quantile(t[ok], (0.025, 0.5, 0.975), axis=1)
    return AreaAverageResult(
        area_ids=ids, mean=mean, sd=sd,
        q025=q[0], q50=q[1], q975=q[2],
        points_per_area=points_per_area, flagged=flagged)


def pointwise_exceedance(samples, model, grid_points, u):
    """Per grid point: fraction of joint samples with prevalence above u."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    eta, out = _surface_matrix(samples, model, grid_points)
    thresh = np.log(u / (1.0 - u))
    probs = (eta > thresh).mean(axis=1)
    probs[out] = np.nan
    return probs


@dataclass
class ExcursionResult:
    grid_points: np.ndarray
    exceed_prob: np.ndarray
    labels: np.ndarray          # strings: above / below / indeterminate
    u: float
    alpha_level: float
    joint_above_prob: float
    joint_below_prob: float

    def above(self):
        return self.labels == "above"

    def below(self):
        return self.labels == "below"

    def indeterminate(self):
        return self.labels == "indeterminate"


def _greedy_joint_set(indicator, order, level):
    """Largest prefix of ``order`` whose all-points-hold probability stays
    at or above ``level``; returns (member indices, achieved probability)."""
    if len(order) == 0:
        return np.empty(0, dtype=int), 1.0
    running = np.logical_and.accumulate(indicator[:, order], axis=1)
    joint = running.mean(axis=0)
    ok = joint >= level
    if not ok[0]:
        return np.empty(0, dtype=int), 1.0
    stop = len(ok) if ok.all() else int(np.argmin(ok))
    return order[:stop], float(joint[stop - 1])


def simultaneous_excursions(samples, model, grid_points, u, alpha_level=0.05,
                            eta=None):
    """Three-region excursion map at threshold u and confidence 1 - alpha.

    Grid points are ranked by pointwise exceedance probability (ties broken
    by grid index); the above-set grows along this ranking while the joint
    empirical probability of all members exceeding u stays >= 1 - alpha,
    and symmetrically for the below-set on the reversed ranking.
    ``eta`` may pass in the (points x samples matrix, out-of-mesh mask)
    pair that ``_surface_matrix`` returns at ``grid_points``.
    """
    if not 0.0 < alpha_level <= 0.5:
        raise ValueError("alpha_level must lie in (0, 0.5]")
    if eta is None:
        eta = _surface_matrix(samples, model, grid_points)
    eta, out = eta
    eta = eta.T  # samples x points
    thresh = np.log(u / (1.0 - u))
    above_ind = eta > thresh
    below_ind = eta < thresh
    probs = above_ind.mean(axis=0)
    probs[out] = np.nan

    level = 1.0 - alpha_level
    valid = np.where(~out)[0]
    order_above = valid[np.lexsort((valid, -probs[valid]))]
    order_below = valid[np.lexsort((valid, probs[valid]))]
    above_set, p_above = _greedy_joint_set(above_ind, order_above, level)
    below_set, p_below = _greedy_joint_set(below_ind, order_below, level)

    labels = np.full(len(grid_points), "indeterminate", dtype=object)
    labels[above_set] = "above"
    labels[below_set] = "below"
    return ExcursionResult(
        grid_points=np.asarray(grid_points), exceed_prob=probs,
        labels=labels.astype(str), u=u, alpha_level=alpha_level,
        joint_above_prob=p_above, joint_below_prob=p_below)


# ---------------------------------------------------------------------------
# evaluation grid
# ---------------------------------------------------------------------------

@dataclass
class EvalGrid:
    """Regular lattice clipped to a polygon, stored row-major."""

    x: np.ndarray            # axis values, length nx
    y: np.ndarray            # axis values, length ny
    mask: np.ndarray         # (ny, nx) True where inside the polygon
    points: np.ndarray       # (n_inside, 2), row-major over (y, x)

    @property
    def shape(self):
        return self.mask.shape

    def full(self, values, fill=np.nan):
        """Scatter per-point values back onto the (ny, nx) lattice."""
        out = np.full(self.mask.shape, fill, dtype=float)
        out[self.mask] = values
        return out


def make_grid(polygon, spacing):
    """Regular lattice over the polygon bbox clipped to the polygon."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    x0, y0, x1, y1 = polygon.bbox()
    xs = np.arange(x0 + spacing / 2, x1, spacing)
    ys = np.arange(y0 + spacing / 2, y1, spacing)
    xx, yy = np.meshgrid(xs, ys)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    mask = polygon.contains(pts).reshape(len(ys), len(xs))
    return EvalGrid(x=xs, y=ys, mask=mask, points=pts[mask.ravel()])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_area_csv(path, result):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["area_id", "mean", "sd", "q025", "q50", "q975",
                    "points_per_area", "flagged"])
        for i, aid in enumerate(result.area_ids):
            w.writerow([aid, repr(float(result.mean[i])),
                        repr(float(result.sd[i])),
                        repr(float(result.q025[i])),
                        repr(float(result.q50[i])),
                        repr(float(result.q975[i])),
                        result.points_per_area,
                        int(aid in result.flagged)])


def write_grid_csv(path, points, mean=None, sd=None, exceed_prob=None,
                   labels=None):
    n = len(points)
    cols = {"mean": mean, "sd": sd, "exceed_prob": exceed_prob,
            "label": labels}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["x", "y"] + [k for k, v in cols.items() if v is not None]
        w.writerow(header)
        for i in range(n):
            row = [repr(float(points[i, 0])), repr(float(points[i, 1]))]
            for k, v in cols.items():
                if v is None:
                    continue
                row.append(v[i] if k == "label" else repr(float(v[i])))
            w.writerow(row)
