"""Post-fit spatial targets computed from joint posterior samples.

Area averages integrate the prevalence surface expit(beta0 + S(x)) by
Monte Carlo over uniform points in each polygon; the household nugget is
deliberately excluded from the surface.  Excursion regions are built
greedily on the samples: grid points join the joint set in order of
pointwise probability for as long as the empirical probability that all
members exceed (fall below) the threshold stays at the target level, which
splits the map into above / below / indeterminate regions.

The surface is never held whole as a points x samples float matrix: it is
evaluated in tiles of at most ``geometry._BLOCK_CELLS`` values, small
enough that a tile, its gather of vertex values and every pass over it
stay in cache.  The per-point passes (median, excursions) reduce along
each point's row of samples, so their tiles are blocks of whole rows.  The
area averages reduce over the points of an area, so their tiles hold one
area each, walked over column chunks of the samples, none one column
wide.  Every reduction is per point or per area, in the same order in any
tile, so the results do not depend on the tile size, bit for bit.  The
excursion pass keeps only a points x samples int8 matrix of the sign of
each value against the threshold.
"""

from dataclasses import dataclass, field

import numpy as np

from ._csv import _write_csv
from .errors import InvalidGeometryError
from .geometry import (_ring_signed_area, _row_blocks, _row_medians,
                       _row_quantiles, _signed_areas, _tiles, project)

__all__ = [
    "JointSamples",
    "AreaAverageResult",
    "ExcursionResult",
    "EvalGrid",
    "SurfaceSpec",
    "sample_points_in_polygon",
    "area_averages",
    "pointwise_median",
    "simultaneous_excursions",
    "make_grid",
    "write_area_csv",
    "write_grid_csv",
]

# Most rejection-sampling candidates sample_points_in_polygon draws in all,
# and in a batch of (points missing) / (share filled) + 8.
_MAX_CANDIDATES = 2 ** 25
_MAX_BATCH = 2 ** 20
# Least share of its bounding box a polygon fills to be sampled by rejection,
# which draws 1 / ratio candidates a point.
_MIN_FILL = 1e-3


def sample_points_in_polygon(polygon, n, rng):
    """Uniform points in a polygon by rejection: candidates uniform in its
    bounding box or, below ``_MIN_FILL`` of it, in the ear triangles of its
    outer ring, each kept if the polygon contains it (not in a hole).
    Raises InvalidGeometryError, naming the polygon, at once if it fills
    less than n / _MAX_CANDIDATES of the region sampled, and once that many
    candidates have not given n points."""
    x0, y0, x1, y1 = polygon.bbox()
    box_area = (x1 - x0) * (y1 - y0)
    share = polygon.area() / box_area if box_area > 0 else 0.0
    if share < _MIN_FILL:
        draw = _triangle_sampler(polygon.rings[0], rng)
        share = polygon.area() / abs(_ring_signed_area(polygon.rings[0]))
    else:
        def draw(k):
            return np.column_stack([rng.uniform(x0, x1, k),
                                    rng.uniform(y0, y1, k)])
    if not share > n / _MAX_CANDIDATES:
        raise InvalidGeometryError(
            f"polygon {polygon.id}: fills {share:.3g} of the region sampled, "
            f"too little to draw {n} points from {_MAX_CANDIDATES} candidates")
    out = np.empty((n, 2))
    got = drawn = 0
    while drawn < _MAX_CANDIDATES:
        k = min(int((n - got) / share) + 8, _MAX_BATCH,
                _MAX_CANDIDATES - drawn)
        cand = draw(k)
        drawn += k
        keep = cand[polygon.contains(cand)][:n - got]
        out[got:got + len(keep)] = keep
        got += len(keep)
        if got == n:
            return out
    raise InvalidGeometryError(f"polygon {polygon.id}: rejection sampling "
                               f"drew {got} of {n} points from {drawn} "
                               f"candidates")


def _ear_clip(ring):
    """Index triples of triangles that tile a counter-clockwise simple ring
    exactly: each ear clipped is convex and holds no other vertex."""
    idx, tris, i, misses = list(range(len(ring))), [], 0, 0
    while len(idx) > 3:
        if misses > len(idx):
            raise InvalidGeometryError("outer ring has no ear to clip")
        i %= len(idx)
        t = [idx[i - 1], idx[i], idx[(i + 1) % len(idx)]]
        # side[e, j] > 0: vertex idx[j] lies left of the ear's edge e
        edges = zip(t, t[1:] + t[:1])
        side = np.array([_signed_areas(ring, np.column_stack(
            np.broadcast_arrays(u, v, idx))) for u, v in edges])
        held = (side >= 0).all(axis=0) & ~np.isin(idx, t)
        if side[0, (i + 1) % len(idx)] > 0 and not held.any():
            tris.append(t)
            del idx[i]
            misses = 0
        else:
            i, misses = i + 1, misses + 1
    return np.array(tris + [idx])


def _triangle_sampler(ring, rng):
    """draw(k): k points uniform in the ring, in its ear triangles."""
    simplices = _ear_clip(ring)
    a, b, c = (ring[simplices[:, k]] for k in range(3))
    p = np.abs(_signed_areas(ring, simplices))
    p /= p.sum()

    def draw(k):
        pick = rng.choice(len(simplices), size=k, p=p)
        u = rng.random(k)
        v = rng.random(k)
        flip = u + v > 1
        u[flip] = 1 - u[flip]
        v[flip] = 1 - v[flip]
        return a[pick] + u[:, None] * (b[pick] - a[pick]) \
            + v[:, None] * (c[pick] - a[pick])
    return draw


@dataclass
class JointSamples:
    """Joint posterior draws: one row per sample, one column per latent
    coordinate drawn (the full latent vector, or the ``coords`` of
    :func:`prevmap.inference.sample_joint` in their order), and the
    theta grid point each sample came from."""

    samples: np.ndarray
    theta_index: np.ndarray

    @property
    def num_samples(self):
        return self.samples.shape[0]


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


def _surface(samples, spec, points):
    """The sampled field and intercept behind the linear predictor at
    ``points``, which is ``field + b0``: no nugget, no covariates.

    Returns ``(out, field_at, b0)``: the out-of-mesh mask; ``field_at(rows,
    cols)``, the sampled field at the points in ``rows`` for the joint
    samples in ``cols``, a new C-contiguous block (points in rows) that the
    caller may overwrite; and the intercept's samples, None without
    ``beta0_index``.  The points are projected once, and each block weighs
    the field samples at the three vertices of each point's triangle.
    """
    proj = project(spec.mesh, points)
    w_t = np.ascontiguousarray(samples.samples[:, spec.field_slice].T)
    b0 = None
    if spec.beta0_index is not None:
        b0 = samples.samples[:, spec.beta0_index]

    def field_at(rows, cols=slice(None)):
        return proj.apply(w_t[:, cols], rows)

    return proj.out_of_mesh, field_at, b0


def _negated(block, b0, cols=slice(None)):
    """-(block + b0[cols]) in place; -block for ``b0`` None.  In one pass:
    (-b) - f is -(f + b) bit for bit, as rounding to nearest is symmetric,
    but for the sign of an exact zero sum, which exp and the threshold
    tests do not see."""
    if b0 is None:
        return np.negative(block, out=block)
    return np.subtract(-b0[cols], block, out=block)


def _expit_of_negated(neg):
    """expit(eta) = 1 / (1 + exp(neg)) of ``neg`` = -eta, in place."""
    np.exp(neg, out=neg)
    neg += 1.0
    return np.divide(1.0, neg, out=neg)


def area_averages(samples, spec, areas, points_per_area=100, seed=0):
    """Monte Carlo posterior of the area-average prevalences T_k.

    Each area averages the prevalence at its points inside the mesh; an
    area with none inside is flagged and gets NaN.
    """
    if points_per_area < 1:
        raise ValueError("points_per_area must be >= 1")
    rng = np.random.default_rng(seed)
    pts = np.vstack([sample_points_in_polygon(poly, points_per_area, rng)
                     for poly in areas])
    ids = [poly.id for poly in areas]
    t, ok = _area_draws(samples, spec, pts, points_per_area)
    k = len(areas)
    mean = np.full(k, np.nan)
    sd = np.full(k, np.nan)
    q = np.full((3, k), np.nan)
    if ok.any():
        mean[ok] = t[ok].mean(axis=1)
        sd[ok] = t[ok].std(axis=1, ddof=1) if samples.num_samples > 1 else 0.0
        q[:, ok] = _row_quantiles(t[ok], (0.025, 0.5, 0.975))
    return AreaAverageResult(
        area_ids=ids, mean=mean, sd=sd,
        q025=q[0], q50=q[1], q975=q[2],
        points_per_area=points_per_area,
        flagged=[ids[i] for i in np.flatnonzero(~ok)])


def _area_draws(samples, spec, points, unit):
    """Per joint sample, the mean prevalence over each group of ``unit``
    consecutive ``points`` inside the mesh: an (areas x samples) matrix,
    and whether each area has a point inside (its row is NaN if not)."""
    k, width = len(points) // unit, samples.num_samples
    out, field_at, b0 = _surface(samples, spec, points)
    n_in = unit - np.count_nonzero(out.reshape(k, unit), axis=1)
    t = np.empty((k, width))
    for rows, cols in _tiles(len(points), width, unit):
        prev = _expit_of_negated(_negated(field_at(rows, cols), b0, cols))
        # a point outside the mesh adds 0.0, which leaves its area's sum
        # as the sum over the points inside
        prev[out[rows]] = 0.0
        in_tile = slice(rows.start // unit, rows.stop // unit)
        t[in_tile, cols] = prev.reshape(-1, unit, prev.shape[1]).sum(axis=1)
    t /= np.maximum(n_in, 1)[:, None]
    t[n_in == 0] = np.nan
    return t, n_in > 0


def pointwise_median(samples, spec, points):
    """Per point: posterior median of the sampled linear predictor, NaN
    outside the mesh.  A ``SurfaceSpec`` without ``beta0_index`` gives the
    median of the field alone."""
    out, field_at, b0 = _surface(samples, spec, points)
    med = np.empty(len(out))
    for rows in _row_blocks(len(out), samples.num_samples):
        eta = field_at(rows)
        if b0 is not None:
            eta += b0
        med[rows] = _row_medians(eta)
    med[out] = np.nan
    return med


@dataclass
class ExcursionResult:
    exceed_prob: np.ndarray
    labels: np.ndarray          # strings: above / below / indeterminate
    joint_above_prob: float
    joint_below_prob: float
    mean: np.ndarray            # pointwise posterior mean of the prevalence
    sd: np.ndarray              # and its sd (ddof=1); NaN outside the mesh

    def above(self):
        return self.labels == "above"

    def below(self):
        return self.labels == "below"


def _greedy_joint_set(sign, want, order, level):
    """Largest prefix of ``order`` whose all-points-hold probability stays
    at or above ``level``; returns (member indices, achieved probability).

    ``sign`` holds points in rows and samples in columns: +1 above the
    threshold, -1 below and 0 at it.  A point holds in a sample where its
    sign is ``want``.  The prefix grows a row block at a time and stops in
    the first block where the joint probability, which never rises along
    the prefix, falls below ``level``.
    """
    width = sign.shape[1]
    held = np.ones(width, dtype=bool)
    stop, achieved = 0, 1.0
    for rows in _row_blocks(len(order), width):
        running = np.logical_and.accumulate(sign[order[rows]] == want, axis=0)
        running &= held
        joint = np.count_nonzero(running, axis=1) / width
        ok = joint >= level
        n_ok = len(ok) if ok.all() else int(np.argmin(ok))
        if n_ok:
            stop = rows.start + n_ok
            achieved = float(joint[n_ok - 1])
        if n_ok < len(ok):
            break
        held = running[-1]
    return order[:stop], achieved


def simultaneous_excursions(samples, spec, grid_points, u, alpha_level=0.05):
    """Three-region excursion map at threshold u and confidence 1 - alpha.

    Grid points are ranked by pointwise exceedance probability (ties broken
    by grid index); the above-set grows along this ranking while the joint
    empirical probability of all members exceeding u stays >= 1 - alpha,
    and symmetrically for the below-set on the reversed ranking.  The
    result also carries the pointwise posterior mean and sd (ddof=1) of
    the prevalence, from the same pass over the surface.
    """
    if not 0.0 < alpha_level <= 0.5:
        raise ValueError("alpha_level must lie in (0, 0.5]")
    width = samples.num_samples
    out, field_at, b0 = _surface(samples, spec, grid_points)
    # eta > thresh exactly when -eta < -thresh
    neg_thresh = -np.log(u / (1.0 - u))
    n = len(out)
    # +1 above the threshold, -1 below, 0 at it
    sign = np.empty((n, width), dtype=np.int8)
    probs = np.empty(n)
    mean = np.empty(n)
    sd = np.empty(n)
    for rows in _row_blocks(n, width):
        neg = _negated(field_at(rows), b0)
        np.less(neg, neg_thresh, out=sign[rows])
        probs[rows] = np.count_nonzero(sign[rows], axis=1) / width
        sign[rows] -= neg > neg_thresh
        prev = _expit_of_negated(neg)
        # mean and sd (ddof=1) with the arithmetic of np.mean and np.std:
        # the squared deviations from that same mean, summed, over width - 1
        # (over 1 for a single sample, whose sd is 0)
        mean[rows] = np.add.reduce(prev, axis=1) / width
        np.subtract(prev, mean[rows, None], out=prev)
        np.multiply(prev, prev, out=prev)
        sd[rows] = np.add.reduce(prev, axis=1) / max(width - 1, 1)
    np.sqrt(sd, out=sd)
    for v in (probs, mean, sd):
        v[out] = np.nan

    level = 1.0 - alpha_level
    valid = np.where(~out)[0]
    order_above = valid[np.lexsort((valid, -probs[valid]))]
    order_below = valid[np.lexsort((valid, probs[valid]))]
    above_set, p_above = _greedy_joint_set(sign, 1, order_above, level)
    below_set, p_below = _greedy_joint_set(sign, -1, order_below, level)

    labels = np.full(len(grid_points), "indeterminate", dtype=object)
    labels[above_set] = "above"
    labels[below_set] = "below"
    return ExcursionResult(
        exceed_prob=probs, labels=labels.astype(str), joint_above_prob=p_above,
        joint_below_prob=p_below, mean=mean, sd=sd)


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
        """Scatter per-point values back onto the (ny, nx) lattice: floats,
        or any objects with ``fill=None``."""
        out = np.full(self.mask.shape, fill,
                      dtype=object if fill is None else float)
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
    k = len(result.area_ids)
    _write_csv(path, ["area_id", "mean", "sd", "q025", "q50", "q975",
                      "points_per_area", "flagged"],
               [result.area_ids, result.mean, result.sd, result.q025,
                result.q50, result.q975, [result.points_per_area] * k,
                [int(aid in result.flagged) for aid in result.area_ids]])


def write_grid_csv(path, grid, mean=None, sd=None, exceed_prob=None,
                   labels=None):
    """One row per point of the :class:`EvalGrid` ``grid``, its x and y
    first, then each of the given per-point columns."""
    # each axis value is formatted once, not once per point: a point's
    # coordinates are its lattice axes' values, bit for bit (make_grid)
    iy, ix = (k.tolist() for k in np.nonzero(grid.mask))
    x, y = (list(map(repr, v.tolist())) for v in (grid.x, grid.y))
    cols = {"x": [x[j] for j in ix], "y": [y[i] for i in iy],
            "mean": mean, "sd": sd, "exceed_prob": exceed_prob,
            "label": labels}
    cols = {k: v for k, v in cols.items() if v is not None}
    _write_csv(path, list(cols), list(cols.values()))
