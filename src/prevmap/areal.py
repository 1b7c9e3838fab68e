"""Discrete-space smoothing of area-level direct estimates.

The classic two-component convolution model: an intrinsic CAR term with
precision proportional to (degree - adjacency) plus an unstructured iid
term, fitted with the latent Gaussian engine's Gaussian observation stage
since the logit-scale direct estimates arrive with fixed, known variances.
The CAR term is an exact intrinsic GMRF (:class:`IcarPrecision`, no ridge)
that sums to zero over each connected component.

One sparse area map, built by :func:`_build_latent_model`, lays the model
out: it takes the latent vector [S (ICAR), eps (iid), beta0*] to the K
area values eta_k = S_k + eps_k + beta0*.  Its observed rows are the
observation design, and :func:`fit_bym` summarizes eta_k with all of them.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ._csv import _read_csv
from .errors import DataError, reading
from .inference import (GaussianObs, LatentComponent, LatentModel, _grid_pass,
                        _mixture, fit_latent_model)
from .sparsela import SparseCholesky

__all__ = [
    "AdjacencyGraph",
    "BymModel",
    "BymFit",
    "IcarPrecision",
    "icar_precision",
    "fit_bym",
    "adjacency_from_csv",
    "adjacency_from_polygons",
]

# adjacency_from_polygons matches boundary vertices on this lattice
_VERTEX_TOL = 1e-9
# where the search for the (ICAR, iid) log precisions starts; a graph
# without an ICAR term starts from the iid one alone
_THETA_INIT = (np.log(10.0), np.log(10.0))


@dataclass
class AdjacencyGraph:
    """Symmetric neighborhood structure over K areas."""

    n_areas: int
    edges: list  # list of (i, j) with i < j

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loop in adjacency graph")
            if not (0 <= i < self.n_areas and 0 <= j < self.n_areas):
                raise ValueError("edge index out of range")
            seen.add((min(i, j), max(i, j)))
        self.edges = sorted(seen)

    def adjacency(self):
        e = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        w = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                          shape=(self.n_areas, self.n_areas))
        return (w + w.T).tocsr()

    def component_labels(self):
        return sp.csgraph.connected_components(
            self.adjacency(), directed=False)[1]


def icar_precision(graph):
    """Intrinsic CAR structure matrix D - W (positive semidefinite)."""
    w = graph.adjacency()
    d = sp.diags(np.asarray(w.sum(axis=1)).ravel())
    return (d - w).tocsc()


class IcarPrecision:
    """Intrinsic CAR precision exp(theta) R, R = D - W, over areas in
    components of two or more (``labels``).  :meth:`logdet` is the
    generalized log-determinant rank * theta + log|R|*, where by the
    matrix-tree theorem log|R|* sums, per component, log n_c and log|R_c|
    with one row and column removed.  A component with no ``observed``
    area gets 1 1^T / n_c added to its block, since no data reach its
    constant; the term is zero on its sum-to-zero constraint.
    ``constraint`` holds those constraints, one row per component.
    """

    def __init__(self, r, labels, observed):
        _, first, comp, sizes = np.unique(labels, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
        keep = np.setdiff1d(np.arange(len(comp)), first)
        self.rank = len(keep)
        self._log_det = float(np.log(sizes).sum()) \
            + SparseCholesky(r[keep][:, keep]).logdet
        blind = np.flatnonzero(np.bincount(comp, weights=observed)[comp] == 0)
        e = sp.csr_matrix((np.ones(len(blind)), (blind, comp[blind])),
                          shape=(len(comp), len(sizes)))
        self._r = (r + e @ sp.diags(1.0 / sizes) @ e.T).tocsc()
        self.constraint = (comp == np.arange(len(sizes))[:, None]) * 1.0

    def __call__(self, theta):
        return np.exp(theta[0]) * self._r

    def logdet(self, theta):
        return self.rank * theta[0] + self._log_det


@dataclass
class BymModel:
    """Direct estimates with fixed variances plus the smoothing structure."""

    y: np.ndarray
    v_hat: np.ndarray
    graph: AdjacencyGraph

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.v_hat = np.asarray(self.v_hat, dtype=float)
        # an area without a finite estimate is predicted only
        self.observed = np.isfinite(self.y) & np.isfinite(self.v_hat)
        if np.any(self.v_hat[self.observed] <= 0):
            raise ValueError("v_hat must be positive for observed areas")
        if len(self.y) != self.graph.n_areas:
            raise ValueError("y length != number of areas")


@dataclass
class BymFit:
    """Posterior summaries of eta_k and p_k = expit(eta_k)."""

    fit: object
    eta_mean: np.ndarray
    eta_sd: np.ndarray
    eta_q025: np.ndarray
    eta_q50: np.ndarray
    eta_q975: np.ndarray
    p_mean: np.ndarray
    p_q025: np.ndarray
    p_q50: np.ndarray
    p_q975: np.ndarray
    singleton_areas: list = field(default_factory=list)


def _build_latent_model(model):
    """The latent model, its area map and the singleton areas, which have
    no ICAR term.  The area map's row k holds eta_k's entries in the order
    S_k, eps_k, beta0*, the order in which ``area_map @ mean`` sums them."""
    k = model.graph.n_areas
    labels = model.graph.component_labels()
    singleton = np.bincount(labels)[labels] == 1
    icar_cols = np.flatnonzero(~singleton)
    n_icar = len(icar_cols)
    eye = sp.identity(k, format="csr")
    area_map = sp.hstack([eye[:, icar_cols], eye, np.ones((k, 1))],
                         format="csr")
    design = area_map[model.observed]

    comps = []
    if n_icar:
        r = icar_precision(model.graph)[np.ix_(icar_cols, icar_cols)]
        prec = IcarPrecision(r, labels[icar_cols], model.observed[icar_cols])
        comps.append(LatentComponent(
            name="icar",
            design=design[:, :n_icar],
            precision=prec,
            n_theta=1,
            theta_names=("log_icar_prec",),
            constraint=prec.constraint,
        ))
    comps.append(LatentComponent(
        name="iid",
        design=design[:, n_icar:-1],
        precision=lambda th: sp.identity(k, format="csc") * np.exp(th[0]),
        n_theta=1,
        theta_names=("log_iid_prec",),
    ))
    lm = LatentModel(
        GaussianObs(model.y[model.observed], model.v_hat[model.observed]),
        comps,
        fixed_design=design[:, -1:].toarray(),
        fixed_names=["beta0_star"],
        theta_init=_THETA_INIT[-len(comps):],
    )
    return lm, area_map, np.flatnonzero(singleton).tolist()


def fit_bym(model, thetas=None):
    """Fit the convolution smoothing model and summarize eta_k and p_k.

    The area-level eta_k = beta0* + S_k + eps_k is a linear combination of
    the latent vector, so its mixture marginals come from the per-theta
    Gaussian approximations directly; p_k quantiles follow by the monotone
    expit transform and the p_k mean by Gauss--Hermite integration.
    """
    lm, area_map, singletons = _build_latent_model(model)
    fit = fit_latent_model(lm, thetas=thetas)
    _, mus, sds = _grid_pass(fit, op=area_map)
    mean, sd, q = _mixture(fit.weights, mus, sds)

    # E[expit(eta)] per area by Gauss-Hermite over each mixture component
    nodes, gh_w = np.polynomial.hermite_e.hermegauss(40)
    gh_w = gh_w / gh_w.sum()
    p_mean = np.zeros(model.graph.n_areas)
    for i in range(len(fit.points)):
        vals = expit(mus[i][:, None] + sds[i][:, None] * nodes)
        p_mean += fit.weights[i] * (vals @ gh_w)

    return BymFit(
        fit=fit,
        eta_mean=mean, eta_sd=sd,
        eta_q025=q[0], eta_q50=q[1], eta_q975=q[2],
        p_mean=p_mean,
        p_q025=expit(q[0]), p_q50=expit(q[1]), p_q975=expit(q[2]),
        singleton_areas=singletons,
    )


# ---------------------------------------------------------------------------
# adjacency ingestion
# ---------------------------------------------------------------------------

def adjacency_from_csv(path, area_ids):
    """Edge-list CSV (area_i, area_j) over string area identifiers."""
    index = {str(a): i for i, a in enumerate(area_ids)}
    with reading(path):
        pairs = list(zip(*_read_csv(path, ["area_i", "area_j"])))
        unknown = sorted({a for pair in pairs for a in pair} - set(index))
        if unknown:
            raise DataError(f"{path}: unknown area ids {unknown}")
        return AdjacencyGraph(n_areas=len(area_ids),
                              edges=[(index[a], index[b]) for a, b in pairs])


def adjacency_from_polygons(polygons):
    """Two polygons are adjacent when they share >= 2 boundary vertices."""
    owners = {}  # vertex key -> the polygons with that boundary vertex
    for i, poly in enumerate(polygons):
        for x, y in np.vstack(poly.rings):
            owners.setdefault((round(x / _VERTEX_TOL),
                               round(y / _VERTEX_TOL)), set()).add(i)
    shared = Counter((i, j) for ids in owners.values()
                     for i in ids for j in ids if i < j)
    return AdjacencyGraph(n_areas=len(polygons),
                          edges=[p for p, n in shared.items() if n >= 2])
