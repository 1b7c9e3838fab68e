"""Matern covariance and its sparse Markov approximation on a mesh.

The continuously indexed Matern field with smoothness nu = 1 solves a
second-order stochastic PDE whose finite-element discretization on a
triangulation yields a Gaussian vector of basis weights with sparse
precision Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^{-1} G).  With the
lumped (diagonal) mass matrix C this stays sparse and the implied field
approximates the Matern covariance away from the mesh boundary.

Only tau and kappa change between evaluations, so :class:`SpdePrecision`
lays C, G and G C^{-1} G out once on one fixed pattern and computes a new Q
as a data vector.  With lumped C, Q = tau^2 K C^{-1} K for K = kappa^2 C + G,
so log|Q| comes from a factorization of K, a matrix with the sparsity of G,
on the one band layout of that pattern.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gamma as _gamma, kv as _kv

from .errors import NotPositiveDefiniteError
from .sparsela import BandLayout, SparseCholesky, coo_indices, union_pattern

__all__ = [
    "MaternParams",
    "SpdeTheta",
    "matern_cov",
    "tau_from_sigma",
    "sigma_from_tau",
    "practical_range",
    "SpdePrecision",
    "assemble_precision",
]


@dataclass(frozen=True)
class MaternParams:
    """Marginal variance, scale and smoothness of a Matern field."""

    sigma2: float
    kappa: float
    nu: float = 1.0

    def __post_init__(self):
        if self.sigma2 <= 0 or self.kappa <= 0 or self.nu <= 0:
            raise ValueError("MaternParams must all be positive")


@dataclass(frozen=True)
class SpdeTheta:
    """Log-scale SPDE parameters (theta1 = log tau, theta2 = log kappa)."""

    log_tau: float
    log_kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.log_tau) and np.isfinite(self.log_kappa)):
            raise ValueError("SpdeTheta must be finite")

    @property
    def tau(self):
        return float(np.exp(self.log_tau))

    @property
    def kappa(self):
        return float(np.exp(self.log_kappa))


def matern_cov(distance, params):
    """Matern covariance at the given distance(s); sigma2 at distance zero."""
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    nu, kappa = params.nu, params.kappa
    out = np.full(d.shape, params.sigma2)
    pos = d > 0
    kd = kappa * d[pos]
    out[pos] = params.sigma2 * (2.0 ** (1 - nu) / _gamma(nu)) \
        * kd ** nu * _kv(nu, kd)
    # kv underflows to 0 for large arguments, which is the right limit
    out[pos] = np.nan_to_num(out[pos], nan=0.0)
    return out if np.ndim(distance) else float(out)


def tau_from_sigma(sigma2, kappa, nu=1.0):
    """Scale tau such that the SPDE field has marginal variance sigma2.

    tau^2 = Gamma(nu) / (Gamma(alpha) * 4 pi * kappa^(2 nu) * sigma2), with
    alpha = nu + 1 in two dimensions.
    """
    if sigma2 <= 0 or kappa <= 0 or nu <= 0:
        raise ValueError("arguments must be positive")
    alpha = nu + 1.0
    tau2 = _gamma(nu) / (_gamma(alpha) * 4.0 * np.pi * kappa ** (2 * nu) * sigma2)
    return float(np.sqrt(tau2))


def sigma_from_tau(tau, kappa, nu=1.0):
    """Marginal variance implied by (tau, kappa); inverse of tau_from_sigma."""
    if tau <= 0 or kappa <= 0 or nu <= 0:
        raise ValueError("arguments must be positive")
    alpha = nu + 1.0
    return float(_gamma(nu) / (_gamma(alpha) * 4.0 * np.pi
                               * kappa ** (2 * nu) * tau ** 2))


def practical_range(kappa, nu=1.0):
    """Distance sqrt(8 nu) / kappa at which correlation drops to about 0.13."""
    if kappa <= 0 or nu <= 0:
        raise ValueError("arguments must be positive")
    return float(np.sqrt(8.0 * nu) / kappa)


def _on_pattern(n, mats):
    """Lay the n x n CSC matrices ``mats`` out on the union of their
    patterns: returns (indptr, indices, one data vector per matrix)."""
    indptr, indices, pos = union_pattern(n, [coo_indices(m) for m in mats])
    return indptr, indices, [
        np.bincount(p, weights=m.data, minlength=len(indices))
        for p, m in zip(pos, mats)]


class SpdePrecision:
    """Q(log tau, log kappa) for alpha = 2 (nu = 1) on fixed C and G.

    Calling it with ``(log tau, log kappa)`` returns the CSC matrix
    Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^{-1} G), whose data is that
    same sum of three vectors on one pattern.  G and G C^{-1} G are
    symmetrized once, so every Q is exactly symmetric.  :meth:`logdet`
    gives log|Q| from K = kappa^2 C + G, factored on the kept band layout
    of the pattern of C + G.  C must be the lumped (diagonal) mass matrix
    and G the stiffness matrix of the same mesh.
    """

    def __init__(self, c, g):
        c = sp.csc_matrix(c)
        cd = np.asarray(c.diagonal())
        if np.any(cd <= 0):
            raise ValueError("mass matrix diagonal must be positive")
        if c.nnz != len(cd):
            raise ValueError("mass matrix must be diagonal (lumped)")
        n = len(cd)
        g = sp.csc_matrix(g)
        g = ((g + g.T) * 0.5).tocsc()
        gcg = g @ sp.diags(1.0 / cd) @ g
        gcg = ((gcg + gcg.T) * 0.5).tocsc()
        c = sp.diags(cd, format="csc")
        self.n = n
        self._q_indptr, self._q_indices, (self._c, self._g, self._gcg) = \
            _on_pattern(n, (c, g, gcg))
        # K on the pattern of C + G, with the band layout every K factors on
        self._k_indptr, self._k_indices, (self._kc, self._kg) = \
            _on_pattern(n, (c, g))
        self._k_layout = BandLayout(self._k_indptr, self._k_indices)
        self._log_c = float(np.log(cd).sum())

    def __call__(self, theta):
        th = SpdeTheta(theta[0], theta[1])
        tau, kappa = th.tau, th.kappa
        data = tau ** 2 * (kappa ** 4 * self._c + 2.0 * kappa ** 2 * self._g
                           + self._gcg)
        return sp.csc_matrix((data, self._q_indices, self._q_indptr),
                             shape=(self.n, self.n))

    def logdet(self, theta):
        """log|Q| = 2 n log tau + 2 log|K| - sum_i log C_ii."""
        th = SpdeTheta(theta[0], theta[1])
        k = sp.csc_matrix((th.kappa ** 2 * self._kc + self._kg,
                           self._k_indices, self._k_indptr),
                          shape=(self.n, self.n))
        log_k = SparseCholesky(k, layout=self._k_layout).logdet
        return 2.0 * self.n * th.log_tau + 2.0 * log_k - self._log_c


def assemble_precision(c, g, theta):
    """Sparse GMRF precision of the basis weights for alpha = 2 (nu = 1).

    Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^{-1} G) with C the lumped mass
    matrix and G the stiffness matrix of the same mesh, built by
    :class:`SpdePrecision`, and verified positive definite by factorization.
    """
    q = SpdePrecision(c, g)((theta.log_tau, theta.log_kappa))
    try:
        SparseCholesky(q)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"assembled precision is not positive definite "
            f"(smallest eigenvalue estimate: {exc.min_eigenvalue})",
            min_eigenvalue=exc.min_eigenvalue) from exc
    return q
