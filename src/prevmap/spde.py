"""The sparse Markov approximation of a Matern field on a mesh.

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
on the one band layout of that pattern.  K does not depend on tau, and a
finite-difference gradient in (log tau, log kappa) returns to the same
kappa, so log|K| is kept for the last two kappa values seen.

The Matern covariance itself and the closed forms between tau, kappa and
the marginal variance live in :mod:`prevmap.matern`, which needs no scipy.
"""

import numpy as np
import scipy.sparse as sp

from .sparsela import BandLayout, SparseCholesky, coo_indices, union_pattern

__all__ = ["SpdePrecision", "assemble_precision"]


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
    of the pattern of C + G, and keeps log|K| for the last two exact
    values of log kappa it saw.  C must be the lumped (diagonal) mass
    matrix and G the stiffness matrix of the same mesh.
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
        self._log_k = {}  # log kappa -> log|K|, the last two seen

    def __call__(self, theta):
        tau, kappa = float(np.exp(theta[0])), float(np.exp(theta[1]))
        data = tau ** 2 * (kappa ** 4 * self._c + 2.0 * kappa ** 2 * self._g
                           + self._gcg)
        return sp.csc_matrix((data, self._q_indices, self._q_indptr),
                             shape=(self.n, self.n))

    def logdet(self, theta):
        """log|Q| = 2 n log tau + 2 log|K| - sum_i log C_ii, with K
        factored only at a log kappa other than the last two seen."""
        key = float(theta[1])
        log_k = self._log_k.pop(key, None)
        if log_k is None:
            kappa = float(np.exp(theta[1]))
            k = sp.csc_matrix((kappa ** 2 * self._kc + self._kg,
                               self._k_indices, self._k_indptr),
                              shape=(self.n, self.n))
            log_k = SparseCholesky(k, layout=self._k_layout).logdet
        self._log_k[key] = log_k  # now the last one seen
        if len(self._log_k) > 2:
            del self._log_k[next(iter(self._log_k))]
        return 2.0 * self.n * theta[0] + 2.0 * log_k - self._log_c


def assemble_precision(c, g, theta):
    """Sparse GMRF precision of the basis weights for alpha = 2 (nu = 1) at
    ``theta`` = (log tau, log kappa).

    Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^{-1} G) with C the lumped mass
    matrix and G the stiffness matrix of the same mesh, built by
    :class:`SpdePrecision`, and verified positive definite by factorization.
    """
    q = SpdePrecision(c, g)(theta)
    SparseCholesky(q)
    return q
