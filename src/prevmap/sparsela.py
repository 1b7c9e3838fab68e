"""Sparse SPD factorization built on SuperLU in symmetric mode.

SuperLU with ``diag_pivot_thresh=0`` and ``SymmetricMode=True`` applies a
fill-reducing symmetric ordering (minimum degree on A^T+A) and, for an SPD
input, produces U = D L^T with no row pivoting, which makes the LU
factorization an LDL^T / Cholesky factorization in disguise.  The wrapper
exposes the pieces needed elsewhere: solves, log-determinant, and the
half-solve used to draw Gaussian vectors with precision Q.

The ordering depends only on the sparsity pattern.  An owner of a pattern
that it factors many times finds the pattern's ordering p once, as the
:attr:`SparseCholesky.order` of any SPD matrix on it, and lays every
matrix out as ``q[p][:, p]``; ``natural=True`` then factors it as given,
which skips the minimum-degree pass and gives the same fill.  Two owners
do so: the latent model engine for the Schur complement of Q_post over the
coordinates that are not integrated out in closed form (Q_post itself when
none is), and the SPDE precision for its K = kappa^2 C + G.  Every matrix
of such a pattern, the first too, then gets the same arithmetic.  One-off
factorizations (the ICAR block's minor, a prior block with no ``logdet``
and no closed form) let SuperLU order them.  Together with
:func:`union_pattern`, which lays out a sum of sparse matrices as data on
one fixed pattern, a new theta or Newton step costs only a numerical
refactorization.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotPositiveDefiniteError


def _smallest_eig_estimate(q):
    try:
        if q.shape[0] <= 400:
            return float(np.linalg.eigvalsh(q.toarray()).min())
        vals = spla.eigsh(q, k=1, which="SA", maxiter=500,
                          return_eigenvectors=False)
        return float(vals[0])
    except Exception:
        return None


def union_pattern(n, parts):
    """CSC sparsity pattern of an n x n matrix holding the entries of every
    part, each part a pair of arrays (rows, cols).

    Returns ``(indptr, indices, pos)``: the pattern, with sorted row indices
    and each (row, col) once, and for each part the positions of its
    entries in the pattern's data array.  A matrix whose entries are among
    them is then laid out on the pattern by scattering its values to its
    positions, so sums of such matrices need no sparse algebra.
    """
    key = np.concatenate([np.asarray(c, dtype=np.int64) * n
                          + np.asarray(r, dtype=np.int64) for r, c in parts])
    uniq, pos = np.unique(key, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    ends = np.cumsum([len(r) for r, _ in parts])[:-1]
    return indptr, (uniq % n).astype(np.int32), np.split(pos.ravel(), ends)


def coo_indices(q):
    """Row and column indices of the stored entries of a CSC matrix."""
    return q.indices, np.repeat(np.arange(q.shape[1]), np.diff(q.indptr))


class SparseCholesky:
    """Cholesky-type factorization of a sparse SPD matrix.

    SuperLU orders q by minimum degree, or with ``natural=True`` factors it
    in the order given, for a q already laid out in a fill-reducing order.
    Solves and samples are in the order of q.

    Raises :class:`NotPositiveDefiniteError` (with a smallest-eigenvalue
    estimate when obtainable) if the input is not positive definite.
    """

    def __init__(self, q, natural=False):
        q = sp.csc_matrix(q)
        if q.shape[0] != q.shape[1]:
            raise ValueError("matrix must be square")
        self.n = q.shape[0]
        # relax=1, panel_size=5 instead of SuperLU's defaults: the numeric
        # factorization measured 10-30% faster on every matrix tried, from
        # an ICAR block of d = 100 to an SPDE Q_post of d = 11,858
        try:
            self._lu = spla.splu(
                q,
                permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=1,
                panel_size=5,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(
                f"sparse factorization failed: {exc}",
                min_eigenvalue=_smallest_eig_estimate(q),
            ) from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NotPositiveDefiniteError(
                "factorization required pivoting; matrix is not SPD",
                min_eigenvalue=_smallest_eig_estimate(q),
            )
        # the pivots D of U = D L^T: SuperLU exports only L, U, perm_c,
        # perm_r, shape, nnz and solve, so they are read from a copy of U
        d = self._lu.U.diagonal()
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise NotPositiveDefiniteError(
                "non-positive pivot encountered; matrix is not SPD",
                min_eigenvalue=_smallest_eig_estimate(q),
            )
        self._diag = d
        self._lt = None

    @property
    def order(self):
        """The permutation p for which ``q[p][:, p]`` was factored:
        SuperLU's minimum-degree ordering (or, with ``natural=True``, the
        identity) post-ordered by its elimination tree.  It depends only
        on the sparsity of q."""
        return np.argsort(self._lu.perm_c)

    @property
    def logdet(self):
        return float(np.log(self._diag).sum())

    def solve(self, b):
        """Solve Q x = b; b may be a vector or a (n, k) matrix."""
        return self._lu.solve(np.ascontiguousarray(b, dtype=float))

    def sample(self, z):
        """Map standard normal draws z (n,) or (n, k) to N(0, Q^{-1}) draws.

        Uses the half-solve x = P^T L^{-T} D^{-1/2} z so that cov(x) = Q^{-1}.
        """
        z = np.asarray(z, dtype=float)
        if self._lt is None:
            self._lt = sp.csr_matrix(self._lu.L.T)
        rhs = z / np.sqrt(self._diag).reshape(-1, *([1] * (z.ndim - 1)))
        w = spla.spsolve_triangular(self._lt, rhs, lower=False)
        return w[self._lu.perm_c]
