"""Sparse SPD factorization built on SuperLU in symmetric mode.

SuperLU with ``diag_pivot_thresh=0`` and ``SymmetricMode=True`` applies a
fill-reducing symmetric ordering (minimum degree on A^T+A) and, for an SPD
input, produces U = D L^T with no row pivoting, which makes the LU
factorization an LDL^T / Cholesky factorization in disguise.  The wrapper
exposes the pieces needed elsewhere: solves, log-determinant, and the
half-solve used to draw Gaussian vectors with precision Q.

The ordering depends only on the sparsity pattern, so it is computed once
per pattern and reused: a factorization exposes the permutation it used as
an :class:`Ordering`, and a later matrix with the same pattern is factored
as ``q[perm][:, perm]`` in natural order, which skips the minimum-degree
pass and gives the same fill.  The latent model engine factors the Schur
complement of Q_post over the coordinates that are not integrated out in
closed form (Q_post itself when none is), each prior block with no
``logdet`` and no closed form (never a constrained one), and the ICAR
block's minor once for its log pseudo-determinant constant; the SPDE
precision factors its K = kappa^2 C + G.  Each keeps one ordering per
matrix and factors every matrix through it, the first one too, since
SuperLU's own ordering and the permuted natural one round differently (by
about 1e-11 on a Schur complement of a BYM model).  Together with
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


class Ordering:
    """Symmetric permutation ``perm`` of an n x n matrix: ``q[perm][:, perm]``.

    :meth:`permute` builds the permuted matrix by gathering ``q.data``
    through an index computed the first time a sparsity pattern is seen, so
    each later matrix with that pattern costs one gather.
    """

    def __init__(self, perm):
        perm = np.asarray(perm, dtype=np.intp)
        n = len(perm)
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("ordering must be a permutation of 0..n-1")
        self.perm = perm
        self.inverse = np.empty(n, dtype=np.intp)
        self.inverse[perm] = np.arange(n)
        self._pattern = None  # (indptr, indices, gather, new indices, new indptr)

    def permute(self, q):
        """``q[perm][:, perm]`` of a CSC matrix, in CSC form."""
        n = len(self.perm)
        if q.shape != (n, n):
            raise ValueError(f"ordering of size {n} does not fit a "
                             f"{q.shape} matrix")
        if not q.has_canonical_format:
            q = q.copy()
            q.sum_duplicates()
        pat = self._pattern
        if pat is None or not (np.array_equal(pat[0], q.indptr)
                               and np.array_equal(pat[1], q.indices)):
            cols = np.repeat(np.arange(n), np.diff(q.indptr))
            rows, cols = self.inverse[q.indices], self.inverse[cols]
            gather = np.lexsort((rows, cols))
            indptr = np.zeros(n + 1, dtype=q.indptr.dtype)
            np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
            pat = (q.indptr.copy(), q.indices.copy(), gather,
                   rows[gather].astype(q.indices.dtype), indptr)
            self._pattern = pat
        return sp.csc_matrix((q.data[pat[2]], pat[3], pat[4]), shape=(n, n))


class SparseCholesky:
    """Cholesky-type factorization of a sparse SPD matrix.

    Without ``order`` SuperLU computes a minimum-degree ordering; with one
    (an :class:`Ordering` or a permutation array, e.g. the ``order`` of an
    earlier factorization of the same pattern) it factors
    ``q[order][:, order]`` in natural order.  Either way ``order`` holds
    the ordering used, and solves and samples are in the order of ``q``.

    Raises :class:`NotPositiveDefiniteError` (with a smallest-eigenvalue
    estimate when obtainable) if the input is not positive definite.
    """

    def __init__(self, q, order=None):
        q = sp.csc_matrix(q)
        if q.shape[0] != q.shape[1]:
            raise ValueError("matrix must be square")
        self.n = q.shape[0]
        if order is None:
            a, spec = q, "MMD_AT_PLUS_A"
        else:
            if not isinstance(order, Ordering):
                order = Ordering(order)
            a, spec = order.permute(q), "NATURAL"
        # relax=1, panel_size=5 instead of SuperLU's defaults: the numeric
        # factorization measured 10-30% faster on every matrix tried, from
        # an ICAR block of d = 100 to an SPDE Q_post of d = 11,858
        try:
            self._lu = spla.splu(
                a,
                permc_spec=spec,
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
        d = self._lu.U.diagonal()
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise NotPositiveDefiniteError(
                "non-positive pivot encountered; matrix is not SPD",
                min_eigenvalue=_smallest_eig_estimate(q),
            )
        self._diag = d
        # the ordering applied before SuperLU (None when SuperLU ordered q
        # itself), and the map from the rows of L to those of q for sample()
        self._outer = order
        if order is None:
            self.order = Ordering(np.argsort(self._lu.perm_c))
            self._perm = self._lu.perm_c
        else:
            self.order = order
            self._perm = self._lu.perm_c[order.inverse]
        self._lt = None

    @property
    def logdet(self):
        return float(np.log(self._diag).sum())

    def solve(self, b):
        """Solve Q x = b; b may be a vector or a (n, k) matrix."""
        b = np.asarray(b, dtype=float)
        if self._outer is None:
            return self._lu.solve(np.ascontiguousarray(b))
        x = self._lu.solve(np.ascontiguousarray(b[self._outer.perm]))
        return x[self._outer.inverse]

    def sample(self, z):
        """Map standard normal draws z (n,) or (n, k) to N(0, Q^{-1}) draws.

        Uses the half-solve x = P^T L^{-T} D^{-1/2} z so that cov(x) = Q^{-1}.
        """
        z = np.asarray(z, dtype=float)
        if self._lt is None:
            self._lt = sp.csr_matrix(self._lu.L.T)
        rhs = z / np.sqrt(self._diag).reshape(-1, *([1] * (z.ndim - 1)))
        w = spla.spsolve_triangular(self._lt, rhs, lower=False)
        return w[self._perm]
