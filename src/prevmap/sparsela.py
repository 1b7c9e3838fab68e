"""Sparse SPD factorization as a band matrix with a dense border.

A GMRF precision on a mesh or an area graph has a small bandwidth once its
coordinates are numbered in a bandwidth-reducing order, except for a few
dense columns: a fixed effect such as the intercept couples to every
observed vertex.  Following Rue (2001) and Rue & Held (2005, section 2.4),
:class:`SparseCholesky` factors such a matrix as a band matrix.  It orders
the coordinates by reverse Cuthill-McKee over the pattern without its dense
columns, and puts the dense columns last, as a border.  In that order

    Q = [[A, B], [B^T, C]],   L = [[L_A, 0], [W^T, L_C]],

with A banded, A = L_A L_A^T by LAPACK's band Cholesky ``dpbtrf``,
W = L_A^{-1} B by the band triangular solve ``dtbtrs``, and the border's
small Schur block C - W^T W = L_C L_C^T by a dense Cholesky.  Solves, the
half-solve used to draw Gaussian vectors with precision Q, and
log|Q| = 2 sum log diag(L) all follow from L.  Reverse Cuthill-McKee
rather than a fill-reducing order: the band stores more entries than a
sparse factor would, but dense band BLAS wastes little on them at the
sizes of this package.  On one core of a 2-core Xeon guest, the SPDE
model's Schur complement at mesh edge 0.6 (d = 943, bandwidth 137, one
border column) factors in 1.4 ms, against 6.4 ms with SuperLU's
supernodal LU on a minimum-degree order; at edge 0.15 (d = 10,027,
bandwidth 506) in 108 ms against 144 ms.

The ordering depends only on the sparsity pattern, so the pattern's
:class:`BandLayout` computes it, with where each stored entry goes in band
storage in that order; solves and draws take and return vectors in the
matrix's own order.  An owner of a pattern that it factors many times
keeps its layout, and a factorization is then a scatter and the LAPACK
calls.  Two owners do so: the latent model engine for the Schur
complement of Q_post over the coordinates that are not integrated out in
closed form (Q_post itself when none is), and the SPDE precision for its
K = kappa^2 C + G.  One-off factorizations (the ICAR block's minor, a
prior block with no ``logdet`` and no closed form) lay out their own
pattern.  Together with :func:`union_pattern`, which lays out a sum of
sparse matrices as data on one fixed pattern, a new theta or Newton step
costs only a numerical refactorization.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpotrf, dtbtrs, dtrtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import NotPositiveDefiniteError

_DENSE_FACTOR = 4.0  # a column is dense above this many sqrt(n) neighbours


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


def _lower(indptr, indices):
    """Positions in the data array, rows and columns of the stored entries
    on or below the diagonal of a CSC pattern."""
    n = len(indptr) - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    src = np.flatnonzero(indices >= cols)
    return src, indices[src].astype(np.intp), cols[src]


def _dense(n, rows, cols):
    """Which columns of a symmetric pattern, given by its entries on or
    below the diagonal, are dense: those with more than 4 sqrt(n)
    neighbours.  On a mesh or an area graph reverse Cuthill-McKee reaches a
    bandwidth of about that many, so such a column would widen the band."""
    off = rows != cols
    degree = np.bincount(rows[off], minlength=n) \
        + np.bincount(cols[off], minlength=n)
    return degree > _DENSE_FACTOR * np.sqrt(n)


def _triangular(solver, a, y, **kwargs):
    """A LAPACK triangular solve with the factor a and the right-hand sides
    y (n, k), skipped when either is empty: given no columns or an empty
    factor, the wrappers can write out of bounds."""
    return solver(a, y, **kwargs)[0] if a.size and y.size else y


class BandLayout:
    """The band order of one symmetric sparsity pattern, and where its
    stored entries go in band-plus-border storage in that order.

    ``perm`` lists the coordinates in the order they are factored: reverse
    Cuthill-McKee over the columns that are not dense, then the dense
    columns, ``border`` of them; ``rank`` is its inverse.  The band block
    over the other m columns has bandwidth ``bandwidth``.  Only the
    entries on or below the diagonal are read, (i, j) going to (max, min)
    of (rank[i], rank[j]): the band block in LAPACK's lower band storage,
    ``(bandwidth + 1, m)`` in column-major order, then the m x border block
    B and the border x border block C, both column-major, in one vector of
    ``size`` doubles.
    """

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        self._entries = len(indices)
        self._src, rows, cols = _lower(indptr, indices)
        dense = _dense(n, rows, cols)
        keep = np.flatnonzero(~dense)
        rank = np.cumsum(~dense) - 1
        edge = ~dense[rows] & ~dense[cols]
        r, c = rank[rows[edge]], rank[cols[edge]]
        graph = sp.csr_matrix(
            (np.ones(2 * len(r)), (np.r_[r, c], np.r_[c, r])),
            shape=(len(keep), len(keep)))
        if len(keep):  # the ordering routine rejects an empty graph
            keep = keep[reverse_cuthill_mckee(graph, symmetric_mode=True)]
        self.perm = np.concatenate([keep, np.flatnonzero(dense)])
        rank[self.perm] = np.arange(n)
        self.rank = rank
        rows, cols = rank[rows], rank[cols]
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        m, b = len(keep), n - len(keep)
        band = rows < m
        kd = int((rows[band] - cols[band]).max(initial=0))
        self.m, self.border, self.bandwidth = m, b, kd
        self._band_size = (kd + 1) * m
        self.size = self._band_size + m * b + b * b
        self._dst = np.where(
            band, cols * (kd + 1) + rows - cols,
            np.where(cols < m, self._band_size + (rows - m) * m + cols,
                     self._band_size + m * b + (cols - m) * b + rows - m))

    def blocks(self, data):
        """The band block, B and C of the matrix with CSC data ``data``,
        each a column-major array on a fresh buffer (entries sharing a
        position are summed)."""
        if len(data) != self._entries:
            raise ValueError("the matrix is not on the layout's pattern")
        buf = np.bincount(self._dst, weights=data[self._src],
                          minlength=self.size)
        m, b, end = self.m, self.border, self._band_size
        return (buf[:end].reshape((self.bandwidth + 1, m), order="F"),
                buf[end:end + m * b].reshape((m, b), order="F"),
                buf[end + m * b:].reshape((b, b), order="F"))


class SparseCholesky:
    """Cholesky factorization L L^T of a sparse SPD matrix q, banded with a
    dense border (see the module docstring).

    q must be symmetric; only its entries on or below the diagonal are
    read.  q is factored in the band order of ``layout``, the
    :class:`BandLayout` of q's pattern, built here when not given: an owner
    that factors one pattern many times keeps its layout.  Solves and
    samples take and return vectors in the order of q.

    Raises :class:`NotPositiveDefiniteError`, naming the row of q whose
    pivot fails, if the input is not positive definite or not finite.
    """

    def __init__(self, q, layout=None):
        q = sp.csc_matrix(q)
        if q.shape[0] != q.shape[1]:
            raise ValueError("matrix must be square")
        self.n = q.shape[0]
        if layout is None:
            layout = BandLayout(q.indptr, q.indices)
        self.layout = layout
        band, b_blk, c_blk = layout.blocks(q.data)
        self._band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        diag = self._band[0]
        if info == 0:
            self._w = _triangular(dtbtrs, self._band, b_blk, uplo="L",
                                  overwrite_b=1)
            self._lc, info = dpotrf(c_blk - self._w.T @ self._w, lower=1,
                                    overwrite_a=1)
            diag = np.concatenate([diag, np.diag(self._lc)])
            if info:
                info += layout.m
        # LAPACK's info is the order of the first failing leading minor, in
        # the factored order; its pivot test lets a NaN through
        stop = info - 1 if info else len(diag)
        bad = np.flatnonzero(~np.isfinite(diag[:stop]))
        if info or bad.size:
            k = bad[0] if bad.size else stop
            raise NotPositiveDefiniteError(
                f"matrix is not SPD: the pivot of row {layout.perm[k]} "
                f"(pivot {k + 1} of {self.n} in the band order) is "
                f"non-positive or non-finite")
        self.logdet = 2.0 * float(np.log(diag).sum())

    @property
    def nnz(self):
        """Entries stored for L: the band of L_A, W and L_C."""
        return self.layout.size

    @property
    def _lu(self):
        # the benchmark's trace hook (perfbench/tracing.py) reads the
        # factor's size as ``_lu.L.nnz``
        return SimpleNamespace(L=SimpleNamespace(nnz=self.nnz))

    def _rows(self, b, gather=True):
        """A Fortran-ordered copy of b (n,) or (n, k) as (n, k), gathered
        into the factored order unless ``gather`` is false."""
        b = np.asarray(b, dtype=float)
        b = b[:, None] if b.ndim == 1 else b
        if not gather:
            return np.array(b, order="F")
        # np.take on the transpose: one pass, Fortran order for any b
        return np.take(b.T, self.layout.perm, axis=1).T

    def _unrows(self, x, shape):
        """x (n, k) in the factored order back in the order of q."""
        return np.take(x.T, self.layout.rank, axis=1).T.reshape(shape)

    # The band solves work on the whole (n, k) array in place: LAPACK
    # solves its first m rows, its leading dimension being n.

    def _forward(self, y):
        """L^{-1} y for y (n, k) from :meth:`_rows`, which it overwrites."""
        m = self.layout.m
        y = _triangular(dtbtrs, self._band, y, uplo="L", overwrite_b=1)
        if self.layout.border:
            y[m:] = _triangular(dtrtrs, self._lc,
                                y[m:] - self._w.T @ y[:m], lower=1)
        return y

    def _backward(self, y):
        """L^{-T} y for y (n, k) from :meth:`_rows`, which it overwrites."""
        m = self.layout.m
        if self.layout.border:
            y[m:] = _triangular(dtrtrs, self._lc, y[m:], lower=1, trans=1)
            y[:m] -= self._w @ y[m:]
        return _triangular(dtbtrs, self._band, y, uplo="L", trans="T",
                           overwrite_b=1)

    def solve(self, b):
        """Solve Q x = b; b may be a vector or a (n, k) matrix."""
        return self._unrows(self._backward(self._forward(self._rows(b))),
                            np.shape(b))

    def sample(self, z):
        """Map standard normal draws z (n,) or (n, k) to N(0, Q^{-1}) draws.

        Uses the half-solve x = P^T L^{-T} z: z's entries feed the rows of
        L in order, and P^T scatters the result from the factored order
        ``layout.perm`` back to the order of q, so that cov(x) = Q^{-1}.
        """
        return self._unrows(self._backward(self._rows(z, gather=False)),
                            np.shape(z))
