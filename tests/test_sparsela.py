"""Sparse SPD factorization: band Cholesky with a dense border."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from prevmap.errors import NotPositiveDefiniteError
from prevmap.sparsela import BandLayout, SparseCholesky

from conftest import dense_factor, solve_columns


def _random_spd(n, seed=0, density=0.05):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng)
    return (a @ a.T + sp.eye(n)).tocsc()


def test_solve_and_logdet():
    q = _random_spd(150, seed=1)
    f = SparseCholesky(q)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(150)
    assert np.allclose(q @ f.solve(b), b, atol=1e-10)
    dense = q.toarray()
    assert f.logdet == pytest.approx(np.linalg.slogdet(dense)[1], abs=1e-9)


def test_solve_matrix_rhs():
    q = _random_spd(80, seed=3)
    f = SparseCholesky(q)
    b = np.random.default_rng(4).standard_normal((80, 7))
    x = f.solve(b)
    assert np.allclose(q @ x, b, atol=1e-9)


def test_sample_covariance_matches_inverse():
    q = _random_spd(60, seed=5)
    f = SparseCholesky(q)
    rng = np.random.default_rng(6)
    x = f.sample(rng.standard_normal((60, 200000)))
    emp = x @ x.T / x.shape[1]
    target = np.linalg.inv(q.toarray())
    scale = np.abs(target).max()
    assert np.abs(emp - target).max() < 0.02 * scale * 10


def test_not_spd_raises():
    q = sp.diags([1.0, -1.0, 2.0]).tocsc()
    with pytest.raises(NotPositiveDefiniteError):
        SparseCholesky(q)
    # indefinite symmetric matrix
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotPositiveDefiniteError):
        SparseCholesky(sp.csc_matrix(a))


def _same_pattern_pair(n, seed):
    """Two SPD matrices with one sparsity pattern: q and D q D."""
    q1 = _random_spd(n, seed=seed)
    d = sp.diags(np.random.default_rng(seed + 1).uniform(0.5, 2.0, n))
    q2 = (d @ q1 @ d).tocsc()
    assert np.array_equal(q1.indptr, q2.indptr)
    assert np.array_equal(q1.indices, q2.indices)
    return q1, q2


def test_reused_ordering_matches_dense_oracle():
    # q2 factored on the layout kept from q1's pattern (one pattern), and a
    # random relabelling of q2 on its own layout, against the dense oracle
    q1, q2 = _same_pattern_pair(70, seed=11)
    layout = BandLayout(q1.indptr, q1.indices)
    b = np.random.default_rng(12).standard_normal((70, 4))
    p = np.random.default_rng(3).permutation(70)
    for f, q in ((SparseCholesky(q2, layout=layout), q2),
                 (SparseCholesky(q2[p][:, p]), q2[p][:, p])):
        dense = q.toarray()
        cov = np.linalg.inv(dense)
        ref = np.linalg.solve(dense, b)
        assert np.abs(f.solve(b) - ref).max() < 1e-10
        assert np.abs(f.solve(b[:, 0]) - ref[:, 0]).max() < 1e-10
        assert f.logdet == pytest.approx(np.linalg.slogdet(dense)[1], abs=1e-9)
        cols = [9, 2, 40]
        assert np.abs(solve_columns(f, cols) - cov[:, cols]).max() < 1e-10
        # sample() is a linear map M with M M^T = Q^{-1}
        m = f.sample(np.eye(70))
        assert np.abs(m @ m.T - cov).max() < 1e-10
    # the kept layout has the order, band and border of q2's own
    fresh = SparseCholesky(q2)
    assert np.array_equal(layout.perm, fresh.layout.perm)
    assert (layout.bandwidth, layout.border, layout.size) \
        == (fresh.layout.bandwidth, fresh.layout.border, fresh.nnz)


def test_reused_ordering_indefinite_raises():
    q1, _ = _same_pattern_pair(50, seed=13)
    shift = np.linalg.eigvalsh(q1.toarray()).min() + 1.0
    bad = (q1 - shift * sp.identity(50)).tocsc()
    assert np.array_equal(bad.indices, q1.indices)
    p = np.random.default_rng(4).permutation(50)
    for q, layout in ((bad, BandLayout(q1.indptr, q1.indices)),
                      (bad[p][:, p].tocsc(), None)):
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholesky(q, layout=layout)


def test_natural_order_rejects_non_square():
    q = _random_spd(5)
    for layout in (None, BandLayout(q.indptr, q.indices)):
        with pytest.raises(ValueError):
            SparseCholesky(q[:, :4], layout=layout)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 80), density=st.floats(0.0, 0.2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_natural_order_of_any_permutation_matches_own_order(n, density, seed):
    # a relabelled matrix has the logdet and the relabelled solves of q
    q = _random_spd(n, seed=seed, density=density)
    rng = np.random.default_rng(seed)
    p = rng.permutation(n)
    own = SparseCholesky(q)
    f = SparseCholesky(q[p][:, p])
    assert f.logdet == pytest.approx(own.logdet, rel=1e-12)
    b = rng.standard_normal((n, 2))
    x = own.solve(b)
    assert np.abs(f.solve(b[p]) - x[p]).max() <= 1e-12 * np.abs(x).max()


def _lattice_spd(side, seed):
    """Precision of a side x side lattice: a ridge plus a graph Laplacian
    with random positive edge weights."""
    rng = np.random.default_rng(seed)
    n = side * side
    idx = np.arange(n).reshape(side, side)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = sp.coo_matrix((rng.uniform(0.5, 2.0, len(i)), (i, j)), shape=(n, n))
    w = (w + w.T).tocsc()
    lap = sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w
    return (lap + sp.diags(rng.uniform(0.05, 0.2, n))).tocsc()


@pytest.mark.parametrize("side", [10, 32, 63])
def test_factor_matches_dense_oracle_at_size(side):
    # d = 100, 1,024 and 3,969: solve, logdet and the sample map M against a
    # dense LU, fresh and relabelled by the fresh factor's ordering
    import scipy.linalg as sla
    q = _lattice_spd(side, seed=side)
    n = q.shape[0]
    lu = sla.lu_factor(q.toarray())
    logdet = np.log(np.abs(np.diag(lu[0]))).sum()
    rng = np.random.default_rng(1)
    b = rng.standard_normal((n, 3))
    cols = rng.choice(n, size=min(n, 40), replace=False)
    e = np.zeros((n, len(cols)))
    e[cols, np.arange(len(cols))] = 1.0
    p = BandLayout(q.indptr, q.indices).perm
    for f, perm in ((SparseCholesky(q), np.arange(n)),
                    (SparseCholesky(q[p][:, p]), p)):
        x = f.solve(b[perm])
        assert np.abs(x - sla.lu_solve(lu, b)[perm]).max() \
            <= 1e-10 * np.abs(x).max()
        assert f.logdet == pytest.approx(logdet, rel=1e-12)
        # sample() is a linear map M with M M^T = Q^{-1}, so M^T Q M = I;
        # checked on a subset of the columns of M
        m = f.sample(e[perm])
        qp = q[perm][:, perm]
        assert np.abs(m.T @ (qp @ m) - np.eye(len(cols))).max() < 1e-10


def _bordered_band(n, kd, dense, seed):
    """A random SPD matrix with bandwidth kd and ``dense`` columns coupled
    to every other column, symmetrically permuted, as (q, dense columns)."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for k in range(1, min(kd, n - 1) + 1):
        a += np.diag(rng.standard_normal(n - k)
                     * (rng.random(n - k) < 0.8), -k)
    a = a + a.T
    cols = rng.choice(n, size=min(dense, n), replace=False)
    for j in cols:
        a[:, j] = a[j] = rng.standard_normal(n)
    np.fill_diagonal(a, 0.0)
    a += np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    p = rng.permutation(n)
    return sp.csc_matrix(a[p][:, p]), np.argsort(p)[cols]


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(n=st.integers(0, 60), kd=st.integers(0, 3), dense=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bordered_band_matches_dense_oracle(n, kd, dense, seed):
    # the matrix and a random relabelling of it, each against the oracle
    q0, cols0 = _bordered_band(n, kd, dense, seed)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(n)
    for q, cols in ((q0, cols0),
                    (q0[relabel][:, relabel], np.argsort(relabel)[cols0])):
        qd = q.toarray()
        f = SparseCholesky(q)
        p = f.layout.perm
        assert np.array_equal(np.sort(p), np.arange(n))
        if n >= 20:
            # a column coupled to all others is dense from n = 18 on, and
            # goes to the border
            assert f.layout.border == len(cols)
            assert np.array_equal(np.sort(p[n - len(cols):]), np.sort(cols))
        lower = dense_factor(f)
        assert np.abs(lower @ lower.T - qd[p][:, p]).max(initial=0.0) \
            <= 1e-12 * np.abs(qd).max(initial=1.0)
        assert f.logdet == pytest.approx(
            np.linalg.slogdet(qd)[1] if n else 0.0, rel=1e-12, abs=1e-12)
        b = rng.standard_normal((n, 3))
        ref = np.linalg.solve(qd, b) if n else b
        scale = np.abs(ref).max(initial=1.0)
        assert np.abs(f.solve(b) - ref).max(initial=0.0) <= 1e-10 * scale
        assert np.abs(f.solve(b[:, 0]) - ref[:, 0]).max(initial=0.0) \
            <= 1e-10 * scale
        # sample() is a linear map M with M M^T = Q^{-1}
        m = f.sample(np.eye(n))
        cov = np.linalg.inv(qd) if n else qd
        assert np.abs(m @ m.T - cov).max(initial=0.0) \
            <= 1e-10 * np.abs(cov).max(initial=1.0)


def _band_not_spd(seed=21, n=40):
    """An SPD band matrix with one dense column, as a dense array, with the
    position of that column."""
    q, cols = _bordered_band(n, 2, 1, seed)
    return q.toarray(), cols[0]


def _failing_row(qd, perm):
    """The row of qd that ends the shortest leading minor, in the order
    ``perm``, that is not positive definite."""
    for k in range(1, len(perm) + 1):
        try:
            np.linalg.cholesky(qd[np.ix_(perm[:k], perm[:k])])
        except np.linalg.LinAlgError:
            return perm[k - 1]


def test_negative_pivot_in_band_block_raises():
    qd, _ = _band_not_spd()
    qd -= (np.linalg.eigvalsh(qd).min() + 0.5) * np.eye(len(qd))
    q = sp.csc_matrix(qd)
    row = _failing_row(qd, BandLayout(q.indptr, q.indices).perm)
    with pytest.raises(NotPositiveDefiniteError, match=rf"\brow {row} "):
        SparseCholesky(q)


def test_negative_pivot_in_border_schur_block_raises():
    # the band block stays SPD; only the border's C - W^T W is not
    qd, j = _band_not_spd()
    assert SparseCholesky(sp.csc_matrix(qd)).layout.border == 1
    rest = np.setdiff1d(np.arange(len(qd)), [j])
    band = qd[np.ix_(rest, rest)]
    b = qd[rest, j]
    qd[j, j] = b @ np.linalg.solve(band, b) - 0.3
    for p in (np.arange(len(qd)), np.r_[rest, j]):
        row = int(np.flatnonzero(p == j)[0])
        with pytest.raises(NotPositiveDefiniteError,
                           match=rf"\brow {row} "):
            SparseCholesky(sp.csc_matrix(qd[p][:, p]))


def test_nan_entry_raises():
    # a NaN coupling to the border column reaches only the border's pivot
    qd, j = _band_not_spd()
    i = (j + 1) % len(qd)
    qd[i, j] = qd[j, i] = np.nan
    with pytest.raises(NotPositiveDefiniteError, match=rf"\brow {j} "):
        SparseCholesky(sp.csc_matrix(qd))


@pytest.mark.parametrize("border", [False, True])
def test_not_spd_error_names_the_failing_row(border):
    # a diagonally dominant matrix with one negative diagonal entry: each
    # leading minor without that row is SPD and each with it is not, so
    # the factorization fails at that row in any order, in the band block
    # or in the border
    qd, j = _band_not_spd()
    row = j if border else (j + 7) % len(qd)
    qd[row, row] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match=rf"\brow {row} "):
        SparseCholesky(sp.csc_matrix(qd))


def test_dense_matrix_is_all_border():
    # every column is dense: no band block, the border is the whole matrix
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 30))
    qd = a @ a.T + np.eye(30)
    f = SparseCholesky(sp.csc_matrix(qd))
    assert (f.layout.m, f.layout.border) == (0, 30)
    b = rng.standard_normal((30, 2))
    assert np.abs(f.solve(b) - np.linalg.solve(qd, b)).max() < 1e-10
    assert f.logdet == pytest.approx(np.linalg.slogdet(qd)[1], rel=1e-12)
    m = f.sample(np.eye(30))
    cov = np.linalg.inv(qd)
    assert np.abs(m @ m.T - cov).max() <= 1e-10 * np.abs(cov).max()
