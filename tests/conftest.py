import numpy as np
import pytest

from prevmap.geometry import Polygon, fem_matrices
from prevmap.meshing import build_mesh


@pytest.fixture(scope="session")
def unit_square():
    return Polygon([[(0, 0), (1, 0), (1, 1), (0, 1)]], id="unit")


@pytest.fixture(scope="session")
def square10():
    return Polygon([[(0, 0), (10, 0), (10, 10), (0, 10)]], id="sq10")


@pytest.fixture(scope="session")
def coarse_mesh10(square10):
    """Quick mesh over [0,10]^2 shared across tests."""
    return build_mesh(square10, interior_max_edge=0.8, extension_factor=1.5,
                      exterior_max_edge=3.0)


@pytest.fixture(scope="session")
def coarse_fem10(coarse_mesh10):
    return fem_matrices(coarse_mesh10)


def solve_columns(factor, indices):
    """Columns of Q^{-1} for the given indices from a factorization of Q,
    shape (n, len(indices)): a dense oracle for covariances."""
    e = np.zeros((factor.n, len(indices)))
    e[np.asarray(indices, dtype=int), np.arange(len(indices))] = 1.0
    return factor.solve(e)


def dense_factor(factor):
    """The Cholesky factor L of a :class:`SparseCholesky`, in its factored
    order ``layout.perm``, rebuilt densely from its band L_A, its border
    block W^T and L_C."""
    layout = factor.layout
    m = layout.m
    lower = np.zeros((factor.n, factor.n))
    for k in range(min(layout.bandwidth, m - 1) + 1):
        j = np.arange(m - k)
        lower[j + k, j] = factor._band[k, :m - k]
    lower[m:, :m] = factor._w.T
    lower[m:, m:] = np.tril(factor._lc)
    return lower


def grid_areas(x0, y0, x1, y1, nx, ny, prefix="A"):
    """Rectangular partition of a box into nx * ny polygon cells."""
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    out = []
    k = 0
    for j in range(ny):
        for i in range(nx):
            out.append(Polygon(
                [[(xs[i], ys[j]), (xs[i + 1], ys[j]),
                  (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]],
                id=f"{prefix}{k}"))
            k += 1
    return out
