import numpy as np
import pytest
from scipy import sparse

from spatialvb import (MissingPattern, SelectionModel, SemParams,
                       build_rook_grid_weights, row_normalize)
from spatialvb.weights import SpatialWeights


@pytest.fixture(scope="session")
def grid3():
    return row_normalize(build_rook_grid_weights(3))


@pytest.fixture(scope="session")
def grid4():
    return row_normalize(build_rook_grid_weights(4))


@pytest.fixture(scope="session")
def grid7():
    return row_normalize(build_rook_grid_weights(7))


def random_instance(w, seed, n_beta=3, rho=None, missing=0.3):
    """A small SEM instance with a missing pattern, for oracle checks."""
    rng = np.random.default_rng(seed)
    n = w.n
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, n_beta - 1))])
    beta = rng.normal(0.0, 1.0, size=n_beta)
    if rho is None:
        rho = rng.uniform(-0.6, 0.9)
    params = SemParams(beta=beta, sigma2_y=float(rng.uniform(0.3, 2.0)), rho=float(rho))
    y = x @ beta + rng.standard_normal(n)
    n_u = max(1, int(round(n * missing)))
    miss = rng.choice(n, size=n_u, replace=False)
    m = np.zeros(n, dtype=np.int8)
    m[miss] = 1
    pattern = MissingPattern(m=m)
    return x, params, y, pattern, rng


def random_selection(n, seed, q=1, psi_y=-0.2):
    rng = np.random.default_rng(seed)
    x_star = np.hstack([np.ones((n, 1)), rng.standard_normal((n, q))])
    psi_x = rng.normal(0.0, 0.7, size=q + 1)
    return SelectionModel(psi_x=psi_x, psi_y=psi_y, x_star=x_star)


def dense_sem_cov(params, w):
    """sigma2 (A^T A)^{-1} via dense linear algebra (oracle path)."""
    a = np.eye(w.n) - params.rho * w.matrix.toarray()
    return params.sigma2_y * np.linalg.inv(a.T @ a)


def delaunay_weights(n_points, rng):
    """Row-normalised weights with random positive symmetric values on the
    Delaunay triangulation of random points: irregular degrees, odd cycles
    and a W that is not symmetric."""
    from scipy.spatial import Delaunay
    tri = Delaunay(rng.uniform(size=(n_points, 2)))
    edges = np.concatenate([tri.simplices[:, [a, b]]
                            for a, b in ((0, 1), (1, 2), (0, 2))])
    adj = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                            shape=(n_points, n_points)).tocsr()
    upper = sparse.triu(((adj + adj.T) > 0).astype(float), k=1).tocoo()
    c = sparse.coo_matrix((rng.uniform(0.2, 3.0, upper.nnz), (upper.row, upper.col)),
                          shape=adj.shape)
    return row_normalize(SpatialWeights(matrix=(c + c.T).tocsr()))


def random_grid_weights(side, rng):
    """Row-normalised weights with random positive symmetric values on a
    side x side rook grid: bipartite, irregular, and W not symmetric."""
    raw = build_rook_grid_weights(side).matrix.tocoo()
    upper = raw.row < raw.col
    c = sparse.coo_matrix((rng.uniform(0.2, 3.0, size=upper.sum()),
                           (raw.row[upper], raw.col[upper])), shape=raw.shape)
    return row_normalize(SpatialWeights(matrix=(c + c.T).tocsr()))


def grid_and_triangle_weights(side):
    """A row-normalised rook grid plus a separate triangle: one bipartite
    component and one with an odd cycle."""
    triangle = sparse.csr_matrix(np.ones((3, 3)) - np.eye(3))
    raw = sparse.block_diag([build_rook_grid_weights(side).matrix, triangle],
                            format="csr")
    return row_normalize(SpatialWeights(matrix=raw))


def odd_squares(*sides):
    """Units (r, c) with r + c odd on rook grids of these sides placed one
    after another, as in a block-diagonal W: the smaller colour class of
    each grid when its side is odd, and one of two equal ones otherwise."""
    units, offset = [], 0
    for side in sides:
        r, c = np.divmod(np.arange(side * side), side)
        units.append(offset + np.flatnonzero((r + c) % 2 == 1))
        offset += side * side
    return np.concatenate(units)


def weights_in_five_layouts():
    """Row-normalised weights of a 5 x 5 torus (every unit has four
    neighbours, so every weight is 0.25, exact in float32) as canonical CSR,
    and as CSC, COO with each entry split into two duplicates, float32 and
    int64-index copies."""
    side = 5
    r, c = np.divmod(np.arange(side * side), side)
    nbrs = [((r + dr) % side) * side + (c + dc) % side
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    rows, cols = np.tile(r * side + c, 4), np.concatenate(nbrs)
    csr = sparse.csr_matrix((np.full(rows.size, 0.25), (rows, cols)),
                            shape=(side * side,) * 2)
    dup = sparse.coo_matrix((np.full(2 * rows.size, 0.125),
                             (np.tile(rows, 2), np.tile(cols, 2))), shape=csr.shape)
    wide = csr.copy()
    wide.indices, wide.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
    return csr, [csr.tocsc(), dup, csr.astype(np.float32), wide]
