"""Sparse spatial weight matrices: construction, normalization, spectral bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigvals_banded
from scipy.sparse import _sparsetools, csgraph


# a row-normalised W has every nonempty row summing to 1 within this
ROW_SUM_ATOL = 1e-12


def row_sum_gap(m: sparse.csr_matrix) -> float:
    """Largest |row sum - 1| over the rows that have neighbours."""
    sums = np.asarray(m.sum(axis=1)).ravel()
    occupied = np.diff(m.indptr) > 0
    return float(np.max(np.abs(sums[occupied] - 1.0), initial=0.0))


def csr_dot(a: sparse.csr_matrix, v: np.ndarray) -> np.ndarray:
    """a @ v for float64 CSR a and float64 v, by the compiled kernel that
    ``a @ v`` ends in, without its Python dispatch, which at the size of one
    evaluation of log h or one block costs as much as the product."""
    if v.shape != a.shape[1:]:  # the kernel would read past a short v
        raise ValueError(f"vector of shape {v.shape} for a matrix of shape {a.shape}")
    out = np.zeros(a.shape[0])
    _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, v, out)
    return out


def csr_dot_t(a: sparse.csr_matrix, v: np.ndarray) -> np.ndarray:
    """a.T @ v likewise: a's arrays are the CSC form of a.T."""
    if v.shape != a.shape[:1]:
        raise ValueError(f"vector of shape {v.shape} for the transpose of {a.shape}")
    out = np.zeros(a.shape[1])
    _sparsetools.csc_matvec(*a.shape[::-1], a.indptr, a.indices, a.data, v, out)
    return out


class DegenerateUnitError(ValueError):
    """A spatial unit has no neighbours (empty weight-matrix row)."""


@dataclass(frozen=True)
class SpatialWeights:
    """Sparse n x n neighbourhood matrix with zero diagonal.

    The matrix, raw (symmetric 0/1-style adjacency) or row-normalized, has a
    symmetric sparsity pattern and is held as canonical float64 CSR.
    """

    matrix: sparse.csr_matrix
    row_normalized: bool = False

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, sparse.csr_matrix) and m.dtype == np.float64
                and m.has_canonical_format):
            m = sparse.csr_matrix(m, dtype=np.float64, copy=True)
            m.sum_duplicates()
            object.__setattr__(self, "matrix", m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"weight matrix must be square, got {m.shape}")
        if m.diagonal().any():
            raise ValueError("weight matrix has nonzero diagonal entries")
        if m.nnz and (not np.all(np.isfinite(m.data)) or (m.data < 0).any()):
            raise ValueError("weights must be finite and non-negative")
        pattern = (m != 0)
        if (pattern != pattern.T).nnz != 0:
            raise ValueError("weight-matrix sparsity pattern is not symmetric")
        if self.row_normalized and not row_sum_gap(m) <= ROW_SUM_ATOL:
            raise ValueError("row_normalized set but rows do not sum to 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_rook_grid_weights(side: int) -> SpatialWeights:
    """Raw Rook-adjacency weights on a regular side x side grid.

    Unit (r, c) gets weight 1 to its up/down/left/right neighbours. The
    result is not yet normalized.
    """
    if side < 2:
        raise ValueError(f"grid side must be at least 2, got {side}")
    unit = np.arange(side * side).reshape(side, side)
    a = np.r_[unit[:, :-1].ravel(), unit[:-1].ravel()]  # each edge from its
    b = np.r_[unit[:, 1:].ravel(), unit[1:].ravel()]     # left or upper end
    m = sparse.csr_matrix((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])),
                          shape=(unit.size, unit.size))
    return SpatialWeights(matrix=m, row_normalized=False)


def row_normalize(w: SpatialWeights) -> SpatialWeights:
    """Scale each row to sum to 1; the sparsity pattern is unchanged.

    The result keeps the checked pattern and signs of ``w``, so only its row
    sums are checked, not everything that ``SpatialWeights`` checks."""
    counts = np.diff(w.matrix.indptr)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DegenerateUnitError(
            f"unit {empty[0]} has no neighbours; cannot row-normalize"
        )
    m = w.matrix.copy()
    m.data *= np.repeat(1.0 / np.asarray(m.sum(axis=1)).ravel(), counts)
    m.eliminate_zeros()  # as the product D^-1 W did
    if not row_sum_gap(m) <= ROW_SUM_ATOL:
        raise ValueError("rows do not sum to 1 after scaling")
    out = object.__new__(SpatialWeights)
    object.__setattr__(out, "matrix", m)
    object.__setattr__(out, "row_normalized", True)
    return out


def _spanning_forest(m: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(component label, parent, depth) of every unit in a breadth-first
    spanning forest of the graph of ``m``: one tree per connected component,
    rooted at its lowest-numbered unit, which is its own parent at depth 0."""
    n = m.shape[0]
    _, labels = csgraph.connected_components(m, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    # one search from an extra unit n linked to every root spans all components
    coo = m.tocoo()
    graph = sparse.csr_matrix(
        (np.ones(coo.nnz + roots.size),
         (np.concatenate([coo.row, np.full(roots.size, n)]),
          np.concatenate([coo.col, roots]))), shape=(n + 1, n + 1))
    dist, pred = csgraph.shortest_path(graph, directed=False, unweighted=True,
                                       indices=n, return_predecessors=True)
    parent = pred[:n].copy()
    parent[roots] = roots
    return labels, parent, dist[:n].astype(np.intp) - 1


def _has_bipartite_component(m: sparse.csr_matrix) -> bool:
    """True when some connected component is two-colourable by depth parity."""
    labels, _, depth = _spanning_forest(m)
    coo = m.tocoo()
    same_side = depth[coo.row] % 2 == depth[coo.col] % 2  # closes an odd cycle
    return np.unique(labels[coo.row[same_side]]).size < labels.max() + 1


def _check_reversible(m: sparse.csr_matrix) -> np.ndarray:
    """Raise ValueError unless d_i m_ij = d_j m_ji on every edge for a
    positive d (to 1e-12 relative), i.e. m = D^{-1} C with C symmetric. d is
    fixed along a spanning forest (1 at each root), then every edge is
    checked; O(nnz). ``m`` must store no explicit zeros. Returns the depth
    of every unit in that forest."""
    n = m.shape[0]
    _, parent, depth = _spanning_forest(m)
    units = np.flatnonzero(depth > 0)
    ratio = np.ones(n)
    ratio[units] = (np.asarray(m[parent[units], units]).ravel()
                    / np.asarray(m[units, parent[units]]).ravel())
    d = np.ones(n)
    order = np.argsort(depth, kind="stable")
    for level in np.split(order, np.cumsum(np.bincount(depth))[:-1])[1:]:
        d[level] = d[parent[level]] * ratio[level]
    a = (sparse.diags(d) @ m).tocsr()
    a.sort_indices()
    b = a.T.tocsr()
    b.sort_indices()   # same pattern as a: b.data[k] is a_ji for a.data[k] = a_ij
    bad = np.abs(a.data - b.data) > 1e-12 * np.maximum(a.data, b.data)
    if bad.any():
        k = int(np.argmax(bad))
        i = int(np.searchsorted(a.indptr, k, side="right") - 1)
        j = int(a.indices[k])
        raise ValueError(
            f"weights are not of the form D^-1 C with C symmetric: no positive d "
            f"gives d_i W_ij = d_j W_ji at (i, j) = ({i}, {j}), so W has no "
            "symmetric form")
    return depth


def _smaller_colour_class(m: sparse.csr_matrix, depth: np.ndarray) -> np.ndarray | None:
    """Units of the smaller class of the two-colouring of the graph of ``m``
    by parity of ``depth`` in a spanning forest, or None when an edge joins
    two units of one parity, i.e. some component has an odd cycle."""
    odd = depth % 2 == 1
    coo = m.tocoo()
    if np.any(odd[coo.row] == odd[coo.col]):
        return None
    return np.flatnonzero(odd if 2 * np.count_nonzero(odd) <= odd.size else ~odd)


def rho_interval(w: SpatialWeights) -> tuple[float, float]:
    """Admissible interval (1/lam_min(W), 1) for the spatial parameter.

    lam_min = -1 exactly when a connected component is bipartite (+1 on one
    side and -1 on the other is then an eigenvector of the row-stochastic W).
    Otherwise it is the least of :func:`weight_eigenvalues`.
    """
    if not w.row_normalized:
        raise ValueError("rho_interval requires a row-normalized weight matrix")
    if _has_bipartite_component(w.matrix):
        lam_min = -1.0
    else:
        values, _ = weight_eigenvalues(w)  # no bipartite component: all n
        lam_min = float(values[0])
    if lam_min >= 0.0:
        return (-np.inf, 1.0)
    return (1.0 / lam_min, 1.0)


def _pruned(w: SpatialWeights) -> sparse.csr_matrix:
    """W with no explicit zeros, so that its stored entries are its edges."""
    m = w.matrix.tocsr(copy=True)
    m.eliminate_zeros()
    return m


def _rcm_rank(m: sparse.csr_matrix) -> tuple[np.ndarray, int]:
    """Position of each unit in a reverse Cuthill-McKee order of the graph of
    ``m`` (a symmetric pattern), and the bandwidth of ``m`` in that order."""
    perm = csgraph.reverse_cuthill_mckee(m, symmetric_mode=True)
    rank = np.empty(m.shape[0], dtype=np.intp)
    rank[perm] = np.arange(m.shape[0])
    coo = m.tocoo()
    return rank, int(np.max(np.abs(rank[coo.row] - rank[coo.col]), initial=0))


def spectrum_size(w: SpatialWeights) -> tuple[int, int]:
    """(m, bw): the order m of the matrix whose eigenvalues
    :func:`weight_eigenvalues` computes, n or the smaller colour class of a
    bipartite W, and the bandwidth bw of W in reverse Cuthill-McKee order,
    the side of a rook grid. O(nnz), no eigensolve."""
    m = _pruned(w)
    half = _smaller_colour_class(m, _spanning_forest(m)[2])
    return (w.n if half is None else half.size), _rcm_rank(m)[1]


def weight_eigenvalues(w: SpatialWeights) -> tuple[np.ndarray, int]:
    """The spectrum of W as (e, p), e ascending: det(I - rho W) is the
    product of 1 - rho^p e_j.

    The eigenvalues of W are those of the symmetric S = sqrt(W o W^T), taken
    elementwise. For W = D^{-1} C with C symmetric (row-normalised symmetric
    weights, or symmetric W itself) S = D^{1/2} W D^{-1/2} is similar to W.
    Any other W raises ValueError naming the first pair that breaks it.

    p = 1 in general, and e holds all n eigenvalues. p = 2 when W is
    bipartite, every edge joining units of opposite depth parity in a
    spanning forest. With U the smaller colour class (m <= n/2 units) and V
    the rest, S = [0 B; B^T 0] with B = S[U, V], whose eigenvalues are
    +-sigma_j, the singular values of B, and n - 2m zeros (Cvetkovic, Doob
    & Sachs 1980). e then holds the m eigenvalues sigma_j^2 of
    G = B B^T = (S^2)[U, U], and 1 - rho^2 e_j = (1 - rho sigma_j)(1 + rho
    sigma_j). Only this pairwise form is exact to rounding: e reads down to
    -3e-16 on a 40 x 40 grid, and +-sqrt(e) missed the spectrum by 1.8e-8.

    In reverse Cuthill-McKee order S and G are banded, with bandwidth the
    side of a rook grid, and LAPACK's band reduction to tridiagonal form
    (``eigvals_banded``) gives every eigenvalue from the (bw + 1) x m lower
    band in O(m^2 bw) time and O(m bw) memory; no dense matrix is formed.
    On a rook grid G is half the order of S, so the solve does a quarter of
    the work.
    """
    m = _pruned(w)
    half = _smaller_colour_class(m, _check_reversible(m))
    s = m.multiply(m.T).sqrt().tocsr()
    if half is None:
        rank, bw = _rcm_rank(m)             # S has the pattern of W
        power = 1
    else:
        other = np.ones(w.n, dtype=bool)
        other[half] = False
        b = s[half][:, other]
        s = (b @ b.T).tocsr()
        rank, bw = _rcm_rank(s)
        power = 2
    s = s.tocoo()
    i, j = rank[s.row], rank[s.col]
    lower = i >= j
    band = np.zeros((bw + 1, s.shape[0]))
    band[i[lower] - j[lower], j[lower]] = s.data[lower]
    return eigvals_banded(band, lower=True), power
