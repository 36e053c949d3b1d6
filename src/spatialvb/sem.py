"""Spatial error model core: parameters, precision algebra, log-likelihood.

The response of the model is multivariate Gaussian with mean X beta and
covariance sigma2 * (A^T A)^{-1}, where A = I - rho W. All operations here
are pure; the heavy pieces (log-determinant, trace of M^{-1} dM/drho) are
served by :class:`PrecisionOps`, exactly and deterministically at every n:
from the spectrum of W, computed once by a banded eigensolve (of half order
when W is bipartite, as on a rook grid), when the fit plans enough
evaluations to repay it, and otherwise from one complex-step sparse LU per
rho, in a fill-reducing order found once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .weights import SpatialWeights, spectrum_size, weight_eigenvalues


@dataclass(frozen=True)
class SemParams:
    """Constrained model parameters (beta, sigma2_y, rho)."""

    beta: np.ndarray
    sigma2_y: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        if not self.sigma2_y > 0:
            raise ValueError(f"sigma2_y must be positive, got {self.sigma2_y}")


def rho_from_logit(rho_logit: float) -> float:
    # (e^l - 1)/(e^l + 1) evaluated stably
    return float(np.tanh(0.5 * rho_logit))


def drho_dlogit(rho: float) -> float:
    # derivative of rho = tanh(l/2) w.r.t. l
    return 0.5 * (1.0 - rho * rho)


class PrecisionPattern:
    """M_y(rho) = I - rho (W + W^T) + rho^2 W^T W on one fixed sparsity pattern.

    The three terms are placed once on the union of their patterns, so the
    matrix has the same indptr, indices and nnz at every rho, rho = 0
    included; only its data change. (A sparse product A^T A drops exact
    zeros, so its pattern shrinks to the diagonal at rho = 0.) Positions
    into ``pattern`` found once therefore hold at every rho.

    rho must lie in (-1, 1): the spectrum of a row-normalised W lies in
    [-1, 1], so I - rho W is nonsingular and M_y positive definite there.
    """

    def __init__(self, w: SpatialWeights):
        if not w.row_normalized:
            raise ValueError("M_y needs row-normalized weights")
        n = w.n
        wm = w.matrix.tocoo()
        wtw = (w.matrix.T @ w.matrix).tocoo()
        diag = np.arange(n)
        # (term, row, col, value) of I, W, W^T and W^T W; W and W^T add into one term
        term = np.repeat([0, 1, 1, 2], [n, wm.nnz, wm.nnz, wtw.nnz])
        row = np.concatenate([diag, wm.row, wm.col, wtw.row]).astype(np.int64)
        col = np.concatenate([diag, wm.col, wm.row, wtw.col])
        val = np.concatenate([np.ones(n), wm.data, wm.data, wtw.data])
        keys, pos = np.unique(row * n + col, return_inverse=True)
        self._terms = np.zeros((3, keys.size))
        np.add.at(self._terms, (term, pos), val)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        self.pattern = sparse.csr_matrix((np.ones(keys.size), keys % n, indptr),
                                         shape=(n, n))

    def data(self, rho: float) -> np.ndarray:
        """Values of M_y(rho) on ``pattern``, in its storage order."""
        if not (-1.0 < rho < 1.0):
            raise ValueError(f"rho={rho} outside admissible interval (-1, 1)")
        return np.array([1.0, -rho, rho * rho]) @ self._terms

    def matrix(self, rho: float) -> sparse.csr_matrix:
        p = self.pattern
        return sparse.csr_matrix((self.data(rho), p.indices, p.indptr), shape=p.shape)


def spatial_filter(rho: float | complex, w: SpatialWeights) -> sparse.csr_matrix:
    """A = I - rho W."""
    n = w.n
    return (sparse.identity(n, format="csr") - rho * w.matrix).tocsr()


# Imaginary step of the complex-step derivative (Martins, Sturdza & Alonso
# 2003): Im f(rho + ih) / h = f'(rho) + O(h^2), with no cancellation. The
# smallest pivot of I - rho W can vanish at rho = +-1, so the pivots bend on
# the scale 1 - |rho|, and h = 1e-10 (1 - |rho|) keeps the truncation error
# below rounding everywhere in (-1, 1); a fixed 1e-10 lost 2e-9 relative in
# the trace at rho = 1 - 1e-7 on a 60 x 60 grid. A far smaller
# step (1e-30) is no more accurate, but at small |rho| it pushes imaginary
# parts of the fill, which decay like powers of rho, into the subnormal
# range: at n = 10,000 it made one LU 14-29% slower at rho = 0.01 and
# 22-56% slower at 0.001 than this step (two runs), and no slower at 0.5.
_COMPLEX_STEP = 1e-10


def _complex_step(rho: float) -> float:
    return _COMPLEX_STEP * (1.0 - abs(rho))


# no row pivoting: each diagonal entry is its column's pivot (see PrecisionOps.pivots)
_UNPIVOTED = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}

# One banded eigensolve of order m (n, or the smaller colour class of a
# bipartite W) costs about as much as m^2 (bw + 1) / (1,800 n) complex-step
# LUs, bw being the bandwidth of W in reverse Cuthill-McKee order. Break-even
# counts (solve time over one LU at rho = 0.5) and the least count at which
# the rule holds the spectrum, one BLAS thread of a 2-vCPU VM, two runs
# (three for Delaunay at 1,600 and 2,500):
#   half-order solve, rook grids (m = n / 2, rounded down):
#     n       625  1,600  2,500  3,600  4,900   10,000
#     bw       25     40     50     60     70      100
#     count   5-6  10-11     19     32  44-47  112-117
#     rule      3     10     18     31     49      141
#   full solve, Delaunay triangulations of random points (odd cycles):
#     n       625   1,600    2,500    3,600    4,900
#     bw       63     168      222      216      275
#     count 19-23  83-139  159-263  371-407  738-775
#     rule     23     151      310      434      752
# The constant is the geometric mean of m^2 (bw + 1) / (n count) over the 24
# runs, 1,850. On rook grids it grows with n, from 720-790 at n = 625, where
# fixed costs dominate a 7-ms solve, to 2,160-2,260 at n = 10,000, since one
# LU grows faster than n there (31-34 ms); on Delaunay graphs (1,740-3,510)
# it shows no trend in n. The solve itself took 1.1-1.6 ns per m^2 (bw + 1)
# on both from n = 1,600 up.
# Both costs follow from n, m and bw alone, so the choice never reads a clock
# and a fixed-seed fit always takes the same backend. They ignore that an LU
# slows at small |rho|, where parts of its fill turn subnormal (fits start
# at 0.01): at n = 10,000, 27-29 ms at rho = 0.5, 38-39 ms at 0.01 and
# 49-51 ms at +-0.001.
_BAND_ENTRIES_PER_LU = 1_800


class PrecisionOps:
    """Log-determinant and trace machinery for M_y(rho) on fixed weights.

    Both backends are exact and deterministic. The spectrum of W, computed
    once (:func:`~spatialvb.weights.weight_eigenvalues`) as values e with a
    power p, 1 or 2 (bipartite W: the n - 2m zero eigenvalues give factors 1
    and are left out), gives O(m) evaluations of the pivots u_j = 1 - rho^p e_j,
    log|M_y| = 2 sum log u_j and
    tr{M_y^{-1} dM_y/drho} = -2 p rho^(p-1) sum e_j / u_j. Without it,
    one sparse LU of I - (rho + ih) W per rho gives both from its pivots
    u_ii: log|M_y| = 2 sum log Re u_ii and, by complex-step
    differentiation, tr{M_y^{-1} dM_y/drho} = 2 sum (Im u_ii / Re u_ii) / h,
    with h = 1e-10 (1 - |rho|). The LU's fill-reducing order depends on the
    pattern of W alone; it is found at the first LU and held, so each later
    rho only writes the values of the permuted matrix and factors them.

    ``evaluations`` is the number of :meth:`pivots` calls the caller plans.
    The spectrum is held iff its one-off solve costs no more than that many
    LUs, a cost model in n, the order m of the solve and the bandwidth of W
    only; ``evaluations=0`` always takes the LU. ``eigenvalues`` is None on
    the LU, and otherwise holds e, with ``power`` p.
    """

    n_probes = 0  # no stochastic probes remain

    def __init__(self, w: SpatialWeights, evaluations: int = 10_000):
        self.weights = w
        self.eigenvalues = None
        self._lu_pattern = None  # found by the first LU: see _permuted_pattern
        self.power = 1
        m, bw = spectrum_size(w)
        # the solve costs about m^2 (bw + 1) / (n _BAND_ENTRIES_PER_LU) LUs
        if evaluations * _BAND_ENTRIES_PER_LU * w.n >= m * m * (bw + 1):
            self.eigenvalues, self.power = weight_eigenvalues(w)

    def _permuted_pattern(self) -> tuple:
        """CSC indices and indptr of P (I - z W) P', P the fill-reducing
        order SuperLU's MMD finds for the pattern, and the positions of the
        diagonal and of W's entries (in ``W.data`` order) in its data."""
        if self._lu_pattern is None:
            n, wm = self.weights.n, self.weights.matrix
            # MMD reads the pattern only, so any rho in (-1, 1) gives this
            # order. The matrix is complex, as in every later LU: after a
            # real one, whose blocks are half the size, the allocator held
            # 6 MB more at the peak of a run of LUs at n = 10,000.
            # perm_c[i] is the place of unit i in the order.
            place = splu((sparse.identity(n, dtype=complex, format="csc") - 0.5 * wm).tocsc(),
                         permc_spec="MMD_AT_PLUS_A", **_UNPIVOTED).perm_c.astype(np.int64)
            wm = wm.tocoo()
            units = np.arange(n)
            row = place[np.concatenate([units, wm.row])]
            col = place[np.concatenate([units, wm.col])]
            keys, slot = np.unique(col * n + row, return_inverse=True)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
            self._lu_pattern = ((keys % n).astype(np.intc), indptr.astype(np.intc),
                                slot[:n], slot[n:])
        return self._lu_pattern

    def pivots(self, rho: float) -> np.ndarray:
        """The pivots of I - rho W at one rho: the factors 1 - rho^p e_j of
        its determinant when the spectrum is held, otherwise the complex
        pivots u_ii of I - (rho + ih) W. Pass them to :meth:`logdet_m` and
        :meth:`trace_minv_dm` at the same rho to share one computation.
        rho outside (-1, 1) raises LinAlgError on both backends.

        The LU does not pivot: for |rho| < 1 and row-normalised W the matrix
        is strictly row diagonally dominant, symmetric reordering keeps that,
        and elimination then meets only pivots with positive real part.
        """
        if not -1.0 < rho < 1.0:
            raise np.linalg.LinAlgError(f"rho={rho} outside admissible interval (-1, 1)")
        if self.eigenvalues is not None:
            return 1.0 - rho ** self.power * self.eigenvalues
        indices, indptr, diag, entries = self._permuted_pattern()
        data = np.zeros(indices.size, dtype=complex)
        data[entries] = -complex(rho, _complex_step(rho)) * self.weights.matrix.data
        data[diag] += 1.0
        n = self.weights.n
        lu = splu(sparse.csc_matrix((data, indices, indptr), shape=(n, n)),
                  permc_spec="NATURAL", **_UNPIVOTED)
        u = lu.U.diagonal()
        if not (np.all(u.real > 0.0) and np.array_equal(lu.perm_r, lu.perm_c)):
            raise np.linalg.LinAlgError(
                f"I - rho W has a non-positive pivot at rho={rho}; rho out of range?")
        return u

    def logdet_m(self, rho: float, pivots: np.ndarray | None = None) -> float:
        """log |M_y| = 2 log det(I - rho W)."""
        u = self.pivots(rho) if pivots is None else pivots
        if self.eigenvalues is not None:
            if np.any(u <= 0.0):
                raise ValueError(f"rho={rho} outside admissible interval")
            return float(2.0 * np.sum(np.log(u)))
        return float(2.0 * np.sum(np.log(u.real)))

    def trace_minv_dm(self, rho: float, pivots: np.ndarray | None = None) -> float:
        """tr{M_y^{-1} dM_y/drho} = d log|M_y| / drho = -2 tr{A^{-1} W}."""
        u = self.pivots(rho) if pivots is None else pivots
        if self.eigenvalues is not None:
            p = self.power
            return float(-2.0 * p * rho ** (p - 1) * np.sum(self.eigenvalues / u))
        return float(2.0 * np.sum(u.imag / u.real) / _complex_step(rho))


def sem_log_likelihood(y: np.ndarray, params: SemParams, x: np.ndarray,
                       w: SpatialWeights) -> float:
    """Gaussian log-likelihood of the full response vector.

    -(n/2) log(2 pi) - (n/2) log sigma2 + (1/2) log|M_y|
    - (1/(2 sigma2)) r^T M_y r, with r = y - X beta. Like
    :class:`PrecisionPattern`, it refuses rho outside (-1, 1) and weights
    that are not row-normalised.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = w.n
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if x.shape[0] != n or x.shape[1] != params.beta.shape[0]:
        raise ValueError(f"design shape {x.shape} inconsistent with n={n}, "
                         f"len(beta)={params.beta.shape[0]}")
    if not w.row_normalized:
        raise ValueError("the likelihood needs row-normalized weights")
    if not -1.0 < params.rho < 1.0:
        raise ValueError(f"rho={params.rho} outside admissible interval (-1, 1)")
    logdet = PrecisionOps(w, evaluations=1).logdet_m(params.rho)
    r = y - x @ params.beta
    ar = r - params.rho * (w.matrix @ r)
    quad = float(ar @ ar)  # r^T A^T A r
    return (-0.5 * n * np.log(2.0 * np.pi)
            - 0.5 * n * np.log(params.sigma2_y)
            + 0.5 * logdet
            - 0.5 * quad / params.sigma2_y)

