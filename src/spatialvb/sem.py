"""Spatial error model core: parameters, precision algebra, log-likelihood.

The response of the model is multivariate Gaussian with mean X beta and
covariance sigma2 * (A^T A)^{-1}, where A = I - rho W. All operations here
are pure; the heavy pieces (log-determinant, trace of M^{-1} dM/drho) are
served by :class:`PrecisionOps`, exactly and deterministically at every n:
from the spectrum of W, computed once by a banded eigensolve, when the fit
plans enough evaluations to repay it, and otherwise from one complex-step
sparse LU per rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .weights import SpatialWeights, spectrum_bandwidth, weight_eigenvalues


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


# imaginary step of the complex-step derivative (Martins, Sturdza & Alonso
# 2003): Im f(rho + ih) / h = f'(rho) with no cancellation, so h can be tiny
_COMPLEX_STEP = 1e-30

# One banded eigensolve of W costs about as much as n (bw + 1) / 2,000
# complex-step LUs, bw being its bandwidth in reverse Cuthill-McKee order.
# Break-even counts measured on rook grids, one BLAS thread of a 2-vCPU VM,
# two runs (n = 3,600 in the second only):
#     n       625  1,600  2,500  3,600  4,900  10,000
#     bw       25     40     50     60     70     100
#     count 10-11  38-40  59-70    128 114-182 313-466
# Both costs follow from n and bw alone, so the choice never reads a clock
# and a fixed-seed fit always takes the same backend. They ignore that an LU
# slows at small |rho|, as subnormals appear (fits start at 0.01): at n =
# 10,000, 31 ms at rho = 0.5, 47-53 ms at 0.02-0.01, 69-73 ms at +-0.001.
_BAND_ENTRIES_PER_LU = 2_000


class PrecisionOps:
    """Log-determinant and trace machinery for M_y(rho) on fixed weights.

    Both backends are exact and deterministic. The spectrum of W, computed
    once (:func:`~spatialvb.weights.weight_eigenvalues`), gives O(n)
    evaluations of log|M_y| = 2 sum log(1 - rho lam_i) and
    tr{M_y^{-1} dM_y/drho} = -2 sum lam_i / (1 - rho lam_i). Without it,
    one sparse LU of I - (rho + ih) W per rho gives both from its pivots
    u_ii: log|M_y| = 2 sum log Re u_ii and, by complex-step
    differentiation, tr{M_y^{-1} dM_y/drho} = 2 sum (Im u_ii / Re u_ii) / h.

    ``evaluations`` is the number of :meth:`pivots` calls the caller plans.
    The spectrum is held iff its one-off solve costs no more than that many
    LUs, a cost model in n and the bandwidth of W only; ``evaluations=0``
    always takes the LU.
    """

    n_probes = 0  # no stochastic probes remain

    def __init__(self, w: SpatialWeights, evaluations: int = 10_000):
        self.weights = w
        self.eigenvalues = None
        band_entries = w.n * (spectrum_bandwidth(w) + 1)
        if evaluations * _BAND_ENTRIES_PER_LU >= band_entries:
            self.eigenvalues = weight_eigenvalues(w)

    def pivots(self, rho: float) -> np.ndarray:
        """The pivots of I - rho W at one rho: the factors 1 - rho lam_i of
        its determinant when the spectrum is held, otherwise the complex
        pivots u_ii of I - (rho + ih) W. Pass them to :meth:`logdet_m` and
        :meth:`trace_minv_dm` at the same rho to share one computation.

        The LU does not pivot: for |rho| < 1 and row-normalised W the matrix
        is strictly row diagonally dominant, symmetric reordering keeps that,
        and elimination then meets only pivots with positive real part.
        """
        if self.eigenvalues is not None:
            return 1.0 - rho * self.eigenvalues
        a = spatial_filter(complex(rho, _COMPLEX_STEP), self.weights).tocsc()
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
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
            return float(-2.0 * np.sum(self.eigenvalues / u))
        return float(2.0 * np.sum(u.imag / u.real) / _COMPLEX_STEP)


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

