"""Samplers for the missing block: the closed-form MAR conditional, the
MNAR independence Metropolis scheme, block Metropolis (blocked Gibbs under
MAR), and a fixed step-size leapfrog HMC over (theta, y_u).

Every conditional draw of y_u or of one of its blocks takes the fit's
:class:`GmrfPlan` and goes through one :class:`ConditionalGaussian`, on a
banded GMRF factor (:class:`GmrfFactor`) of the relevant block of M_y."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .missing import BlockPartition, MissingPattern, SelectionModel, log_sigmoid_sum
from .posterior import joint_gradient
from .sem import OutOfSupport, PrecisionPattern, SemParams
from .weights import SpatialWeights, csr_dot


def _lapack_check(routine: str, info: int, rho: float | None = None) -> None:
    """Raise on a nonzero ``info``, which the raw LAPACK wrappers return
    instead of raising."""
    if info > 0 and rho is not None:
        raise np.linalg.LinAlgError(
            f"conditional precision block not positive definite (rho={rho}; "
            f"{routine} info={info})")
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info={info}")


class GmrfFactor:
    """Banded Cholesky factor of a principal block M[idx, idx] of a sparse
    symmetric positive definite M with a fixed pattern (Rue 2001; Rue & Held
    2005, ch. 2).

    Construction does the symbolic work once per index set: a reverse
    Cuthill-McKee order ``perm`` of the block's graph, the units in that
    order, ``order = idx[perm]``, the bandwidth ``bw``, and the positions, in
    the data array of ``pattern``, of the band entries and of the rows
    M[order, :]. ``pattern`` must store each entry once (canonical CSR). The
    numeric methods take ``data``, the values of M laid out on that pattern,
    and work in factor order, i.e. on vectors indexed like ``order``. With P
    the permutation that lists idx in ``perm`` order,
    P M[idx, idx] P^T = L L^T; L is held as a LAPACK lower band of shape
    (bw + 1, len(idx)).
    """

    def __init__(self, pattern: sparse.csr_matrix, idx: np.ndarray):
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("GMRF factor of an empty index set")
        # 1 + the position of each entry in the data array of ``pattern``, so
        # that row and column selections carry the positions with them
        pos = sparse.csr_matrix((np.arange(1, pattern.nnz + 1), pattern.indices,
                                 pattern.indptr), shape=pattern.shape)
        self.idx = idx
        self._nnz = pattern.nnz
        self.perm = reverse_cuthill_mckee(pos[idx][:, idx],
                                          symmetric_mode=True).astype(np.intp)
        self.order = idx[self.perm]
        self._rows = pos[self.order]   # :meth:`rows` replaces its values
        self._row_src = self._rows.data - 1
        band = self._rows[:, self.order].tocoo()
        i, j = band.row, band.col
        lower = i >= j
        self.bw = int(np.max(i - j))
        # LAPACK lower band, column-major: L[i, j] sits at (i - j) + j (bw + 1)
        self._band_pos = (i - j + j * (self.bw + 1))[lower]
        self._band_src = band.data[lower] - 1

    def _check(self, data: np.ndarray) -> None:
        if data.shape != (self._nnz,):
            raise ValueError(f"data has shape {data.shape}; the factor's "
                             f"pattern holds {self._nnz} entries")

    def cholesky(self, data: np.ndarray, rho: float) -> np.ndarray:
        """Band of L for the values ``data``; ``rho`` only names a failure."""
        self._check(data)
        size = self.idx.size
        flat = np.zeros((self.bw + 1) * size)
        flat[self._band_pos] = data[self._band_src]
        band, info = dpbtrf(flat.reshape((self.bw + 1, size), order="F"),
                            lower=1, overwrite_ab=1)
        _lapack_check("dpbtrf", info, rho)
        return band

    def rows(self, data: np.ndarray) -> sparse.csr_matrix:
        """M[order, :] for the values ``data``: a CSR matrix whose index
        arrays are shared by every call."""
        self._check(data)
        out = copy.copy(self._rows)
        out.data = data[self._row_src]
        return out

    @staticmethod
    def triangular(band: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
        """L^{-1} b for ``trans`` "N", L^{-T} b for "T"."""
        x, info = dtbtrs(band, b, uplo="L", trans=trans)
        _lapack_check("dtbtrs", info)
        return x


class GmrfPlan:
    """The fixed-pattern M_y of one fit, its missing pattern and the symbolic
    factors of every conditional draw of y_u: the unobserved set, built once,
    and the blocks of the partition last asked for, built once per partition.
    Every sampler below takes the plan, so all of them share its factors."""

    def __init__(self, weights: SpatialWeights, pattern: MissingPattern):
        self.precision = PrecisionPattern(weights)
        self.pattern = pattern
        self._blocks: tuple[BlockPartition | None, list[GmrfFactor]] = (None, [])

    @cached_property
    def unobserved(self) -> GmrfFactor:
        return GmrfFactor(self.precision.pattern, self.pattern.unobserved_idx)

    def blocks(self, partition: BlockPartition) -> list[GmrfFactor]:
        """The factors of the blocks of ``partition``, kept until another
        partition is asked for."""
        if self._blocks[0] is not partition:
            self._blocks = (partition, [GmrfFactor(self.precision.pattern, b)
                                        for b in partition.blocks])
        return self._blocks[1]


class ConditionalGaussian:
    """The conditional of y_S given the other units at one phi, S =
    ``factor.order``. With r = y - X beta and c = M[S, :] r it is
    N(y_S - M_SS^{-1} c, sigma2 M_SS^{-1}); the mean equals the textbook
    X_S beta - M_SS^{-1} M_S,rest r_rest and needs only the rows of S.
    ``chol_lower`` is the band of L, M_SS's banded Cholesky factor, shape
    (bw + 1, |S|). All is held in factor order, so a draw permutes nothing;
    ``mean``, set for the unobserved set only, is in sorted order."""

    def __init__(self, phi: SemParams, xb: np.ndarray, m_data: np.ndarray,
                 factor: GmrfFactor):
        self.factor = factor
        self.chol_lower = factor.cholesky(m_data, phi.rho)
        self.rows = factor.rows(m_data)
        self.xb = xb[factor.order]
        self.sigma2 = phi.sigma2_y
        self.scale = np.sqrt(phi.sigma2_y)
        self.mean: np.ndarray | None = None

    def draw(self, resid: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """A draw of y_S, in factor order, from the canonical form (Rue & Held
        2005, sec. 2.3): y_S - L^{-T} (L^{-1} c - sqrt(sigma2) z), i.e. the
        mean y_S - M_SS^{-1} c plus sqrt(sigma2) L^{-T} z, for the cost of
        two triangular solves. With no ``rng`` (no noise) it is the mean."""
        f, band = self.factor, self.chol_lower
        w = f.triangular(band, csr_dot(self.rows, resid), "N")
        if rng is not None:
            w = w - self.scale * rng.standard_normal(f.order.size)
        return resid[f.order] + self.xb - f.triangular(band, w, "T")


def mar_conditional(phi: SemParams, y_o: np.ndarray, x: np.ndarray,
                    plan: GmrfPlan) -> ConditionalGaussian:
    """Conditional of the unobserved responses given the observed ones.

    mean = X_u beta - M_uu^{-1} M_uo (y_o - X_o beta), cov = sigma2 M_uu^{-1}:
    the noise-free draw of the set u at y_u = X_u beta, so r_u = 0.
    """
    xb = x @ phi.beta
    cg = ConditionalGaussian(phi, xb, plan.precision.data(phi.rho), plan.unobserved)
    resid = np.zeros(xb.shape)
    obs = plan.pattern.observed_idx
    resid[obs] = np.asarray(y_o, dtype=float) - xb[obs]
    cg.mean = np.empty(cg.xb.size)
    cg.mean[cg.factor.perm] = cg.draw(resid)
    return cg


def sample_conditional(cg: ConditionalGaussian, rng: np.random.Generator) -> np.ndarray:
    """Exact draw: mean + sqrt(sigma2) P^T L^{-T} z with z standard normal."""
    z = rng.standard_normal(cg.mean.shape[0])
    corr = np.empty(z.shape)
    corr[cg.factor.perm] = cg.factor.triangular(cg.chol_lower, z, "T")
    return cg.mean + cg.scale * corr


def mcmc_nob(phi: SemParams, sel: SelectionModel | None, y_o: np.ndarray,
             x: np.ndarray, plan: GmrfPlan, n1: int, rng: np.random.Generator,
             y_u_init: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Independence Metropolis over the whole missing vector: proposals from
    the MAR conditional, acceptance from the missingness-likelihood ratio.

    With ``sel`` None (MAR) the proposal is the exact conditional, so it is
    accepted with probability one (Chib & Greenberg 1995): one draw, no
    start and no uniform, whatever ``n1`` and ``y_u_init``; the rate is 1.
    """
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    cg = mar_conditional(phi, y_o, x, plan)
    if sel is None:
        return sample_conditional(cg, rng), 1.0
    if y_u_init is None:
        y_u = sample_conditional(cg, rng)
    else:
        y_u = np.asarray(y_u_init, dtype=float).copy()
    x_psi = sel.x_star[plan.pattern.unobserved_idx] @ sel.psi_x
    log_sel = log_sigmoid_sum(x_psi + sel.psi_y * y_u)
    accepted = 0
    for _ in range(n1):
        proposal = sample_conditional(cg, rng)
        log_sel_prop = log_sigmoid_sum(x_psi + sel.psi_y * proposal)
        if np.log(rng.random()) < log_sel_prop - log_sel:
            y_u, log_sel = proposal, log_sel_prop
            accepted += 1
    return y_u, accepted / n1


def mcmc_block(phi: SemParams, sel: SelectionModel | None, y_o: np.ndarray,
               partition: BlockPartition, x: np.ndarray, plan: GmrfPlan,
               scheme: str, n1: int, rng: np.random.Generator,
               y_u_init: np.ndarray | None = None,
               k_prime: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Blockwise Metropolis: per inner iteration visit all k blocks ("allb")
    or a fresh uniform sample of k_prime blocks ("randomb"), proposing each
    block from its MAR conditional given the freshest other blocks.

    With ``sel`` None (MAR) the proposal is the block's exact conditional,
    so every proposal is accepted and no uniform is drawn: blocked Gibbs, a
    Metropolis-Hastings step with acceptance one (Chib & Greenberg 1995).

    Returns the final missing vector and per-block acceptance fractions
    (NaN for blocks never proposed).
    """
    if scheme not in ("allb", "randomb"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    k = partition.k
    if scheme == "randomb" and not (1 <= k_prime <= k):
        raise ValueError(f"k_prime={k_prime} out of range [1, {k}]")
    xb = x @ phi.beta
    m_data = plan.precision.data(phi.rho)
    blocks = [ConditionalGaussian(phi, xb, m_data, f) for f in plan.blocks(partition)]
    if y_u_init is None:
        y_u_init = sample_conditional(mar_conditional(phi, y_o, x, plan), rng)
    y = plan.pattern.assemble(y_o, np.asarray(y_u_init, dtype=float))
    resid = y - xb
    if sel is not None:
        # psi is fixed within the call, and the selection term of a block's
        # current state changes only when a proposal for that block is accepted
        x_psi = [sel.x_star[cg.factor.order] @ sel.psi_x for cg in blocks]
        log_sel = [log_sigmoid_sum(x_psi[j] + sel.psi_y * y[cg.factor.order])
                   for j, cg in enumerate(blocks)]
    proposed = np.zeros(k, dtype=np.int64)
    accepted = np.zeros(k, dtype=np.int64)
    for _ in range(n1):
        if scheme == "allb":
            visit = range(k)
        else:
            visit = rng.choice(k, size=k_prime, replace=False)
        for j in visit:
            cg = blocks[j]
            proposal = cg.draw(resid, rng)
            proposed[j] += 1
            if sel is not None:
                log_sel_prop = log_sigmoid_sum(x_psi[j] + sel.psi_y * proposal)
                if not np.log(rng.random()) < log_sel_prop - log_sel[j]:
                    continue
                log_sel[j] = log_sel_prop
            idx = cg.factor.order
            y[idx] = proposal
            resid[idx] = proposal - cg.xb
            accepted[j] += 1
    with np.errstate(invalid="ignore"):
        rates = np.where(proposed > 0, accepted / np.maximum(proposed, 1), np.nan)
    return y[plan.pattern.unobserved_idx], rates


@dataclass
class McmcConfig:
    """Settings for the inner y_u sampler of one HVB iteration.

    scheme: "nob" (full vector), "allb" (all blocks) or "randomb" (k_prime
    random blocks): Metropolis under MNAR; under MAR "nob" is one exact draw
    and the block schemes are Gibbs. warm_start carries y_u across outer
    iterations instead of the printed per-iteration redraw from the MAR conditional.
    """

    scheme: str
    n1: int = 10
    partition: BlockPartition | None = None
    k_prime: int = 3
    warm_start: bool = False

    def __post_init__(self):
        if self.scheme not in ("nob", "allb", "randomb"):
            raise ValueError(f"unknown sampler scheme {self.scheme!r}")
        if self.n1 < 1:
            raise ValueError("n1 must be at least 1")
        if self.scheme != "nob" and self.partition is None:
            raise ValueError(f"scheme {self.scheme!r} needs a block partition")
        if self.scheme == "randomb" and self.partition is not None and self.partition.k:
            if not (1 <= self.k_prime <= self.partition.k):
                raise ValueError(f"k_prime={self.k_prime} out of range "
                                 f"[1, {self.partition.k}]")


# -- Hamiltonian Monte Carlo ------------------------------------------------


@dataclass
class HmcConfig:
    """Fixed-step leapfrog HMC settings; the mass matrix is the identity.
    The chain keeps ``n_samples`` draws after ``burn_in`` iterations; at
    least two, so that posterior SDs are defined."""

    n_samples: int
    n_leapfrog: int
    step_size: float
    burn_in: int = 0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.n_leapfrog < 1:
            raise ValueError("n_leapfrog must be at least 1")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {self.burn_in}")


@dataclass
class HmcResult:
    chain: np.ndarray          # (n_samples, S + n_u) retained draws
    accept_rate: float
    divergences: int
    log_h_trace: np.ndarray


def _joint_logh_grad(target, chi: np.ndarray):
    """(log h, gradient over chi = (theta, y_u)); (-inf, zeros) where theta
    is outside the support (:class:`OutOfSupport`) or log h or the gradient
    is not finite. Every other error propagates."""
    s = target.S
    try:
        val, g_t, g_u = target.log_h_and_grads(chi[:s], chi[s:])
    except OutOfSupport:
        return -np.inf, np.zeros(chi.shape[0])
    grad = joint_gradient(g_t, g_u)
    if not np.isfinite(val) or not np.all(np.isfinite(grad)):
        return -np.inf, np.zeros(chi.shape[0])
    return val, grad


def _joint_grad(target, chi: np.ndarray) -> np.ndarray | None:
    """Gradient of log h over chi = (theta, y_u), without log h; None where
    theta is outside the support or the gradient is not finite."""
    s = target.S
    try:
        g_t, g_u = target.grads(chi[:s], chi[s:])
    except OutOfSupport:
        return None
    grad = joint_gradient(g_t, g_u)
    return grad if np.all(np.isfinite(grad)) else None


def leapfrog(target, chi: np.ndarray, s: np.ndarray, grad: np.ndarray, eps: float,
             n_steps: int):
    """``n_steps`` leapfrog steps for the potential U = -log h and unit mass
    from (chi, s), with ``grad`` the gradient of log h at chi; half-steps of
    the momentum between full steps are merged.

    Returns (chi', s', log h(chi'), grad'), one gradient evaluation per step.
    Only the accept test reads log h, so steps 1 .. n_steps - 1 evaluate the
    gradient alone (``target.grads``) and only the endpoint also evaluates
    log h (``target.log_h_and_grads``). The trajectory stops as a divergence,
    with log h' = -inf, at the first intermediate point whose gradient cannot
    be evaluated or is not finite, or at an endpoint whose log h or gradient
    is not finite. So an intermediate point with a finite gradient but a
    non-finite log h (e.g. gamma > 1e154, where gamma^2 overflows in the
    prior) does not stop it; at every other point it stops exactly where an
    integrator that evaluates log h at every step would.
    """
    s = s + 0.5 * eps * grad
    for _ in range(n_steps - 1):
        chi = chi + eps * s
        grad = _joint_grad(target, chi)
        if grad is None:
            return chi, s, -np.inf, np.zeros(chi.shape[0])
        s = s + eps * grad
    chi = chi + eps * s
    logh, grad = _joint_logh_grad(target, chi)
    if not np.isfinite(logh):
        return chi, s, logh, grad
    return chi, s + 0.5 * eps * grad, logh, grad


def _start(target, init: tuple[np.ndarray, np.ndarray]):
    """The state (chi, log h, gradient) of a chain at init = (theta, y_u)."""
    chi = np.concatenate([np.asarray(init[0], float), np.asarray(init[1], float)])
    logh, grad = _joint_logh_grad(target, chi)
    if not np.isfinite(logh):
        raise ValueError("HMC initial point has non-finite log h")
    return chi, logh, grad


def _transition(target, state, eps: float, n_steps: int, rng: np.random.Generator):
    """One HMC iteration from ``state`` = (chi, log h, gradient): momenta
    from N(0, I), ``n_steps`` leapfrog steps of size ``eps``, and acceptance
    with probability min(1, exp(H - H*)). Returns (state', accepted,
    diverged); a trajectory :func:`leapfrog` stops is a divergence, and
    rejected."""
    chi, logh, grad = state
    s = rng.standard_normal(chi.shape[0])
    ham0 = -logh + 0.5 * float(s @ s)
    chi_new, s_new, logh_new, grad_new = leapfrog(target, chi, s, grad, eps, n_steps)
    if not np.isfinite(logh_new):
        return state, False, True
    ham1 = -logh_new + 0.5 * float(s_new @ s_new)
    if np.isfinite(ham1) and np.log(rng.random()) < ham0 - ham1:
        return (chi_new, logh_new, grad_new), True, False
    return state, False, False


def hmc_run(target, cfg: HmcConfig, init: tuple[np.ndarray, np.ndarray],
            rng: np.random.Generator) -> HmcResult:
    """HMC with L leapfrog steps per iteration over chi = (theta, y_u):
    :func:`_transition` ``burn_in + n_samples`` times, keeping the last
    ``n_samples`` states. Each iteration evaluates log h once, at the
    endpoint, and the gradient alone at the L - 1 points before it.
    """
    state = _start(target, init)
    total = cfg.burn_in + cfg.n_samples
    chain = np.empty((cfg.n_samples, state[0].shape[0]))
    logh_trace = np.empty(cfg.n_samples)
    accepted = 0
    divergences = 0
    for it in range(total):
        state, acc, div = _transition(target, state, cfg.step_size, cfg.n_leapfrog, rng)
        accepted += acc
        divergences += div
        if it >= cfg.burn_in:
            chain[it - cfg.burn_in] = state[0]
            logh_trace[it - cfg.burn_in] = state[1]
    return HmcResult(chain=chain, accept_rate=accepted / total,
                     divergences=divergences, log_h_trace=logh_trace)


PILOT_ITERATIONS = 200
PILOT_ACCEPTS = 120  # the least count with count / PILOT_ITERATIONS >= 0.6


def tune_step_size(target, cfg: HmcConfig, init, rng: np.random.Generator) -> float:
    """Halve ``cfg.step_size``, at most 20 times, until a pilot of at most
    PILOT_ITERATIONS HMC iterations from ``init`` accepts at least 60% of
    them, i.e. PILOT_ACCEPTS proposals.

    A pilot stops as soon as its verdict is certain: it passes at its
    PILOT_ACCEPTS-th accept, and fails once the iterations left can no
    longer reach that many. Up to that iteration it makes the draws and
    decisions of a full pilot, so every verdict and the returned step are
    those of one; it only leaves ``rng`` fewer draws on.
    """
    start = _start(target, init)
    eps = cfg.step_size
    for _ in range(20):
        state, accepted = start, 0
        for it in range(1, PILOT_ITERATIONS + 1):
            state, acc, _ = _transition(target, state, eps, cfg.n_leapfrog, rng)
            accepted += acc
            if accepted == PILOT_ACCEPTS:
                return eps
            if accepted + PILOT_ITERATIONS - it < PILOT_ACCEPTS:
                break
        eps *= 0.5
    return eps
