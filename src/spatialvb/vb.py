"""Gaussian variational family with factor covariance BB^T + D^2, the JVB
and HVB stochastic-gradient engines, and ADADELTA learning rates.

JVB approximates the joint posterior of (theta, y_u) with one factor
Gaussian of dimension S + n_u. HVB keeps the Gaussian on theta only and
fills y_u each iteration with a draw from its conditional (exact, Gibbs, or
Metropolis, depending on mechanism and scale).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .samplers import (GmrfPlan, HmcConfig, McmcConfig, hmc_run, mar_conditional,
                       mcmc_block, mcmc_nob, sample_conditional, tune_step_size)
from .sem import SemParams

LOG_2PI = float(np.log(2.0 * np.pi))
_UPSILON, _ALPHA = 0.95, 1e-6   # ADADELTA decay rate and conditioning constant
_CLIP = 1e4                     # bound on each gradient coordinate of a step
_SUMMARY_DRAWS = 10_000         # draws of q behind the theta summaries


# -- variational family ------------------------------------------------------


def structural_mask(dim: int, p: int) -> np.ndarray:
    """Boolean (dim, p) mask of free loading entries: the upper triangle of
    the leading p x p block is pinned to zero."""
    return np.tri(dim, p, dtype=bool)


@dataclass
class VParams:
    """Factor-Gaussian variational parameters (mu, B, d)."""

    mu: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        dim, p = self.b.shape
        if p > dim:
            raise ValueError(f"factor count p={p} exceeds dimension {dim}")
        if self.mu.shape != (dim,) or self.d.shape != (dim,):
            raise ValueError("mu, b, d dimensions disagree")
        if np.any(self.b[~structural_mask(dim, p)] != 0.0):
            raise ValueError("structural zeros of B are not zero")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def p(self) -> int:
        return self.b.shape[1]

    @property
    def mask(self) -> np.ndarray:
        return structural_mask(self.dim, self.p)

    def marginal_sd(self) -> np.ndarray:
        return np.sqrt(np.sum(self.b ** 2, axis=1) + self.d ** 2)

    @staticmethod
    def initial(mu: np.ndarray, p: int) -> "VParams":
        """Mean ``mu``, every free loading 0.01 and every d_i 0.1."""
        mu = np.asarray(mu, dtype=float)
        dim = mu.shape[0]
        b = np.full((dim, p), 0.01) * structural_mask(dim, p)
        return VParams(mu=mu.copy(), b=b, d=np.full(dim, 0.1))


@dataclass(frozen=True)
class ReparamDraw:
    eta: np.ndarray
    eps: np.ndarray


def draw_variational(vp: VParams, rng: np.random.Generator):
    """value = mu + B eta + d o eps with standard-normal eta, eps."""
    eta = rng.standard_normal(vp.p)
    eps = rng.standard_normal(vp.dim)
    value = vp.mu + vp.b @ eta + vp.d * eps
    return value, ReparamDraw(eta=eta, eps=eps)


class _Woodbury:
    """Sigma = B B^T + D^2 held by one Cholesky factor of the p x p
    capacitance I + B^T D^-2 B. ``solve`` applies Sigma^{-1} by the Woodbury
    identity, and ``logdet`` = log |Sigma| comes from the same factor by the
    matrix determinant lemma (Ong, Nott & Smith 2018)."""

    def __init__(self, b: np.ndarray, d: np.ndarray):
        d = np.asarray(d, dtype=float)
        if np.any(np.abs(d) < 1e-12):
            raise np.linalg.LinAlgError("singular implied covariance: some d_i ~ 0")
        self.b = b
        self.dinv2 = 1.0 / (d * d)
        cap = np.eye(b.shape[1]) + b.T @ (self.dinv2[:, None] * b)
        self.cap = cho_factor(cap)
        self.logdet = float(2.0 * np.sum(np.log(np.diag(self.cap[0])))
                            + np.sum(np.log(d * d)))

    def solve(self, v: np.ndarray) -> np.ndarray:
        u = self.dinv2 * v
        w = cho_solve(self.cap, self.b.T @ u)
        return u - self.dinv2 * (self.b @ w)


def woodbury_solve(b: np.ndarray, d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(B B^T + D^2)^{-1} v via the Woodbury identity; only a p x p solve."""
    return _Woodbury(b, d).solve(v)


def woodbury_logdet(b: np.ndarray, d: np.ndarray) -> float:
    """log |B B^T + D^2| by the matrix determinant lemma."""
    return _Woodbury(b, d).logdet


# -- single-draw gradient estimators -----------------------------------------


def _estimate(vp: VParams, logh: float, g: np.ndarray, draw: ReparamDraw):
    """(grad_mu, grad_b, grad_d, log h - log q) at value = mu + dev with
    dev = B eta + d o eps, from one factor of Sigma and one solve
    correction = Sigma^{-1} dev; g is the gradient of log h at value."""
    dev = vp.b @ draw.eta + vp.d * draw.eps
    sigma = _Woodbury(vp.b, vp.d)
    correction = sigma.solve(dev)
    grad_mu = g + correction
    grad_b = np.outer(grad_mu, draw.eta) * vp.mask
    grad_d = grad_mu * draw.eps
    log_q = -0.5 * (vp.dim * LOG_2PI + sigma.logdet + float(dev @ correction))
    return grad_mu, grad_b, grad_d, float(logh - log_q)


def jvb_gradient_estimate(vp: VParams, target, rng: np.random.Generator):
    """One pathwise estimate of the ELBO gradient for the joint family.

    Returns (grad_mu, grad_b, grad_d, elbo_sample) with the structural zeros
    of B re-masked and elbo_sample = log h - log q at the draw.
    """
    value, draw = draw_variational(vp, rng)
    s = target.S
    logh, g_theta, g_yu = target.log_h_and_grads(value[:s], value[s:])
    return _estimate(vp, logh, np.concatenate([g_theta, g_yu]), draw)


def hvb_gradient_estimate(vp_theta: VParams, target, y_u_sample: np.ndarray,
                          theta: np.ndarray, draw: ReparamDraw):
    """Gradient estimate for the theta-only family at a sampled y_u.

    theta must be the reparameterised value produced from ``draw``. Returns
    (grad_mu, grad_b, grad_d, elbo_proxy); the proxy log h - log q0 is a
    biased ELBO surrogate used only for trend monitoring.
    """
    logh, g, _ = target.log_h_and_grads(theta, y_u_sample)
    return _estimate(vp_theta, logh, g, draw)


# -- ADADELTA ----------------------------------------------------------------


@dataclass
class AdadeltaState:
    """Decayed moving averages of squared gradients and squared steps."""

    e_grad2: np.ndarray
    e_delta2: np.ndarray

    @staticmethod
    def zeros(shape) -> "AdadeltaState":
        return AdadeltaState(e_grad2=np.zeros(shape), e_delta2=np.zeros(shape))


def adadelta_step(state: AdadeltaState, grad: np.ndarray):
    """Per-coordinate step delta = a o grad with
    a = sqrt((E[delta^2] + alpha) / (E[g^2] + alpha)), decay upsilon = 0.95
    and alpha = 1e-6; returns (delta, state')."""
    e_grad2 = _UPSILON * state.e_grad2 + (1.0 - _UPSILON) * grad ** 2
    rate = np.sqrt((state.e_delta2 + _ALPHA) / (e_grad2 + _ALPHA))
    delta = rate * grad
    e_delta2 = _UPSILON * state.e_delta2 + (1.0 - _UPSILON) * delta ** 2
    return delta, AdadeltaState(e_grad2=e_grad2, e_delta2=e_delta2)


# -- fit results --------------------------------------------------------------


@dataclass
class FitResult:
    method: str
    mechanism: str
    seed: int | None
    iterations: int
    p: int
    vparams: VParams | None
    elbo_trace: np.ndarray
    elbo_label: str
    mean_trajectory: np.ndarray          # (iterations, S), unconstrained mu
    theta_names: list
    theta_mean: np.ndarray               # constrained space
    theta_sd: np.ndarray
    yu_index: np.ndarray
    yu_mean: np.ndarray
    yu_sd: np.ndarray
    tuning: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    chain: np.ndarray | None = None      # HMC only


def default_init_theta(target) -> np.ndarray:
    """OLS starting point: least squares on the observed rows for beta and
    the error variance, near-zero spatial dependence, 0.01 for every psi."""
    obs = target.pattern.observed_idx
    x_o = target.x[obs]
    y_o = target.y_obs
    beta, rss, rank, _ = np.linalg.lstsq(x_o, y_o, rcond=None)
    dof = max(x_o.shape[0] - x_o.shape[1], 1)
    resid = y_o - x_o @ beta
    sigma2 = max(float(resid @ resid) / dof, 1e-8)
    psi = None
    if target.mechanism == "mnar":
        psi = np.full(target.x_star.shape[1] + 1, 0.01)
    return target.unconstrain(SemParams(beta=beta, sigma2_y=sigma2, rho=0.01), psi)


def draw_initial_yu(target, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from p(y_u | phi(theta), y_o): the starting value used for
    the missing block by every fit."""
    if target.n_u == 0:
        return np.empty(0)
    phi, _ = target.model_params(theta)
    plan = GmrfPlan(target.weights, target.pattern)
    return sample_conditional(mar_conditional(phi, target.y_obs, target.x, plan), rng)


def _theta_summaries(target, vp: VParams, s: int, rng):
    """Constrained-space mean and sd of theta under q: draws of the first s
    coordinates only, whose marginal is N(mu[:s], B[:s] B[:s]^T + D[:s]^2)."""
    etas = rng.standard_normal((_SUMMARY_DRAWS, vp.p))
    epss = rng.standard_normal((_SUMMARY_DRAWS, s))
    values = vp.mu[:s] + etas @ vp.b[:s].T + epss * vp.d[:s]
    cons = target.constrain(values)
    return cons.mean(axis=0), cons.std(axis=0, ddof=1)


def _smooth_warning(acc_history: list) -> str | None:
    if len(acc_history) < 200:
        return None
    tail = np.asarray(acc_history[-200:], dtype=float)
    tail = tail[np.isfinite(tail)]
    if tail.size and np.all(tail < 0.05):
        return ("MCMC acceptance persistently below 5%; the tuning guidance "
                "targets 20-30% (adjust block size / N1)")
    return None


def _sga(vp: VParams, estimate, iters: int, s: int, on_step=None):
    """Stochastic-gradient ascent of ``vp`` with ADADELTA learning rates.

    Each iteration makes one call of ``estimate(vp)``, which returns
    (grad_mu, grad_b, grad_d, elbo_sample), clips the gradient at +-_CLIP
    and steps. An iteration whose estimate raises ValueError/LinAlgError or
    is non-finite is skipped: no step, NaN in the ELBO trace. After every
    step ``on_step(t)`` is called. Returns (elbo trace, trajectory of
    mu[:s] at the start of each iteration, skipped count, clipped count).
    """
    states = [AdadeltaState.zeros(a.shape) for a in (vp.mu, vp.b, vp.d)]
    elbo = np.full(iters, np.nan)
    trajectory = np.empty((iters, s))
    skipped = 0
    clipped = 0
    for t in range(iters):
        trajectory[t] = vp.mu[:s]
        try:
            *grads, elbo_t = estimate(vp)
        except (ValueError, np.linalg.LinAlgError):
            skipped += 1
            continue
        if not all(np.all(np.isfinite(g)) for g in grads):
            skipped += 1
            continue
        elbo[t] = elbo_t
        clipped += int(sum(np.sum(np.abs(g) > _CLIP) for g in grads))
        steps = []
        for i, g in enumerate(grads):
            delta, states[i] = adadelta_step(states[i], np.clip(g, -_CLIP, _CLIP))
            steps.append(delta)
        vp.mu = vp.mu + steps[0]
        vp.b = (vp.b + steps[1]) * vp.mask
        vp.d = vp.d + steps[2]
        if on_step is not None:
            on_step(t)
    return elbo, trajectory, skipped, clipped


def _fit_flags(skipped: int, clipped: int, iters: int) -> dict:
    return {"skipped_iterations": skipped, "clipped_coordinates": clipped,
            "flagged": bool(skipped > 0.01 * iters)}


def jvb_fit(target, init: np.ndarray, iters: int, p: int,
            rng: np.random.Generator, seed: int | None = None) -> FitResult:
    """Stochastic-gradient ascent of the joint factor-Gaussian ELBO.

    ``init`` is the starting mean of dimension S + n_u.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    start = time.perf_counter()
    s = target.S
    dim = s + target.n_u
    init = np.asarray(init, dtype=float)
    if init.shape != (dim,):
        raise ValueError(f"init has shape {init.shape}, expected ({dim},)")
    vp = VParams.initial(init, p)
    elbo, trajectory, skipped, clipped = _sga(
        vp, lambda v: jvb_gradient_estimate(v, target, rng), iters, s)
    theta_mean, theta_sd = _theta_summaries(target, vp, s, rng)
    yu_sd = vp.marginal_sd()[s:]
    return FitResult(method="jvb", mechanism=target.mechanism, seed=seed,
                     iterations=iters, p=p, vparams=vp, elbo_trace=elbo,
                     elbo_label="elbo", mean_trajectory=trajectory,
                     theta_names=target.constrained_names(),
                     theta_mean=theta_mean, theta_sd=theta_sd,
                     yu_index=target.pattern.unobserved_idx.copy(),
                     yu_mean=vp.mu[s:].copy(), yu_sd=yu_sd,
                     tuning={"clip": _CLIP},
                     flags=_fit_flags(skipped, clipped, iters),
                     elapsed_seconds=time.perf_counter() - start)


def _sample_yu(target, theta, cfg: McmcConfig, rng, y_u_prev, plan: GmrfPlan):
    """Step 5 of the outer loop: one y_u draw for the current theta."""
    phi, sel = target.model_params(theta)   # sel is None under MAR
    y_o, x = target.y_obs, target.x
    init = y_u_prev if (cfg.warm_start and y_u_prev is not None) else None
    # nob's own loop: held-mean y_u draw 0.59 ms vs block draw 1.17 ms (n = 10,000)
    if cfg.scheme == "nob":
        y_u, rates = mcmc_nob(phi, sel, y_o, x, plan, cfg.n1, rng, y_u_init=init)
    else:
        y_u, rates = mcmc_block(phi, sel, y_o, cfg.partition, x, plan, cfg.scheme,
                                cfg.n1, rng, y_u_init=init, k_prime=cfg.k_prime)
    return y_u, (np.nan if sel is None else float(np.nanmean(rates)))


def hvb_fit(target, init: np.ndarray, iters: int, p: int,
            sampler_cfg: McmcConfig, rng: np.random.Generator,
            yu_window: float = 0.2, seed: int | None = None,
            method_tag: str = "hvb") -> FitResult:
    """Hybrid VB: factor Gaussian on theta, conditional sampling for y_u.

    ``init`` is the starting mean of dimension S. y_u posterior summaries are
    accumulated from sampler states over the final ``yu_window`` fraction of
    iterations.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    start = time.perf_counter()
    s = target.S
    init = np.asarray(init, dtype=float)
    if init.shape != (s,):
        raise ValueError(f"init has shape {init.shape}, expected ({s},)")
    vp = VParams.initial(init, p)
    window_start = int(np.floor(iters * (1.0 - yu_window)))
    n_u = target.n_u
    yu_count = 0
    yu_sum = np.zeros(n_u)
    yu_sumsq = np.zeros(n_u)
    acc_history = []
    # the latest y_u draw and its acceptance; y_u is None before the first draw
    y_u, acc = (None if n_u > 0 else np.empty(0)), np.nan
    plan = GmrfPlan(target.weights, target.pattern) if n_u > 0 else None

    def estimate(v):
        nonlocal y_u, acc
        theta, draw = draw_variational(v, rng)
        if n_u > 0:
            y_u, acc = _sample_yu(target, theta, sampler_cfg, rng, y_u, plan)
        return hvb_gradient_estimate(v, target, y_u, theta, draw)

    def on_step(t):
        nonlocal yu_count, yu_sum, yu_sumsq
        acc_history.append(acc)
        if t >= window_start:
            yu_count += 1
            yu_sum += y_u
            yu_sumsq += y_u ** 2

    elbo, trajectory, skipped, clipped = _sga(vp, estimate, iters, s, on_step)
    if yu_count > 1:
        yu_mean = yu_sum / yu_count
        var = (yu_sumsq - yu_count * yu_mean ** 2) / (yu_count - 1)
        yu_sd = np.sqrt(np.maximum(var, 0.0))
    else:
        yu_mean = yu_sum / max(yu_count, 1)
        yu_sd = np.full(n_u, np.nan)
    theta_mean, theta_sd = _theta_summaries(target, vp, s, rng)
    warning = _smooth_warning(acc_history)
    finite_acc = [a for a in acc_history if np.isfinite(a)]
    flags = {**_fit_flags(skipped, clipped, iters), "elbo_is_proxy": True}
    if warning:
        flags["acceptance_warning"] = warning
    # under MAR, nob is one exact draw: no n1 steps and no start to carry
    exact = sampler_cfg.scheme == "nob" and target.mechanism == "mar"
    tuning = {"scheme": sampler_cfg.scheme, "n1": None if exact else sampler_cfg.n1,
              "block_size": (sampler_cfg.partition.block_size
                             if sampler_cfg.partition else None),
              "k": sampler_cfg.partition.k if sampler_cfg.partition else None,
              "k_prime": sampler_cfg.k_prime if sampler_cfg.scheme == "randomb" else None,
              "warm_start": None if exact else sampler_cfg.warm_start,
              "mean_acceptance": float(np.mean(finite_acc)) if finite_acc else None,
              "yu_window": yu_window, "clip": _CLIP}
    return FitResult(method=method_tag, mechanism=target.mechanism, seed=seed,
                     iterations=iters, p=p, vparams=vp, elbo_trace=elbo,
                     elbo_label="elbo_proxy", mean_trajectory=trajectory,
                     theta_names=target.constrained_names(),
                     theta_mean=theta_mean, theta_sd=theta_sd,
                     yu_index=target.pattern.unobserved_idx.copy(),
                     yu_mean=yu_mean, yu_sd=yu_sd, tuning=tuning, flags=flags,
                     elapsed_seconds=time.perf_counter() - start)


def hmc_fit(target, cfg: HmcConfig, init_theta: np.ndarray,
            rng: np.random.Generator, seed: int | None = None) -> FitResult:
    """Tune the step size from ``cfg.step_size``, run the leapfrog HMC
    baseline and package chain summaries."""
    start = time.perf_counter()
    y_u0 = draw_initial_yu(target, init_theta, rng)
    eps = tune_step_size(target, cfg, (init_theta, y_u0), rng)
    res = hmc_run(target, replace(cfg, step_size=eps), (init_theta, y_u0), rng)
    s = target.S
    cons = target.constrain(res.chain[:, :s])
    yu_draws = res.chain[:, s:]
    return FitResult(method="hmc", mechanism=target.mechanism, seed=seed,
                     iterations=cfg.n_samples, p=0, vparams=None,
                     elbo_trace=res.log_h_trace, elbo_label="log_h",
                     mean_trajectory=res.chain[:, :s],
                     theta_names=target.constrained_names(),
                     theta_mean=cons.mean(axis=0),
                     theta_sd=cons.std(axis=0, ddof=1),
                     yu_index=target.pattern.unobserved_idx.copy(),
                     yu_mean=yu_draws.mean(axis=0) if yu_draws.size else np.empty(0),
                     yu_sd=yu_draws.std(axis=0, ddof=1) if yu_draws.size else np.empty(0),
                     tuning={"step_size": eps, "n_leapfrog": cfg.n_leapfrog,
                             "burn_in": cfg.burn_in,
                             "accept_rate": res.accept_rate,
                             "divergences": res.divergences},
                     flags={}, elapsed_seconds=time.perf_counter() - start,
                     chain=res.chain)
