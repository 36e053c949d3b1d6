"""Samplers as they were before a per-call saving, kept as the references
that ``spatialvb.samplers`` must reproduce exactly at a fixed seed: the MNAR
Metropolis loops before their caches (every proposal recomputes x*[idx]
psi_x and the selection term of the current block), HMC before its inner
leapfrog steps stopped evaluating log h, the step-size tuning before its
pilots stopped at a certain verdict, and the blocked Gibbs sweep before it
became ``mcmc_block`` without a selection model."""

from __future__ import annotations

import copy

import numpy as np

from spatialvb.missing import BlockPartition
from spatialvb.samplers import (PILOT_ITERATIONS, ConditionalGaussian, GmrfPlan,
                                HmcConfig, _joint_logh_grad, hmc_run,
                                mar_conditional, sample_conditional)
from spatialvb.sem import SemParams


def _missing_sel_terms(y_vals, idx, sel) -> float:
    t = sel.x_star[idx] @ sel.psi_x + sel.psi_y * y_vals
    return float(-np.sum(np.logaddexp(0.0, -t)))


def _block_conditionals(phi, x, plan, partition):
    """X beta and the conditional of each block of ``partition`` at ``phi``."""
    xb, m_data = x @ phi.beta, plan.precision.data(phi.rho)
    return xb, [ConditionalGaussian(phi, xb, m_data, f) for f in plan.blocks(partition)]


def mcmc_nob_uncached(phi, sel, y_o, x, plan, n1, rng, y_u_init=None):
    cg = mar_conditional(phi, y_o, x, plan)
    u_idx = plan.pattern.unobserved_idx
    if y_u_init is None:
        y_u = sample_conditional(cg, rng)
    else:
        y_u = np.asarray(y_u_init, dtype=float).copy()
    log_sel = _missing_sel_terms(y_u, u_idx, sel)
    accepted = 0
    for _ in range(n1):
        proposal = sample_conditional(cg, rng)
        log_sel_prop = _missing_sel_terms(proposal, u_idx, sel)
        if np.log(rng.random()) < log_sel_prop - log_sel:
            y_u, log_sel = proposal, log_sel_prop
            accepted += 1
    return y_u, accepted / n1


def mcmc_block_uncached(phi, sel, y_o, partition, x, plan, scheme, n1, rng,
                        y_u_init=None, k_prime=3):
    k = partition.k
    xb, blocks = _block_conditionals(phi, x, plan, partition)
    if y_u_init is None:
        y_u_init = sample_conditional(mar_conditional(phi, y_o, x, plan), rng)
    y = plan.pattern.assemble(y_o, np.asarray(y_u_init, dtype=float))
    resid = y - xb
    proposed = np.zeros(k, dtype=np.int64)
    accepted = np.zeros(k, dtype=np.int64)
    for _ in range(n1):
        if scheme == "allb":
            visit = range(k)
        else:
            visit = rng.choice(k, size=k_prime, replace=False)
        for j in visit:
            idx = blocks[j].factor.order
            proposal = blocks[j].draw(resid, rng)
            log_ratio = (_missing_sel_terms(proposal, idx, sel)
                         - _missing_sel_terms(y[idx], idx, sel))
            proposed[j] += 1
            if np.log(rng.random()) < log_ratio:
                y[idx] = proposal
                resid[idx] = proposal - xb[idx]
                accepted[j] += 1
    with np.errstate(invalid="ignore"):
        rates = np.where(proposed > 0, accepted / np.maximum(proposed, 1), np.nan)
    return y[plan.pattern.unobserved_idx], rates


def leapfrog_every_logh(target, chi, s, grad, eps, n_steps):
    """The leapfrog as it was before its inner steps went gradient-only:
    log h and its gradient at every step, stopping at the first non-finite
    log h."""
    s = s + 0.5 * eps * grad
    for step in range(n_steps):
        chi = chi + eps * s
        logh, grad = _joint_logh_grad(target, chi)
        if not np.isfinite(logh):
            return chi, s, logh, grad
        if step < n_steps - 1:
            s = s + eps * grad
    return chi, s + 0.5 * eps * grad, logh, grad


def hmc_run_every_logh(target, cfg, init, rng):
    """``hmc_run`` on :func:`leapfrog_every_logh`; returns (chain, log h
    trace, accepted, divergences)."""
    chi = np.concatenate([np.asarray(init[0], float), np.asarray(init[1], float)])
    logh, grad = _joint_logh_grad(target, chi)
    chain = np.empty((cfg.n_samples, chi.shape[0]))
    logh_trace = np.empty(cfg.n_samples)
    accepted = divergences = 0
    for it in range(cfg.burn_in + cfg.n_samples):
        s = rng.standard_normal(chi.shape[0])
        ham0 = -logh + 0.5 * float(s @ s)
        chi_new, s_new, logh_new, grad_new = leapfrog_every_logh(
            target, chi, s, grad, cfg.step_size, cfg.n_leapfrog)
        if np.isfinite(logh_new):
            ham1 = -logh_new + 0.5 * float(s_new @ s_new)
            if np.isfinite(ham1) and np.log(rng.random()) < ham0 - ham1:
                chi, grad, logh = chi_new, grad_new, logh_new
                accepted += 1
        else:
            divergences += 1
        if it >= cfg.burn_in:
            chain[it - cfg.burn_in] = chi
            logh_trace[it - cfg.burn_in] = logh
    return chain, logh_trace, accepted, divergences


def tune_step_size_full_pilots(target, cfg, init, rng):
    """``tune_step_size`` as it was while every pilot ran all
    PILOT_ITERATIONS iterations of ``hmc_run``."""
    eps = cfg.step_size
    for _ in range(20):
        pilot = HmcConfig(n_samples=PILOT_ITERATIONS, n_leapfrog=cfg.n_leapfrog,
                          step_size=eps)
        res = hmc_run(target, pilot, init, rng)
        if res.accept_rate >= 0.6:
            return eps
        eps *= 0.5
    return eps


def pilot_decisions(target, cfg, init, rng):
    """The pilots of a tuning, each judged from a full run: every pilot runs
    all PILOT_ITERATIONS iterations of ``hmc_run`` on a copy of ``rng``, is
    passed or failed by ``accept_rate >= 0.6``, and then ``rng`` is advanced
    by the iterations up to the one that decided it: the 120th accept, or
    the reject after which 120 accepts are out of reach. An accepted
    proposal is told from a rejected one by whether the chain moved, which
    holds for a continuous target. Returns (step, the deciding iteration of
    each pilot)."""
    eps = cfg.step_size
    start = np.concatenate([np.asarray(init[0], float), np.asarray(init[1], float)])
    deciding = []
    for _ in range(20):
        pilot = HmcConfig(n_samples=PILOT_ITERATIONS, n_leapfrog=cfg.n_leapfrog,
                          step_size=eps)
        res = hmc_run(target, pilot, init, copy.deepcopy(rng))
        moved = np.any(np.diff(np.vstack([start, res.chain]), axis=0) != 0, axis=1)
        accepts = np.cumsum(moved)
        rejects = np.arange(1, PILOT_ITERATIONS + 1) - accepts
        passed = res.accept_rate >= 0.6
        if passed:
            it = int(np.argmax(accepts >= 0.6 * PILOT_ITERATIONS)) + 1
        else:
            it = int(np.argmax(rejects > 0.4 * PILOT_ITERATIONS)) + 1
        deciding.append(it)
        hmc_run(target, HmcConfig(n_samples=it, n_leapfrog=cfg.n_leapfrog,
                                  step_size=eps), init, rng)
        if passed:
            return eps, deciding
        eps *= 0.5
    return eps, deciding


def gibbs_sweep(phi: SemParams, y_o: np.ndarray, partition: BlockPartition,
                x: np.ndarray, plan: GmrfPlan, n1: int, rng: np.random.Generator,
                y_u_init: np.ndarray) -> np.ndarray:
    """N1 full Gibbs sweeps over the blocks of the MAR conditional, each block
    drawn from its exact conditional given the freshest other blocks."""
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    xb, blocks = _block_conditionals(phi, x, plan, partition)
    y = plan.pattern.assemble(y_o, np.asarray(y_u_init, dtype=float))
    resid = y - xb
    for _ in range(n1):
        for cg in blocks:
            draw = cg.draw(resid, rng)
            y[cg.factor.order] = draw
            resid[cg.factor.order] = draw - cg.xb
    return y[plan.pattern.unobserved_idx]
