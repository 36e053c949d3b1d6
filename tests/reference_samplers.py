"""The MNAR Metropolis loops as they were before their per-call caches:
every proposal recomputes x*[idx] psi_x and the selection term of the
current block. Kept as the reference that ``spatialvb.samplers`` must
reproduce exactly at a fixed seed."""

from __future__ import annotations

import numpy as np

from spatialvb.samplers import _Conditionals, mar_conditional, sample_conditional


def _missing_sel_terms(y_vals, idx, sel) -> float:
    t = sel.x_star[idx] @ sel.psi_x + sel.psi_y * y_vals
    return float(-np.sum(np.logaddexp(0.0, -t)))


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
    work = _Conditionals(phi, x, plan, plan.blocks(partition))
    if y_u_init is None:
        y_u_init = sample_conditional(mar_conditional(phi, y_o, x, plan), rng)
    y = plan.pattern.assemble(y_o, np.asarray(y_u_init, dtype=float))
    resid = y - work.xb
    proposed = np.zeros(k, dtype=np.int64)
    accepted = np.zeros(k, dtype=np.int64)
    for _ in range(n1):
        if scheme == "allb":
            visit = range(k)
        else:
            visit = rng.choice(k, size=k_prime, replace=False)
        for j in visit:
            idx = work.factors[j].idx
            proposal = work.draw(j, resid, rng)
            log_ratio = (_missing_sel_terms(proposal, idx, sel)
                         - _missing_sel_terms(y[idx], idx, sel))
            proposed[j] += 1
            if np.log(rng.random()) < log_ratio:
                y[idx] = proposal
                resid[idx] = proposal - work.xb[idx]
                accepted[j] += 1
    with np.errstate(invalid="ignore"):
        rates = np.where(proposed > 0, accepted / np.maximum(proposed, 1), np.nan)
    return y[plan.pattern.unobserved_idx], rates
