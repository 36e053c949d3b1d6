"""log h and its gradients as ``TargetDensity`` composed them before its one
evaluation pass: a preparation pass that assembled the full response from
its two pieces and held the selection model as a ``SelectionTerms``, then a
value, a theta gradient and a y_u gradient, each built by concatenation.
``TargetDensity`` must reproduce it bit for bit."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from spatialvb.missing import SelectionTerms
from spatialvb.sem import drho_dlogit
from spatialvb.weights import csr_dot, csr_dot_t


def _prepare(target, theta, y_u):
    beta, gamma, lam, rho, psi = target._split(theta)
    y = target.pattern.assemble(target.y_obs, np.asarray(y_u, dtype=float))
    r = y - target.x @ beta
    wr = csr_dot(target.weights.matrix, r)
    ar = r - rho * wr
    m_r = ar - rho * csr_dot_t(target.weights.matrix, ar)
    quad = float(ar @ ar)
    sel = None
    if psi is not None:
        sel = SelectionTerms(target.pattern.m, y, target.x_star, psi[:-1], float(psi[-1]))
    return SimpleNamespace(beta=beta, gamma=gamma, lam=lam, psi=psi, sel=sel,
                           rho=rho, exp_ng=np.exp(-gamma), r=r, wr=wr, m_r=m_r,
                           quad=quad, pivots=target.ops.pivots(rho))


def _value(target, s):
    pr = target.priors
    val = (-0.5 * target.n * s.gamma
           + 0.5 * target.ops.logdet_m(s.rho, s.pivots)
           - 0.5 * s.exp_ng * s.quad
           - 0.5 * float(s.beta @ s.beta) / pr.var_beta
           - 0.5 * s.gamma ** 2 / pr.var_gamma
           - 0.5 * s.lam ** 2 / pr.var_rho_logit)
    if s.sel is not None:
        val += s.sel.log_prob()
        val -= 0.5 * float(s.psi @ s.psi) / pr.var_psi
    return float(val)


def _grad_theta(target, s):
    pr = target.priors
    g_beta = s.exp_ng * (target.x.T @ s.m_r) - s.beta / pr.var_beta
    g_gamma = -0.5 * target.n + 0.5 * s.exp_ng * s.quad - s.gamma / pr.var_gamma
    r_dm_r = -2.0 * float(s.r @ s.wr) + 2.0 * s.rho * float(s.wr @ s.wr)
    trace = target.ops.trace_minv_dm(s.rho, s.pivots)
    g_lambda = ((0.5 * trace - 0.5 * s.exp_ng * r_dm_r) * drho_dlogit(s.rho)
                - s.lam / pr.var_rho_logit)
    grad = np.concatenate([g_beta, [g_gamma, g_lambda]])
    if s.sel is not None:
        grad = np.concatenate([grad, s.sel.grad_psi() - s.psi / pr.var_psi])
    return grad


def _grad_yu(target, s):
    grad = -s.exp_ng * s.m_r[target.pattern.unobserved_idx]
    if s.sel is not None:
        grad = grad + s.sel.grad_y(target.pattern.unobserved_idx)
    return grad


def prepared_log_h_and_grads(target, theta, y_u):
    """(log h, grad wrt theta, grad wrt y_u) from one preparation pass."""
    s = _prepare(target, theta, y_u)
    return _value(target, s), _grad_theta(target, s), _grad_yu(target, s)
