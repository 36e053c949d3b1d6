"""Unnormalized log-posterior log h(theta, y_u) and its analytic gradients.

theta lives in unconstrained space and is flattened as
(beta_0..beta_r, gamma, rho_logit[, psi_0..psi_q, psi_y]); gamma is
log sigma2_y and rho_logit the logit-type transform of rho. Both VB engines
and the HMC baseline consume this interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .missing import MissingPattern, SelectionModel, log_sigmoid_sum, logistic
from .sem import OutOfSupport, PrecisionOps, SemParams, drho_dlogit, rho_from_logit
from .weights import SpatialWeights, csr_dot, csr_dot_t, row_sum_gap

RHO_MARGIN = 1e-8


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior variances; all default to 10,000."""

    var_beta: float = 10_000.0
    var_gamma: float = 10_000.0
    var_rho_logit: float = 10_000.0
    var_psi: float = 10_000.0

    def __post_init__(self):
        for name in ("var_beta", "var_gamma", "var_rho_logit", "var_psi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class TargetDensity:
    """log h(theta, y_u) for the spatial error model under MAR or MNAR.

    Immutable after construction; evaluations may run concurrently and are
    deterministic functions of their inputs. The trace/log-determinant
    backend is :class:`PrecisionOps`, both of whose backends are exact: the
    spectrum of W, solved once, or one complex-step sparse LU per
    evaluation. ``evaluations``, the number of evaluations the fit plans
    (10,000 by default, the paper's iteration count), picks between them.
    """

    def __init__(self, x: np.ndarray, weights: SpatialWeights,
                 y_obs: np.ndarray, pattern: MissingPattern,
                 priors: PriorSpec | None = None,
                 x_star: np.ndarray | None = None,
                 mechanism: str = "mar", evaluations: int = 10_000):
        if mechanism not in ("mar", "mnar"):
            raise ValueError(f"unknown mechanism {mechanism!r}")
        if mechanism == "mnar" and x_star is None:
            raise ValueError("MNAR target needs the selection design x_star")
        if not weights.row_normalized:
            raise ValueError(
                "target requires row-normalized weights, but the largest "
                f"|row sum - 1| is {row_sum_gap(weights.matrix):.3g}; write the "
                "weights at full precision, or row-normalise them with "
                "spatialvb.weights.row_normalize")
        self.mechanism = mechanism
        self.x = np.asarray(x, dtype=float)
        self.weights = weights
        self.pattern = pattern
        self.priors = priors if priors is not None else PriorSpec()
        self.x_star = np.asarray(x_star, dtype=float) if x_star is not None else None
        n = weights.n
        if self.x.shape[0] != n or pattern.n != n:
            raise ValueError("design, weights, and pattern disagree on n")
        y_obs = np.asarray(y_obs, dtype=float)
        if y_obs.shape != (pattern.n_o,):
            raise ValueError(f"y_obs has shape {y_obs.shape}, expected ({pattern.n_o},)")
        self.y_obs = y_obs
        # the full response with the observed entries in place; each
        # evaluation copies it and writes y_u into the copy
        self._y = np.zeros(n)
        self._y[pattern.observed_idx] = y_obs
        self._missing = pattern.m == 1
        if mechanism == "mnar":
            # validate x_star once; evaluations read psi straight from theta
            SelectionModel(psi_x=np.zeros(self.x_star.shape[1]), psi_y=0.0,
                           x_star=self.x_star)
        self.ops = PrecisionOps(weights, evaluations)
        self.n_beta = self.x.shape[1]
        self._i_gamma = self.n_beta
        self._i_lambda = self.n_beta + 1

    # -- dimensions ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def n_u(self) -> int:
        return self.pattern.n_u

    @property
    def S(self) -> int:
        s = self.n_beta + 2
        if self.mechanism == "mnar":
            s += self.x_star.shape[1] + 1
        return s

    def unconstrained_names(self) -> list[str]:
        names = [f"beta{j}" for j in range(self.n_beta)] + ["gamma", "rho_logit"]
        if self.mechanism == "mnar":
            names += [f"psi{j}" for j in range(self.x_star.shape[1])] + ["psi_y"]
        return names

    def constrained_names(self) -> list[str]:
        names = self.unconstrained_names()
        names[self._i_gamma] = "sigma2_y"
        names[self._i_lambda] = "rho"
        return names

    def constrain(self, theta: np.ndarray) -> np.ndarray:
        """Map unconstrained draws (last axis = theta) to constrained space."""
        out = np.array(theta, dtype=float, copy=True)
        out[..., self._i_gamma] = np.exp(out[..., self._i_gamma])
        out[..., self._i_lambda] = np.tanh(0.5 * out[..., self._i_lambda])
        return out

    # -- evaluation ----------------------------------------------------

    def _split(self, theta: np.ndarray):
        """(beta, gamma, rho_logit, rho, psi or None); raises
        :class:`OutOfSupport` if rho leaves its admissible interval."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.S,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.S},)")
        beta = theta[:self.n_beta]
        gamma = float(theta[self._i_gamma])
        lam = float(theta[self._i_lambda])
        rho = rho_from_logit(lam)
        # the spectrum of a row-normalised W lies in [-1, 1], so (-1, 1), the
        # image of rho = tanh(l / 2), is inside the admissible interval
        if not (-1.0 + RHO_MARGIN < rho < 1.0 - RHO_MARGIN):
            raise OutOfSupport(f"rho={rho} outside admissible interval (-1.0, 1.0)")
        psi = theta[self.n_beta + 2:] if self.mechanism == "mnar" else None
        return beta, gamma, lam, rho, psi

    def model_params(self, theta: np.ndarray
                     ) -> tuple[SemParams, SelectionModel | None]:
        """The constrained SEM parameters at theta and, under MNAR, the
        selection model. Raises :class:`OutOfSupport` if rho leaves its
        interval."""
        beta, gamma, _, rho, psi = self._split(theta)
        sel = None
        if psi is not None:
            sel = SelectionModel(psi_x=psi[:-1], psi_y=float(psi[-1]),
                                 x_star=self.x_star)
        return SemParams(beta=beta, sigma2_y=float(np.exp(gamma)), rho=rho), sel

    def unconstrain(self, phi: SemParams, psi: np.ndarray | None = None) -> np.ndarray:
        """theta at the SEM parameters ``phi`` and, under MNAR, the selection
        coefficients ``psi``: the inverse of :meth:`model_params`."""
        if not -1.0 < phi.rho < 1.0:
            raise ValueError(f"rho={phi.rho} must lie strictly inside (-1, 1)")
        lam = float(np.log1p(phi.rho) - np.log1p(-phi.rho))
        parts = [phi.beta, [np.log(phi.sigma2_y), lam]]
        return np.concatenate(parts if psi is None else [*parts, psi])

    def _evaluate(self, theta: np.ndarray, y_u: np.ndarray, value: bool):
        """(log h or None, gradient over (theta, y_u)) from one pass; the
        gradient is one array of length S + n_u, log h is computed only if
        ``value``. Two sparse products per call, W r and W^T A r; the value
        alone adds log |M_y| and, under MNAR, the selection log-probability,
        a logaddexp over n units."""
        beta, gamma, lam, rho, psi = self._split(theta)
        y_u = np.asarray(y_u, dtype=float)
        if y_u.shape != (self.n_u,):
            raise ValueError(f"y_u has shape {y_u.shape}, expected ({self.n_u},)")
        pr, nb, s = self.priors, self.n_beta, self.S
        u_idx = self.pattern.unobserved_idx
        y = self._y.copy()
        y[u_idx] = y_u
        r = y - self.x @ beta
        wr = csr_dot(self.weights.matrix, r)
        ar = r - rho * wr                     # A r
        m_r = ar - rho * csr_dot_t(self.weights.matrix, ar)  # M_y r = A^T A r
        quad = float(ar @ ar)                 # r^T M_y r
        exp_ng = np.exp(-gamma)
        pivots = self.ops.pivots(rho)
        grad = np.empty(s + self.n_u)
        grad[:nb] = exp_ng * (self.x.T @ m_r) - beta / pr.var_beta
        grad[nb] = -0.5 * self.n + 0.5 * exp_ng * quad - gamma / pr.var_gamma
        # r'(dM/drho)r = -r'(W' + W)r + 2 rho r'W'Wr = -2 r.Wr + 2 rho |Wr|^2
        r_dm_r = -2.0 * float(r @ wr) + 2.0 * rho * float(wr @ wr)
        trace = self.ops.trace_minv_dm(rho, pivots)
        grad[nb + 1] = ((0.5 * trace - 0.5 * exp_ng * r_dm_r) * drho_dlogit(rho)
                        - lam / pr.var_rho_logit)
        grad[s:] = -exp_ng * m_r[u_idx]
        logh = None
        if value:
            logh = (-0.5 * self.n * gamma
                    + 0.5 * self.ops.logdet_m(rho, pivots)
                    - 0.5 * exp_ng * quad
                    - 0.5 * float(beta @ beta) / pr.var_beta
                    - 0.5 * gamma ** 2 / pr.var_gamma
                    - 0.5 * lam ** 2 / pr.var_rho_logit)
        if psi is not None:
            # the selection model at y: t = x* psi_x + psi_y y and m - p
            psi_x, psi_y = psi[:-1], float(psi[-1])
            t = self.x_star @ psi_x + psi_y * y
            resid = self.pattern.m - logistic(t)
            grad[nb + 2:s - 1] = self.x_star.T @ resid - psi_x / pr.var_psi
            grad[s - 1] = float(y @ resid) - psi[-1] / pr.var_psi
            grad[s:] += psi_y * resid[u_idx]
            if value:
                logh += log_sigmoid_sum(np.where(self._missing, t, -t))
                logh -= 0.5 * float(psi @ psi) / pr.var_psi
        return (None if logh is None else float(logh)), grad

    # Thin public views on one evaluation pass each; none calls another, so a
    # traced call of one is never counted inside another. Both gradients are
    # the two parts g[:S] and g[S:] of one array g (see :func:`joint_gradient`).
    # ``grads`` skips the value, which HMC's inner leapfrog steps never read:
    # 0.37 of a call at n = 1,600 MNAR.

    def log_h(self, theta: np.ndarray, y_u: np.ndarray) -> float:
        return self._evaluate(theta, y_u, True)[0]

    def grad_log_h_theta(self, theta: np.ndarray, y_u: np.ndarray) -> np.ndarray:
        return self._evaluate(theta, y_u, False)[1][:self.S]

    def grads(self, theta: np.ndarray, y_u: np.ndarray):
        """(grad wrt theta, grad wrt y_u) from one evaluation pass, without
        the value: no log|M_y| and, under MNAR, no selection log-probability.
        Bit for bit the gradients of :meth:`log_h_and_grads`."""
        grad = self._evaluate(theta, y_u, False)[1]
        return grad[:self.S], grad[self.S:]

    def log_h_and_grads(self, theta: np.ndarray, y_u: np.ndarray):
        """(log h, grad wrt theta, grad wrt y_u) from one evaluation pass."""
        logh, grad = self._evaluate(theta, y_u, True)
        return logh, grad[:self.S], grad[self.S:]


def joint_gradient(g_theta: np.ndarray, g_yu: np.ndarray) -> np.ndarray:
    """The gradient over (theta, y_u) whose parts are ``g_theta`` and
    ``g_yu``. :class:`TargetDensity` returns them as the two parts of one
    array, which is returned as is; other targets' parts are concatenated."""
    whole = g_theta.base
    if (whole is not None and whole is g_yu.base
            and whole.shape == (g_theta.size + g_yu.size,)):
        return whole
    return np.concatenate([g_theta, g_yu])
