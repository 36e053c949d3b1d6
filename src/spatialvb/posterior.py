"""Unnormalized log-posterior log h(theta, y_u) and its analytic gradients.

theta lives in unconstrained space and is flattened as
(beta_0..beta_r, gamma, rho_logit[, psi_0..psi_q, psi_y]); gamma is
log sigma2_y and rho_logit the logit-type transform of rho. Both VB engines
and the HMC baseline consume this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .missing import MissingPattern, SelectionModel, SelectionTerms
from .sem import PrecisionOps, SemParams, drho_dlogit, rho_from_logit
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
        """(beta, gamma, rho_logit, rho, psi or None); raises ValueError if
        rho leaves its admissible interval."""
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
            raise ValueError(f"rho={rho} outside admissible interval (-1.0, 1.0)")
        psi = theta[self.n_beta + 2:] if self.mechanism == "mnar" else None
        return beta, gamma, lam, rho, psi

    def model_params(self, theta: np.ndarray
                     ) -> tuple[SemParams, SelectionModel | None]:
        """The constrained SEM parameters at theta and, under MNAR, the
        selection model. Raises ValueError if rho leaves its interval."""
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

    def _prepare(self, theta: np.ndarray, y_u: np.ndarray) -> SimpleNamespace:
        beta, gamma, lam, rho, psi = self._split(theta)
        y_u = np.asarray(y_u, dtype=float)
        if y_u.shape != (self.n_u,):
            raise ValueError(f"y_u has shape {y_u.shape}, expected ({self.n_u},)")
        y = self.pattern.assemble(self.y_obs, y_u)
        r = y - self.x @ beta
        wr = csr_dot(self.weights.matrix, r)  # W r and W^T A r: the only products
        ar = r - rho * wr                     # A r
        m_r = ar - rho * csr_dot_t(self.weights.matrix, ar)  # M_y r = A^T A r
        quad = float(ar @ ar)                 # r^T M_y r
        sel = None
        if psi is not None:
            sel = SelectionTerms(self.pattern.m, y, self.x_star, psi[:-1], float(psi[-1]))
        return SimpleNamespace(beta=beta, gamma=gamma, lam=lam, psi=psi, sel=sel,
                               rho=rho, exp_ng=np.exp(-gamma), r=r, wr=wr, m_r=m_r,
                               quad=quad, pivots=self.ops.pivots(rho))

    def _value(self, s: SimpleNamespace) -> float:
        pr = self.priors
        val = (-0.5 * self.n * s.gamma
               + 0.5 * self.ops.logdet_m(s.rho, s.pivots)
               - 0.5 * s.exp_ng * s.quad
               - 0.5 * float(s.beta @ s.beta) / pr.var_beta
               - 0.5 * s.gamma ** 2 / pr.var_gamma
               - 0.5 * s.lam ** 2 / pr.var_rho_logit)
        if s.sel is not None:
            val += s.sel.log_prob()
            val -= 0.5 * float(s.psi @ s.psi) / pr.var_psi
        return float(val)

    def _grad_theta(self, s: SimpleNamespace) -> np.ndarray:
        pr = self.priors
        g_beta = s.exp_ng * (self.x.T @ s.m_r) - s.beta / pr.var_beta
        g_gamma = -0.5 * self.n + 0.5 * s.exp_ng * s.quad - s.gamma / pr.var_gamma
        # r'(dM/drho)r = -r'(W' + W)r + 2 rho r'W'Wr = -2 r.Wr + 2 rho |Wr|^2
        r_dm_r = -2.0 * float(s.r @ s.wr) + 2.0 * s.rho * float(s.wr @ s.wr)
        trace = self.ops.trace_minv_dm(s.rho, s.pivots)
        dr_dl = drho_dlogit(s.rho)
        g_lambda = ((0.5 * trace - 0.5 * s.exp_ng * r_dm_r) * dr_dl
                    - s.lam / pr.var_rho_logit)
        grad = np.concatenate([g_beta, [g_gamma, g_lambda]])
        if s.sel is not None:
            grad = np.concatenate([grad, s.sel.grad_psi() - s.psi / pr.var_psi])
        return grad

    def _grad_yu(self, s: SimpleNamespace) -> np.ndarray:
        grad = -s.exp_ng * s.m_r[self.pattern.unobserved_idx]
        if s.sel is not None:
            grad = grad + s.sel.grad_y(self.pattern.unobserved_idx)
        return grad

    # Thin public views on one preparation pass each; none calls another, so
    # a traced call of one is never counted inside another. ``grads`` skips
    # the value (log of n pivots; under MNAR, a logaddexp over n units), which
    # HMC's inner leapfrog steps never read: 0.37 of a call at n = 1,600 MNAR.

    def log_h(self, theta: np.ndarray, y_u: np.ndarray) -> float:
        return self._value(self._prepare(theta, y_u))

    def grad_log_h_theta(self, theta: np.ndarray, y_u: np.ndarray) -> np.ndarray:
        return self._grad_theta(self._prepare(theta, y_u))

    def grads(self, theta: np.ndarray, y_u: np.ndarray):
        """(grad wrt theta, grad wrt y_u) from one preparation pass, without
        the value: no log|M_y| and, under MNAR, no selection log-probability.
        Bit for bit the gradients of :meth:`log_h_and_grads`."""
        s = self._prepare(theta, y_u)
        return self._grad_theta(s), self._grad_yu(s)

    def log_h_and_grads(self, theta: np.ndarray, y_u: np.ndarray):
        """(log h, grad wrt theta, grad wrt y_u) sharing one preparation pass."""
        s = self._prepare(theta, y_u)
        return self._value(s), self._grad_theta(s), self._grad_yu(s)
