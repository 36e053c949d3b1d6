"""Gaussian test doubles implementing the target-density interface."""

from types import SimpleNamespace

import numpy as np


class GaussianTarget:
    """log h = exact multivariate normal log-density over (theta, y_u).

    The first s coordinates play the role of theta; the rest are y_u.
    """

    mechanism = "mar"

    def __init__(self, mean, cov, s=None):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        dim = self.mean.shape[0]
        self.S = dim if s is None else s
        self.n_u = dim - self.S
        self.prec = np.linalg.inv(self.cov)
        sign, logdet = np.linalg.slogdet(self.cov)
        self._const = -0.5 * (dim * np.log(2 * np.pi) + logdet)
        self.pattern = SimpleNamespace(unobserved_idx=np.arange(self.n_u))

    def _joint(self, theta, y_u):
        return np.concatenate([np.atleast_1d(theta), np.atleast_1d(y_u)])

    def log_h_and_grads(self, theta, y_u):
        dev = self._joint(theta, y_u) - self.mean
        logh = float(self._const - 0.5 * dev @ self.prec @ dev)
        grad = -(self.prec @ dev)
        return logh, grad[:self.S], grad[self.S:]

    def grads(self, theta, y_u):
        """The gradients of log_h_and_grads alone, as HMC's inner leapfrog
        steps ask for them; subclasses that override log_h_and_grads get the
        matching gradients (and call counts) for free."""
        return self.log_h_and_grads(theta, y_u)[1:]

    def constrain(self, arr):
        return np.array(arr, dtype=float, copy=True)

    def constrained_names(self):
        return [f"t{i}" for i in range(self.S)]

    def unconstrained_names(self):
        return self.constrained_names()


class ZeroTarget(GaussianTarget):
    """log h identically zero (flat target); gradients vanish."""

    def __init__(self, dim, s=None):
        super().__init__(np.zeros(dim), np.eye(dim), s=s)

    def log_h_and_grads(self, theta, y_u):
        return 0.0, np.zeros(self.S), np.zeros(self.n_u)


class FailingTarget(GaussianTarget):
    """Standard normal over 3 coordinates whose evaluations fail on the
    chosen calls, counted from 0 over log_h_and_grads and grads together:
    they raise ``error`` or, with ``error=None``, return a finite log h with
    a NaN gradient."""

    def __init__(self, fail_calls, error=ValueError):
        super().__init__(np.zeros(3), np.eye(3))
        self.fail_calls = set(fail_calls)
        self.error = error
        self.calls = 0

    def log_h_and_grads(self, theta, y_u):
        call, self.calls = self.calls, self.calls + 1
        if call in self.fail_calls:
            if self.error is None:
                return 0.0, np.full(self.S, np.nan), np.zeros(self.n_u)
            raise self.error(f"forced failure on call {call}")
        return super().log_h_and_grads(theta, y_u)


class CountingTarget(GaussianTarget):
    """A Gaussian target that counts its evaluations, log_h_and_grads and
    grads together."""

    def __init__(self, mean, cov, s=None):
        super().__init__(mean, cov, s=s)
        self.calls = 0

    def log_h_and_grads(self, theta, y_u):
        self.calls += 1
        return super().log_h_and_grads(theta, y_u)


class CliffTarget(CountingTarget):
    """log h is 0 at ``start`` and -1e6 everywhere else, with a zero
    gradient: HMC never diverges on it and rejects every proposal that
    moves, at every step size."""

    def __init__(self, start):
        super().__init__(np.zeros(len(start)), np.eye(len(start)))
        self.start = np.asarray(start, dtype=float)

    def log_h_and_grads(self, theta, y_u):
        self.calls += 1
        moved = np.any(self._joint(theta, y_u) != self.start)
        return -1e6 if moved else 0.0, np.zeros(self.S), np.zeros(self.n_u)
