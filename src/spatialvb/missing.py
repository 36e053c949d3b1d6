"""Missing-data machinery: indicator patterns, the logistic selection model,
and block partitions of the unobserved index set."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class MissingPattern:
    """Binary missingness indicator (1 = missing) with derived index sets."""

    m: np.ndarray
    observed_idx: np.ndarray = field(init=False)
    unobserved_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.int8)
        if m.ndim != 1 or not np.isin(m, (0, 1)).all():
            raise ValueError("m must be a 1-d vector of 0/1 indicators")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "observed_idx", np.flatnonzero(m == 0))
        object.__setattr__(self, "unobserved_idx", np.flatnonzero(m == 1))

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def n_o(self) -> int:
        return self.observed_idx.shape[0]

    @property
    def n_u(self) -> int:
        return self.unobserved_idx.shape[0]

    def assemble(self, y_o: np.ndarray, y_u: np.ndarray) -> np.ndarray:
        """Full response vector from observed and imputed pieces."""
        y = np.empty(self.n, dtype=float)
        y[self.observed_idx] = y_o
        y[self.unobserved_idx] = y_u
        return y


@dataclass(frozen=True)
class SelectionModel:
    """Logistic model for the missingness probability of each unit:
    p_i = logistic(x*_i psi_x + y_i psi_y)."""

    psi_x: np.ndarray
    psi_y: float
    x_star: np.ndarray

    def __post_init__(self):
        psi_x = np.atleast_1d(np.asarray(self.psi_x, dtype=float))
        x_star = np.asarray(self.x_star, dtype=float)
        if x_star.ndim != 2 or x_star.shape[1] != psi_x.shape[0]:
            raise ValueError(f"x_star shape {x_star.shape} inconsistent with "
                             f"len(psi_x)={psi_x.shape[0]}")
        if not np.all(x_star[:, 0] == 1.0):
            raise ValueError("first column of x_star must be all ones")
        object.__setattr__(self, "psi_x", psi_x)
        object.__setattr__(self, "x_star", x_star)

    @property
    def psi(self) -> np.ndarray:
        """Stacked (psi_x, psi_y), length q+2."""
        return np.append(self.psi_x, self.psi_y)


def _predictor(x_star, psi_x, psi_y: float, y: np.ndarray) -> np.ndarray:
    return x_star @ psi_x + psi_y * y


def log_sigmoid_sum(t: np.ndarray) -> float:
    """sum_i log logistic(t_i) = -sum_i log(1 + e^{-t_i}), exact at large t."""
    return float(-np.logaddexp(0.0, -t).sum())


def _logistic(t: np.ndarray) -> np.ndarray:
    # logistic via tanh avoids overflow in exp
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class SelectionTerms:
    """The selection model at one full response y, for the missingness
    vector m: the predictor t = x* psi_x + psi_y y and the residual m - p,
    each computed once, with the log likelihood and both gradients read off
    them. Inputs are taken as given; the public ``selection_*`` functions
    check them."""

    def __init__(self, m: np.ndarray, y: np.ndarray, x_star: np.ndarray,
                 psi_x: np.ndarray, psi_y: float):
        self.m, self.y, self.x_star, self.psi_y = m, y, x_star, psi_y
        self.t = _predictor(x_star, psi_x, psi_y, y)

    @cached_property
    def resid(self) -> np.ndarray:
        return self.m - _logistic(self.t)

    def log_prob(self) -> float:
        """log p(m | y, psi) = sum_i log logistic(+-t_i), with + where m_i = 1
        (missing) and - where m_i = 0."""
        return log_sigmoid_sum(np.where(self.m == 1, self.t, -self.t))

    def grad_psi(self) -> np.ndarray:
        """d log p / d psi = sum_i (m_i - p_i) z_i, z_i = (x*_i, y_i)."""
        return np.append(self.x_star.T @ self.resid, float(self.y @ self.resid))

    def grad_y(self, idx: np.ndarray) -> np.ndarray:
        """d log p / d y_idx = (m_i - p_i) psi_y."""
        return self.psi_y * self.resid[idx]


def _terms(m, y: np.ndarray, sel: SelectionModel) -> SelectionTerms:
    m_vec = m.m if isinstance(m, MissingPattern) else np.asarray(m)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != sel.x_star.shape[0] or m_vec.shape[0] != y.shape[0]:
        raise ValueError("m, y, and x_star must share the unit dimension")
    return SelectionTerms(m_vec, y, sel.x_star, sel.psi_x, sel.psi_y)


def selection_log_prob(m, y: np.ndarray, sel: SelectionModel) -> float:
    """Log of the product-Bernoulli missingness likelihood p(m | y, psi)."""
    return _terms(m, y, sel).log_prob()


def selection_probabilities(y: np.ndarray, sel: SelectionModel) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return _logistic(_predictor(sel.x_star, sel.psi_x, sel.psi_y, y))


def selection_grad_psi(m, y: np.ndarray, sel: SelectionModel) -> np.ndarray:
    """d selection_log_prob / d psi = sum_i (m_i - p_i) z_i, z_i = (x*_i, y_i).

    No prior term; the posterior module appends it.
    """
    return _terms(m, y, sel).grad_psi()


def selection_grad_yu(m, y: np.ndarray, sel: SelectionModel,
                      pattern: MissingPattern) -> np.ndarray:
    """d selection_log_prob / d y_u, entrywise (m_i - p_i) psi_y at missing
    positions (where m_i = 1 this is (1 - p_i) psi_y)."""
    return _terms(m, y, sel).grad_y(pattern.unobserved_idx)


def generate_mar(y: np.ndarray, fraction: float, seed) -> MissingPattern:
    """Mark a uniformly random subset of round(n * fraction) units missing,
    independently of y."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"missing fraction must lie in (0, 1), got {fraction}")
    n = np.asarray(y).shape[0]
    n_u = round(n * fraction)
    if n_u < 1:
        raise ValueError(f"fraction {fraction} selects no units at n={n}")
    if n_u >= n:
        raise ValueError(f"fraction {fraction} leaves no observed units at n={n}")
    rng = np.random.default_rng(seed)
    missing = rng.choice(n, size=n_u, replace=False)
    m = np.zeros(n, dtype=np.int8)
    m[missing] = 1
    return MissingPattern(m=m)


def generate_mnar(y: np.ndarray, sel: SelectionModel, seed) -> MissingPattern:
    """m_i ~ Bernoulli(p_i) with logistic p_i depending on y itself."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != sel.x_star.shape[0]:
        raise ValueError("y and x_star must share the unit dimension")
    rng = np.random.default_rng(seed)
    p = selection_probabilities(y, sel)
    m = (rng.random(y.shape[0]) < p).astype(np.int8)
    return MissingPattern(m=m)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint blocks covering the unobserved index set."""

    blocks: tuple
    block_size: int

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=np.intp) for b in self.blocks)
        sizes = [b.size for b in blocks]
        if any(s == 0 for s in sizes):
            raise ValueError("empty block")
        if any(s > self.block_size for s in sizes):
            raise ValueError("block exceeds the target block size")
        if sum(s < self.block_size for s in sizes) > 1:
            raise ValueError("at most one remainder block may be undersized")
        object.__setattr__(self, "blocks", blocks)
        combined = self.indices
        if np.unique(combined).size != combined.size:
            raise ValueError("blocks overlap")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate((np.empty(0, dtype=np.intp), *self.blocks))


def default_block_size(n_u: int, mechanism: str) -> int:
    """Default block sizing: MNAR schemes use 25% of n_u (10% above 1000
    missing units); MAR Gibbs sweeps use a fixed 500."""
    if mechanism == "mnar":
        frac = 0.25 if n_u <= 1000 else 0.10
        return int(np.ceil(n_u * frac))
    if mechanism == "mar":
        return min(500, n_u)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def make_blocks(pattern: MissingPattern, block_size: int, seed) -> BlockPartition:
    """Shuffle the unobserved indices and chunk them into ceil(n_u/k*) blocks;
    with nothing missing there are no blocks."""
    n_u = pattern.n_u
    if n_u and not (1 <= block_size <= n_u):
        raise ValueError(f"block size {block_size} out of range [1, {n_u}]")
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(pattern.unobserved_idx)
    k = int(np.ceil(n_u / block_size)) if n_u else 0
    blocks = tuple(shuffled[j * block_size:(j + 1) * block_size] for j in range(k))
    return BlockPartition(blocks=blocks, block_size=block_size)
