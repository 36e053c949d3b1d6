"""Synthetic-data generation on regular grids with MAR/MNAR missingness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .io import check_keys, check_types
from .missing import MissingPattern, SelectionModel, generate_mar, generate_mnar
from .sem import SemParams, spatial_filter
from .weights import SpatialWeights, build_rook_grid_weights, row_normalize


@dataclass(frozen=True)
class MarMechanism:
    missing_fraction: float

    kind = "MAR"


@dataclass(frozen=True)
class MnarMechanism:
    psi_0: float
    psi_xstar: float
    psi_y: float
    covariate_index: int  # 1-based position among the r covariates

    kind = "MNAR"


# the JSON type of each sim-config value, and of each field of a mechanism kind
_SIM_TYPES = {"side": int, "r": int, "beta_true": (list, None),
              "sigma2_true": float, "rho_true": float, "mechanism": dict,
              "seed": int}
_MECHANISMS = {"MAR": {"missing_fraction": float},
               "MNAR": {"psi_0": float, "psi_xstar": float, "psi_y": float,
                        "covariate_index": int}}


@dataclass(frozen=True)
class SimConfig:
    side: int
    r: int = 10
    beta_true: tuple | None = None  # None: drawn from discrete uniform {1..5}
    sigma2_true: float = 1.0
    rho_true: float = 0.8
    mechanism: MarMechanism | MnarMechanism = field(
        default_factory=lambda: MarMechanism(missing_fraction=0.75))
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.mechanism, MarMechanism):
            f = self.mechanism.missing_fraction
            if not (0.0 < f < 1.0):
                raise ValueError(f"missing_fraction must lie in (0, 1), got {f}")
        elif isinstance(self.mechanism, MnarMechanism):
            if not (1 <= self.mechanism.covariate_index <= self.r):
                raise ValueError("covariate_index must point at one of the r covariates")
        if self.beta_true is not None and len(self.beta_true) != self.r + 1:
            raise ValueError(f"beta_true must have length r+1={self.r + 1}")
        # (-1, 1) is always inside the admissible interval of a row-normalized
        # weight matrix (spectral radius 1), so this check is exact
        if not (-1.0 < self.rho_true < 1.0):
            raise ValueError(f"rho_true={self.rho_true} outside the admissible "
                             "interval of the row-normalized grid weights")

    @property
    def n(self) -> int:
        return self.side * self.side

    def to_json(self) -> str:
        doc = asdict(self)
        doc["mechanism"] = {"kind": self.mechanism.kind, **doc["mechanism"]}
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "SimConfig":
        """Parse a sim config; an unknown key, at the top or in
        ``mechanism``, a value of the wrong JSON type, or a missing ``side``,
        ``mechanism`` or mechanism field is a ValueError. A key left out
        takes the dataclass default."""
        doc = check_types(json.loads(text), "sim config", _SIM_TYPES,
                          ("side", "mechanism"))
        mech_doc = check_keys(doc["mechanism"], "sim config mechanism",
                              {"kind", *_MECHANISMS["MAR"], *_MECHANISMS["MNAR"]},
                              ("kind",))
        given = mech_doc.pop("kind")
        kind = str(given).upper()
        if kind not in _MECHANISMS:
            raise ValueError(f"unknown mechanism kind {given!r}")
        args = check_types(mech_doc, f"sim config mechanism {kind}",
                           _MECHANISMS[kind], _MECHANISMS[kind])
        doc["mechanism"] = MarMechanism(**args) if kind == "MAR" else MnarMechanism(**args)
        if doc.get("beta_true") is not None:
            doc["beta_true"] = tuple(doc["beta_true"])
        return SimConfig(**doc)


def simulate_sem(cfg: SimConfig):
    """Draw one complete dataset: row-normalized Rook weights, standard
    normal covariates (plus intercept), and y = X beta + A^{-1} e.

    Returns (y, x, w, truth).
    """
    rng = np.random.default_rng(cfg.seed)
    w = row_normalize(build_rook_grid_weights(cfg.side))
    n = cfg.n
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, cfg.r))])
    if cfg.beta_true is not None:
        beta = np.asarray(cfg.beta_true, dtype=float)
    else:
        beta = rng.integers(1, 6, size=cfg.r + 1).astype(float)
    e = rng.standard_normal(n) * np.sqrt(cfg.sigma2_true)
    a = spatial_filter(cfg.rho_true, w)
    v = splu(a.tocsc()).solve(e)
    y = x @ beta + v
    truth = SemParams(beta=beta, sigma2_y=cfg.sigma2_true, rho=cfg.rho_true)
    return y, x, w, truth


@dataclass(frozen=True)
class SimulatedDataset:
    y_full: np.ndarray
    x: np.ndarray
    weights: SpatialWeights
    truth: SemParams
    pattern: MissingPattern
    mechanism: str                     # "mar" | "mnar"
    selection: SelectionModel | None   # ground-truth selection model (MNAR)

    @property
    def y_obs(self) -> np.ndarray:
        return self.y_full[self.pattern.observed_idx]


def simulate_dataset(cfg: SimConfig) -> SimulatedDataset:
    """simulate_sem plus the configured missingness mechanism."""
    y, x, w, truth = simulate_sem(cfg)
    # distinct stream for the mechanism so the SEM draw is mechanism-invariant
    mech_seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    if isinstance(cfg.mechanism, MarMechanism):
        pattern = generate_mar(y, cfg.mechanism.missing_fraction, mech_seed)
        return SimulatedDataset(y_full=y, x=x, weights=w, truth=truth,
                                pattern=pattern, mechanism="mar", selection=None)
    mech = cfg.mechanism
    x_star = np.column_stack([np.ones(cfg.n), x[:, mech.covariate_index]])
    sel = SelectionModel(psi_x=np.array([mech.psi_0, mech.psi_xstar]),
                         psi_y=mech.psi_y, x_star=x_star)
    pattern = generate_mnar(y, sel, mech_seed)
    return SimulatedDataset(y_full=y, x=x, weights=w, truth=truth,
                            pattern=pattern, mechanism="mnar", selection=sel)
