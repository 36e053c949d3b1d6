import json
from dataclasses import fields

import numpy as np
import pytest

from spatialvb import (MarMechanism, MnarMechanism, SimConfig,
                       simulate_dataset, simulate_sem)

from conftest import dense_sem_cov


def test_shapes_match_config():
    cfg = SimConfig(side=25, seed=1)
    y, x, w, truth = simulate_sem(cfg)
    assert y.shape == (625,)
    assert x.shape == (625, 11)
    assert w.n == 625 and w.row_normalized
    assert truth.beta.shape == (11,)
    assert set(truth.beta).issubset({1.0, 2.0, 3.0, 4.0, 5.0})


def test_same_seed_identical_output():
    cfg = SimConfig(side=5, seed=7)
    y1, x1, _, t1 = simulate_sem(cfg)
    y2, x2, _, t2 = simulate_sem(cfg)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(t1.beta, t2.beta)


def test_explicit_beta_is_respected():
    beta = tuple(float(v) for v in range(1, 13))[:3]
    cfg = SimConfig(side=3, r=2, beta_true=beta, seed=0)
    _, _, _, truth = simulate_sem(cfg)
    np.testing.assert_array_equal(truth.beta, beta)


def test_residuals_independent_at_rho_zero():
    # v = y - X beta should be iid N(0, sigma2) when rho = 0
    reps = 6000
    resid = np.empty((reps, 9))
    for k in range(reps):
        cfg = SimConfig(side=3, r=2, rho_true=0.0, sigma2_true=1.0, seed=k)
        y, x, w, truth = simulate_sem(cfg)
        resid[k] = y - x @ truth.beta
    cov = np.cov(resid.T)
    se_diag = np.sqrt(2.0 / reps)
    se_off = np.sqrt(1.0 / reps)
    assert np.all(np.abs(np.diag(cov) - 1.0) < 5 * se_diag)
    off = cov - np.diag(np.diag(cov))
    assert np.all(np.abs(off) < 5 * se_off)


def test_residual_covariance_matches_dense_oracle():
    reps = 50_000
    cfg0 = SimConfig(side=3, r=2, rho_true=0.6, sigma2_true=1.3, seed=0)
    _, _, w, truth = simulate_sem(cfg0)
    cov_true = dense_sem_cov(truth, w)
    resid = np.empty((reps, 9))
    for k in range(reps):
        cfg = SimConfig(side=3, r=2, rho_true=0.6, sigma2_true=1.3, seed=k)
        y, x, _, t = simulate_sem(cfg)
        resid[k] = y - x @ t.beta
    cov_hat = resid.T @ resid / reps  # mean is exactly zero in the model
    d = np.sqrt(np.outer(np.diag(cov_true), np.diag(cov_true)))
    se = np.sqrt((cov_true ** 2 + d ** 2) / reps)
    assert np.all(np.abs(cov_hat - cov_true) < 5 * se)
    # and E[v] = 0
    se_mean = np.sqrt(np.diag(cov_true) / reps)
    assert np.all(np.abs(resid.mean(axis=0)) < 5 * se_mean)


def test_mar_dataset_counts():
    cfg = SimConfig(side=25, mechanism=MarMechanism(missing_fraction=0.75), seed=3)
    ds = simulate_dataset(cfg)
    assert ds.mechanism == "mar"
    assert ds.pattern.n_u == 469
    assert ds.selection is None


def test_mnar_dataset_missing_fraction_near_75_percent():
    fracs = []
    for seed in range(60):
        cfg = SimConfig(side=25,
                        mechanism=MnarMechanism(psi_0=1.5, psi_xstar=0.5,
                                                psi_y=-0.1, covariate_index=3),
                        seed=seed)
        ds = simulate_dataset(cfg)
        fracs.append(ds.pattern.n_u / 625)
    assert 0.65 < float(np.mean(fracs)) < 0.85


def test_mnar_xstar_structure():
    cfg = SimConfig(side=4, mechanism=MnarMechanism(psi_0=0.5, psi_xstar=0.5,
                                                    psi_y=-0.1,
                                                    covariate_index=2), seed=1)
    ds = simulate_dataset(cfg)
    np.testing.assert_array_equal(ds.selection.x_star[:, 0], 1.0)
    np.testing.assert_array_equal(ds.selection.x_star[:, 1], ds.x[:, 2])


def test_config_json_round_trip():
    cfg = SimConfig(side=7, r=4, beta_true=(1, 2, 3, 4, 5),
                    sigma2_true=2.0, rho_true=0.5,
                    mechanism=MnarMechanism(psi_0=1.0, psi_xstar=0.2,
                                            psi_y=-0.3, covariate_index=4),
                    seed=11)
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg
    mar = SimConfig(side=5, mechanism=MarMechanism(missing_fraction=0.25), seed=2)
    assert SimConfig.from_json(mar.to_json()) == mar


def test_config_takes_left_out_keys_from_the_dataclass():
    mech = MnarMechanism(psi_0=1.0, psi_xstar=0.5, psi_y=-0.2, covariate_index=2)
    doc = {"side": 6, "mechanism": {"kind": "MNAR", "psi_0": 1.0, "psi_xstar": 0.5,
                                    "psi_y": -0.2, "covariate_index": 2}}
    parsed = SimConfig.from_json(json.dumps(doc))
    default = SimConfig(side=6, mechanism=mech)
    for f in fields(SimConfig):
        assert getattr(parsed, f.name) == getattr(default, f.name), f.name


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(side=5, mechanism=MarMechanism(missing_fraction=1.5))
    with pytest.raises(ValueError):
        SimConfig(side=5, r=3,
                  mechanism=MnarMechanism(psi_0=0.0, psi_xstar=0.0, psi_y=0.0,
                                          covariate_index=9))
    with pytest.raises(ValueError):
        SimConfig(side=5, r=2, beta_true=(1.0,))


def test_config_rejects_rho_outside_interval():
    with pytest.raises(ValueError, match="rho_true"):
        SimConfig(side=5, rho_true=1.2)
