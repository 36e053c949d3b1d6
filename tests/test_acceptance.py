"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The long fits (10,000 iterations) are computed once in
session fixtures and shared across criteria; everything is seeded, so the
suite is deterministic on a given platform. Expect roughly 10-15 minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from spatialvb import (GmrfPlan, HmcConfig, MarMechanism, McmcConfig,
                       MissingPattern, MnarMechanism, SimConfig, TargetDensity,
                       build_rook_grid_weights, default_block_size,
                       make_blocks, mar_conditional,
                       row_normalize, sem_log_likelihood,
                       simulate_dataset, woodbury_solve)
from spatialvb.vb import (VParams, default_init_theta, draw_initial_yu,
                          draw_variational, hmc_fit, hvb_fit,
                          hvb_gradient_estimate, jvb_fit,
                          jvb_gradient_estimate)

from conftest import random_instance, random_selection
from test_samplers import (chain_se, importance_oracle, mnar_instance,
                           run_chain, schur_conditional, cg_covariance)
from toy_targets import GaussianTarget


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared datasets and long fits -------------------------------------------


@pytest.fixture(scope="session")
def mar_data():
    cfg = SimConfig(side=25, mechanism=MarMechanism(missing_fraction=0.75),
                    seed=42)
    ds = simulate_dataset(cfg)
    target = TargetDensity(x=ds.x, weights=ds.weights, y_obs=ds.y_obs,
                           pattern=ds.pattern, mechanism="mar")
    return ds, target


@pytest.fixture(scope="session")
def mnar_data():
    cfg = SimConfig(side=25,
                    mechanism=MnarMechanism(psi_0=1.5, psi_xstar=0.5,
                                            psi_y=-0.1, covariate_index=3),
                    seed=11)
    ds = simulate_dataset(cfg)
    target = TargetDensity(x=ds.x, weights=ds.weights, y_obs=ds.y_obs,
                           pattern=ds.pattern, mechanism="mnar",
                           x_star=ds.selection.x_star)
    return ds, target


@pytest.fixture(scope="session")
def small_data():
    cfg = SimConfig(side=10, mechanism=MarMechanism(missing_fraction=0.25),
                    seed=9)
    ds = simulate_dataset(cfg)
    target = TargetDensity(x=ds.x, weights=ds.weights, y_obs=ds.y_obs,
                           pattern=ds.pattern, mechanism="mar")
    return ds, target


@pytest.fixture(scope="session")
def fit_hvb_nob_mar(mar_data):
    _, target = mar_data
    theta0 = default_init_theta(target)
    return hvb_fit(target, theta0, 10_000, 4, McmcConfig(scheme="nob", n1=1),
                   np.random.default_rng(0), seed=0)


@pytest.fixture(scope="session")
def fit_jvb_mar(mar_data):
    _, target = mar_data
    rng = np.random.default_rng(0)
    theta0 = default_init_theta(target)
    init = np.concatenate([theta0, draw_initial_yu(target, theta0, rng)])
    return jvb_fit(target, init, 10_000, 4, rng, seed=0)


@pytest.fixture(scope="session")
def fit_hvb_allb_mnar(mnar_data):
    ds, target = mnar_data
    part = make_blocks(ds.pattern, default_block_size(ds.pattern.n_u, "mnar"),
                       seed=11)
    theta0 = default_init_theta(target)
    return hvb_fit(target, theta0, 10_000, 4,
                   McmcConfig(scheme="allb", n1=10, partition=part),
                   np.random.default_rng(0), seed=0)


@pytest.fixture(scope="session")
def fit_jvb_mnar(mnar_data):
    _, target = mnar_data
    rng = np.random.default_rng(0)
    theta0 = default_init_theta(target)
    init = np.concatenate([theta0, draw_initial_yu(target, theta0, rng)])
    return jvb_fit(target, init, 10_000, 4, rng, seed=0)


@pytest.fixture(scope="session")
def fit_small_pair(small_data):
    _, target = small_data
    theta0 = default_init_theta(target)
    hmc = hmc_fit(target, HmcConfig(n_samples=5000, n_leapfrog=30,
                                    step_size=0.25, burn_in=1000),
                  theta0, np.random.default_rng(1), seed=1)
    hvb = hvb_fit(target, theta0, 10_000, 4, McmcConfig(scheme="nob", n1=1),
                  np.random.default_rng(2), seed=2)
    jvb_init = np.concatenate([theta0, draw_initial_yu(target, theta0,
                                                       np.random.default_rng(3))])
    jvb = jvb_fit(target, jvb_init, 10_000, 4, np.random.default_rng(3), seed=3)
    return hmc, hvb, jvb


# -- criterion 1: gradient oracle suite ---------------------------------------


def _fd(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        up, dn = x0.copy(), x0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def _oracle_instance(side, n_u, seed, mechanism):
    w = row_normalize(build_rook_grid_weights(side))
    rng = np.random.default_rng(seed)
    n = w.n
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    beta = rng.normal(size=3)
    from spatialvb import SemParams
    params = SemParams(beta=beta, sigma2_y=float(rng.uniform(0.4, 2.0)),
                       rho=float(rng.uniform(-0.5, 0.9)))
    y = x @ beta + rng.standard_normal(n)
    m = np.zeros(n, dtype=np.int8)
    m[rng.choice(n, size=n_u, replace=False)] = 1
    pattern = MissingPattern(m=m)
    sel = random_selection(n, seed + 1, psi_y=float(rng.normal(scale=0.4))) \
        if mechanism == "mnar" else None
    target = TargetDensity(x=x, weights=w, y_obs=y[pattern.observed_idx],
                           pattern=pattern, mechanism=mechanism,
                           x_star=sel.x_star if sel else None)
    theta = target.unconstrain(params, sel.psi if sel else None)
    y_u = y[pattern.unobserved_idx] + 0.3 * rng.standard_normal(n_u)
    return target, theta, y_u


def test_criterion_1_gradient_oracle_suite():
    start = time.perf_counter()
    combos = [(4, 4), (4, 12), (7, 4), (7, 12)]
    worst = 0.0
    count = 0
    for mechanism in ("mar", "mnar"):
        for k in range(25):
            side, n_u = combos[k % 4]
            target, theta, y_u = _oracle_instance(side, n_u, 1000 + k, mechanism)
            a_t = target.grad_log_h_theta(theta, y_u)
            a_u = target.log_h_and_grads(theta, y_u)[2]
            fd_t = _fd(lambda t: target.log_h(t, y_u), theta.copy())
            fd_u = _fd(lambda v: target.log_h(theta, v), y_u.copy())
            analytic = np.concatenate([a_t, a_u])
            fd = np.concatenate([fd_t, fd_u])
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and count == 50 and elapsed < 60
    report(1, ok, f"{count} instances (MAR+MNAR, n in {{16,49}}, n_u in "
                  f"{{4,12}}), worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: conditional-Gaussian oracle ---------------------------------


def test_criterion_2_conditional_schur_oracle():
    start = time.perf_counter()
    worst = 0.0
    for side, n_u in ((5, 8), (8, 20), (8, 6)):
        w = row_normalize(build_rook_grid_weights(side))
        for seed in range(4):
            x, params, y, _, rng = random_instance(w, 100 + seed)
            m = np.zeros(w.n, dtype=np.int8)
            m[rng.choice(w.n, size=n_u, replace=False)] = 1
            pattern = MissingPattern(m=m)
            y_o = y[pattern.observed_idx]
            cg = mar_conditional(params, y_o, x, GmrfPlan(w, pattern))
            mean_o, cov_o = schur_conditional(params, w, x, pattern, y_o)
            worst = max(worst,
                        float(np.abs(cg.mean - mean_o).max()),
                        float(np.abs(cg_covariance(cg) - cov_o).max()))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-9,
           f"dense Schur complement, n up to 64, worst abs err {worst:.2e}, "
           f"{elapsed:.1f}s")


# -- criterion 3: Woodbury equivalence ----------------------------------------


def test_criterion_3_woodbury_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 201))
        p = int(rng.integers(1, 9))
        b = rng.standard_normal((dim, p))
        d = rng.uniform(0.2, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        v = rng.standard_normal(dim)
        dense = np.linalg.solve(b @ b.T + np.diag(d ** 2), v)
        worst = max(worst, float(np.abs(woodbury_solve(b, d, v) - dense).max()))
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-9,
           f"100 instances, D<=200, p<=8, worst abs err {worst:.2e}, "
           f"{elapsed:.1f}s")


# -- criterion 4: likelihood oracle --------------------------------------------


def test_criterion_4_likelihood_oracle():
    from scipy.stats import multivariate_normal
    from conftest import dense_sem_cov
    start = time.perf_counter()
    worst = 0.0
    for side in (4, 6, 8):
        w = row_normalize(build_rook_grid_weights(side))
        for seed in range(5):
            x, params, y, _, _ = random_instance(w, 200 + seed)
            oracle = multivariate_normal(mean=x @ params.beta,
                                         cov=dense_sem_cov(params, w)).logpdf(y)
            worst = max(worst, abs(sem_log_likelihood(y, params, x, w) - oracle))
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-10,
           f"dense MVN log-density, n<=64, worst abs err {worst:.2e}, "
           f"{elapsed:.1f}s")


# -- criterion 5: sampler stationarity -----------------------------------------


def test_criterion_5_sampler_stationarity():
    from spatialvb import mcmc_block, mcmc_nob
    start = time.perf_counter()
    w, x, params, y, _, sel = mnar_instance(22)
    m = np.zeros(16, dtype=np.int8)
    m[[1, 4, 7, 10, 12, 15]] = 1
    pattern = MissingPattern(m=m)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    mean_o, se_mo, second_o, se_so = importance_oracle(
        params, sel, y_o, x, plan, 200_000, seed=4)

    failures = []

    def check(name, states):
        se_mean = np.sqrt(chain_se(states) ** 2 + se_mo ** 2)
        se_second = np.sqrt(chain_se(states ** 2) ** 2 + se_so ** 2)
        d1 = np.abs(states.mean(axis=0) - mean_o)
        d2 = np.abs((states ** 2).mean(axis=0) - second_o)
        if not (np.all(d1 < 5 * se_mean) and np.all(d2 < 5 * se_second)):
            failures.append(name)

    rng = np.random.default_rng(2)
    check("nob", run_chain(
        lambda s: mcmc_nob(params, sel, y_o, x, plan, 1, rng, y_u_init=s),
        30_000, pattern.n_u))

    part = make_blocks(pattern, 3, seed=3)
    rng = np.random.default_rng(6)
    check("allb", run_chain(
        lambda s: mcmc_block(params, sel, y_o, part, x, plan, "allb", 1,
                             rng, y_u_init=s), 30_000, pattern.n_u))

    part2 = make_blocks(pattern, 2, seed=5)
    rng = np.random.default_rng(8)
    check("randomb", run_chain(
        lambda s: mcmc_block(params, sel, y_o, part2, x, plan, "randomb",
                             1, rng, y_u_init=s, k_prime=2), 40_000,
        pattern.n_u))

    # Gibbs vs direct conditional sampling (MAR)
    cg = mar_conditional(params, y_o, x, plan)
    gpart = make_blocks(pattern, 3, seed=1)
    rng = np.random.default_rng(7)
    state = np.zeros(pattern.n_u)
    for _ in range(200):
        state = mcmc_block(params, None, y_o, gpart, x, plan, "allb", 1, rng,
                           y_u_init=state)[0]
    n_keep = 30_000
    states = np.empty((n_keep, pattern.n_u))
    for i in range(n_keep):
        state = mcmc_block(params, None, y_o, gpart, x, plan, "allb", 1, rng,
                           y_u_init=state)[0]
        states[i] = state
    direct_mean = cg.mean
    direct_cov = cg_covariance(cg)
    se_mean = chain_se(states)
    d = np.abs(states.mean(axis=0) - direct_mean)
    if not np.all(d < 5 * se_mean):
        failures.append("gibbs-mean")
    se_var = chain_se((states - direct_mean) ** 2)
    dv = np.abs(((states - direct_mean) ** 2).mean(axis=0) - np.diag(direct_cov))
    if not np.all(dv < 5 * se_var):
        failures.append("gibbs-var")

    elapsed = time.perf_counter() - start
    report(5, not failures and elapsed < 300,
           f"nob/allb/randomb vs importance oracle + gibbs vs direct, "
           f"failures={failures or 'none'}, {elapsed:.0f}s")


# -- criterion 6: estimator unbiasedness ---------------------------------------


def test_criterion_6_estimator_unbiasedness():
    start = time.perf_counter()
    n_draws = 200_000
    rng = np.random.default_rng(0)

    # JVB self-target: D = 6, p = 2
    b = rng.normal(scale=0.5, size=(6, 2))
    from spatialvb.vb import structural_mask
    b *= structural_mask(6, 2)
    d = rng.uniform(0.5, 1.2, size=6)
    vp = VParams(mu=rng.standard_normal(6), b=b, d=d)
    cov = b @ b.T + np.diag(d ** 2)
    target = GaussianTarget(vp.mu, cov)
    sums = np.zeros(6)
    sumsq = np.zeros(6)
    for _ in range(n_draws):
        g_mu, _, _, _ = jvb_gradient_estimate(vp, target, rng)
        sums += g_mu
        sumsq += g_mu ** 2
    mean_j = sums / n_draws
    se_j = np.sqrt(np.maximum(sumsq / n_draws - mean_j ** 2, 0) / n_draws)
    ok_j = np.all(np.abs(mean_j) < 5 * se_j + 1e-12)

    # HVB self-target: independent blocks, theta dim 3, y_u dim 2
    dim, s = 5, 3
    cov_h = np.diag(rng.uniform(0.5, 1.5, size=dim))
    mean_h = rng.standard_normal(dim)
    target_h = GaussianTarget(mean_h, cov_h, s=s)
    vp_h = VParams(mu=mean_h[:s].copy(), b=np.zeros((s, 2)),
                   d=np.sqrt(np.diag(cov_h)[:s]))
    cond_sd = np.sqrt(np.diag(cov_h)[s:])
    sums = np.zeros(s)
    sumsq = np.zeros(s)
    for _ in range(n_draws):
        theta, draw = draw_variational(vp_h, rng)
        y_u = mean_h[s:] + cond_sd * rng.standard_normal(dim - s)
        g_mu, _, _, _ = hvb_gradient_estimate(vp_h, target_h, y_u, theta, draw)
        sums += g_mu
        sumsq += g_mu ** 2
    mean_v = sums / n_draws
    se_v = np.sqrt(np.maximum(sumsq / n_draws - mean_v ** 2, 0) / n_draws)
    ok_v = np.all(np.abs(mean_v) < 5 * se_v + 1e-12)

    elapsed = time.perf_counter() - start
    report(6, ok_j and ok_v and elapsed < 300,
           f"JVB max|mean|={np.abs(mean_j).max():.2e}, "
           f"HVB max|mean|={np.abs(mean_v).max():.2e}, {n_draws} draws each, "
           f"{elapsed:.0f}s")


# -- criteria 7-11: recovery and convergence -----------------------------------


def test_criterion_7_mar_recovery(mar_data, fit_hvb_nob_mar):
    ds, _ = mar_data
    res = fit_hvb_nob_mar
    d = dict(zip(res.theta_names, res.theta_mean))
    sd = dict(zip(res.theta_names, res.theta_sd))
    beta_off = np.abs(res.theta_mean[:11] - ds.truth.beta) / res.theta_sd[:11]
    ok = (abs(d["rho"] - 0.8) < 0.10 and abs(d["sigma2_y"] - 1.0) < 0.25
          and np.all(beta_off < 4.0))
    report(7, ok,
           f"hvb-nob n=625 75% missing: rho={d['rho']:.4f} (|err|="
           f"{abs(d['rho'] - 0.8):.3f}<0.10), sigma2={d['sigma2_y']:.4f} "
           f"(|err|={abs(d['sigma2_y'] - 1.0):.3f}<0.25), max beta offset "
           f"{beta_off.max():.2f} sd (<4); full-scale reference HVB-G: "
           f"sigma2=0.9998 rho=0.7971")


def test_criterion_8_jvb_failure_mode(fit_jvb_mar):
    res = fit_jvb_mar
    d = dict(zip(res.theta_names, res.theta_mean))
    ok = d["sigma2_y"] > 1.5 and d["rho"] < 0.4
    report(8, ok,
           f"jvb on the same data: sigma2={d['sigma2_y']:.4f} (>1.5), "
           f"rho={d['rho']:.4f} (<0.4); full-scale reference JVB: "
           f"sigma2=2.1509 rho=0.0844")


def test_criterion_9_hvb_vs_hmc(small_data, fit_small_pair):
    _, target = small_data
    hmc, hvb, _ = fit_small_pair
    s = target.S
    cons = target.constrain(hmc.chain[:, :s])
    nb = 50
    bm = cons.reshape(nb, -1, s).mean(axis=1)
    se_hmc = bm.std(axis=0, ddof=1) / np.sqrt(nb)
    se_hvb = hvb.theta_sd / np.sqrt(10_000)
    tol = np.maximum(0.1, 3 * np.sqrt(se_hmc ** 2 + se_hvb ** 2))
    diff = np.abs(hmc.theta_mean - hvb.theta_mean)
    ok = bool(np.all(diff < tol))
    report(9, ok,
           f"n=100 25% missing, 5000 retained HMC draws (accept "
           f"{hmc.tuning['accept_rate']:.2f}): max |mean diff| "
           f"{diff.max():.4f}, all under max(0.1, 3 combined SE)")


def test_criterion_10_mnar_recovery(mnar_data, fit_hvb_allb_mnar):
    ds, _ = mnar_data
    res = fit_hvb_allb_mnar
    d = dict(zip(res.theta_names, res.theta_mean))
    frac = ds.pattern.n_u / ds.pattern.n
    ok = (abs(d["rho"] - 0.8) < 0.10 and abs(d["sigma2_y"] - 1.0) < 0.25
          and abs(d["psi1"] - 0.5) < 0.15)
    report(10, ok,
           f"hvb-allb n=625 psi=(1.5,0.5,-0.1), {frac:.0%} missing: "
           f"rho={d['rho']:.4f}, sigma2={d['sigma2_y']:.4f}, "
           f"psi_xstar={d['psi1']:.4f}; full-scale reference HVB-AllB: "
           f"rho=0.8128 sigma2=0.9682 psi_k=0.4987")


def _smoothed(trace, window=500):
    trace = np.asarray(trace, dtype=float)
    kernel = np.ones(window) / window
    valid = np.convolve(np.nan_to_num(trace), kernel, mode="valid")
    return valid


def _max_abs_slope(traj, tail=2000):
    tail_traj = traj[-tail:]
    t = np.arange(tail_traj.shape[0])
    slopes = [np.polyfit(t, tail_traj[:, j], 1)[0]
              for j in range(tail_traj.shape[1])]
    return float(np.max(np.abs(slopes)))


def test_criterion_11_convergence(fit_jvb_mar, fit_jvb_mnar, fit_hvb_nob_mar,
                                  fit_hvb_allb_mnar, fit_small_pair):
    _, hvb_small, jvb_small = fit_small_pair
    jvb_ok = all(np.nanmean(res.elbo_trace[-1000:])
                 > np.nanmean(res.elbo_trace[:1000])
                 and (_smoothed(res.elbo_trace)[-1]
                      > _smoothed(res.elbo_trace)[0])
                 for res in (fit_jvb_mar, fit_jvb_mnar, jvb_small))
    slopes = {name: _max_abs_slope(res.mean_trajectory)
              for name, res in (("hvb-nob-mar", fit_hvb_nob_mar),
                                ("hvb-allb-mnar", fit_hvb_allb_mnar),
                                ("hvb-nob-small", hvb_small))}
    hvb_ok = all(v < 1e-4 for v in slopes.values())
    detail = ", ".join(f"{k} slope {v:.1e}" for k, v in slopes.items())
    report(11, jvb_ok and hvb_ok,
           f"JVB smoothed ELBO rises on all 3 datasets; HVB trajectories "
           f"flat over final 2000 iterations ({detail})")


def test_criterion_12_full_scale_not_gated():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    ok = script.exists()
    report(12, ok,
           "full-scale n=10,000 runs and timing tables are NOT acceptance "
           "targets; opt-in reproduction lives in scripts/reproduce_tables.py")
