import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from spatialvb import (AdadeltaState, HmcConfig, McmcConfig,
                       TargetDensity, VParams, adadelta_step,
                       draw_variational, hvb_fit,
                       hvb_gradient_estimate, jvb_fit, jvb_gradient_estimate,
                       make_blocks, woodbury_logdet, woodbury_solve)
from spatialvb import vb
from spatialvb.vb import ReparamDraw, default_init_theta, hmc_fit, structural_mask

from conftest import random_instance
from toy_targets import FailingTarget, GaussianTarget, ZeroTarget


def make_vp(dim, p, seed, b_scale=0.6, d_scale=0.8):
    rng = np.random.default_rng(seed)
    b = rng.normal(scale=b_scale, size=(dim, p)) * structural_mask(dim, p)
    d = rng.normal(scale=d_scale, size=dim)
    d[np.abs(d) < 0.2] = 0.5
    return VParams(mu=rng.standard_normal(dim), b=b, d=d)


def implied_cov(vp):
    return vp.b @ vp.b.T + np.diag(vp.d ** 2)


def test_structural_mask_shape():
    mask = structural_mask(5, 3)
    assert not mask[0, 1] and not mask[0, 2] and not mask[1, 2]
    assert mask[1, 0] and mask[2, 2] and mask[4, 1]
    for dim, p in ((5, 3), (4, 4), (6, 1), (2, 5)):
        loop = np.ones((dim, p), dtype=bool)   # the row-by-row reference
        for i in range(min(dim, p)):
            loop[i, i + 1:] = False
        np.testing.assert_array_equal(structural_mask(dim, p), loop)


def test_vparams_rejects_mask_violation():
    b = np.ones((4, 2))
    with pytest.raises(ValueError):
        VParams(mu=np.zeros(4), b=b, d=np.ones(4))


def test_draw_is_deterministic_at_zero_scales():
    vp = VParams(mu=np.array([1.0, -2.0, 3.0]), b=np.zeros((3, 1)), d=np.zeros(3))
    value, draw = draw_variational(vp, np.random.default_rng(0))
    np.testing.assert_array_equal(value, vp.mu)


def test_injected_zero_noise_returns_mu():
    vp = make_vp(4, 2, 0)
    value = vp.mu + vp.b @ np.zeros(2) + vp.d * np.zeros(4)
    np.testing.assert_array_equal(value, vp.mu)


def test_draw_covariance_monte_carlo():
    vp = make_vp(6, 2, 1)
    rng = np.random.default_rng(2)
    n = 100_000
    etas = rng.standard_normal((n, 2))
    epss = rng.standard_normal((n, 6))
    draws = vp.mu + etas @ vp.b.T + epss * vp.d
    cov_true = implied_cov(vp)
    cov_hat = np.cov(draws.T)
    d = np.sqrt(np.outer(np.diag(cov_true), np.diag(cov_true)))
    se = np.sqrt((cov_true ** 2 + d ** 2) / n)
    assert np.all(np.abs(cov_hat - cov_true) < 5 * se)


def log_q_at(vp, v):
    """log q(v), read off the ELBO sample log h - log q of
    hvb_gradient_estimate on a flat target; the draw eta = 0,
    eps = (v - mu) / d reaches v."""
    draw = ReparamDraw(eta=np.zeros(vp.p), eps=(v - vp.mu) / vp.d)
    *_, elbo = hvb_gradient_estimate(vp, ZeroTarget(vp.dim), np.empty(0), v, draw)
    return -elbo


def test_log_q_matches_dense_gaussian():
    vp = make_vp(5, 2, 3)
    rng = np.random.default_rng(4)
    cov = implied_cov(vp)
    for _ in range(10):
        v = vp.mu + rng.standard_normal(5)
        oracle = multivariate_normal(mean=vp.mu, cov=cov).logpdf(v)
        assert log_q_at(vp, v) == pytest.approx(oracle, abs=1e-10)


def test_log_q_at_mean_is_normalizer():
    vp = make_vp(5, 2, 5)
    expected = -2.5 * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(implied_cov(vp))[1]
    assert log_q_at(vp, vp.mu) == pytest.approx(expected, abs=1e-12)


def test_woodbury_diagonal_case():
    d = np.array([1.0, 2.0, -0.5, 4.0])
    v = np.array([4.0, 4.0, 1.0, 8.0])
    out = woodbury_solve(np.zeros((4, 2)), d, v)
    np.testing.assert_allclose(out, v / d ** 2, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_woodbury_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 60))
    p = int(rng.integers(1, min(dim, 8) + 1))
    b = rng.standard_normal((dim, p))
    d = rng.uniform(0.2, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    v = rng.standard_normal(dim)
    dense = np.linalg.solve(b @ b.T + np.diag(d ** 2), v)
    np.testing.assert_allclose(woodbury_solve(b, d, v), dense,
                               rtol=1e-9, atol=1e-9)


def test_woodbury_large_instance():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((200, 8))
    d = rng.uniform(0.3, 1.5, size=200)
    v = rng.standard_normal(200)
    dense = np.linalg.solve(b @ b.T + np.diag(d ** 2), v)
    np.testing.assert_allclose(woodbury_solve(b, d, v), dense, rtol=1e-9, atol=1e-9)


def test_woodbury_rank_one_sherman_morrison():
    rng = np.random.default_rng(1)
    dim = 50
    u = rng.standard_normal((dim, 1))
    c = 0.7
    d = np.full(dim, c)
    v = rng.standard_normal(dim)
    # (uu^T + c^2 I)^{-1} v = v/c^2 - u (u^T v) / (c^2 (c^2 + u^T u))
    oracle = v / c ** 2 - u[:, 0] * float(u[:, 0] @ v) / (c ** 2 * (c ** 2 + float(u[:, 0] @ u[:, 0])))
    np.testing.assert_allclose(woodbury_solve(u, d, v), oracle, atol=1e-10)


def test_woodbury_rejects_zero_d():
    with pytest.raises(np.linalg.LinAlgError):
        woodbury_solve(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]), np.ones(3))


def test_woodbury_logdet_matches_dense():
    vp = make_vp(7, 3, 8)
    dense = np.linalg.slogdet(implied_cov(vp))[1]
    assert woodbury_logdet(vp.b, vp.d) == pytest.approx(dense, abs=1e-10)


# -- estimators ---------------------------------------------------------------


def self_target(vp):
    return GaussianTarget(vp.mu, implied_cov(vp))


def test_jvb_estimator_zero_mean_on_self_target():
    vp = make_vp(4, 1, 10)
    target = self_target(vp)
    rng = np.random.default_rng(11)
    n = 50_000
    sums = np.zeros(4)
    sumsq = np.zeros(4)
    for _ in range(n):
        g_mu, g_b, g_d, _ = jvb_gradient_estimate(vp, target, rng)
        sums += g_mu
        sumsq += g_mu ** 2
    mean = sums / n
    se = np.sqrt((sumsq / n - mean ** 2) / n)
    # at the optimum the pathwise estimator cancels exactly per draw, so the
    # SE itself sits at float-noise level; allow an absolute floor
    assert np.all(np.abs(mean) < 5 * se + 1e-12)


def test_jvb_elbo_sample_on_self_target_is_zero():
    # h equals q exactly: log h - log q == 0 for every draw
    vp = make_vp(4, 2, 12)
    target = self_target(vp)
    for seed in range(5):
        _, _, _, elbo = jvb_gradient_estimate(vp, target, np.random.default_rng(seed))
        assert elbo == pytest.approx(0.0, abs=1e-10)


def test_estimator_reduces_to_correction_for_flat_target():
    vp = make_vp(5, 2, 13)
    vp.mu = np.zeros(5)
    target = ZeroTarget(5)
    rng = np.random.default_rng(14)
    value, draw = draw_variational(vp, rng)
    grad_mu, grad_b, grad_d, _ = hvb_gradient_estimate(vp, target, np.empty(0),
                                                       value, draw)
    dev = vp.b @ draw.eta + vp.d * draw.eps
    np.testing.assert_allclose(grad_mu, woodbury_solve(vp.b, vp.d, dev), atol=1e-12)
    np.testing.assert_allclose(grad_d, grad_mu * draw.eps, atol=1e-12)


def test_each_estimate_factors_the_capacitance_once(monkeypatch):
    # the gradient and the ELBO sample of one draw share one Cholesky factor
    # of the p x p capacitance and one solve with it
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vb, "cho_factor", counted("cho_factor", vb.cho_factor))
    monkeypatch.setattr(vb, "cho_solve", counted("cho_solve", vb.cho_solve))
    monkeypatch.setattr(vb.np.linalg, "cholesky",
                        counted("cholesky", vb.np.linalg.cholesky))
    vp = make_vp(5, 2, 21)
    target = self_target(vp)
    jvb_gradient_estimate(vp, target, np.random.default_rng(22))
    assert sorted(calls) == ["cho_factor", "cho_solve"]
    calls.clear()
    vp_theta = make_vp(3, 2, 23)
    theta, draw = draw_variational(vp_theta, np.random.default_rng(24))
    hvb_gradient_estimate(vp_theta, GaussianTarget(np.zeros(5), np.eye(5), s=3),
                          np.zeros(2), theta, draw)
    assert sorted(calls) == ["cho_factor", "cho_solve"]


def test_jvb_mu_gradient_matches_closed_form_gaussian_elbo():
    # ELBO(mu) = -KL(q || N(m0, S0)); d/dmu = -S0^{-1} (mu - m0)
    vp = make_vp(4, 2, 15)
    rng = np.random.default_rng(16)
    m0 = rng.standard_normal(4)
    s0 = np.diag(rng.uniform(0.5, 2.0, size=4))
    target = GaussianTarget(m0, s0)
    closed = -np.linalg.solve(s0, vp.mu - m0)
    n = 60_000
    sums = np.zeros(4)
    sumsq = np.zeros(4)
    for _ in range(n):
        g_mu, *_rest = jvb_gradient_estimate(vp, target, rng)
        sums += g_mu
        sumsq += g_mu ** 2
    mean = sums / n
    se = np.sqrt((sumsq / n - mean ** 2) / n)
    assert np.all(np.abs(mean - closed) < 5 * se)


def test_hvb_estimator_zero_mean_on_self_target():
    # theta-only family; y_u sampled from its exact conditional
    dim, s = 5, 3
    rng = np.random.default_rng(17)
    cov = np.diag(rng.uniform(0.5, 1.5, size=dim))
    mean = rng.standard_normal(dim)
    target = GaussianTarget(mean, cov, s=s)
    vp = VParams(mu=mean[:s].copy(), b=np.zeros((s, 1)),
                 d=np.sqrt(np.diag(cov)[:s]))
    n = 50_000
    sums = np.zeros(s)
    sumsq = np.zeros(s)
    cond_sd = np.sqrt(np.diag(cov)[s:])
    for _ in range(n):
        theta, draw = draw_variational(vp, rng)
        # independent Gaussian blocks: conditional of y_u is its marginal
        y_u = mean[s:] + cond_sd * rng.standard_normal(dim - s)
        g_mu, g_b, g_d, _ = hvb_gradient_estimate(vp, target, y_u, theta, draw)
        sums += g_mu
        sumsq += g_mu ** 2
    mu_hat = sums / n
    se = np.sqrt((sumsq / n - mu_hat ** 2) / n)
    assert np.all(np.abs(mu_hat) < 5 * se + 1e-12)


def test_hvb_estimator_matches_jvb_theta_block_when_no_yu_gradient():
    # fixed draw, target whose log h ignores y_u: the theta-block of the JVB
    # estimator coincides with the HVB estimator
    s, n_u = 3, 2
    rng = np.random.default_rng(18)
    m0 = rng.standard_normal(s)
    s0 = np.diag(rng.uniform(0.5, 2.0, size=s))

    class ThetaOnly(GaussianTarget):
        def __init__(self):
            super().__init__(m0, s0, s=s)
            self.n_u = n_u
            import types
            self.pattern = types.SimpleNamespace(unobserved_idx=np.arange(n_u))

        def log_h_and_grads(self, theta, y_u):
            logh, g_theta, _ = super().log_h_and_grads(theta, np.empty(0))
            return logh, g_theta, np.zeros(n_u)

    target = ThetaOnly()
    vp_theta = make_vp(s, 1, 19)
    theta, draw = draw_variational(vp_theta, np.random.default_rng(20))
    y_u = np.zeros(n_u)
    g_mu, g_b, g_d, _ = hvb_gradient_estimate(vp_theta, target, y_u, theta, draw)
    _, g, _ = target.log_h_and_grads(theta, y_u)
    corr = woodbury_solve(vp_theta.b, vp_theta.d,
                          vp_theta.b @ draw.eta + vp_theta.d * draw.eps)
    np.testing.assert_allclose(g_mu, g + corr, atol=1e-12)
    np.testing.assert_allclose(g_d, (g + corr) * draw.eps, atol=1e-12)


# -- ADADELTA -----------------------------------------------------------------


def test_adadelta_first_step_formula():
    state = AdadeltaState.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    delta, state2 = adadelta_step(state, g)
    expected = g * np.sqrt(1e-6 / (g ** 2 * 0.05 + 1e-6))
    np.testing.assert_allclose(delta, expected, rtol=1e-12)


def test_adadelta_zero_gradient_stays_zero():
    state = AdadeltaState.zeros(4)
    for _ in range(20):
        delta, state = adadelta_step(state, np.zeros(4))
        np.testing.assert_array_equal(delta, 0.0)


def test_adadelta_constant_gradient_step_stabilizes():
    # the consecutive-step ratio decays like 1 + 1/(2t); run long enough
    # for it to settle within 1e-6 (fixed-point iteration oracle)
    state = AdadeltaState.zeros(1)
    g = np.array([0.7])
    prev = None
    for _ in range(600_000):
        delta, state = adadelta_step(state, g)
        ratio = None if prev is None else delta[0] / prev
        prev = delta[0]
    assert ratio == pytest.approx(1.0, abs=1e-6)


# -- fits ---------------------------------------------------------------------


def test_jvb_fit_converges_on_conjugate_gaussian():
    rng = np.random.default_rng(21)
    m0 = np.array([1.0, -0.5, 2.0, 0.3])
    s0 = np.diag([0.5, 0.8, 0.4, 1.2])
    target = GaussianTarget(m0, s0)
    res = jvb_fit(target, np.zeros(4), 6000, 1, rng, seed=0)
    np.testing.assert_allclose(res.vparams.mu, m0, atol=0.05)
    assert res.flags["skipped_iterations"] == 0
    # smoothed ELBO improved
    assert np.nanmean(res.elbo_trace[-500:]) > np.nanmean(res.elbo_trace[:500])


def test_jvb_fit_structural_zeros_survive():
    target = GaussianTarget(np.zeros(5), np.eye(5))
    res = jvb_fit(target, np.zeros(5), 300, 3, np.random.default_rng(1), seed=1)
    mask = structural_mask(5, 3)
    np.testing.assert_array_equal(res.vparams.b[~mask], 0.0)


def test_jvb_fit_deterministic_under_seed():
    target = GaussianTarget(np.zeros(3), np.eye(3))
    r1 = jvb_fit(target, np.zeros(3), 200, 1, np.random.default_rng(5), seed=5)
    r2 = jvb_fit(target, np.zeros(3), 200, 1, np.random.default_rng(5), seed=5)
    np.testing.assert_array_equal(r1.vparams.mu, r2.vparams.mu)
    np.testing.assert_array_equal(r1.elbo_trace, r2.elbo_trace)
    np.testing.assert_array_equal(r1.theta_mean, r2.theta_mean)


def test_hvb_fit_degenerate_no_missing_matches_jvb():
    m0 = np.array([0.8, -1.2, 0.4])
    s0 = np.diag([0.6, 0.9, 0.5])
    target = GaussianTarget(m0, s0)  # n_u = 0
    cfg = McmcConfig(scheme="nob", n1=1)
    res_h = hvb_fit(target, np.zeros(3), 6000, 1, cfg,
                    np.random.default_rng(2), seed=2)
    res_j = jvb_fit(target, np.zeros(3), 6000, 1, np.random.default_rng(3), seed=3)
    np.testing.assert_allclose(res_h.vparams.mu, m0, atol=0.05)
    np.testing.assert_allclose(res_h.vparams.mu, res_j.vparams.mu, atol=0.1)
    assert res_h.yu_mean.size == 0


@pytest.mark.parametrize("scheme", ["direct", "gibbs"])
def test_mcmc_config_takes_only_the_three_sampler_schemes(scheme):
    # the mechanism, not the scheme name, picks the exact/Gibbs or Metropolis draw
    with pytest.raises(ValueError, match=f"unknown sampler scheme '{scheme}'"):
        McmcConfig(scheme=scheme, n1=1)


def test_hvb_fit_runs_every_scheme_under_mar(grid4):
    # with no selection model each scheme draws y_u exactly or by Gibbs
    # sweeps, so no acceptance is recorded; the method tag defaults to "hvb"
    x, _, y, pattern, _ = random_instance(grid4, 31, missing=0.5)
    target = TargetDensity(x=x, weights=grid4, y_obs=y[pattern.observed_idx],
                           pattern=pattern, mechanism="mar")
    part = make_blocks(pattern, 3, seed=0)
    for scheme in ("nob", "allb", "randomb"):
        cfg = McmcConfig(scheme=scheme, n1=2, k_prime=1,
                         partition=None if scheme == "nob" else part)
        res = hvb_fit(target, default_init_theta(target), 20, 1, cfg,
                      np.random.default_rng(0))
        assert res.method == "hvb"
        assert res.tuning["scheme"] == scheme
        assert res.tuning["mean_acceptance"] is None
        assert np.all(np.isfinite(res.yu_mean)) and np.all(np.isfinite(res.yu_sd))


def test_trajectory_und_trace_lengths():
    target = GaussianTarget(np.zeros(3), np.eye(3))
    res = jvb_fit(target, np.zeros(3), 123, 1, np.random.default_rng(4), seed=4)
    assert res.elbo_trace.shape == (123,)
    assert res.mean_trajectory.shape == (123, 3)


def gaussian_kl(mu_q, cov_q, mu_p, cov_p):
    d = mu_q.shape[0]
    sol = np.linalg.solve(cov_p, cov_q)
    dev = mu_p - mu_q
    return 0.5 * (np.trace(sol) + dev @ np.linalg.solve(cov_p, dev) - d
                  + np.linalg.slogdet(cov_p)[1] - np.linalg.slogdet(cov_q)[1])


def test_exact_elbo_nondecreasing_on_conjugate_target():
    # replay the JVB update loop, tracking the analytic ELBO = -KL(q || p)
    # at every iterate; after iteration 500 it must be non-decreasing up to
    # a 3-SE noise band estimated from its increments
    rng = np.random.default_rng(30)
    m0 = np.array([1.5, -1.0, 0.5, 2.0])
    s0 = np.diag([0.7, 1.1, 0.5, 0.9])
    target = GaussianTarget(m0, s0)
    vp = VParams.initial(np.zeros(4), 2)
    st_mu = AdadeltaState.zeros(4)
    st_b = AdadeltaState.zeros((4, 2))
    st_d = AdadeltaState.zeros(4)
    iters = 4000
    elbo = np.empty(iters)
    for t in range(iters):
        cov_q = vp.b @ vp.b.T + np.diag(vp.d ** 2)
        elbo[t] = -gaussian_kl(vp.mu, cov_q, m0, s0)
        g_mu, g_b, g_d, _ = jvb_gradient_estimate(vp, target, rng)
        d_mu, st_mu = adadelta_step(st_mu, g_mu)
        d_b, st_b = adadelta_step(st_b, g_b)
        d_d, st_d = adadelta_step(st_d, g_d)
        vp.mu = vp.mu + d_mu
        vp.b = (vp.b + d_b) * vp.mask
        vp.d = vp.d + d_d
    tail = elbo[500:]
    increments = np.diff(tail)
    band = 3 * increments.std(ddof=1)
    # no drop larger than the noise band, and a net improvement overall
    assert increments.min() > -band
    assert tail[-1] > tail[0]


def test_hvb_fit_deterministic_under_seed():
    target = GaussianTarget(np.zeros(3), np.eye(3))
    cfg = McmcConfig(scheme="nob", n1=1)
    r1 = hvb_fit(target, np.zeros(3), 200, 1, cfg, np.random.default_rng(6), seed=6)
    r2 = hvb_fit(target, np.zeros(3), 200, 1, cfg, np.random.default_rng(6), seed=6)
    np.testing.assert_array_equal(r1.vparams.mu, r2.vparams.mu)
    np.testing.assert_array_equal(r1.elbo_trace, r2.elbo_trace)
    np.testing.assert_array_equal(r1.theta_mean, r2.theta_mean)


def _fit(kind, target):
    rng = np.random.default_rng(0)
    if kind == "jvb":
        return jvb_fit(target, np.zeros(3), 30, 1, rng)
    return hvb_fit(target, np.zeros(3), 30, 1, McmcConfig(scheme="nob", n1=1), rng)


@pytest.mark.parametrize("kind", ["jvb", "hvb"])
def test_sga_driver_skips_exactly_the_failed_iterations(kind):
    # one target call per iteration, so the failing calls are the skipped
    # iterations
    failed = {0, 7, 8, 25}
    res = _fit(kind, FailingTarget(failed))
    assert res.flags["skipped_iterations"] == len(failed)
    assert res.flags["flagged"]
    assert set(np.flatnonzero(np.isnan(res.elbo_trace))) == failed
    # a skipped iteration takes no step
    for t in failed:
        np.testing.assert_array_equal(res.mean_trajectory[t + 1],
                                      res.mean_trajectory[t])


@pytest.mark.parametrize("kind", ["jvb", "hvb"])
def test_sga_driver_propagates_other_errors(kind):
    with pytest.raises(IndexError, match="call 4"):
        _fit(kind, FailingTarget({4}, IndexError))


def test_hmc_fit_on_lu_backend_matches_spectrum(grid4):
    # the gradient is deterministic on both backends, so the same seed gives
    # the same chain up to round-off in the trace
    x, _, y, pattern, _ = random_instance(grid4, 30, missing=0.25)
    cfg = HmcConfig(n_samples=40, n_leapfrog=5, step_size=0.1, burn_in=10)
    results = []
    for evaluations in (0, 10_000):
        target = TargetDensity(x=x, weights=grid4, y_obs=y[pattern.observed_idx],
                               pattern=pattern, mechanism="mar",
                               evaluations=evaluations)
        results.append(hmc_fit(target, cfg, default_init_theta(target),
                               np.random.default_rng(5)))
    lu, spectrum = results
    assert lu.tuning["step_size"] == spectrum.tuning["step_size"]
    n_iter = cfg.burn_in + cfg.n_samples
    assert (round(lu.tuning["accept_rate"] * n_iter)
            == round(spectrum.tuning["accept_rate"] * n_iter))
    np.testing.assert_allclose(lu.mean_trajectory, spectrum.mean_trajectory,
                               rtol=0, atol=1e-8)
