import numpy as np
import pytest

from spatialvb import PriorSpec, SemParams, TargetDensity, sem_log_likelihood

from conftest import (delaunay_weights, random_instance, random_selection,
                      weights_in_five_layouts)


def make_target(w, seed, mechanism="mar", priors=None, psi_y=-0.2,
                evaluations=10_000):
    x, params, y, pattern, rng = random_instance(w, seed)
    y_obs = y[pattern.observed_idx]
    sel = random_selection(w.n, seed + 1, psi_y=psi_y) if mechanism == "mnar" else None
    target = TargetDensity(x=x, weights=w, y_obs=y_obs, pattern=pattern,
                           priors=priors, mechanism=mechanism,
                           x_star=sel.x_star if sel else None,
                           evaluations=evaluations)
    theta = target.unconstrain(params, sel.psi if sel else None)
    y_u = y[pattern.unobserved_idx] + rng.standard_normal(pattern.n_u) * 0.3
    return target, theta, y_u, (x, params, y, pattern, sel)


def test_prior_contribution_vanishes_at_origin(grid3):
    target, _, y_u, (x, params, y, pattern, _) = make_target(grid3, 0)
    theta0 = np.zeros(target.S)
    # log h at beta=0, gamma=0, lambda=0 has zero prior term: it must equal
    # the likelihood part alone
    s2 = 1.0
    p0 = SemParams(beta=np.zeros(x.shape[1]), sigma2_y=s2, rho=0.0)
    yv = pattern.assemble(target.y_obs, y_u)
    expected = sem_log_likelihood(yv, p0, x, grid3) + 0.5 * grid3.n * np.log(2 * np.pi)
    assert target.log_h(theta0, y_u) == pytest.approx(expected, abs=1e-10)


def test_mar_log_h_equals_loglik_plus_prior(grid4):
    for seed in range(5):
        target, theta, y_u, (x, params, y, pattern, _) = make_target(grid4, seed)
        yv = pattern.assemble(target.y_obs, y_u)
        ll = sem_log_likelihood(yv, params, x, grid4)
        gamma, rho_logit = theta[-2:]
        pr = target.priors
        prior = (-0.5 * float(params.beta @ params.beta) / pr.var_beta
                 - 0.5 * gamma ** 2 / pr.var_gamma
                 - 0.5 * rho_logit ** 2 / pr.var_rho_logit)
        expected = ll + 0.5 * grid4.n * np.log(2 * np.pi) + prior
        assert target.log_h(theta, y_u) == pytest.approx(expected, abs=1e-10)


def test_mnar_log_h_is_additive(grid4):
    from spatialvb import selection_log_prob
    for seed in range(5):
        target, theta, y_u, (x, params, y, pattern, sel) = make_target(
            grid4, seed, mechanism="mnar")
        mar_target = TargetDensity(x=x, weights=grid4, y_obs=target.y_obs,
                                   pattern=pattern, mechanism="mar")
        theta_mar = theta[:x.shape[1] + 2]
        yv = pattern.assemble(target.y_obs, y_u)
        psi = sel.psi
        expected = (mar_target.log_h(theta_mar, y_u)
                    + selection_log_prob(pattern, yv, sel)
                    - 0.5 * float(psi @ psi) / target.priors.var_psi)
        assert target.log_h(theta, y_u) == pytest.approx(expected, abs=1e-12)


def test_mnar_at_zero_psi_offsets_mar_by_nlog_half(grid4):
    target, theta, y_u, (x, *_rest) = make_target(grid4, 3, mechanism="mnar")
    theta = theta.copy()
    theta[x.shape[1] + 2:] = 0.0
    mar_target = TargetDensity(x=x, weights=grid4, y_obs=target.y_obs,
                               pattern=target.pattern, mechanism="mar")
    diff = target.log_h(theta, y_u) - mar_target.log_h(theta[:x.shape[1] + 2], y_u)
    assert diff == pytest.approx(grid4.n * np.log(0.5), abs=1e-12)


def test_log_h_rejects_rho_out_of_interval(grid3):
    target, theta, y_u, _ = make_target(grid3, 1)
    theta = theta.copy()
    theta[target.n_beta + 1] = 60.0  # tanh(30) == 1.0 in floats
    with pytest.raises(ValueError):
        target.log_h(theta, y_u)


def _fd(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        up, dn = x0.copy(), x0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
def test_grad_theta_matches_finite_differences(grid4, grid7, mechanism):
    checked = 0
    for w in (grid4, grid7):
        for seed in range(6):
            target, theta, y_u, _ = make_target(w, seed, mechanism=mechanism)
            analytic = target.grad_log_h_theta(theta, y_u)
            fd = _fd(lambda t: target.log_h(t, y_u), theta.copy())
            scale = np.maximum(np.abs(fd), 1.0)
            np.testing.assert_allclose(analytic / scale, fd / scale,
                                       rtol=0, atol=1e-5)
            checked += 1
    assert checked == 12


@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
def test_grad_yu_matches_finite_differences(grid4, mechanism):
    for seed in range(6):
        target, theta, y_u, _ = make_target(grid4, seed, mechanism=mechanism)
        analytic = target.log_h_and_grads(theta, y_u)[2]
        fd = _fd(lambda v: target.log_h(theta, v), y_u.copy())
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-6)


def test_grad_yu_zero_at_zero_residual_mar(grid3):
    target, theta, y_u, (x, params, y, pattern, _) = make_target(grid3, 2)
    # choose y_u so the assembled response equals X beta exactly
    fitted = x @ params.beta
    theta_mod = theta.copy()
    y_obs_fit = fitted[pattern.observed_idx]
    target_fit = TargetDensity(x=x, weights=grid3, y_obs=y_obs_fit,
                               pattern=pattern, mechanism="mar")
    g = target_fit.log_h_and_grads(theta_mod, fitted[pattern.unobserved_idx])[2]
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_grad_yu_mnar_reduces_to_mar_when_psi_y_zero(grid4):
    target, theta, y_u, (x, *_rest) = make_target(grid4, 4, mechanism="mnar",
                                                  psi_y=0.0)
    theta = theta.copy()
    theta[-1] = 0.0
    mar_target = TargetDensity(x=x, weights=grid4, y_obs=target.y_obs,
                               pattern=target.pattern, mechanism="mar")
    g_mnar = target.log_h_and_grads(theta, y_u)[2]
    g_mar = mar_target.log_h_and_grads(theta[:x.shape[1] + 2], y_u)[2]
    np.testing.assert_allclose(g_mnar, g_mar, atol=0)


def test_trace_term_zero_at_rho_zero(grid4):
    # at rho = 0, tr{M^-1 dM/drho} = -tr(W^T + W) = 0 for zero-diagonal W
    from spatialvb.sem import PrecisionOps
    ops = PrecisionOps(grid4)
    assert ops.trace_minv_dm(0.0) == pytest.approx(0.0, abs=1e-12)


def test_beta_gradient_vanishes_at_gls_solution(grid4):
    x, params, y, pattern, rng = random_instance(grid4, 8, missing=0.2)
    flat_priors = PriorSpec(var_beta=1e12, var_gamma=1e12, var_rho_logit=1e12)
    target = TargetDensity(x=x, weights=grid4, y_obs=y[pattern.observed_idx],
                           pattern=pattern, priors=flat_priors, mechanism="mar")
    from spatialvb.sem import PrecisionPattern
    m = PrecisionPattern(grid4).matrix(params.rho).toarray()
    beta_gls = np.linalg.solve(x.T @ m @ x, x.T @ m @ y)
    theta = target.unconstrain(SemParams(beta=beta_gls, sigma2_y=params.sigma2_y,
                                         rho=params.rho))
    g = target.grad_log_h_theta(theta, y[pattern.unobserved_idx])
    np.testing.assert_allclose(g[:x.shape[1]], 0.0, atol=1e-8)


def test_directional_derivatives_joint(grid4):
    # 100 random (theta, y_u) points, 10 random directions each
    rng = np.random.default_rng(0)
    h = 1e-5
    for mechanism in ("mar", "mnar"):
        for seed in range(50):
            target, theta, y_u, _ = make_target(grid4, seed, mechanism=mechanism)
            g_t = target.grad_log_h_theta(theta, y_u)
            g_u = target.log_h_and_grads(theta, y_u)[2]
            g = np.concatenate([g_t, g_u])
            for _ in range(10):
                v = rng.standard_normal(g.size)
                v /= np.linalg.norm(v)
                up = target.log_h(theta + h * v[:target.S], y_u + h * v[target.S:])
                dn = target.log_h(theta - h * v[:target.S], y_u - h * v[target.S:])
                fd = (up - dn) / (2 * h)
                assert fd == pytest.approx(float(g @ v),
                                           rel=1e-4, abs=1e-6)


def test_log_h_permutation_invariant_assembly(grid3):
    # log_h must not depend on how the pattern orders observed/unobserved
    target, theta, y_u, (x, params, y, pattern, _) = make_target(grid3, 5)
    val = target.log_h(theta, y_u)
    yv = pattern.assemble(target.y_obs, y_u)
    # rebuild with the full vector treated as data and an empty missing set
    import numpy as _np
    from spatialvb import MissingPattern
    full_pattern = MissingPattern(m=_np.zeros(grid3.n, dtype=_np.int8))
    target_full = TargetDensity(x=x, weights=grid3, y_obs=yv,
                                pattern=full_pattern, mechanism="mar")
    assert target_full.log_h(theta, _np.empty(0)) == pytest.approx(val, abs=1e-12)


def test_degenerate_no_missing(grid3):
    from spatialvb import MissingPattern
    x, params, y, _, _ = random_instance(grid3, 6)
    pattern = MissingPattern(m=np.zeros(9, dtype=np.int8))
    target = TargetDensity(x=x, weights=grid3, y_obs=y, pattern=pattern,
                           mechanism="mar")
    theta = target.unconstrain(params)
    assert np.isfinite(target.log_h(theta, np.empty(0)))
    assert target.log_h_and_grads(theta, np.empty(0))[2].size == 0


def test_log_h_and_grads_consistent(grid4):
    for mechanism in ("mar", "mnar"):
        target, theta, y_u, _ = make_target(grid4, 7, mechanism=mechanism)
        val, g_t, g_u = target.log_h_and_grads(theta, y_u)
        assert val == pytest.approx(target.log_h(theta, y_u), abs=1e-12)
        np.testing.assert_allclose(g_t, target.grad_log_h_theta(theta, y_u))
        np.testing.assert_allclose(g_u, target.log_h_and_grads(theta, y_u)[2])


def test_priors_reject_nonpositive_variance():
    with pytest.raises(ValueError):
        PriorSpec(var_beta=0.0)


def test_lu_backend_path_through_fit(grid7):
    # force the complex-step sparse LU backend: a short HVB run on the same
    # data and seed matches the exact-spectrum backend to round-off
    from spatialvb import McmcConfig
    from spatialvb.vb import default_init_theta, hvb_fit
    x, params, y, pattern, _ = random_instance(grid7, 40, missing=0.25)
    y_obs = y[pattern.observed_idx]
    exact = TargetDensity(x=x, weights=grid7, y_obs=y_obs, pattern=pattern,
                          mechanism="mar")
    lu = TargetDensity(x=x, weights=grid7, y_obs=y_obs, pattern=pattern,
                       mechanism="mar", evaluations=0)
    assert lu.ops.eigenvalues is None
    theta0 = default_init_theta(exact)
    cfg = McmcConfig(scheme="nob", n1=1)
    r_exact = hvb_fit(exact, theta0, 1500, 2, cfg, np.random.default_rng(3), seed=3)
    r_lu = hvb_fit(lu, theta0, 1500, 2, cfg, np.random.default_rng(3), seed=3)
    assert r_lu.flags["skipped_iterations"] == 0
    np.testing.assert_allclose(r_lu.theta_mean, r_exact.theta_mean, atol=1e-8)


def test_lu_backend_evaluations_are_deterministic():
    from spatialvb import build_rook_grid_weights, row_normalize
    # n = 3,600 (bw 60) with 20 planned evaluations: the rule picks the LU
    w = row_normalize(build_rook_grid_weights(60))
    target, theta, y_u, _ = make_target(w, 8, evaluations=20)
    assert target.ops.eigenvalues is None
    first = target.log_h_and_grads(theta, y_u)
    second = target.log_h_and_grads(theta, y_u)
    assert first[0] == second[0]
    for a, b in zip(first[1:], second[1:]):
        np.testing.assert_array_equal(a, b)


def _log_h_and_grads_from_pieces(target, theta, y_u):
    """log h and its gradients from the SEM terms, the public selection_*
    functions and the priors, in the order of operations of the fused pass."""
    from spatialvb import selection_grad_psi, selection_grad_yu, selection_log_prob
    from spatialvb.sem import drho_dlogit
    pr, nb = target.priors, target.n_beta
    phi, sel = target.model_params(theta)
    beta, gamma, lam, rho = theta[:nb], float(theta[nb]), float(theta[nb + 1]), phi.rho
    y = target.pattern.assemble(target.y_obs, y_u)
    r = y - target.x @ beta
    w = target.weights.matrix
    ar = r - rho * (w @ r)
    m_r = ar - rho * (w.T @ ar)
    quad = float(ar @ ar)
    exp_ng = np.exp(-gamma)
    value = (-0.5 * target.n * gamma + 0.5 * target.ops.logdet_m(rho)
             - 0.5 * exp_ng * quad - 0.5 * float(beta @ beta) / pr.var_beta
             - 0.5 * gamma ** 2 / pr.var_gamma - 0.5 * lam ** 2 / pr.var_rho_logit)
    wr = w @ r
    r_dm_r = -2.0 * float(r @ wr) + 2.0 * rho * float(wr @ wr)
    g_lambda = ((0.5 * target.ops.trace_minv_dm(rho)
                 - 0.5 * exp_ng * r_dm_r) * drho_dlogit(rho)
                - lam / pr.var_rho_logit)
    g_theta = np.concatenate([exp_ng * (target.x.T @ m_r) - beta / pr.var_beta,
                              [-0.5 * target.n + 0.5 * exp_ng * quad
                               - gamma / pr.var_gamma, g_lambda]])
    g_yu = -exp_ng * m_r[target.pattern.unobserved_idx]
    if sel is not None:
        value += selection_log_prob(target.pattern, y, sel)
        value -= 0.5 * float(sel.psi @ sel.psi) / pr.var_psi
        g_theta = np.concatenate([g_theta, selection_grad_psi(target.pattern, y, sel)
                                  - sel.psi / pr.var_psi])
        g_yu = g_yu + selection_grad_yu(target.pattern, y, sel, target.pattern)
    return float(value), g_theta, g_yu


@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
def test_fused_evaluation_equals_its_public_pieces_exactly(grid4, mechanism):
    # the fused pass shares W r, W^T, the selection predictor and the
    # logistic across value and gradients; sharing must not move one bit
    for seed in range(4):
        target, theta, y_u, _ = make_target(grid4, seed, mechanism=mechanism)
        rng = np.random.default_rng(100 + seed)
        theta = theta + 0.3 * rng.standard_normal(theta.shape)
        y_u = y_u + rng.standard_normal(y_u.shape)
        value, g_theta, g_yu = target.log_h_and_grads(theta, y_u)
        ref_value, ref_theta, ref_yu = _log_h_and_grads_from_pieces(target, theta, y_u)
        assert value == ref_value
        np.testing.assert_array_equal(g_theta, ref_theta)
        np.testing.assert_array_equal(g_yu, ref_yu)
        assert target.log_h(theta, y_u) == value
        np.testing.assert_array_equal(target.grad_log_h_theta(theta, y_u), g_theta)
        np.testing.assert_array_equal(target.log_h_and_grads(theta, y_u)[2], g_yu)



@pytest.mark.parametrize("evaluations", [0, 10_000])
@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
@pytest.mark.parametrize("no_missing", [False, True])
def test_gradient_only_evaluation_equals_log_h_and_grads_exactly(
        grid7, mechanism, no_missing, evaluations):
    # HMC's inner leapfrog steps call grads; it must give the gradients of
    # log_h_and_grads to the last bit on both trace backends
    from spatialvb import MissingPattern
    target, theta, y_u, (x, _, y, pattern, sel) = make_target(
        grid7, 11, mechanism=mechanism, evaluations=evaluations)
    if no_missing:
        target = TargetDensity(x=x, weights=grid7, y_obs=y,
                               pattern=MissingPattern(m=np.zeros(grid7.n, dtype=np.int8)),
                               mechanism=mechanism,
                               x_star=sel.x_star if sel else None,
                               evaluations=evaluations)
        y_u = np.empty(0)
    assert (target.ops.eigenvalues is None) == (evaluations == 0)
    rng = np.random.default_rng(12)
    for _ in range(3):
        point = theta + 0.3 * rng.standard_normal(theta.shape)
        _, g_theta, g_yu = target.log_h_and_grads(point, y_u)
        got_theta, got_yu = target.grads(point, y_u)
        np.testing.assert_array_equal(got_theta, g_theta)
        np.testing.assert_array_equal(got_yu, g_yu)
        assert got_yu.shape == (target.n_u,)


@pytest.mark.parametrize("evaluations", [0, 10_000])
@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
def test_log_h_and_grads_do_not_depend_on_the_sparse_layout_of_w(mechanism,
                                                                 evaluations):
    # the direct CSR kernels read W's arrays; a CSC W read as CSR would give
    # W^T r, so every layout is stored as canonical float64 CSR first
    from spatialvb.weights import SpatialWeights
    csr, others = weights_in_five_layouts()
    ref, theta, y_u, _ = make_target(SpatialWeights(csr, row_normalized=True), 3,
                                     mechanism=mechanism, evaluations=evaluations)
    expected = ref.log_h_and_grads(theta, y_u)
    for m in others:
        target, _, _, _ = make_target(SpatialWeights(m, row_normalized=True), 3,
                                      mechanism=mechanism, evaluations=evaluations)
        value, g_theta, g_yu = target.log_h_and_grads(theta, y_u)
        assert value == expected[0]
        np.testing.assert_array_equal(g_theta, expected[1])
        np.testing.assert_array_equal(g_yu, expected[2])


@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
@pytest.mark.parametrize("graph", ["rook", "delaunay"])
def test_rho_gradient_uses_the_exact_quadratic_form_of_dm(grid7, graph, mechanism):
    # g_lambda reads r^T (dM/drho) r as -2 r.Wr + 2 rho |Wr|^2; it must agree
    # with the dense r^T (-(W + W^T) + 2 rho W^T W) r
    from spatialvb.sem import drho_dlogit
    w = grid7 if graph == "rook" else delaunay_weights(60, np.random.default_rng(8))
    assert graph == "rook" or (abs(w.matrix - w.matrix.T) > 1e-12).nnz > 0
    wd = w.matrix.toarray()
    target, _, y_u, (x, params, _, pattern, sel) = make_target(w, 4, mechanism=mechanism)
    i_lambda = x.shape[1] + 1
    for rho in (-0.9, 0.01, 0.5, 0.95):
        phi = SemParams(beta=params.beta, sigma2_y=params.sigma2_y, rho=rho)
        theta = target.unconstrain(phi, sel.psi if sel else None)
        r = pattern.assemble(target.y_obs, y_u) - x @ phi.beta
        dense = float(r @ ((-(wd + wd.T) + 2.0 * rho * wd.T @ wd) @ r))
        wr = w.matrix @ r
        identity = -2.0 * float(r @ wr) + 2.0 * rho * float(wr @ wr)
        assert identity == pytest.approx(dense, rel=1e-12)
        # the same term inside the rho gradient, relative to its own size
        quad_term = 0.5 * np.exp(-theta[i_lambda - 1]) * dense * drho_dlogit(rho)
        expected = (0.5 * target.ops.trace_minv_dm(rho) * drho_dlogit(rho)
                    - quad_term - theta[i_lambda] / target.priors.var_rho_logit)
        g_lambda = target.log_h_and_grads(theta, y_u)[1][i_lambda]
        assert abs(g_lambda - expected) <= 1e-12 * (abs(quad_term) + abs(expected))


def _at_rho(target, theta, rho):
    theta = theta.copy()
    theta[target.n_beta + 1] = np.log1p(rho) - np.log1p(-rho)
    return theta


@pytest.mark.parametrize("evaluations", [0, 10_000])
@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
@pytest.mark.parametrize("no_missing", [False, True])
def test_one_evaluation_pass_equals_the_prepared_composition_exactly(
        grid7, mechanism, no_missing, evaluations):
    # the evaluation pass copies a response template, computes the selection
    # residual inline and writes both gradients into one array; every public
    # view must give, bit for bit, what the composition of a preparation pass
    # and its value and gradient pieces gave, on both trace backends, at
    # random points and with rho within 1e-6 of -1 and of 1
    from reference_posterior import prepared_log_h_and_grads
    from spatialvb import MissingPattern
    target, theta, y_u, (x, _, y, _, sel) = make_target(
        grid7, 21, mechanism=mechanism, evaluations=evaluations)
    if no_missing:
        target = TargetDensity(x=x, weights=grid7, y_obs=y,
                               pattern=MissingPattern(m=np.zeros(grid7.n, dtype=np.int8)),
                               mechanism=mechanism,
                               x_star=sel.x_star if sel else None,
                               evaluations=evaluations)
        y_u = np.empty(0)
    assert (target.ops.eigenvalues is None) == (evaluations == 0)
    rng = np.random.default_rng(22)
    points = [theta + 0.5 * rng.standard_normal(theta.shape) for _ in range(4)]
    points += [_at_rho(target, points[0], rho) for rho in (1 - 1e-6, -1 + 1e-6)]
    for point in points:
        y_at = y_u + rng.standard_normal(y_u.shape)
        want_value, want_theta, want_yu = prepared_log_h_and_grads(target, point, y_at)
        value, g_theta, g_yu = target.log_h_and_grads(point, y_at)
        assert value == want_value
        np.testing.assert_array_equal(g_theta, want_theta)
        np.testing.assert_array_equal(g_yu, want_yu)
        assert target.log_h(point, y_at) == want_value
        np.testing.assert_array_equal(target.grad_log_h_theta(point, y_at), want_theta)
        got_theta, got_yu = target.grads(point, y_at)
        np.testing.assert_array_equal(got_theta, want_theta)
        np.testing.assert_array_equal(got_yu, want_yu)


def test_both_gradients_are_parts_of_one_array(grid4):
    from spatialvb.posterior import joint_gradient
    for mechanism in ("mar", "mnar"):
        target, theta, y_u, _ = make_target(grid4, 9, mechanism=mechanism)
        for _, g_theta, g_yu in (target.log_h_and_grads(theta, y_u),
                                 (None, *target.grads(theta, y_u))):
            whole = joint_gradient(g_theta, g_yu)
            assert whole is g_theta.base and whole is g_yu.base
            np.testing.assert_array_equal(whole, np.concatenate([g_theta, g_yu]))
    # parts that are not views of one array are concatenated
    a, b = np.arange(3.0), np.arange(2.0)
    np.testing.assert_array_equal(joint_gradient(a, b), [0, 1, 2, 0, 1])
    whole = np.arange(6.0)
    np.testing.assert_array_equal(joint_gradient(whole[:2], whole[3:]), [0, 1, 3, 4, 5])
