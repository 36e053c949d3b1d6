import numpy as np
import pytest

from spatialvb import (GmrfPlan, HmcConfig, MissingPattern, SemParams,
                       build_rook_grid_weights, hmc_run,
                       make_blocks, mar_conditional, mcmc_block, mcmc_nob,
                       row_normalize, sample_conditional)
from spatialvb.samplers import ConditionalGaussian, GmrfFactor, leapfrog
from spatialvb.sem import PrecisionPattern
from spatialvb.weights import csr_dot

from conftest import dense_sem_cov, random_instance, random_selection


def schur_conditional(params, w, x, pattern, y_o):
    """Dense Schur-complement oracle for the MAR conditional."""
    cov = dense_sem_cov(params, w)
    o, u = pattern.observed_idx, pattern.unobserved_idx
    c_oo = cov[np.ix_(o, o)]
    c_uo = cov[np.ix_(u, o)]
    c_uu = cov[np.ix_(u, u)]
    mu = x @ params.beta
    mean = mu[u] + c_uo @ np.linalg.solve(c_oo, y_o - mu[o])
    cond_cov = c_uu - c_uo @ np.linalg.solve(c_oo, c_uo.T)
    return mean, cond_cov


def dense_lower(band):
    """L as a dense matrix, from its LAPACK lower band."""
    n = band.shape[1]
    low = np.zeros((n, n))
    for k in range(band.shape[0]):
        # band[k, j] holds L[j + k, j]
        low[np.arange(k, n), np.arange(n - k)] = band[k, :n - k]
    return low


def factored_block(factor, band):
    """P^T L L^T P rebuilt densely from a GMRF factor and its band of L."""
    n = band.shape[1]
    low = dense_lower(band)
    out = np.empty((n, n))
    out[np.ix_(factor.perm, factor.perm)] = low @ low.T
    return out


def cg_covariance(cg):
    return cg.sigma2 * np.linalg.inv(factored_block(cg.factor, cg.chol_lower))


def _factor_oracle_sets():
    w = row_normalize(build_rook_grid_weights(10))
    rng = np.random.default_rng(0)
    m = np.zeros(100, dtype=np.int8)
    m[rng.choice(100, size=75, replace=False)] = 1
    pattern = MissingPattern(m=m)
    sets = [("unobserved", pattern.unobserved_idx)]
    sets += [(f"block{j}", b)
             for j, b in enumerate(make_blocks(pattern, 17, seed=1).blocks)]
    # units 3 apart share no neighbour, so M_y restricted to them is diagonal
    sets.append(("spaced", np.array([r * 10 + c for r in range(0, 10, 3)
                                     for c in range(0, 10, 3)])))
    sets.append(("one-unit", np.array([44])))
    return w, sets


def test_gmrf_factor_reproduces_dense_block():
    w, sets = _factor_oracle_sets()
    prec = PrecisionPattern(w)
    for rho in (0.0, 0.7, -0.4):
        dense = PrecisionPattern(w).matrix(rho).toarray()
        for name, idx in sets:
            factor = GmrfFactor(prec.pattern, idx)
            band = factor.cholesky(prec.data(rho), rho)
            assert band.shape == (factor.bw + 1, idx.size)
            if name in ("spaced", "one-unit"):
                assert factor.bw == 0
            np.testing.assert_allclose(factored_block(factor, band),
                                       dense[np.ix_(idx, idx)], rtol=0,
                                       atol=1e-12, err_msg=f"{name} rho={rho}")


def test_factor_failure_is_loud_and_names_rho(grid4):
    _, params, _, pattern, _ = random_instance(grid4, 40)
    plan = GmrfPlan(grid4, pattern)
    negated = -plan.precision.data(params.rho)
    with pytest.raises(np.linalg.LinAlgError, match=f"rho={params.rho}"):
        plan.unobserved.cholesky(negated, params.rho)
    with pytest.raises(ValueError, match="pattern holds"):
        plan.unobserved.cholesky(np.ones(3), params.rho)


def _bincount_rows_dot(pattern, data, units, v):
    """M[units, :] v as the row product computed it before it became a CSR
    matrix: np.bincount over the stored entries, row by row."""
    starts = pattern.indptr[units]
    counts = pattern.indptr[units + 1] - starts
    offsets = np.cumsum(counts) - counts
    src = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
    row_of = np.repeat(np.arange(units.size), counts)
    return np.bincount(row_of, weights=data[src] * v[pattern.indices[src]],
                       minlength=units.size)


def test_csr_rows_equal_the_bincount_product_and_the_dense_rows():
    w, sets = _factor_oracle_sets()
    prec = PrecisionPattern(w)
    rng = np.random.default_rng(3)
    for rho in (0.01, 0.5, 0.95):
        data = prec.data(rho)
        dense = prec.matrix(rho).toarray()
        for name, idx in sets:
            factor = GmrfFactor(prec.pattern, idx)
            v = rng.standard_normal(w.n)
            got = csr_dot(factor.rows(data), v)
            np.testing.assert_array_equal(
                got, _bincount_rows_dot(prec.pattern, data, factor.order, v),
                err_msg=f"{name} rho={rho}")
            np.testing.assert_allclose(got, dense[factor.order] @ v, rtol=0,
                                       atol=1e-14, err_msg=f"{name} rho={rho}")


def _grid6_block_conditionals(rho):
    """A 6 x 6 grid with half its units missing, split into blocks of 6, and
    the conditional of each block at ``rho``."""
    w = row_normalize(build_rook_grid_weights(6))
    x, params, y, pattern, _ = random_instance(w, 51, missing=0.5)
    params = SemParams(beta=params.beta, sigma2_y=params.sigma2_y, rho=rho)
    part = make_blocks(pattern, 6, seed=4)
    plan = GmrfPlan(w, pattern)
    xb, m_data = x @ params.beta, plan.precision.data(rho)
    return w, x, params, y, [ConditionalGaussian(params, xb, m_data, f)
                             for f in plan.blocks(part)]


def test_fused_block_draw_equals_the_two_step_form():
    # for the same z, the canonical-form draw equals mean + sqrt(sigma2)
    # P^T L^{-T} z, with the mean and L^{-T} z from dense algebra
    from scipy.linalg import solve_triangular
    for rho in (0.01, 0.5, 0.95):
        w, x, params, y, blocks = _grid6_block_conditionals(rho)
        m_y = PrecisionPattern(w).matrix(rho).toarray()
        resid = y - x @ params.beta
        for j, cg in enumerate(blocks):
            s = cg.factor.order
            mean = y[s] - np.linalg.solve(m_y[np.ix_(s, s)], m_y[s] @ resid)
            z = np.random.default_rng(j).standard_normal(s.size)
            corr = solve_triangular(dense_lower(cg.chol_lower), z, lower=True,
                                    trans="T")
            two_step = mean + np.sqrt(params.sigma2_y) * corr
            got = cg.draw(resid, np.random.default_rng(j))
            np.testing.assert_allclose(got, two_step, rtol=0, atol=1e-12,
                                       err_msg=f"block {j} rho={rho}")


def test_fused_block_draw_moments_match_the_dense_schur_conditional():
    # 40,000 draws of one block of 6: every mean within 5 SE, SE =
    # sqrt(var / N), and every covariance entry within 5 SE, SE =
    # sqrt((c_ij^2 + c_ii c_jj) / N) (Gaussian fourth moments); 42 checks at
    # 5 SE fail by chance with probability below 1e-4
    n_draws = 40_000
    w, x, params, y, blocks = _grid6_block_conditionals(0.7)
    cg = blocks[1]
    f = cg.factor
    assert f.order.size == 6 and f.bw > 0
    m = np.zeros(w.n, dtype=np.int8)
    m[f.idx] = 1
    block = MissingPattern(m=m)
    mean_o, cov_o = schur_conditional(params, w, x, block, y[block.observed_idx])
    # the oracle lists the block in sorted order; the draws come in factor order
    at = np.searchsorted(block.unobserved_idx, f.order)
    mean_o, cov_o = mean_o[at], cov_o[np.ix_(at, at)]
    y = y.copy()
    y[f.idx] = 0.0   # the conditional does not depend on the block's own values
    resid = y - x @ params.beta
    rng = np.random.default_rng(12)
    draws = np.array([cg.draw(resid, rng) for _ in range(n_draws)])
    se_mean = np.sqrt(np.diag(cov_o) / n_draws)
    assert np.all(np.abs(draws.mean(axis=0) - mean_o) < 5 * se_mean)
    d = np.sqrt(np.outer(np.diag(cov_o), np.diag(cov_o)))
    se_cov = np.sqrt((cov_o ** 2 + d ** 2) / n_draws)
    assert np.all(np.abs(np.cov(draws.T) - cov_o) < 5 * se_cov)


def _draw_direct(phi, sel, y_o, part, x, plan, rng):
    return sample_conditional(mar_conditional(phi, y_o, x, plan), rng)


def _draw_nob(phi, sel, y_o, part, x, plan, rng):
    return mcmc_nob(phi, sel, y_o, x, plan, 5, rng)[0]


def _draw_gibbs(phi, sel, y_o, part, x, plan, rng):
    return mcmc_block(phi, None, y_o, part, x, plan, "allb", 5, rng,
                      y_u_init=np.zeros(plan.pattern.n_u))[0]


def _draw_block(phi, sel, y_o, part, x, plan, rng):
    return mcmc_block(phi, sel, y_o, part, x, plan, "allb", 5, rng)[0]


def test_plan_reused_across_rho_matches_fresh_factors():
    w, x, params, y, pattern, sel = mnar_instance(26)
    y_o = y[pattern.observed_idx]
    part = make_blocks(pattern, 2, seed=0)
    samplers = {"mar_conditional": _draw_direct, "mcmc_nob": _draw_nob,
                "gibbs": _draw_gibbs, "mcmc_block": _draw_block}
    for name, draw in samplers.items():
        plan = GmrfPlan(w, pattern)
        for rho in (0.0, 0.6, -0.3):
            phi = SemParams(beta=params.beta, sigma2_y=params.sigma2_y, rho=rho)
            reused = draw(phi, sel, y_o, part, x, plan, np.random.default_rng(1))
            fresh = draw(phi, sel, y_o, part, x, GmrfPlan(w, pattern),
                         np.random.default_rng(1))
            np.testing.assert_array_equal(reused, fresh, err_msg=f"{name} rho={rho}")


def test_plan_keeps_the_block_factors_of_the_last_partition():
    w, _, _, _, pattern, _ = mnar_instance(27)
    plan = GmrfPlan(w, pattern)
    first, second = make_blocks(pattern, 2, seed=0), make_blocks(pattern, 2, seed=1)
    factors = plan.blocks(first)
    assert plan.blocks(first) is factors
    others = plan.blocks(second)
    assert [f.idx.tolist() for f in others] == [b.tolist() for b in second.blocks]
    assert plan.blocks(first) is not factors


def test_conditional_rho_zero_no_information_flow(grid3):
    x, params, y, pattern, _ = random_instance(grid3, 0, rho=0.0)
    plan = GmrfPlan(grid3, pattern)
    cg = mar_conditional(params, y[pattern.observed_idx], x, plan)
    np.testing.assert_allclose(cg.mean, (x @ params.beta)[pattern.unobserved_idx],
                               atol=1e-12)
    np.testing.assert_allclose(cg_covariance(cg),
                               params.sigma2_y * np.eye(pattern.n_u), atol=1e-12)


def test_conditional_matches_schur_oracle():
    from spatialvb import build_rook_grid_weights, row_normalize
    w = row_normalize(build_rook_grid_weights(5))
    x, params, y, pattern, _ = random_instance(w, 1, missing=8 / 25)
    assert pattern.n_u == 8
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    cg = mar_conditional(params, y_o, x, plan)
    mean_oracle, cov_oracle = schur_conditional(params, w, x, pattern, y_o)
    np.testing.assert_allclose(cg.mean, mean_oracle, atol=1e-9)
    np.testing.assert_allclose(cg_covariance(cg), cov_oracle, atol=1e-9)


def test_conditional_single_missing_unit(grid3):
    x, params, y, _, _ = random_instance(grid3, 2)
    m = np.zeros(9, dtype=np.int8)
    m[4] = 1
    pattern = MissingPattern(m=m)
    plan = GmrfPlan(grid3, pattern)
    cg = mar_conditional(params, y[pattern.observed_idx], x, plan)
    m_y = PrecisionPattern(grid3).matrix(params.rho).toarray()
    assert cg_covariance(cg)[0, 0] == pytest.approx(
        params.sigma2_y / m_y[4, 4], rel=1e-12)


def test_sample_conditional_moments(grid4):
    x, params, y, _, _ = random_instance(grid4, 3)
    m = np.zeros(16, dtype=np.int8)
    m[[1, 5, 9, 12, 15]] = 1
    pattern = MissingPattern(m=m)
    plan = GmrfPlan(grid4, pattern)
    cg = mar_conditional(params, y[pattern.observed_idx], x, plan)
    rng = np.random.default_rng(0)
    draws = np.array([sample_conditional(cg, rng) for _ in range(50_000)])
    cov_true = cg_covariance(cg)
    se_mean = np.sqrt(np.diag(cov_true) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - cg.mean) < 5 * se_mean)
    cov_hat = np.cov(draws.T)
    # moment SE of covariance entries, Gaussian fourth-moment formula
    d = np.sqrt(np.outer(np.diag(cov_true), np.diag(cov_true)))
    se_cov = np.sqrt((cov_true ** 2 + d ** 2) / draws.shape[0])
    assert np.all(np.abs(cov_hat - cov_true) < 5 * se_cov)


def test_gibbs_single_block_equals_direct_draw(grid4):
    from spatialvb.missing import BlockPartition
    x, params, y, pattern, _ = random_instance(grid4, 4, missing=0.25)
    y_o = y[pattern.observed_idx]
    # one block in sorted index order: the sweep then consumes the same
    # normals against the same Cholesky factor as a direct draw
    part = BlockPartition(blocks=(pattern.unobserved_idx,),
                          block_size=pattern.n_u)
    plan = GmrfPlan(grid4, pattern)
    cg = mar_conditional(params, y_o, x, plan)
    direct = sample_conditional(cg, np.random.default_rng(99))
    swept = mcmc_block(params, None, y_o, part, x, plan, "allb", 1,
                       np.random.default_rng(99), y_u_init=np.zeros(pattern.n_u))[0]
    np.testing.assert_allclose(swept, direct, atol=1e-9)


@pytest.mark.parametrize("n1", [1, 3])
@pytest.mark.parametrize("given_init", [True, False])
def test_block_sampler_without_selection_is_the_gibbs_sweep(n1, given_init):
    # with no selection model every block proposal is accepted and no uniform
    # is drawn, so at a fixed seed mcmc_block must reproduce, bit for bit, the
    # separate Gibbs loop, whose default start is a direct conditional draw
    from reference_samplers import gibbs_sweep
    w, x, params, y, pattern, _ = mnar_instance(28)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    part = make_blocks(pattern, 2, seed=0)
    assert part.k == 3
    init = np.linspace(-1.0, 1.0, pattern.n_u) if given_init else None
    got, rates = mcmc_block(params, None, y_o, part, x, plan, "allb", n1,
                            np.random.default_rng(5), y_u_init=init)
    rng = np.random.default_rng(5)
    if init is None:
        init = sample_conditional(mar_conditional(params, y_o, x, plan), rng)
    want = gibbs_sweep(params, y_o, part, x, plan, n1, rng, init)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rates, np.ones(part.k))


@pytest.mark.parametrize("n1", [1, 5])
@pytest.mark.parametrize("given_init", [True, False])
def test_nob_without_selection_is_one_exact_draw(n1, given_init):
    # with no selection model the proposal is the exact conditional, accepted
    # with probability one: mcmc_nob returns one sample_conditional draw at
    # rate 1 and leaves the generator where that draw leaves it, so it drew
    # no start and no uniform
    w, x, params, y, pattern, _ = mnar_instance(29)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    init = np.linspace(-1.0, 1.0, pattern.n_u) if given_init else None
    rng = np.random.default_rng(6)
    got, rate = mcmc_nob(params, None, y_o, x, plan, n1, rng, y_u_init=init)
    ref = np.random.default_rng(6)
    want = sample_conditional(mar_conditional(params, y_o, x, plan), ref)
    np.testing.assert_array_equal(got, want)
    assert rate == 1.0
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gibbs_leaves_conditional_invariant(grid4):
    # start at exact conditional draws; sweep moments must match the direct ones
    x, params, y, _, _ = random_instance(grid4, 5)
    m = np.zeros(16, dtype=np.int8)
    m[[0, 3, 6, 9, 11, 14]] = 1
    pattern = MissingPattern(m=m)
    y_o = y[pattern.observed_idx]
    part = make_blocks(pattern, 3, seed=1)
    assert part.k == 2
    plan = GmrfPlan(grid4, pattern)
    cg = mar_conditional(params, y_o, x, plan)
    rng = np.random.default_rng(7)
    n_rep = 8_000
    states = np.empty((n_rep, pattern.n_u))
    for i in range(n_rep):
        start = sample_conditional(cg, rng)
        states[i] = mcmc_block(params, None, y_o, part, x, plan, "allb", 2, rng,
                               y_u_init=start)[0]
    cov_true = cg_covariance(cg)
    se_mean = np.sqrt(np.diag(cov_true) / n_rep)
    assert np.all(np.abs(states.mean(axis=0) - cg.mean) < 5 * se_mean)
    d = np.sqrt(np.outer(np.diag(cov_true), np.diag(cov_true)))
    se_cov = np.sqrt((cov_true ** 2 + d ** 2) / n_rep)
    assert np.all(np.abs(np.cov(states.T) - cov_true) < 5 * se_cov)


def test_gibbs_chain_converges_to_direct_sampler(grid4):
    # burn in from a bad start, then compare pooled sweeps to the conditional
    x, params, y, _, _ = random_instance(grid4, 6)
    m = np.zeros(16, dtype=np.int8)
    m[[0, 3, 6, 9, 11, 14]] = 1
    pattern = MissingPattern(m=m)
    y_o = y[pattern.observed_idx]
    part = make_blocks(pattern, 3, seed=2)
    plan = GmrfPlan(grid4, pattern)
    cg = mar_conditional(params, y_o, x, plan)
    rng = np.random.default_rng(8)
    state = np.zeros(pattern.n_u)
    for _ in range(200):
        state = mcmc_block(params, None, y_o, part, x, plan, "allb", 1, rng,
                           y_u_init=state)[0]
    n_keep = 20_000
    states = np.empty((n_keep, pattern.n_u))
    for i in range(n_keep):
        state = mcmc_block(params, None, y_o, part, x, plan, "allb", 1, rng,
                           y_u_init=state)[0]
        states[i] = state
    # batch-means SE accounts for sweep-to-sweep autocorrelation
    n_batch = 100
    bm = states[:n_keep].reshape(n_batch, -1, pattern.n_u).mean(axis=1)
    se = bm.std(axis=0, ddof=1) / np.sqrt(n_batch)
    assert np.all(np.abs(states.mean(axis=0) - cg.mean) < 5 * se)


# -- MNAR Metropolis schemes --------------------------------------------------


def importance_oracle(params, sel, y_o, x, plan, n_draws, seed):
    """Stationary-moment oracle: MAR-conditional draws weighted by the
    missingness likelihood over the missing units."""
    pattern = plan.pattern
    cg = mar_conditional(params, y_o, x, plan)
    rng = np.random.default_rng(seed)
    draws = np.array([sample_conditional(cg, rng) for _ in range(n_draws)])
    t = (sel.x_star[pattern.unobserved_idx] @ sel.psi_x
         + sel.psi_y * draws)
    logw = -np.logaddexp(0.0, -t).sum(axis=1)
    logw -= logw.max()
    w_norm = np.exp(logw)
    w_norm /= w_norm.sum()

    def weighted(f_draws):
        mu = (w_norm[:, None] * f_draws).sum(axis=0)
        se = np.sqrt(np.sum((w_norm[:, None] * (f_draws - mu)) ** 2, axis=0))
        return mu, se

    mean, se_mean = weighted(draws)
    second, se_second = weighted(draws ** 2)
    return mean, se_mean, second, se_second


def mnar_instance(seed):
    from spatialvb import build_rook_grid_weights, row_normalize
    w = row_normalize(build_rook_grid_weights(4))
    x, params, y, _, rng = random_instance(w, seed)
    m = np.zeros(16, dtype=np.int8)
    m[[2, 5, 8, 11, 13]] = 1
    pattern = MissingPattern(m=m)
    sel = random_selection(16, seed + 10, psi_y=-0.6)
    return w, x, params, y, pattern, sel


def run_chain(kernel, n_iter, n_u, burn=500):
    state = None
    states = np.empty((n_iter, n_u))
    for i in range(burn):
        state, _ = kernel(state)
    for i in range(n_iter):
        state, _ = kernel(state)
        states[i] = state
    return states


def chain_se(states, n_batch=100):
    bm = states.reshape(n_batch, -1, states.shape[1]).mean(axis=1)
    return bm.std(axis=0, ddof=1) / np.sqrt(n_batch)


def test_mcmc_nob_accepts_everything_when_psi_y_zero(grid4):
    x, params, y, pattern, _ = random_instance(grid4, 10, missing=0.3)
    sel = random_selection(16, 3, psi_y=0.0)
    y_u, acc = mcmc_nob(params, sel, y[pattern.observed_idx], x,
                        GmrfPlan(grid4, pattern), 50, np.random.default_rng(0))
    assert acc == 1.0


def test_mcmc_nob_stationary_moments_match_importance_oracle():
    w, x, params, y, pattern, sel = mnar_instance(20)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    mean_o, se_mo, second_o, se_so = importance_oracle(
        params, sel, y_o, x, plan, 60_000, seed=1)
    rng = np.random.default_rng(2)

    def kernel(state):
        return mcmc_nob(params, sel, y_o, x, plan, 1, rng, y_u_init=state)

    states = run_chain(kernel, 12_000, pattern.n_u)
    se_mean = np.sqrt(chain_se(states) ** 2 + se_mo ** 2)
    se_second = np.sqrt(chain_se(states ** 2) ** 2 + se_so ** 2)
    assert np.all(np.abs(states.mean(axis=0) - mean_o) < 5 * se_mean)
    assert np.all(np.abs((states ** 2).mean(axis=0) - second_o) < 5 * se_second)


def test_mcmc_block_accepts_everything_when_psi_y_zero(grid4):
    x, params, y, pattern, _ = random_instance(grid4, 11, missing=0.3)
    sel = random_selection(16, 4, psi_y=0.0)
    part = make_blocks(pattern, 2, seed=0)
    y_u, rates = mcmc_block(params, sel, y[pattern.observed_idx], part, x,
                            GmrfPlan(grid4, pattern), "allb", 20,
                            np.random.default_rng(0))
    np.testing.assert_allclose(rates, 1.0)


def test_mcmc_block_single_block_matches_nob_path():
    from spatialvb.missing import BlockPartition
    w, x, params, y, pattern, sel = mnar_instance(21)
    y_o = y[pattern.observed_idx]
    part = BlockPartition(blocks=(pattern.unobserved_idx,),
                          block_size=pattern.n_u)
    init = np.zeros(pattern.n_u)
    plan = GmrfPlan(w, pattern)
    y_nob, acc_nob = mcmc_nob(params, sel, y_o, x, plan, 25,
                              np.random.default_rng(5), y_u_init=init)
    y_blk, rates = mcmc_block(params, sel, y_o, part, x, plan, "allb",
                              25, np.random.default_rng(5),
                              y_u_init=init.copy())
    np.testing.assert_allclose(y_blk, y_nob, atol=1e-9)
    assert rates[0] == pytest.approx(acc_nob)


def test_mcmc_allb_stationary_moments_match_importance_oracle():
    w, x, params, y, pattern, sel = mnar_instance(22)
    m = np.zeros(16, dtype=np.int8)
    m[[1, 4, 7, 10, 12, 15]] = 1
    pattern = MissingPattern(m=m)
    y_o = y[pattern.observed_idx]
    part = make_blocks(pattern, 3, seed=3)
    assert part.k == 2
    plan = GmrfPlan(w, pattern)
    mean_o, se_mo, second_o, se_so = importance_oracle(
        params, sel, y_o, x, plan, 60_000, seed=4)
    rng = np.random.default_rng(6)

    def kernel(state):
        y_u, rates = mcmc_block(params, sel, y_o, part, x, plan, "allb",
                                1, rng, y_u_init=state)
        return y_u, rates

    states = run_chain(kernel, 12_000, pattern.n_u)
    se_mean = np.sqrt(chain_se(states) ** 2 + se_mo ** 2)
    se_second = np.sqrt(chain_se(states ** 2) ** 2 + se_so ** 2)
    assert np.all(np.abs(states.mean(axis=0) - mean_o) < 5 * se_mean)
    assert np.all(np.abs((states ** 2).mean(axis=0) - second_o) < 5 * se_second)


def test_mcmc_randomb_stationary_moments_match_importance_oracle():
    w, x, params, y, pattern, sel = mnar_instance(23)
    m = np.zeros(16, dtype=np.int8)
    m[[1, 4, 7, 10, 12, 15]] = 1
    pattern = MissingPattern(m=m)
    y_o = y[pattern.observed_idx]
    part = make_blocks(pattern, 2, seed=5)
    assert part.k == 3
    plan = GmrfPlan(w, pattern)
    mean_o, se_mo, second_o, se_so = importance_oracle(
        params, sel, y_o, x, plan, 60_000, seed=7)
    rng = np.random.default_rng(8)

    def kernel(state):
        y_u, rates = mcmc_block(params, sel, y_o, part, x, plan,
                                "randomb", 1, rng, y_u_init=state, k_prime=2)
        return y_u, rates

    states = run_chain(kernel, 20_000, pattern.n_u)
    se_mean = np.sqrt(chain_se(states) ** 2 + se_mo ** 2)
    se_second = np.sqrt(chain_se(states ** 2) ** 2 + se_so ** 2)
    assert np.all(np.abs(states.mean(axis=0) - mean_o) < 5 * se_mean)
    assert np.all(np.abs((states ** 2).mean(axis=0) - second_o) < 5 * se_second)


def test_samplers_reproducible_under_fixed_seed():
    w, x, params, y, pattern, sel = mnar_instance(24)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    a1, r1 = mcmc_nob(params, sel, y_o, x, plan, 30, np.random.default_rng(42))
    a2, r2 = mcmc_nob(params, sel, y_o, x, plan, 30, np.random.default_rng(42))
    np.testing.assert_array_equal(a1, a2)
    assert r1 == r2


# -- HMC ----------------------------------------------------------------------


class StandardGaussian:
    """Test double: standard bivariate normal as the target."""

    S = 2
    n_u = 0

    def log_h_and_grads(self, theta, y_u):
        return -0.5 * float(theta @ theta), -theta, np.empty(0)

    def grads(self, theta, y_u):
        return -theta, np.empty(0)


def test_hmc_standard_gaussian_moments():
    cfg = HmcConfig(n_samples=20_000, n_leapfrog=12, step_size=0.4, burn_in=500)
    res = hmc_run(StandardGaussian(), cfg, (np.zeros(2), np.empty(0)),
                  np.random.default_rng(1))
    assert res.accept_rate > 0.8
    assert np.all(np.abs(res.chain.mean(axis=0)) < 0.05)
    cov = np.cov(res.chain.T)
    assert np.all(np.abs(cov - np.eye(2)) < 0.05)


def test_hmc_acceptance_approaches_one_as_step_vanishes():
    cfg = HmcConfig(n_samples=400, n_leapfrog=1, step_size=1e-4, burn_in=0)
    res = hmc_run(StandardGaussian(), cfg, (np.array([0.3, -0.2]), np.empty(0)),
                  np.random.default_rng(2))
    assert res.accept_rate == 1.0


def test_leapfrog_energy_error_second_order():
    target = StandardGaussian()
    rng = np.random.default_rng(3)
    chi0 = rng.standard_normal(2)
    s0 = rng.standard_normal(2)

    def drift(eps, n_steps):
        logh0, g_t, _ = target.log_h_and_grads(chi0, np.empty(0))
        h0 = -logh0 + 0.5 * s0 @ s0
        # the integrator hmc_run calls: n_steps steps with merged half-steps
        _, s, logh1, _ = leapfrog(target, chi0.copy(), s0.copy(), g_t, eps, n_steps)
        return abs(-logh1 + 0.5 * s @ s - h0)

    # fixed trajectory length T = eps * n: halving eps should shrink the
    # energy error by ~4 (second order)
    e1 = drift(0.2, 10)
    e2 = drift(0.1, 20)
    e3 = drift(0.05, 40)
    # observed convergence order log2(ratio) must be at least 1.9
    assert np.log2(e1 / e2) >= 1.9
    assert np.log2(e2 / e3) >= 1.9


def test_hmc_reproducible():
    cfg = HmcConfig(n_samples=200, n_leapfrog=5, step_size=0.3, burn_in=10)
    r1 = hmc_run(StandardGaussian(), cfg, (np.zeros(2), np.empty(0)),
                 np.random.default_rng(9))
    r2 = hmc_run(StandardGaussian(), cfg, (np.zeros(2), np.empty(0)),
                 np.random.default_rng(9))
    np.testing.assert_array_equal(r1.chain, r2.chain)


def test_hmc_on_sem_target_runs(grid4):
    # smoke: joint (theta, y_u) target with gradients from the posterior module
    from spatialvb import TargetDensity
    x, params, y, pattern, _ = random_instance(grid4, 30, missing=0.25)
    target = TargetDensity(x=x, weights=grid4, y_obs=y[pattern.observed_idx],
                           pattern=pattern, mechanism="mar")
    theta0 = target.unconstrain(params)
    cfg = HmcConfig(n_samples=100, n_leapfrog=8, step_size=0.05, burn_in=50)
    res = hmc_run(target, cfg, (theta0, y[pattern.unobserved_idx]),
                  np.random.default_rng(4))
    assert res.accept_rate > 0.2
    assert np.all(np.isfinite(res.chain))


def test_acceptance_rate_is_exact_integer_accounting():
    w, x, params, y, pattern, sel = mnar_instance(25)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    for n1 in (7, 13, 30):
        _, acc = mcmc_nob(params, sel, y_o, x, plan, n1,
                          np.random.default_rng(3))
        assert (acc * n1) == pytest.approx(round(acc * n1), abs=1e-12)
        assert 0.0 <= acc <= 1.0
    part = make_blocks(pattern, 2, seed=0)
    _, rates = mcmc_block(params, sel, y_o, part, x, plan, "allb", 9,
                          np.random.default_rng(4))
    for r in rates:
        assert (r * 9) == pytest.approx(round(r * 9), abs=1e-12)


@pytest.mark.parametrize("scheme", ["allb", "randomb", "nob"])
def test_cached_metropolis_equals_the_uncached_loop(scheme):
    # the samplers hold x*[idx] psi_x per block and each block's current
    # selection term; at a fixed seed they must reproduce, bit for bit, the
    # loop that recomputed both at every proposal
    from reference_samplers import mcmc_block_uncached, mcmc_nob_uncached
    from spatialvb import build_rook_grid_weights, row_normalize
    w = row_normalize(build_rook_grid_weights(6))
    x, params, y, pattern, _ = random_instance(w, 31, missing=0.5)
    sel = random_selection(w.n, 41, psi_y=-0.8)
    y_o = y[pattern.observed_idx]
    plan = GmrfPlan(w, pattern)
    part = make_blocks(pattern, 4, seed=2)
    for init in (None, np.zeros(pattern.n_u)):
        if scheme == "nob":
            got = mcmc_nob(params, sel, y_o, x, plan, 40, np.random.default_rng(9), init)
            want = mcmc_nob_uncached(params, sel, y_o, x, plan, 40,
                                     np.random.default_rng(9), init)
        else:
            got = mcmc_block(params, sel, y_o, part, x, plan, scheme, 40,
                             np.random.default_rng(9), init, k_prime=2)
            want = mcmc_block_uncached(params, sel, y_o, part, x, plan, scheme, 40,
                                       np.random.default_rng(9), init, k_prime=2)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert 0.0 < np.nanmean(got[1]) < 1.0   # both branches were taken


def _mnar_sem_target(evaluations):
    from spatialvb import TargetDensity
    w = row_normalize(build_rook_grid_weights(6))
    x, params, y, pattern, _ = random_instance(w, 31, missing=0.5)
    sel = random_selection(w.n, 41, psi_y=-0.8)
    target = TargetDensity(x=x, weights=w, y_obs=y[pattern.observed_idx],
                           pattern=pattern, mechanism="mnar", x_star=sel.x_star,
                           evaluations=evaluations)
    return target, (target.unconstrain(params, sel.psi), y[pattern.unobserved_idx])


@pytest.mark.parametrize("evaluations", [0, 10_000])
def test_leapfrog_and_hmc_equal_the_every_step_log_h_reference(evaluations):
    # the inner leapfrog steps evaluate only the gradient of log h; at a fixed
    # seed the integrator and the chain must reproduce, bit for bit, the loop
    # that evaluated log h at every step, accepted and diverging alike
    from reference_samplers import hmc_run_every_logh, leapfrog_every_logh
    from spatialvb.samplers import _joint_logh_grad
    target, init = _mnar_sem_target(evaluations)
    chi0 = np.concatenate(init)
    _, grad0 = _joint_logh_grad(target, chi0)
    rng = np.random.default_rng(6)
    stopped = 0
    for eps in (0.02, 0.1, 0.4, 0.8):
        s0 = rng.standard_normal(chi0.shape[0])
        got = leapfrog(target, chi0, s0, grad0, eps, 10)
        want = leapfrog_every_logh(target, chi0, s0, grad0, eps, 10)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        stopped += not np.isfinite(got[2])
    assert stopped > 0
    for eps, accepted in ((0.05, True), (0.4, False)):
        cfg = HmcConfig(n_samples=30, n_leapfrog=10, step_size=eps, burn_in=5)
        res = hmc_run(target, cfg, init, np.random.default_rng(5))
        chain, logh_trace, n_acc, n_div = hmc_run_every_logh(
            target, cfg, init, np.random.default_rng(5))
        np.testing.assert_array_equal(res.chain, chain)
        np.testing.assert_array_equal(res.log_h_trace, logh_trace)
        assert res.accept_rate == n_acc / 35
        assert res.divergences == n_div
        assert (n_acc > 0) if accepted else (n_div > 0)


class _CallLog(StandardGaussian):
    def __init__(self):
        self.log = []

    def log_h_and_grads(self, theta, y_u):
        self.log.append("log_h_and_grads")
        return super().log_h_and_grads(theta, y_u)

    def grads(self, theta, y_u):
        self.log.append("grads")
        return super().grads(theta, y_u)


def test_leapfrog_evaluates_log_h_only_at_the_endpoint():
    target = _CallLog()
    chi, s = np.array([0.3, -0.2]), np.array([1.0, 0.5])
    for n_steps in (1, 4):
        target.log.clear()
        leapfrog(target, chi, s, -chi, 0.1, n_steps)
        assert target.log == ["grads"] * (n_steps - 1) + ["log_h_and_grads"]


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError, None])
def test_failure_on_an_inner_step_stops_the_trajectory(error):
    # calls 0-2 are the inner steps of a 4-step trajectory, call 3 its
    # endpoint; a raise or a NaN gradient on call 1 ends it there
    from toy_targets import FailingTarget
    target = FailingTarget({1}, error)
    chi, s = np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.5, -0.5])
    out_chi, _, logh, grad = leapfrog(target, chi, s, -chi, 0.1, 4)
    assert target.calls == 2
    assert logh == -np.inf
    np.testing.assert_array_equal(grad, np.zeros(3))
    # in hmc_run: call 0 is the initial point, calls 1-4 the first trajectory;
    # failing its second inner step rejects it as a divergence, and the
    # later trajectories run in full
    target = FailingTarget({2}, error)
    cfg = HmcConfig(n_samples=3, n_leapfrog=4, step_size=0.1, burn_in=0)
    res = hmc_run(target, cfg, (chi, np.empty(0)), np.random.default_rng(0))
    assert res.divergences == 1
    assert target.calls == 1 + 2 + 4 + 4
    np.testing.assert_array_equal(res.chain[0], chi)
    assert res.log_h_trace[0] == target.log_h_and_grads(chi, np.empty(0))[0]
    assert res.accept_rate <= 2 / 3
