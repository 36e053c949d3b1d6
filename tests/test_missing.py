import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialvb import (MissingPattern, SelectionModel, default_block_size,
                       generate_mar, generate_mnar, make_blocks,
                       selection_grad_psi, selection_grad_yu,
                       selection_log_prob)
from spatialvb.missing import selection_probabilities

from conftest import random_selection


def test_pattern_index_sets():
    p = MissingPattern(m=np.array([0, 1, 1, 0, 1], dtype=np.int8))
    assert p.n == 5 and p.n_o == 2 and p.n_u == 3
    np.testing.assert_array_equal(p.observed_idx, [0, 3])
    np.testing.assert_array_equal(p.unobserved_idx, [1, 2, 4])
    y = p.assemble(np.array([10.0, 40.0]), np.array([20.0, 30.0, 50.0]))
    np.testing.assert_array_equal(y, [10, 20, 30, 40, 50])


def test_selection_requires_intercept_column():
    with pytest.raises(ValueError, match="ones"):
        SelectionModel(psi_x=np.zeros(2), psi_y=0.0,
                       x_star=np.zeros((4, 2)))


def test_selection_log_prob_at_zero_psi():
    n = 8
    sel = SelectionModel(psi_x=np.zeros(2), psi_y=0.0,
                         x_star=np.hstack([np.ones((n, 1)), np.zeros((n, 1))]))
    m = np.array([0, 1] * 4, dtype=np.int8)
    val = selection_log_prob(m, np.zeros(n), sel)
    assert val == pytest.approx(n * np.log(0.5), abs=1e-14)


def test_selection_log_prob_single_unit_balance():
    sel = SelectionModel(psi_x=np.array([0.0]), psi_y=0.0, x_star=np.ones((1, 1)))
    assert selection_log_prob(np.array([1]), np.array([3.0]), sel) == \
        pytest.approx(np.log(0.5))


def test_selection_log_prob_matches_direct_product():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        sel = random_selection(5, seed)
        y = rng.standard_normal(5)
        m = rng.integers(0, 2, size=5)
        p = selection_probabilities(y, sel)
        oracle = float(np.sum(m * np.log(p) + (1 - m) * np.log1p(-p)))
        assert selection_log_prob(m, y, sel) == pytest.approx(oracle, abs=1e-12)


def test_selection_log_prob_stable_at_extremes():
    n = 3
    sel = SelectionModel(psi_x=np.array([800.0]), psi_y=0.0, x_star=np.ones((n, 1)))
    val = selection_log_prob(np.ones(n, dtype=int), np.zeros(n), sel)
    assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-12)
    val0 = selection_log_prob(np.zeros(n, dtype=int), np.zeros(n), sel)
    assert np.isfinite(val0) and val0 == pytest.approx(-2400.0)


def test_selection_log_prob_exact_at_a_large_predictor():
    # a missing unit at t = 40 has log p = -log1p(e^-40) = -4.25e-18, which
    # t - log(1 + e^t) rounds to 0; at t = 800 the value stays finite, and an
    # observed unit at t = -40 keeps -log(1 + e^-40)
    sel = SelectionModel(psi_x=np.array([40.0]), psi_y=0.0, x_star=np.ones((1, 1)))
    val = selection_log_prob(np.array([1]), np.zeros(1), sel)
    assert val == pytest.approx(-np.log1p(np.exp(-40.0)), rel=1e-12, abs=0)
    far = SelectionModel(psi_x=np.array([800.0]), psi_y=0.0, x_star=np.ones((1, 1)))
    assert np.isfinite(selection_log_prob(np.array([1]), np.zeros(1), far))
    low = SelectionModel(psi_x=np.array([-40.0]), psi_y=0.0, x_star=np.ones((1, 1)))
    assert selection_log_prob(np.array([0]), np.zeros(1), low) == \
        -np.logaddexp(0.0, -40.0)


def _fd_grad(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        up, dn = x0.copy(), x0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def test_grad_psi_zero_at_matched_probabilities():
    # construct m_i = p_i exactly: impossible with binary m unless p in {0,1};
    # use the score identity instead: E_m[grad] = 0 when m ~ Bernoulli(p)
    sel = random_selection(4, 0)
    y = np.zeros(4)
    p = selection_probabilities(y, sel)
    grad_at_p = sel.x_star.T @ (p - p)
    np.testing.assert_allclose(grad_at_p, 0.0)


def test_grad_psi_intercept_component_at_zero_psi():
    n = 10
    sel = SelectionModel(psi_x=np.zeros(1), psi_y=0.0, x_star=np.ones((n, 1)))
    m = np.array([1] * 6 + [0] * 4)
    g = selection_grad_psi(m, np.zeros(n), sel)
    assert g[0] == pytest.approx(6 - n / 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_grad_psi_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    sel = random_selection(n, seed, psi_y=float(rng.normal(scale=0.5)))
    y = rng.standard_normal(n)
    m = rng.integers(0, 2, size=n)

    def f(psi):
        s = SelectionModel(psi_x=psi[:-1], psi_y=float(psi[-1]), x_star=sel.x_star)
        return selection_log_prob(m, y, s)

    analytic = selection_grad_psi(m, y, sel)
    fd = _fd_grad(f, sel.psi)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_grad_yu_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    sel = random_selection(n, seed, psi_y=float(rng.normal(scale=0.5)))
    y = rng.standard_normal(n)
    m = np.zeros(n, dtype=np.int8)
    m[rng.choice(n, size=max(1, n // 3), replace=False)] = 1
    pattern = MissingPattern(m=m)

    def f(y_u):
        return selection_log_prob(m, pattern.assemble(y[pattern.observed_idx], y_u), sel)

    y_u0 = y[pattern.unobserved_idx]
    analytic = selection_grad_yu(m, y, sel, pattern)
    fd = _fd_grad(f, y_u0.copy())
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


def test_grad_yu_zero_when_psi_y_zero():
    sel = random_selection(6, 1, psi_y=0.0)
    m = np.array([1, 0, 1, 0, 1, 0], dtype=np.int8)
    g = selection_grad_yu(m, np.ones(6), sel, MissingPattern(m=m))
    np.testing.assert_array_equal(g, 0.0)


def test_grad_yu_saturates_at_high_probability():
    n = 2
    sel = SelectionModel(psi_x=np.array([50.0]), psi_y=1.0, x_star=np.ones((n, 1)))
    m = np.ones(n, dtype=np.int8)
    g = selection_grad_yu(m, np.zeros(n), sel, MissingPattern(m=m))
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


# -- mechanisms ---------------------------------------------------------------


def test_generate_mar_counts_and_determinism():
    y = np.zeros(625)
    p1 = generate_mar(y, 0.75, seed=42)
    p2 = generate_mar(y, 0.75, seed=42)
    assert p1.n_u == round(625 * 0.75) == 469
    np.testing.assert_array_equal(p1.m, p2.m)
    assert generate_mar(y, 0.75, seed=7).m.sum() == 469


def test_generate_mar_rejects_degenerate_fractions():
    with pytest.raises(ValueError):
        generate_mar(np.zeros(100), 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_mar(np.zeros(100), 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_mar(np.zeros(200), 0.001, seed=0)


def test_generate_mnar_saturation():
    n = 50
    sel = SelectionModel(psi_x=np.array([-20.0]), psi_y=0.0, x_star=np.ones((n, 1)))
    pattern = generate_mnar(np.zeros(n), sel, seed=0)
    assert pattern.n_u == 0


def test_generate_mnar_frequencies_match_logistic():
    # psi_y = 0: covariate-only missingness, empirical rates vs logistic(x psi)
    n = 10
    rng = np.random.default_rng(3)
    x_star = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    sel = SelectionModel(psi_x=np.array([0.3, 0.8]), psi_y=0.0, x_star=x_star)
    y = np.zeros(n)
    p_true = selection_probabilities(y, sel)
    reps = 100_000
    counts = np.zeros(n)
    for k in range(reps):
        counts += generate_mnar(y, sel, seed=k).m
    p_hat = counts / reps
    se = np.sqrt(p_true * (1 - p_true) / reps)
    assert np.all(np.abs(p_hat - p_true) < 5 * se + 1e-12)
    # chi-square goodness of fit per unit, alpha = 0.01
    from scipy.stats import chi2
    stat = np.sum((counts - reps * p_true) ** 2 / (reps * p_true * (1 - p_true)))
    assert stat < chi2.ppf(0.99, df=n)


# -- blocks -------------------------------------------------------------------


def test_default_block_sizes_follow_tuning_rules():
    assert default_block_size(469, "mnar") == 118
    assert default_block_size(7500, "mnar") == 750
    assert default_block_size(7500, "mar") == 500
    assert default_block_size(120, "mar") == 120


def test_make_blocks_sizing_mnar_469():
    pattern = generate_mar(np.zeros(625), 0.75, seed=0)
    part = make_blocks(pattern, default_block_size(469, "mnar"), seed=1)
    assert part.k == 4
    assert part.block_size == 118


def test_make_blocks_sizing_mar_7500():
    m = np.zeros(10_000, dtype=np.int8)
    m[:7500] = 1
    part = make_blocks(MissingPattern(m=m), 500, seed=1)
    assert part.k == 15
    assert all(b.size == 500 for b in part.blocks)


def test_make_blocks_single_block_degenerate():
    pattern = MissingPattern(m=np.array([1, 1, 0, 1], dtype=np.int8))
    part = make_blocks(pattern, 3, seed=0)
    assert part.k == 1
    np.testing.assert_array_equal(np.sort(part.blocks[0]), [0, 1, 3])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1),
       st.integers(min_value=1, max_value=30))
def test_make_blocks_disjoint_exhaustive_reproducible(seed, block_size):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 80))
    m = np.zeros(n, dtype=np.int8)
    m[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    pattern = MissingPattern(m=m)
    block_size = min(block_size, pattern.n_u)
    part = make_blocks(pattern, block_size, seed=seed)
    again = make_blocks(pattern, block_size, seed=seed)
    np.testing.assert_array_equal(part.indices, again.indices)
    np.testing.assert_array_equal(np.sort(part.indices), pattern.unobserved_idx)


def test_make_blocks_range_check():
    pattern = MissingPattern(m=np.array([1, 0, 1], dtype=np.int8))
    with pytest.raises(ValueError):
        make_blocks(pattern, 0, seed=0)
    with pytest.raises(ValueError):
        make_blocks(pattern, 3, seed=0)
