import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.stats import multivariate_normal

from spatialvb import (MissingPattern, SemParams, TargetDensity,
                       build_rook_grid_weights, row_normalize, sem_log_likelihood)
from spatialvb.sem import PrecisionOps, PrecisionPattern
from spatialvb.weights import SpatialWeights, weight_eigenvalues

from conftest import (delaunay_weights, dense_sem_cov, grid_and_triangle_weights,
                      random_grid_weights, random_instance)


def two_unit_weights():
    m = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return row_normalize(SpatialWeights(matrix=m))


def test_precision_identity_at_rho_zero(grid3):
    m = PrecisionPattern(grid3).matrix(0.0)
    np.testing.assert_allclose(m.toarray(), np.eye(9), atol=0)


def test_precision_two_units_hand_value():
    m = PrecisionPattern(two_unit_weights()).matrix(0.5).toarray()
    np.testing.assert_allclose(m, [[1.25, -1.0], [-1.0, 1.25]], atol=1e-15)


def test_precision_matches_dense_formula(grid4):
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = float(rng.uniform(-0.9, 0.95))
        m = PrecisionPattern(grid4).matrix(rho).toarray()
        a = np.eye(16) - rho * grid4.matrix.toarray()
        np.testing.assert_allclose(m, a.T @ a, atol=1e-12)


def test_precision_pattern_fixed_across_rho():
    # A^T A as a sparse product drops exact zeros: 36 entries at rho = 0,
    # 352 elsewhere on this grid. The assembled M_y keeps all 352 at every rho.
    w = row_normalize(build_rook_grid_weights(6))
    dense_w = w.matrix.toarray()
    for rho in (0.0, 0.3, 0.8, -0.5):
        m = PrecisionPattern(w).matrix(rho)
        a = np.eye(36) - rho * dense_w
        np.testing.assert_allclose(m.toarray(), a.T @ a, atol=1e-12)
        assert m.nnz == 352


def test_precision_positive_definite_across_interval(grid4):
    rng = np.random.default_rng(11)
    from spatialvb import rho_interval
    lo, hi = rho_interval(grid4)
    for _ in range(100):
        rho = float(rng.uniform(lo + 1e-6, hi - 1e-6))
        np.linalg.cholesky(PrecisionPattern(grid4).matrix(rho).toarray())


def test_precision_rejects_rho_outside_interval(grid3):
    with pytest.raises(ValueError):
        PrecisionPattern(grid3).matrix(1.5)
    with pytest.raises(ValueError, match="outside"):
        PrecisionPattern(grid3).matrix(-1.0)
    with pytest.raises(ValueError, match="row-normalized"):
        PrecisionPattern(build_rook_grid_weights(3)).matrix(0.5)


def test_loglik_standard_normal_case(grid3):
    p = SemParams(beta=np.zeros(1), sigma2_y=1.0, rho=0.0)
    val = sem_log_likelihood(np.zeros(9), p, np.ones((9, 1)), grid3)
    assert val == pytest.approx(-4.5 * np.log(2 * np.pi), abs=1e-12)


def test_loglik_matches_dense_mvn_oracle(grid4):
    for seed in range(6):
        x, params, y, _, _ = random_instance(grid4, seed)
        oracle = multivariate_normal(mean=x @ params.beta,
                                     cov=dense_sem_cov(params, grid4)).logpdf(y)
        ours = sem_log_likelihood(y, params, x, grid4)
        assert ours == pytest.approx(oracle, abs=1e-10)


def test_loglik_translation_invariance(grid4):
    x, params, y, _, rng = random_instance(grid4, 9)
    delta = rng.standard_normal(params.beta.shape[0])
    shifted = SemParams(beta=params.beta + delta, sigma2_y=params.sigma2_y,
                        rho=params.rho)
    v1 = sem_log_likelihood(y, params, x, grid4)
    v2 = sem_log_likelihood(y + x @ delta, shifted, x, grid4)
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_loglik_dimension_mismatch(grid3):
    p = SemParams(beta=np.zeros(2), sigma2_y=1.0, rho=0.0)
    with pytest.raises(ValueError):
        sem_log_likelihood(np.zeros(8), p, np.ones((9, 2)), grid3)


def test_loglik_refuses_rho_outside_unit_interval_and_raw_weights(grid4):
    x, y = np.ones((16, 1)), np.zeros(16)
    for rho in (1.0, -1.5):
        p = SemParams(beta=np.zeros(1), sigma2_y=1.0, rho=rho)
        with pytest.raises(ValueError, match=f"rho={rho} outside"):
            sem_log_likelihood(y, p, x, grid4)
    p = SemParams(beta=np.zeros(1), sigma2_y=1.0, rho=0.5)
    with pytest.raises(ValueError, match="row-normalized"):
        sem_log_likelihood(np.zeros(9), p, np.ones((9, 1)), build_rook_grid_weights(3))


def test_sparse_logdet_matches_dense(grid7):
    ops = PrecisionOps(grid7)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = float(rng.uniform(-0.9, 0.95))
        dense = np.linalg.slogdet(PrecisionPattern(grid7).matrix(rho).toarray())[1]
        assert ops.logdet_m(rho) == pytest.approx(dense, abs=1e-9)


def test_sparse_logdet_matches_dense_at_n400():
    from spatialvb import build_rook_grid_weights, row_normalize
    w = row_normalize(build_rook_grid_weights(20))
    ops = PrecisionOps(w)
    ops_lu = PrecisionOps(w, evaluations=0)
    for rho in (-0.7, 0.2, 0.9):
        dense = np.linalg.slogdet(PrecisionPattern(w).matrix(rho).toarray())[1]
        assert ops.logdet_m(rho) == pytest.approx(dense, abs=1e-9)
        assert ops_lu.logdet_m(rho) == pytest.approx(dense, abs=1e-9)


def test_logdet_splu_path_matches_dense(grid7):
    ops = PrecisionOps(grid7, evaluations=0)  # force the LU backend
    assert ops.eigenvalues is None
    dense = np.linalg.slogdet(PrecisionPattern(grid7).matrix(0.7).toarray())[1]
    assert ops.logdet_m(0.7) == pytest.approx(dense, abs=1e-9)


def _dense_trace_oracle(w, rho):
    """tr{M_y^{-1} dM_y/drho} by dense solve."""
    wd = w.matrix.toarray()
    m = PrecisionPattern(w).matrix(rho).toarray()
    return np.trace(np.linalg.solve(m, -(wd.T + wd) + 2 * rho * wd.T @ wd))


def test_trace_identity_matches_dense_solve(grid4):
    ops = PrecisionOps(grid4)
    for rho in (-0.5, 0.0, 0.3, 0.8):
        oracle = _dense_trace_oracle(grid4, rho)
        assert ops.trace_minv_dm(rho) == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("side", [7, 20])
def test_lu_backend_is_exact(side):
    # the complex-step LU gives log|M_y| and its rho-derivative to round-off
    w = row_normalize(build_rook_grid_weights(side))
    ops = PrecisionOps(w, evaluations=0)
    for rho in (-0.9, 0.01, 0.5, 0.99):
        dense = np.linalg.slogdet(PrecisionPattern(w).matrix(rho).toarray())[1]
        pivots = ops.pivots(rho)
        assert ops.logdet_m(rho) == ops.logdet_m(rho, pivots)
        assert ops.logdet_m(rho, pivots) == pytest.approx(dense, abs=1e-9)
        assert ops.trace_minv_dm(rho, pivots) == pytest.approx(
            _dense_trace_oracle(w, rho), rel=1e-10)


def test_lu_trace_is_the_derivative_of_the_logdet_on_a_short_fit():
    # n = 3,600 (bw 60) with 20 planned evaluations: the rule picks the LU
    w = row_normalize(build_rook_grid_weights(60))
    ops = PrecisionOps(w, evaluations=20)
    assert ops.eigenvalues is None
    h = 1e-5
    for rho in (-0.6, 0.3, 0.9):
        central = (ops.logdet_m(rho + h) - ops.logdet_m(rho - h)) / (2 * h)
        assert ops.trace_minv_dm(rho) == pytest.approx(central, rel=1e-7)


def _no_solve(w):
    raise AssertionError("the rule asked for the spectrum")


def test_backend_rule_keeps_a_short_paper_scale_fit_on_the_lu(monkeypatch):
    # the benchmark's 20-iteration fit at n = 10,000: the solve would cost
    # hundreds of LUs, so none is made
    monkeypatch.setattr("spatialvb.sem.weight_eigenvalues", _no_solve)
    ops = PrecisionOps(row_normalize(build_rook_grid_weights(100)), evaluations=20)
    assert ops.eigenvalues is None


def test_backend_rule_holds_the_spectrum_when_it_pays():
    w = row_normalize(build_rook_grid_weights(40))
    ops = PrecisionOps(w, evaluations=100)
    assert ops.eigenvalues is not None
    e, power = weight_eigenvalues(w)
    np.testing.assert_array_equal(ops.eigenvalues, e)
    assert ops.power == power == 2


def test_backend_rule_charges_the_half_order_solve(monkeypatch):
    # a bipartite n = 10,000 grid: the solve is of order m = 5,000, a quarter
    # of the full solve's work, so a 200-evaluation fit repays it
    solved = []
    monkeypatch.setattr("spatialvb.sem.weight_eigenvalues",
                        lambda w: solved.append(w) or (np.zeros(w.n // 2), 2))
    w = row_normalize(build_rook_grid_weights(100))
    ops = PrecisionOps(w, evaluations=200)
    assert solved == [w] and ops.power == 2


def test_backend_rule_takes_the_lu_for_no_evaluations(monkeypatch, grid3):
    monkeypatch.setattr("spatialvb.sem.weight_eigenvalues", _no_solve)
    pair = row_normalize(SpatialWeights(matrix=sparse.csr_matrix(
        np.array([[0.0, 1.0], [1.0, 0.0]]))))
    for w in (pair, grid3):
        assert PrecisionOps(w, evaluations=0).eigenvalues is None


def test_lu_backend_refuses_rho_outside_unit_interval(grid4):
    ops = PrecisionOps(grid4, evaluations=0)
    with pytest.raises(np.linalg.LinAlgError, match="rho=1.5"):
        ops.logdet_m(1.5)


def test_both_backends_refuse_rho_outside_unit_interval():
    # on the spectrum, 1.5 once gave a finite trace and 1.0 an infinite one;
    # on the LU, +-1.0 gave a finite log-determinant
    w = row_normalize(build_rook_grid_weights(5))
    for ops in (PrecisionOps(w), PrecisionOps(w, evaluations=0)):
        for rho in (1.0, -1.0, 1.5, -2.0, float("nan")):
            for evaluate in (ops.pivots, ops.logdet_m, ops.trace_minv_dm):
                with pytest.raises(np.linalg.LinAlgError, match=f"rho={rho} outside"):
                    evaluate(rho)


_EPS = np.finfo(float).eps
_NEAR_ONE = 1.0 - 1e-7
_LU_RHOS = (_NEAR_ONE, -_NEAR_ONE, -0.9, 1e-3, 0.01, 0.5, 0.99)


def _per_call_mmd_logdet_and_trace(w, rho):
    """log|M_y| and its rho-derivative from the complex-step LU as it was
    before its order was held: SuperLU's MMD order found anew for
    I - (rho + ih) W on every call, with a fixed step h = 1e-30."""
    h = 1e-30
    a = (sparse.identity(w.n, format="csc") - complex(rho, h) * w.matrix).tocsc()
    lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    u = lu.U.diagonal()
    assert np.all(u.real > 0.0) and np.array_equal(lu.perm_r, lu.perm_c)
    return 2.0 * np.sum(np.log(u.real)), 2.0 * np.sum(u.imag / u.real) / h


def _two_grids_side_by_side():
    blocks = [build_rook_grid_weights(side).matrix for side in (6, 4)]
    return row_normalize(SpatialWeights(matrix=sparse.block_diag(blocks, format="csr")))


_LU_GRAPHS = {
    "rook7": lambda: row_normalize(build_rook_grid_weights(7)),
    "rook20": lambda: row_normalize(build_rook_grid_weights(20)),
    "rook60": lambda: row_normalize(build_rook_grid_weights(60)),
    "delaunay": lambda: delaunay_weights(60, np.random.default_rng(0)),
    "two_grids": _two_grids_side_by_side,
}


@pytest.mark.parametrize("graph", sorted(_LU_GRAPHS))
def test_held_order_lu_matches_the_per_call_order_and_the_spectrum(graph):
    # Tolerances from the rounding of each side: a sum of n logs of numbers
    # near 1 carries about n eps absolutely, and near rho = +-1 the smallest
    # pivot carries about kappa eps relatively, kappa = 1 / (1 - |rho|); the
    # largest seen are 9 eps (n + kappa) and 4.5 eps kappa. The two LUs
    # eliminate in one order and agree in the trace to 1e-10 at every rho,
    # near +-1 included; with a fixed step of 1e-10 the 60 x 60 grid misses
    # that there by about 20 times.
    w = _LU_GRAPHS[graph]()
    lu = PrecisionOps(w, evaluations=0)
    spectrum = PrecisionOps(w)
    assert lu.eigenvalues is None and spectrum.eigenvalues is not None
    for rho in _LU_RHOS:
        kappa = 1.0 / (1.0 - abs(rho))
        pivots = lu.pivots(rho)
        logdet, trace = lu.logdet_m(rho, pivots), lu.trace_minv_dm(rho, pivots)
        ref_logdet, ref_trace = _per_call_mmd_logdet_and_trace(w, rho)
        logdet_tol = {"rel": 1e-12, "abs": 32 * _EPS * (w.n + kappa)}
        assert logdet == pytest.approx(ref_logdet, **logdet_tol), rho
        assert logdet == pytest.approx(spectrum.logdet_m(rho), **logdet_tol), rho
        assert trace == pytest.approx(ref_trace, rel=1e-10), rho
        assert trace == pytest.approx(spectrum.trace_minv_dm(rho),
                                      rel=1e-10 + 32 * _EPS * kappa), rho


def test_lu_pivots_are_a_pure_function_of_rho():
    # the first call finds the order; later calls, at any rho, reuse it
    w = row_normalize(build_rook_grid_weights(20))
    shared = PrecisionOps(w, evaluations=0)
    first = {}
    for rho in _LU_RHOS:
        first[rho] = PrecisionOps(w, evaluations=0).pivots(rho)
        np.testing.assert_array_equal(shared.pivots(rho), first[rho])
    for rho in reversed(_LU_RHOS):
        np.testing.assert_array_equal(shared.pivots(rho), first[rho])


def test_one_precision_ops_finds_its_order_once(monkeypatch):
    orderings = []

    def counting_splu(a, permc_spec=None, **kwargs):
        if permc_spec != "NATURAL":
            orderings.append(permc_spec)
        return splu(a, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr("spatialvb.sem.splu", counting_splu)
    ops = PrecisionOps(row_normalize(build_rook_grid_weights(10)), evaluations=0)
    for rho in (0.01, 0.5, -0.3, 0.01):
        ops.logdet_m(rho)
        ops.trace_minv_dm(rho, ops.pivots(rho))
    assert orderings == ["MMD_AT_PLUS_A"]


def _target(n_beta, x_star=None):
    """A two-unit target with every response observed; only its theta
    mapping is used."""
    return TargetDensity(x=np.ones((2, n_beta)), weights=two_unit_weights(),
                         y_obs=np.zeros(2), pattern=MissingPattern(m=np.zeros(2, dtype=np.int8)),
                         x_star=x_star, mechanism="mar" if x_star is None else "mnar")


def test_unconstrained_known_values():
    target = _target(1)
    theta = target.unconstrain(SemParams(beta=np.array([1.0]), sigma2_y=1.0, rho=0.0))
    assert theta[1] == 0.0 and theta[2] == 0.0
    theta8 = target.unconstrain(SemParams(beta=np.array([1.0]), sigma2_y=1.0, rho=0.8))
    assert theta8[2] == pytest.approx(np.log(9.0), abs=1e-12)


def test_unconstrained_guards_boundary():
    with pytest.raises(ValueError):
        _target(1).unconstrain(SemParams(beta=np.array([0.0]), sigma2_y=1.0, rho=1.0))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8, max_value=8),
       st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=-5, max_value=5))
def test_unconstrained_round_trip(gamma, rho, b):
    p = SemParams(beta=np.array([b]), sigma2_y=float(np.exp(gamma)), rho=rho)
    target = _target(1)
    back, _ = target.model_params(target.unconstrain(p))
    assert back.sigma2_y == pytest.approx(p.sigma2_y, rel=1e-12)
    assert back.rho == pytest.approx(p.rho, abs=1e-12)
    np.testing.assert_allclose(back.beta, p.beta)


def test_round_trip_unconstrained_to_constrained():
    # under MNAR, so that psi makes the round trip too
    target = _target(3, x_star=np.ones((2, 1)))
    rng = np.random.default_rng(2)
    for _ in range(50):
        theta = np.concatenate([rng.standard_normal(3), [rng.normal()],
                                [rng.normal(scale=2)], rng.standard_normal(2)])
        phi, sel = target.model_params(theta)
        back = target.unconstrain(phi, sel.psi)
        np.testing.assert_array_equal(back[:3], theta[:3])
        assert back[3] == pytest.approx(theta[3], abs=1e-12)
        assert back[4] == pytest.approx(theta[4], abs=1e-10)
        np.testing.assert_array_equal(back[5:], theta[5:])


_SPECTRUM_GRAPHS = {
    "rook5": lambda: row_normalize(build_rook_grid_weights(5)),  # one zero
    "random_grid": lambda: random_grid_weights(12, np.random.default_rng(8)),
    "grid_and_triangle": lambda: grid_and_triangle_weights(6),   # full solve
}


@pytest.mark.parametrize("graph", sorted(_SPECTRUM_GRAPHS))
def test_spectrum_backend_matches_dense_oracles(graph):
    # the dense log-determinant and trace of A = I - rho W carry the rounding
    # of the held-order LU test (kappa = 1 / (1 - |rho|)); those of M_y = A'A
    # carry kappa^2 and are read only where kappa <= 100
    w = _SPECTRUM_GRAPHS[graph]()
    ops = PrecisionOps(w)
    assert ops.power == (1 if graph == "grid_and_triangle" else 2)
    wd = w.matrix.toarray()
    for rho in (_NEAR_ONE, -_NEAR_ONE, -0.9, 0.01, 0.5, 0.99):
        kappa = 1.0 / (1.0 - abs(rho))
        pivots = ops.pivots(rho)
        logdet, trace = ops.logdet_m(rho, pivots), ops.trace_minv_dm(rho, pivots)
        a = np.eye(w.n) - rho * wd
        assert logdet == pytest.approx(2.0 * np.linalg.slogdet(a)[1], rel=1e-12,
                                       abs=32 * _EPS * (w.n + kappa)), rho
        assert trace == pytest.approx(-2.0 * np.trace(np.linalg.solve(a, wd)),
                                      rel=1e-10 + 32 * _EPS * kappa), rho
        if kappa <= 100:
            dense = np.linalg.slogdet(PrecisionPattern(w).matrix(rho).toarray())[1]
            assert logdet == pytest.approx(dense, abs=1e-9), rho
            assert trace == pytest.approx(_dense_trace_oracle(w, rho), rel=1e-10), rho
