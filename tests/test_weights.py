import numpy as np
import pytest
from scipy import sparse

from spatialvb import build_rook_grid_weights, rho_interval, row_normalize
from spatialvb.weights import (DegenerateUnitError, SpatialWeights, csr_dot,
                               csr_dot_t, spectrum_size, weight_eigenvalues)

from conftest import (delaunay_weights, grid_and_triangle_weights, odd_squares,
                      random_grid_weights, weights_in_five_layouts)


def neighbour_counts(w):
    return np.diff(w.matrix.tocsr().indptr)


def test_rook_side2_all_corners():
    w = build_rook_grid_weights(2)
    assert w.n == 4
    assert (neighbour_counts(w) == 2).all()


def test_rook_side3_degree_structure():
    w = build_rook_grid_weights(3)
    counts = neighbour_counts(w)
    # corners 2, edges 3, centre 4
    assert counts[4] == 4
    assert sorted(counts) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
    # symmetry of the raw adjacency
    assert (abs(w.matrix - w.matrix.T)).nnz == 0


def test_rook_side25_matches_small_grid_size():
    w = build_rook_grid_weights(25)
    assert w.n == 625
    assert (neighbour_counts(w) >= 2).all()


def test_rook_rejects_tiny_side():
    with pytest.raises(ValueError):
        build_rook_grid_weights(1)


def test_row_normalize_simple_row():
    m = sparse.csr_matrix(np.array([[0.0, 1, 0, 1],
                                    [1, 0, 1, 1],
                                    [0, 1, 0, 1],
                                    [1, 1, 1, 0.0]]))
    w = row_normalize(SpatialWeights(matrix=m))
    np.testing.assert_allclose(w.matrix.toarray()[1], [1 / 3, 0, 1 / 3, 1 / 3])


def test_row_normalize_is_idempotent():
    w = row_normalize(build_rook_grid_weights(4))
    again = row_normalize(w)
    assert abs(w.matrix - again.matrix).max() < 1e-15


def test_row_normalize_matches_the_product_with_inverse_row_sums():
    # the reference D^-1 W, bit for bit, on raw and random-valued grids and
    # on weights with a stored zero, which the product drops
    stored_zero = build_rook_grid_weights(3).matrix.copy()
    stored_zero.data[[0, 2]] = 0.0  # the edge 0-1, both ways
    for w in (build_rook_grid_weights(7), random_grid_weights(9, np.random.default_rng(2)),
              SpatialWeights(matrix=stored_zero)):
        sums = np.asarray(w.matrix.sum(axis=1)).ravel()
        ref = SpatialWeights(matrix=sparse.diags(1.0 / sums) @ w.matrix,
                             row_normalized=True).matrix
        got = row_normalize(w)
        assert got.row_normalized and got.matrix.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got.matrix, attr), getattr(ref, attr))


def test_row_normalize_corner_of_grid3():
    w = row_normalize(build_rook_grid_weights(3))
    corner = w.matrix.toarray()[0]
    # corner (0,0) has neighbours (0,1) and (1,0), each 0.5
    assert corner[1] == 0.5 and corner[3] == 0.5
    assert corner.sum() == 1.0


def test_row_normalize_rejects_isolated_unit():
    m = sparse.csr_matrix(np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(DegenerateUnitError, match="unit 2"):
        row_normalize(SpatialWeights(matrix=m))


def test_rho_interval_two_mutual_neighbours():
    m = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w = row_normalize(SpatialWeights(matrix=m))
    lo, hi = rho_interval(w)
    # eigenvalues {1, -1}
    assert hi == 1.0
    assert lo == pytest.approx(-1.0, abs=1e-12)


def test_rho_interval_grid5_dense_oracle():
    w = row_normalize(build_rook_grid_weights(5))
    lo, hi = rho_interval(w)
    lam = np.sort(np.linalg.eigvals(w.matrix.toarray()).real)
    assert lo == pytest.approx(1.0 / lam[0], rel=1e-10)
    assert -2.0 < lo < 0.0
    assert hi == 1.0


def test_rho_interval_requires_normalization():
    with pytest.raises(ValueError):
        rho_interval(build_rook_grid_weights(3))


def test_rho_interval_bipartite_grid_is_exact_with_no_eigensolve():
    # 60 x 60 rook grid: bipartite, so -1 exactly and no eigensolve at n = 3,600
    lo, hi = rho_interval(row_normalize(build_rook_grid_weights(60)))
    assert lo == -1.0
    assert hi == 1.0


def test_rho_interval_non_bipartite_uses_the_spectrum():
    # a triangle plus a pendant unit: an odd cycle, so lam_min > -1
    c = np.zeros((4, 4))
    for i, j, v in ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 1.0)):
        c[i, j] = c[j, i] = v
    w = row_normalize(SpatialWeights(matrix=sparse.csr_matrix(c)))
    lam = np.sort(np.linalg.eigvals(w.matrix.toarray()).real)
    lo, hi = rho_interval(w)
    assert lo == pytest.approx(1.0 / lam[0], rel=1e-12)
    assert lo < -1.0


def test_weight_eigenvalues_match_nonsymmetric_solve():
    # irregular weights: W = D^-1 C with C symmetric, random positive values,
    # on a 6 x 6 rook grid (bipartite: eigenvalues +-sigma_j, e = sigma^2)
    w = random_grid_weights(6, np.random.default_rng(3))
    dense = np.sort(np.linalg.eigvals(w.matrix.toarray()).real ** 2)
    e, power = weight_eigenvalues(w)
    assert power == 2
    np.testing.assert_allclose(e, dense[::2], atol=1e-13)
    np.testing.assert_allclose(e, dense[1::2], atol=1e-13)


def _dense_s(w):
    m = w.matrix
    return m.multiply(m.T).sqrt().toarray()


def _dense_spectrum(w):
    return np.linalg.eigvalsh(_dense_s(w))


def _dense_half_spectrum(w, half):
    """Eigenvalues of the dense (S^2)[U, U] on the units U of ``half``."""
    s = _dense_s(w)
    return np.linalg.eigvalsh((s @ s)[np.ix_(half, half)])


def test_banded_spectrum_matches_dense_on_an_irregular_graph():
    # Delaunay triangulation of random points: irregular degrees, odd cycles
    w = delaunay_weights(400, np.random.default_rng(11))
    e, power = weight_eigenvalues(w)
    assert power == 1 and spectrum_size(w)[0] == 400
    np.testing.assert_allclose(e, _dense_spectrum(w), rtol=0, atol=1e-13)


def test_banded_spectrum_matches_dense_on_a_disconnected_graph():
    # grids of sides 5 and 8 plus a two-unit component, all bipartite: the
    # smaller class holds 12 + 1 + 32 units
    pair = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    raw = sparse.block_diag([build_rook_grid_weights(5).matrix, pair,
                             build_rook_grid_weights(8).matrix], format="csr")
    w = row_normalize(SpatialWeights(matrix=raw))
    e, power = weight_eigenvalues(w)
    assert power == 2 and spectrum_size(w)[0] == 45
    half = np.r_[odd_squares(5), 26, 27 + odd_squares(8)]
    np.testing.assert_allclose(e, _dense_half_spectrum(w, half), rtol=0, atol=1e-13)
    # one eigenvalue pair +-1 per component
    assert np.sum(np.abs(e - 1.0) < 1e-12) == 3


def test_banded_spectrum_matches_dense_on_a_rook_grid():
    w = row_normalize(build_rook_grid_weights(40))
    assert spectrum_size(w) == (800, 40)
    e, power = weight_eigenvalues(w)
    assert power == 2
    np.testing.assert_allclose(e, _dense_half_spectrum(w, odd_squares(40)), rtol=0,
                               atol=1e-13)


def test_half_spectrum_of_an_odd_sided_grid_leaves_out_its_zero():
    # 5 x 5: classes of 13 and 12 units, so S has 25 - 2 * 12 = 1 zero
    # eigenvalue more than its 12 pairs +-sigma_j
    w = row_normalize(build_rook_grid_weights(5))
    assert spectrum_size(w) == (12, 5)
    e, power = weight_eigenvalues(w)
    assert power == 2
    np.testing.assert_allclose(e, _dense_half_spectrum(w, odd_squares(5)), rtol=0,
                               atol=1e-13)
    lam = _dense_spectrum(w)
    np.testing.assert_allclose(np.sort(lam ** 2)[1::2], e, rtol=0, atol=1e-13)


def test_half_spectrum_of_an_irregular_grid_matches_dense():
    w = random_grid_weights(20, np.random.default_rng(8))
    e, power = weight_eigenvalues(w)
    assert power == 2 and e.size == 200
    np.testing.assert_allclose(e, _dense_half_spectrum(w, odd_squares(20)), rtol=0,
                               atol=1e-13)


def test_an_odd_cycle_in_any_component_takes_the_full_solve():
    w = grid_and_triangle_weights(6)
    assert spectrum_size(w) == (39, 6)
    e, power = weight_eigenvalues(w)
    assert power == 1
    np.testing.assert_allclose(e, _dense_spectrum(w), rtol=0, atol=1e-13)


def test_weight_eigenvalues_reject_non_reversible_weights():
    # row-normalised 3-cycle with asymmetric values: W01 W12 W20 != W02 W21 W10
    # (Kolmogorov's criterion fails), so no D makes D W symmetric
    c = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [4.0, 5.0, 0.0]])
    w = row_normalize(SpatialWeights(matrix=sparse.csr_matrix(c)))
    with pytest.raises(ValueError, match=r"\(i, j\) = \(1, 2\)"):
        weight_eigenvalues(w)


def test_weights_validation_catches_asymmetry():
    m = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        SpatialWeights(matrix=m)


def test_weights_validation_catches_diagonal():
    m = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        SpatialWeights(matrix=m)


def test_row_sums_off_one_by_1e6_are_not_row_normalized(tmp_path):
    from spatialvb.io import read_weights, write_weights
    w = row_normalize(build_rook_grid_weights(4))
    scaled = (1.0 + 1e-6) * w.matrix
    with pytest.raises(ValueError, match="do not sum to 1"):
        SpatialWeights(matrix=scaled, row_normalized=True)
    path = tmp_path / "W.txt"
    write_weights(SpatialWeights(matrix=scaled), path)
    assert not read_weights(path).row_normalized
    write_weights(w, path)
    assert read_weights(path).row_normalized


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", [(40, 40), (13, 40), (40, 13)])
def test_direct_kernels_equal_the_public_products_bit_for_bit(shape, index_dtype):
    rng = np.random.default_rng(5)
    a = sparse.random(*shape, density=0.2, format="csr", random_state=rng)
    a.indices = a.indices.astype(index_dtype)
    a.indptr = a.indptr.astype(index_dtype)
    assert a.indices.dtype == index_dtype
    v, u = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
    np.testing.assert_array_equal(csr_dot(a, v), a @ v)
    np.testing.assert_array_equal(csr_dot_t(a, u), a.T @ u)
    with pytest.raises(ValueError, match="vector of shape"):
        csr_dot(a, v[:-1])   # the kernel itself would read past the end
    with pytest.raises(ValueError, match="vector of shape"):
        csr_dot_t(a, u[:-1])


def test_any_sparse_layout_is_stored_as_canonical_float64_csr():
    csr, others = weights_in_five_layouts()
    kept = SpatialWeights(matrix=csr, row_normalized=True)
    assert kept.matrix is csr
    for m in others:
        w = SpatialWeights(matrix=m, row_normalized=True)
        assert isinstance(w.matrix, sparse.csr_matrix)
        assert w.matrix.dtype == np.float64 and w.matrix.has_canonical_format
        np.testing.assert_array_equal(w.matrix.indptr, csr.indptr)
        np.testing.assert_array_equal(w.matrix.indices, csr.indices)
        np.testing.assert_array_equal(w.matrix.data, csr.data)
