"""Gaussian and subsampled-DFT embeddings against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import (
    DenseTensor,
    FJLTEmbedding,
    IdentityEmbedding,
    derive_seed,
    fjlt_embedding,
    gaussian_embedding,
    make_rng,
    mode_product,
)
from modesketch.embeddings import _GEMM_MAX_ROWS, _GEMM_MAX_ROWS_CONTIGUOUS

from helpers import layouts, random_tensor, rel_err

RNG = np.random.default_rng(7141)


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = make_rng(42).standard_normal(8)
        b = make_rng(42).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)

    def test_derive_seed_deterministic_and_spread(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        children = {derive_seed(5, 1, k) for k in range(100)}
        assert len(children) == 100


class TestGaussian:
    def test_determinism(self):
        e1 = gaussian_embedding(3, 7, make_rng(9))
        e2 = gaussian_embedding(3, 7, make_rng(9))
        np.testing.assert_array_equal(e1.matrix, e2.matrix)

    def test_unit_case_is_standard_normal(self):
        entries = [gaussian_embedding(1, 1, make_rng(s)).matrix[0, 0] for s in range(400)]
        assert abs(np.mean(entries)) < 0.2
        assert 0.8 < np.std(entries) < 1.2

    def test_apply_equals_matrix_product(self):
        e = gaussian_embedding(4, 9, make_rng(3))
        x = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
        np.testing.assert_allclose(e.apply(x), e.matrix @ x, rtol=1e-14)

    def test_norm_unbiased_monte_carlo(self):
        x = RNG.standard_normal(16)
        x /= np.linalg.norm(x)
        sq = [np.linalg.norm(gaussian_embedding(8, 16, make_rng(s)).apply(x)) ** 2
              for s in range(2000)]
        assert 0.9 <= np.mean(sq) <= 1.1

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError):
            gaussian_embedding(0, 4, make_rng(0))
        with pytest.raises(ValueError):
            gaussian_embedding(4, 0, make_rng(0))

    def test_length_mismatch(self):
        e = gaussian_embedding(2, 5, make_rng(1))
        with pytest.raises(ValueError):
            e.apply(np.ones(4))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_apply_to_columns_matches_promoted_product(self, layout):
        e = gaussian_embedding(6, 40, make_rng(4))
        x = layouts(RNG, (40, 9))[layout]
        got = e.apply(x)
        assert got.shape == (6, 9)
        assert rel_err(got, e.as_matrix() @ x) < 1e-12

    @pytest.mark.parametrize("step", [1, 2])
    def test_apply_to_vector_matches_promoted_product(self, step):
        e = gaussian_embedding(6, 40, make_rng(5))
        x = (RNG.standard_normal(80) + 1j * RNG.standard_normal(80))[::step][:40]
        got = e.apply(x)
        assert got.shape == (6,)
        assert rel_err(got, e.as_matrix() @ x) < 1e-12


class TestFJLT:
    def test_two_point_isometry_with_known_signs(self):
        e = FJLTEmbedding(np.array([1.0, 1.0]), np.array([0, 1]))
        for _ in range(5):
            x = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
            assert abs(np.linalg.norm(e.apply(x)) - np.linalg.norm(x)) < 1e-12

    def test_single_row_sums_coordinates(self):
        e = FJLTEmbedding(np.array([1.0, 1.0]), np.array([0]))
        x = np.array([2.0, 5.0])
        np.testing.assert_allclose(e.apply(x), [7.0])

    def test_matches_dense_matrix(self):
        e = fjlt_embedding(3, 8, make_rng(17))
        dense = e.as_matrix()
        for _ in range(10):
            x = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
            assert rel_err(e.apply(x), dense @ x) < 1e-10

    def test_zero_maps_to_zero(self):
        e = fjlt_embedding(5, 16, make_rng(2))
        np.testing.assert_array_equal(e.apply(np.zeros(16)), np.zeros(5))

    def test_dense_oracle_many_vectors(self):
        e = fjlt_embedding(5, 16, make_rng(23))
        dense = e.as_matrix()
        worst = 0.0
        for _ in range(20):
            x = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
            worst = max(worst, rel_err(e.apply(x), dense @ x))
        assert worst < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 12, 17, 31])
    def test_full_restriction_is_isometry(self, n):
        # non powers of two included: the FFT contract is mixed radix
        e = fjlt_embedding(n, n, make_rng(100 + n))
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        assert abs(np.linalg.norm(e.apply(x)) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            fjlt_embedding(9, 8, make_rng(0))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            FJLTEmbedding(np.array([1.0, 0.5]), np.array([0]))
        with pytest.raises(ValueError):
            FJLTEmbedding(np.array([1.0, 1.0]), np.array([1, 0]))
        with pytest.raises(ValueError):
            FJLTEmbedding(np.array([1.0, 1.0]), np.array([0, 0]))
        with pytest.raises(ValueError):
            FJLTEmbedding(np.array([1.0, 1.0]), np.array([0, 3]))

    def test_determinism(self):
        e1 = fjlt_embedding(4, 12, make_rng(5))
        e2 = fjlt_embedding(4, 12, make_rng(5))
        np.testing.assert_array_equal(e1.signs, e2.signs)
        np.testing.assert_array_equal(e1.rows, e2.rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 32), st.integers(0, 2**32 - 1), st.data())
    def test_operator_equals_materialization(self, n, seed, data):
        m = data.draw(st.integers(1, n))
        e = fjlt_embedding(m, n, make_rng(seed))
        x = np.random.default_rng(seed ^ 0xABCDEF).standard_normal(n)
        assert rel_err(e.apply(x), e.as_matrix() @ x) < 1e-10


class TestFJLTGemmCrossover:
    """Both sides of the GEMM/FFT crossover against the FFT-of-identity
    matrix.  The long extent leaves more fibers than rows, so only m picks
    the side: 8 rows run the GEMM, ``_GEMM_MAX_ROWS + 1`` rows the FFT, and
    ``_GEMM_MAX_ROWS_CONTIGUOUS + 1`` rows the GEMM only off the contiguous
    axis."""

    N = _GEMM_MAX_ROWS + 8
    ROWS = [8, _GEMM_MAX_ROWS_CONTIGUOUS + 1, _GEMM_MAX_ROWS + 1]

    @staticmethod
    def gemm_side(m, data, axis):
        if m == _GEMM_MAX_ROWS_CONTIGUOUS + 1:
            return data.strides[axis] != data.itemsize
        return m == 8

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("m", ROWS)
    def test_apply_to_mode_matches_dense(self, m, mode, layout):
        shape = [17, 16]
        shape.insert(mode, self.N)
        X = DenseTensor(layouts(RNG, tuple(shape))[layout], copy=False)
        e = fjlt_embedding(m, self.N, make_rng(derive_seed(m, mode)))
        assert e._use_gemm(X.data, mode) == self.gemm_side(m, X.data, mode)
        got = e.apply_to_mode(X, mode)
        assert got.shape == tuple(m if j == mode else n for j, n in enumerate(shape))
        assert rel_err(got.data, mode_product(X, e.as_matrix(), mode).data) < 1e-10

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("m", ROWS)
    def test_apply_to_columns_matches_dense(self, m, layout):
        x = layouts(RNG, (self.N, 272))[layout]
        e = fjlt_embedding(m, self.N, make_rng(m))
        assert e._use_gemm(x, 0) == self.gemm_side(m, x, 0)
        assert rel_err(e.apply(x), e.as_matrix() @ x) < 1e-10

    def test_fewer_fibers_than_rows_use_the_fft(self):
        e = fjlt_embedding(8, self.N, make_rng(3))
        x = layouts(RNG, (self.N, 7))["C"]
        assert not e._use_gemm(x, 0)
        assert rel_err(e.apply(x), e.as_matrix() @ x) < 1e-10

    @pytest.mark.parametrize("n", [97, 1021, 2039, 2048])
    def test_matrix_matches_fft_of_identity(self, n):
        # 97, 1021 and 2039 are prime
        e = fjlt_embedding(min(n, 205), n, make_rng(n))
        want = np.fft.fft(np.eye(n))[e.rows] * e.signs * e.scale
        assert np.max(np.abs(e._matrix() - want)) <= 1e-12 * e.scale


class TestApplyToMode:
    def test_fjlt_matches_mode_product_with_dense(self):
        X = random_tensor(RNG, (6, 5, 4))
        e = fjlt_embedding(6, 6, make_rng(31))
        got = e.apply_to_mode(X, 0)
        want = mode_product(X, e.as_matrix(), 0)
        assert rel_err(got.data, want.data) < 1e-10

    def test_gaussian_shape_contract(self):
        X = random_tensor(RNG, (4, 3, 2))
        e = gaussian_embedding(2, 4, make_rng(8))
        assert e.apply_to_mode(X, 0).shape == (2, 3, 2)

    def test_mode_composition_commutes(self):
        X = random_tensor(RNG, (6, 8, 5))
        e1 = fjlt_embedding(3, 6, make_rng(41))
        e2 = gaussian_embedding(4, 8, make_rng(42))
        one = e2.apply_to_mode(e1.apply_to_mode(X, 0), 1)
        other = e1.apply_to_mode(e2.apply_to_mode(X, 1), 0)
        assert rel_err(one.data, other.data) < 1e-12

    @pytest.mark.parametrize("mode, error", [(0, ValueError), (-1, IndexError),
                                             (2, IndexError)],
                             ids=["extent", "mode-1", "mode-ndim"])
    @pytest.mark.parametrize("kind", ["gaussian", "fjlt", "identity"])
    def test_extent_mismatch(self, kind, mode, error):
        # The map fits the last mode, so only the index check rejects mode -1.
        X = random_tensor(RNG, (4, 3))
        makers = {"gaussian": gaussian_embedding, "fjlt": fjlt_embedding}
        e = IdentityEmbedding(3) if kind == "identity" else makers[kind](2, 3, make_rng(0))
        with pytest.raises(error):
            e.apply_to_mode(X, mode)


@pytest.mark.parametrize("maker", [gaussian_embedding, fjlt_embedding])
def test_norm_unbiased_over_thousand_seeds(maker):
    x = np.random.default_rng(99).standard_normal(12)
    x /= np.linalg.norm(x)
    sq = [np.linalg.norm(maker(5, 12, make_rng(s)).apply(x)) ** 2 for s in range(1000)]
    assert abs(np.mean(sq) - 1.0) < 0.05


@pytest.mark.parametrize("maker", [gaussian_embedding, fjlt_embedding])
def test_polarization_bounds_inner_product_error(maker):
    # a map that distorts the four polarization combinations of x and y by
    # at most eps moves their inner product by at most 2 eps (|x|^2 + |y|^2)
    rng = np.random.default_rng(12)
    for s in range(100):
        e = maker(6, 16, make_rng(1000 + s))
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        eps = max(
            abs(np.linalg.norm(e.apply(v)) ** 2 / np.linalg.norm(v) ** 2 - 1.0)
            for v in (x - y, x + y, x - 1j * y, x + 1j * y))
        drift = abs(np.vdot(e.apply(y), e.apply(x)) - np.vdot(y, x))
        bound = 2 * eps * (np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2)
        assert drift <= bound * (1 + 1e-9) + 1e-12
