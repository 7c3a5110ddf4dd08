"""Tensor algebra: unfoldings, mode products, vectorization, Khatri-Rao."""

import string
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import (
    DenseTensor,
    fold,
    inner,
    khatri_rao,
    mode_product,
    multi_mode_product,
    norm,
    outer_product,
    unfold,
    vectorize,
)
from modesketch.tensor import _contract, khatri_rao_design

from helpers import layouts, random_matrix, random_tensor, rel_err

RNG = np.random.default_rng(20240817)


def cube123():
    # 2x2x2 tensor holding 1..8 in colexicographic order
    return DenseTensor.from_flat(np.arange(1, 9), (2, 2, 2))


class TestDenseTensor:
    def test_from_flat_colexicographic(self):
        X = cube123()
        assert X.data[0, 0, 0] == 1
        assert X.data[1, 0, 0] == 2
        assert X.data[0, 1, 0] == 3
        assert X.data[0, 0, 1] == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat(np.arange(5), (2, 3))

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2, 0)))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(3.0)

    @pytest.mark.parametrize("given, held", [
        (np.float64, np.float64), (np.float32, np.float64), (np.int64, np.float64),
        (np.int8, np.float64), (np.bool_, np.float64),
        (np.complex64, np.complex128), (np.complex128, np.complex128),
    ])
    def test_dtype_follows_the_data(self, given, held):
        data = np.eye(2).astype(given)
        for X in (DenseTensor(data), DenseTensor(data, copy=False),
                  DenseTensor.from_flat(data.ravel(), (2, 2)), fold(data, 0, (2, 2)),
                  outer_product([data[0], data[1]])):
            assert X.data.dtype == held
        assert khatri_rao(data, data).dtype == held
        assert khatri_rao_design([data, data]).dtype == held

    def test_float64_input_is_not_copied_without_copy(self):
        data = np.eye(3)
        assert DenseTensor(data, copy=False).data is data
        assert DenseTensor.zeros((2, 3)).data.dtype == np.float64


class TestUnfoldFold:
    def test_unfold_mode0_enumerates_fibers(self):
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]])
        np.testing.assert_array_equal(unfold(cube123(), 0).real, expected)

    def test_unfold_vector_is_column(self):
        v = DenseTensor(np.arange(4.0))
        assert unfold(v, 0).shape == (4, 1)
        np.testing.assert_array_equal(unfold(v, 0).ravel(), v.data)

    def test_unfold_last_mode_of_matrix_is_transpose(self):
        M = random_tensor(RNG, (2, 3))
        np.testing.assert_array_equal(unfold(M, 1), M.data.T)

    def test_unfold_mode_out_of_range(self):
        with pytest.raises(IndexError):
            unfold(cube123(), 3)
        with pytest.raises(IndexError):
            unfold(cube123(), -1)

    def test_fold_inverts_unfold_bit_exact(self):
        X = random_tensor(RNG, (3, 4, 2, 5))
        for j in range(4):
            back = fold(unfold(X, j), j, X.shape)
            assert np.array_equal(back.data, X.data)

    def test_fold_vector(self):
        v = fold(np.array([[1.0], [2.0]]), 0, (2,))
        np.testing.assert_array_equal(v.data, [1, 2])

    def test_fold_explicit_example(self):
        M = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        X = fold(M, 0, (2, 2, 2))
        np.testing.assert_array_equal(vectorize(X).real, np.arange(1, 9))

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 3)), 0, (2, 2, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_fold_unfold_roundtrip_property(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
        mode = data.draw(st.integers(0, len(shape) - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        X = random_tensor(np.random.default_rng(seed), shape)
        back = fold(unfold(X, mode), mode, shape)
        assert np.array_equal(back.data, X.data)


class TestModeProduct:
    def test_identity_leaves_tensor(self):
        X = cube123()
        Y = mode_product(X, np.eye(2), 1)
        np.testing.assert_array_equal(Y.data, X.data)

    def test_vector_rejected(self):
        with pytest.raises(ValueError) as info:
            mode_product(cube123(), np.ones(2), 0)
        assert str(info.value) == "expected a matrix, got array of ndim 1"

    def test_row_sum_map(self):
        # summing each mode-0 fiber of the 1..8 cube
        Y = mode_product(cube123(), np.array([[1.0, 1.0]]), 0)
        assert Y.shape == (1, 2, 2)
        np.testing.assert_array_equal(vectorize(Y).real, [3, 7, 11, 15])

    def test_matches_unfold_matmul_fold_route(self):
        X = random_tensor(RNG, (3, 4, 5))
        U = random_matrix(RNG, 2, 4)
        direct = mode_product(X, U, 1)
        shape = (3, 2, 5)
        oracle = fold(U @ unfold(X, 1), 1, shape)
        assert rel_err(direct.data, oracle.data) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(cube123(), np.ones((2, 3)), 0)

    def test_linearity_in_tensor(self):
        X, Y = random_tensor(RNG, (3, 4, 2)), random_tensor(RNG, (3, 4, 2))
        U = random_matrix(RNG, 5, 4)
        a, b = 1.3 - 0.2j, -0.7 + 1.1j
        lhs = mode_product(a * X + b * Y, U, 1)
        rhs = a * mode_product(X, U, 1) + b * mode_product(Y, U, 1)
        assert rel_err(lhs.data, rhs.data) < 1e-12

    def test_linearity_in_matrix(self):
        X = random_tensor(RNG, (3, 4, 2))
        U, V = random_matrix(RNG, 5, 4), random_matrix(RNG, 5, 4)
        a, b = 0.4 + 0.9j, 2.0 - 0.3j
        lhs = mode_product(X, a * U + b * V, 1)
        rhs = a * mode_product(X, U, 1) + b * mode_product(X, V, 1)
        assert rel_err(lhs.data, rhs.data) < 1e-12

    def test_same_mode_composition(self):
        X = random_tensor(RNG, (3, 4, 2))
        U = random_matrix(RNG, 5, 4)
        W = random_matrix(RNG, 2, 5)
        lhs = mode_product(mode_product(X, U, 1), W, 1)
        rhs = mode_product(X, W @ U, 1)
        assert rel_err(lhs.data, rhs.data) < 1e-12

    def test_unit_extents_degrade_gracefully(self):
        X = random_tensor(RNG, (1, 3, 1))
        for j in range(3):
            assert np.array_equal(fold(unfold(X, j), j, X.shape).data, X.data)
        Y = mode_product(X, random_matrix(RNG, 2, 1), 0)
        assert Y.shape == (2, 3, 1)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_real_matrix_matches_promoted_product(self, mode, layout):
        X = DenseTensor(layouts(RNG, (5, 6, 7))[layout], copy=False)
        U = RNG.standard_normal((3, X.shape[mode]))
        got = mode_product(X, U, mode)
        want = mode_product(X, U.astype(np.complex128), mode)
        assert got.shape == want.shape
        assert rel_err(got.data, want.data) < 1e-12

    def test_vector_mode_product(self):
        v = random_tensor(RNG, (4,))
        U = random_matrix(RNG, 2, 4)
        got = mode_product(v, U, 0)
        assert got.shape == (2,)
        assert rel_err(got.data, U @ v.data) < 1e-14


def einsum_contract(U, data, axis):
    """Independent oracle: the promoted matrix contracted by ``einsum``."""
    idx = string.ascii_lowercase[:data.ndim]
    out = idx[:axis] + "z" + idx[axis + 1:]
    return np.einsum(f"z{idx[axis]},{idx}->{out}", U.astype(np.complex128), data)


class TestContract:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 4, 5), (2, 3, 4, 5)])
    def test_every_axis_matches_einsum(self, shape, layout, kind):
        data = layouts(RNG, shape)[layout]
        for axis in range(len(shape)):
            U = random_matrix(RNG, 3, shape[axis], complex_entries=kind == "complex")
            got = _contract(U, data, axis)
            assert got.shape == shape[:axis] + (3,) + shape[axis + 1:]
            assert rel_err(got, einsum_contract(U, data, axis)) < 1e-12
            order = "f_contiguous" if layout == "F" else "c_contiguous"
            assert getattr(got.flags, order)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_middle_axis_makes_no_transposing_copy(self, kind):
        data = layouts(RNG, (64, 64, 64))["C"]
        U = random_matrix(RNG, 8, 64, complex_entries=kind == "complex")
        tracemalloc.start()
        try:
            _contract(U, data, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 2

    @pytest.mark.parametrize("shape", [(4000,), (4000, 1)])
    def test_real_matrix_on_a_vector_is_not_promoted(self, shape):
        data = layouts(RNG, shape)["C"]
        U = RNG.standard_normal((300, 4000))
        tracemalloc.start()
        try:
            got = _contract(U, data, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < U.nbytes / 2
        assert rel_err(got, einsum_contract(U, data, 0)) < 1e-12


class TestContractRealData:
    """Real data meets one real GEMM and stays real under a real map; each
    result agrees with the contraction of the promoted complex data."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 4, 5), (2, 3, 4, 5)])
    def test_every_axis_matches_the_promoted_contraction(self, shape, layout, kind):
        data = layouts(RNG, shape, complex_entries=False)[layout]
        for axis in range(len(shape)):
            U = random_matrix(RNG, 3, shape[axis], complex_entries=kind == "complex")
            got = _contract(U, data, axis)
            promoted = data.astype(np.complex128)
            assert got.dtype == (np.complex128 if kind == "complex" else np.float64)
            assert got.shape == shape[:axis] + (3,) + shape[axis + 1:]
            assert rel_err(got, _contract(U, promoted, axis)) < 1e-12
            assert rel_err(got, einsum_contract(U, promoted, axis)) < 1e-12
            order = "f_contiguous" if layout == "F" else "c_contiguous"
            assert getattr(got.flags, order)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_no_complex_copy_of_the_data(self, axis, kind):
        data = layouts(RNG, (64, 64, 64), complex_entries=False)["C"]
        U = random_matrix(RNG, 8, 64, complex_entries=kind == "complex")
        tracemalloc.start()
        try:
            _contract(U, data, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes  # a complex copy takes twice that


class TestMultiModeProduct:
    def test_all_identities(self):
        X = random_tensor(RNG, (2, 3, 4))
        Y = multi_mode_product(X, [(j, np.eye(n)) for j, n in enumerate(X.shape)])
        np.testing.assert_array_equal(Y.data, X.data)

    def test_order_invariance(self):
        X = random_tensor(RNG, (3, 4, 5))
        U = random_matrix(RNG, 2, 3)
        V = random_matrix(RNG, 6, 5)
        one = mode_product(mode_product(X, U, 0), V, 2)
        other = mode_product(mode_product(X, V, 2), U, 0)
        assert rel_err(one.data, other.data) < 1e-12

    def test_matrix_case(self):
        X = random_tensor(RNG, (4, 5))
        U = random_matrix(RNG, 3, 4)
        V = random_matrix(RNG, 2, 5)
        Y = multi_mode_product(X, [(0, U), (1, V)])
        assert rel_err(Y.data, U @ X.data @ V.T) < 1e-12

    def test_duplicate_mode_rejected(self):
        X = random_tensor(RNG, (3, 3))
        with pytest.raises(ValueError):
            multi_mode_product(X, [(0, np.eye(3)), (0, np.eye(3))])


class TestVectorize:
    def test_identity_matrix(self):
        X = DenseTensor(np.eye(2))
        np.testing.assert_array_equal(vectorize(X).real, [1, 0, 0, 1])

    def test_vector_unchanged(self):
        v = RNG.standard_normal(6)
        np.testing.assert_array_equal(vectorize(DenseTensor(v)).real, v)

    @pytest.mark.parametrize("shape,dims", [((3, 4), (2, 2)), ((2, 3, 2), (2, 2, 3))])
    def test_kronecker_identity(self, shape, dims):
        # vect(X x_1 U_1 ... x_d U_d) == (U_d kron ... kron U_1) vect(X)
        X = random_tensor(RNG, shape)
        maps = [(j, random_matrix(RNG, m, n)) for j, (m, n) in enumerate(zip(dims, shape))]
        lhs = vectorize(multi_mode_product(X, maps))
        kron = np.array([[1.0 + 0j]])
        for _, U in maps:
            kron = np.kron(U, kron)
        assert rel_err(lhs, kron @ vectorize(X)) < 1e-12


class TestOuterProduct:
    def test_basis_vectors(self):
        X = outer_product([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        np.testing.assert_array_equal(X.data.real, [[1, 0], [0, 0]])

    def test_inner_product_factorizes(self):
        a, b = random_matrix(RNG, 4, 1).ravel(), random_matrix(RNG, 5, 1).ravel()
        c, d = random_matrix(RNG, 4, 1).ravel(), random_matrix(RNG, 5, 1).ravel()
        lhs = inner(outer_product([a, b]), outer_product([c, d]))
        # direct summation oracle
        direct = sum(a[i] * b[j] * np.conj(c[i] * d[j])
                     for i in range(4) for j in range(5))
        factored = np.vdot(c, a) * np.vdot(d, b)
        assert abs(lhs - direct) < 1e-12 * abs(direct)
        assert abs(lhs - factored) < 1e-12 * abs(factored)

    def test_orthogonal_second_factor(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        d = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(inner(outer_product([a, b]), outer_product([a, d]))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outer_product([])


class TestInnerNorm:
    def test_inner_with_zero(self):
        X = random_tensor(RNG, (3, 2))
        assert inner(X, DenseTensor.zeros((3, 2))) == 0

    def test_norm_of_cube(self):
        assert norm(cube123()) == pytest.approx(np.sqrt(204), rel=1e-14)

    def test_inner_matches_vectorized(self):
        X, Y = random_tensor(RNG, (2, 3, 2)), random_tensor(RNG, (2, 3, 2))
        flat = np.vdot(vectorize(Y), vectorize(X))
        assert abs(inner(X, Y) - flat) < 1e-12 * abs(flat)

    def test_conjugate_linear_in_second_argument(self):
        X, Y = random_tensor(RNG, (4,)), random_tensor(RNG, (4,))
        beta = 0.3 - 1.7j
        assert inner(X, beta * Y) == pytest.approx(np.conj(beta) * inner(X, Y))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(random_tensor(RNG, (2, 2)), random_tensor(RNG, (4,)))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_norm_matches_numpy_in_every_layout(self, layout):
        data = layouts(RNG, (7, 5, 6))[layout]
        want = np.linalg.norm(data.ravel())
        assert abs(norm(DenseTensor(data, copy=False)) - want) <= 1e-14 * want

    @pytest.mark.parametrize("bad, want", [(complex(np.inf, 0), np.inf),
                                           (complex(0, -np.inf), np.inf),
                                           (complex(np.nan, 1), np.nan)])
    def test_norm_of_non_finite_tensor(self, bad, want):
        data = np.ones((3, 4), dtype=np.complex128)
        data[1, 2] = bad
        np.testing.assert_equal(norm(DenseTensor(data, copy=False)), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_overflowing_norm_is_inf_without_a_warning(self, dtype):
        data = np.ones((3, 4), dtype=dtype)
        data[1, 2] = 1e200  # finite, but its square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(DenseTensor(data, copy=False)) == np.inf


class TestKhatriRao:
    def test_scalar_case(self):
        np.testing.assert_array_equal(khatri_rao([[2.0]], [[2.0]]).real, [[4.0]])

    def test_columns_match_vectorized_outer_products(self):
        A = random_matrix(RNG, 3, 4)
        B = random_matrix(RNG, 5, 4)
        K = khatri_rao(A, B)
        for k in range(4):
            col = vectorize(outer_product([B[:, k], A[:, k]]))
            assert rel_err(K[:, k], col) < 1e-14

    def test_identity_columns(self):
        K = khatri_rao(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(K.real, np.eye(4)[:, [0, 3]])

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_vector_rejected(self):
        with pytest.raises(ValueError) as info:
            khatri_rao(np.ones((2, 2)), np.ones(2))
        assert str(info.value) == "khatri_rao expects two matrices"

    def test_design_needs_a_factor(self):
        with pytest.raises(ValueError) as info:
            khatri_rao_design([])
        assert str(info.value) == "need at least one factor matrix"

    def test_design_matrix_matches_vectorized_rank_one(self):
        factors = [random_matrix(RNG, n, 3) for n in (2, 4, 3)]
        design = khatri_rao_design(factors)
        for k in range(3):
            col = vectorize(outer_product([f[:, k] for f in factors]))
            assert rel_err(design[:, k], col) < 1e-14
