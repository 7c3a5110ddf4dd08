"""Coherence diagnostics and coefficient-norm bounds for CP bases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import (
    CpModel,
    coefficient_norm_bound,
    coherence,
    norm,
    normalize,
    outer_product,
    subgaussian_coherence_check,
)
from modesketch.diagnostics import gaussian_cp_model

RNG = np.random.default_rng(90201)


def orthonormal_factors(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q[:, :r]


def orthonormal_model(rng, shape, r, weights=None):
    factors = tuple(orthonormal_factors(rng, n, r) for n in shape)
    w = np.ones(r) if weights is None else weights
    return CpModel(w, factors)


class TestCpModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpModel(np.array([]), (np.ones((3, 1)),))
        with pytest.raises(ValueError):
            CpModel(np.ones(2), (np.ones((3, 3)),))
        with pytest.raises(ValueError):
            CpModel(np.ones(1), ())

    def test_to_tensor_matches_direct_sum(self):
        model = gaussian_cp_model((2, 3, 2), 2, RNG)
        X = model.to_tensor()
        # elementwise oracle straight from the definition
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    want = sum(model.weights[q]
                               * model.factors[0][i, q]
                               * model.factors[1][j, q]
                               * model.factors[2][k, q] for q in range(2))
                    assert abs(X.data[i, j, k] - want) < 1e-13

    @pytest.mark.parametrize("weights, factor_kind, dtype", [
        ("real", "real", np.float64), ("complex", "real", np.complex128),
        ("real", "complex", np.complex128)])
    def test_to_tensor_follows_the_dtype(self, weights, factor_kind, dtype):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(3) * (1j if weights == "complex" else 1.0)
        factors = [rng.standard_normal((n, 3)) for n in (4, 5, 2)]
        if factor_kind == "complex":
            factors = [f * (1 + 2j) for f in factors]
        model = CpModel(w, factors)
        assert model.weights.dtype == np.result_type(w, np.float64)
        X = model.to_tensor()
        assert X.data.dtype == dtype
        want = np.einsum("r,ir,jr,kr->ijk", w, *factors)
        assert np.abs(X.data - want).max() <= 1e-14 * np.abs(want).max()

    def test_rank_one_expands_bit_for_bit(self):
        # One term: the GEMM over the last mode adds nothing to each product.
        model = gaussian_cp_model((6, 5, 4), 1, np.random.default_rng(6))
        (w,), (a, b, c) = model.weights, (f[:, 0] for f in model.factors)
        assert np.array_equal(model.to_tensor().data, outer_product([a * w, b, c]).data)

    @pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 4, 3), (4, 3, 2, 5)])
    @pytest.mark.parametrize("weights, factor_kind", [
        ("real", "real"), ("complex", "real"), ("real", "complex"), ("real", "mixed")])
    def test_to_tensor_matches_einsum(self, shape, weights, factor_kind):
        rng = np.random.default_rng(len(shape))
        r = 4
        w = rng.standard_normal(r) * (1 + 1j if weights == "complex" else 1.0)
        factors = [rng.standard_normal((n, r)) for n in shape]
        if factor_kind == "complex":
            factors = [f + 1j * rng.standard_normal(f.shape) for f in factors]
        elif factor_kind == "mixed":  # only the last mode, which the GEMM takes, is complex
            factors[-1] = factors[-1] + 1j * rng.standard_normal(factors[-1].shape)
        X = CpModel(w, factors).to_tensor().data
        letters = "ijkl"[:len(shape)]
        operands = ",".join(c + "r" for c in letters)
        want = np.einsum(f"r,{operands}->{letters}", w, *factors)
        assert X.shape == shape and X.flags.c_contiguous
        assert X.dtype == want.dtype
        assert np.abs(X - want).max() <= 1e-15 * np.abs(want).max()

    def test_to_tensor_peak_is_the_output(self):
        # The terms array is r / n_last of the output; no full-size temporary.
        model = gaussian_cp_model((64, 64, 64), 4, np.random.default_rng(7))
        tracemalloc.start()
        try:
            X = model.to_tensor()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * X.data.nbytes

    def test_normalize_folds_norms_into_weights(self):
        raw = CpModel(np.array([2.0, -1.0]),
                      (RNG.standard_normal((4, 2)) * 3.0,
                       RNG.standard_normal((5, 2)) * 0.25))
        model = normalize(raw)
        assert model.is_standard_form()
        before, after = raw.to_tensor(), model.to_tensor()
        assert norm(before - after) < 1e-12 * norm(before)

    def test_normalize_rejects_zero_column(self):
        f = RNG.standard_normal((3, 2))
        f[:, 1] = 0.0
        with pytest.raises(ValueError):
            normalize(CpModel(np.ones(2), (f, RNG.standard_normal((3, 2)))))


class TestCoherence:
    def test_orthonormal_basis_is_incoherent(self):
        report = coherence(orthonormal_model(RNG, (6, 7, 8), 3))
        assert report.max_modewise < 1e-14
        assert report.basis_coherence < 1e-14
        assert report.admissible

    def test_single_coherent_mode(self):
        f0 = np.array([[1.0, 1.0 / np.sqrt(2)], [0.0, 1.0 / np.sqrt(2)]])
        f1 = np.eye(2)
        f2 = np.eye(2)
        report = coherence(CpModel(np.ones(2), (f0, f1, f2)))
        assert report.mode_coherences[0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
        assert report.mode_coherences[1] == 0.0
        assert report.basis_coherence == 0.0

    def test_identical_factors_have_unit_coherence(self):
        v = RNG.standard_normal(5)
        v /= np.linalg.norm(v)
        f = np.column_stack([v, v])
        report = coherence(CpModel(np.ones(2), (f, np.eye(2))))
        assert report.mode_coherences[0] == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_convention(self):
        model = gaussian_cp_model((4, 4), 1, RNG)
        report = coherence(model)
        assert report.max_modewise == 0.0
        assert report.basis_coherence == 0.0
        assert report.admissible

    def test_non_unit_factors_rejected(self):
        model = CpModel(np.ones(2), (RNG.standard_normal((4, 2)) * 2.0, np.eye(2)))
        with pytest.raises(ValueError):
            coherence(model)

    def test_zero_basis_coherence_iff_every_pair_orthogonal_somewhere(self):
        # no single mode is orthogonal, yet each column pair hits a zero
        # inner product in some mode, so the basis coherence vanishes
        e = np.eye(3)
        f0 = np.column_stack([e[:, 0], e[:, 0], e[:, 1]])
        f1 = np.column_stack([e[:, 0], e[:, 1], e[:, 1]])
        report = coherence(CpModel(np.ones(3), (f0, f1)))
        assert report.basis_coherence == 0.0
        assert all(mu > 0 for mu in report.mode_coherences)
        # dense Gram oracle: every distinct pair has a zero in some mode
        for k in range(3):
            for h in range(k + 1, 3):
                prods = [abs(np.vdot(f[:, h], f[:, k])) for f in (f0, f1)]
                assert min(prods) == 0.0

    def test_phase_invariance(self):
        model = gaussian_cp_model((6, 6, 6), 3, RNG)
        rotated_factors = list(model.factors)
        rotated_factors[1] = rotated_factors[1] * np.exp(1j * 0.73)
        rotated = CpModel(model.weights, tuple(rotated_factors))
        a, b = coherence(model), coherence(rotated)
        np.testing.assert_allclose(a.mode_coherences, b.mode_coherences, atol=1e-13)
        assert a.basis_coherence == pytest.approx(b.basis_coherence, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 5), st.integers(2, 4),
           st.integers(0, 2**32 - 1))
    def test_chain_inequality(self, n, r, d, seed):
        model = gaussian_cp_model((n,) * d, min(r, n), np.random.default_rng(seed))
        report = coherence(model)
        prod = report.product_of_mode_coherences
        assert 0.0 <= report.basis_coherence <= prod + 1e-12
        assert prod <= report.max_modewise ** d + 1e-12
        assert report.max_modewise <= 1.0 + 1e-12

    def test_as_text_block(self):
        text = coherence(gaussian_cp_model((5, 5), 2, RNG)).as_text()
        assert "max_modewise_coherence=" in text
        assert "admissible=" in text
        assert all("=" in line for line in text.splitlines())


class TestCoefficientNormBound:
    def test_orthonormal_ratio_is_one(self):
        weights = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        model = orthonormal_model(RNG, (8, 9, 7), 4, weights)
        bound = coefficient_norm_bound(model)
        assert bound.lower == bound.upper == 1.0
        assert bound.ratio == pytest.approx(1.0, abs=1e-10)
        # the identity behind it: expansion norm equals weight norm
        assert norm(model.to_tensor()) ** 2 == pytest.approx(
            np.linalg.norm(weights) ** 2, rel=1e-10)

    def test_rank_one_always_one(self):
        model = gaussian_cp_model((6, 6), 1, RNG)
        bound = coefficient_norm_bound(model)
        assert bound.ratio == pytest.approx(1.0, rel=1e-12)
        assert not bound.vacuous

    def test_random_model_ratio_inside_bounds(self):
        model = gaussian_cp_model((100, 100, 100), 10, np.random.default_rng(5))
        bound = coefficient_norm_bound(model)
        assert not bound.vacuous
        assert bound.lower - 1e-12 <= bound.ratio <= bound.upper + 1e-12

    def test_property_over_many_models(self):
        for seed in range(25):
            model = gaussian_cp_model((12, 12, 12), 4, np.random.default_rng(seed))
            bound = coefficient_norm_bound(model)
            if not bound.vacuous:
                assert bound.lower - 1e-12 <= bound.ratio <= bound.upper + 1e-12

    def test_near_cancelling_weights_still_bounded(self):
        # A residue of 1e-6 of the term norms is far above rounding level.
        v = RNG.standard_normal(5)
        v /= np.linalg.norm(v)
        f = np.column_stack([v, v])
        bound = coefficient_norm_bound(CpModel(np.array([1.0, -(1.0 - 1e-6)]), (f, f)))
        assert bound.ratio == pytest.approx((1.0 + (1.0 - 1e-6) ** 2) / 1e-12, rel=1e-6)

    def test_vacuous_marker_for_coherent_basis(self):
        v = RNG.standard_normal(5)
        v /= np.linalg.norm(v)
        f = np.column_stack([v, v])
        model = CpModel(np.array([1.0, -1.0]), (f, f))
        # weights cancel: expansion is zero up to rounding, ratio undefined
        with pytest.raises(ValueError, match="zero tensor"):
            coefficient_norm_bound(model)
        # three identical terms push (r-1) * basis coherence past 1
        f3 = np.column_stack([v, v, v])
        bound = coefficient_norm_bound(CpModel(np.ones(3), (f3, f3)))
        assert bound.vacuous
        assert bound.upper == np.inf
        assert bound.ratio >= bound.lower - 1e-12


class TestSubgaussianCheck:
    def test_gaussian_bases_are_incoherent(self):
        stats = subgaussian_coherence_check(100, 10, 3, trials=50, seed=0)
        assert stats.max < 0.5
        assert stats.median <= stats.max

    def test_rank_one_trials_all_zero(self):
        stats = subgaussian_coherence_check(20, 1, 3, trials=10, seed=1)
        assert stats.max == 0.0

    def test_cauchy_schwarz_cap(self):
        stats = subgaussian_coherence_check(4, 4, 2, trials=25, seed=2)
        assert stats.max <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            subgaussian_coherence_check(0, 1, 1, 1)
        with pytest.raises(ValueError):
            subgaussian_coherence_check(4, 2, 2, 0)
