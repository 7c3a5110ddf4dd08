"""Synthetic data, exact and compressed least squares, decoupled slice
solves, CP-ALS, and the relative-norm metrics."""

import numpy as np
import pytest

from modesketch import (
    CpModel,
    DegenerateBasisError,
    DenseTensor,
    SynthSpec,
    coherence,
    compressed_ls_coefficients,
    cp_als,
    decoupled_factor_update,
    decoupled_ls_slice,
    derive_seed,
    ls_coefficients,
    make_plan,
    norm,
    relative_coefficient_norm,
    relative_norm,
    relative_reconstruction_error,
    synthesize,
    targets_from_ratio,
    unfold,
    vectorize,
)
from modesketch.cpfit import GRAM_COND_LIMIT, GRAM_ERROR_FLOOR
from modesketch.tensor import khatri_rao_design

from helpers import rel_err

RNG = np.random.default_rng(311)


class TestSynthesize:
    def test_determinism(self):
        spec = SynthSpec((6, 7, 8), 3, "gaussian", seed=5)
        m1, t1 = synthesize(spec)
        m2, t2 = synthesize(spec)
        np.testing.assert_array_equal(t1.data, t2.data)
        for f1, f2 in zip(m1.factors, m2.factors):
            np.testing.assert_array_equal(f1, f2)

    def test_standard_form_and_unit_weights(self):
        model, X = synthesize(SynthSpec((10, 11), 4, "gaussian", seed=2))
        assert model.is_standard_form()
        np.testing.assert_array_equal(model.weights, np.ones(4))
        assert X.shape == (10, 11)

    def test_coherent_factors_are_coherent(self):
        model, _ = synthesize(
            SynthSpec((100, 100, 100), 5, "coherent", sigma=np.sqrt(0.1), seed=3))
        report = coherence(model)
        assert all(mu >= 0.8 for mu in report.mode_coherences)

    def test_expansion_consistent_with_weights_for_orthonormal_factors(self):
        rng = np.random.default_rng(4)
        factors = tuple(np.linalg.qr(rng.standard_normal((9, 3)))[0] for _ in range(3))
        model = CpModel(np.array([1.0, 2.0, -0.5]), factors)
        assert norm(model.to_tensor()) == pytest.approx(
            np.linalg.norm(model.weights), rel=1e-10)

    def test_model_is_the_synthesized_model(self):
        spec = SynthSpec((5, 6, 7), 3, "coherent", sigma=0.4, seed=8)
        model, _ = synthesize(spec)
        for a, b in zip(spec.model().factors, model.factors):
            assert np.array_equal(a, b)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec((4, 4), 0, "gaussian")
        with pytest.raises(ValueError):
            SynthSpec((4, 4), 2, "coherent")
        with pytest.raises(ValueError):
            SynthSpec((4, 4), 2, "uniform")
        with pytest.raises(ValueError):
            SynthSpec((), 2, "gaussian")


class TestLsCoefficients:
    def test_recovers_unit_weights(self):
        model, X = synthesize(SynthSpec((9, 10, 8), 4, "gaussian", seed=7))
        sol = ls_coefficients(X, model.factors)
        assert np.linalg.norm(sol.coefficients - 1.0) < 1e-8

    def test_orthogonal_data_gives_zero(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        factors = (q[:, :3], np.linalg.qr(rng.standard_normal((6, 3)))[0])
        # data built on a factor orthogonal to every basis column in mode 0
        X = DenseTensor(np.outer(q[:, 3], rng.standard_normal(6)))
        sol = ls_coefficients(X, factors)
        assert np.linalg.norm(sol.coefficients) < 1e-10

    def test_random_weights_roundtrip(self):
        rng = np.random.default_rng(9)
        model, _ = synthesize(SynthSpec((8, 9, 7), 3, "gaussian", seed=10))
        alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        X = CpModel(alpha, model.factors).to_tensor()
        sol = ls_coefficients(X, model.factors, reference=alpha)
        assert np.linalg.norm(sol.coefficients - alpha) < 1e-8
        assert sol.c_n_alpha == pytest.approx(1.0, abs=1e-8)

    def test_residual_recomputable(self):
        model, X = synthesize(SynthSpec((6, 7, 5), 2, "gaussian", seed=11))
        noisy = X + 0.1 * DenseTensor(RNG.standard_normal(X.shape))
        sol = ls_coefficients(noisy, model.factors)
        design = khatri_rao_design(model.factors)
        expected = np.linalg.norm(vectorize(noisy) - design @ sol.coefficients)
        assert sol.residual == pytest.approx(expected, rel=1e-8)

    def test_degenerate_basis_raises(self):
        # both rank-one basis tensors coincide, so the design has rank 1
        v, w = RNG.standard_normal(6), RNG.standard_normal(5)
        f0 = np.column_stack([v, v])
        f1 = np.column_stack([w, w])
        X = DenseTensor(RNG.standard_normal((6, 5)))
        with pytest.raises(DegenerateBasisError):
            ls_coefficients(X, (f0, f1))

    def test_shape_mismatch(self):
        model, X = synthesize(SynthSpec((4, 4), 2, "gaussian", seed=1))
        with pytest.raises(ValueError):
            ls_coefficients(X, (model.factors[0][:3], model.factors[1]))

    def test_ill_conditioned_basis_falls_back_to_lstsq(self):
        # nearly parallel basis tensors push the Gram condition number past
        # the limit, so the full-rank design is solved by lstsq instead
        rng = np.random.default_rng(12)
        factors = []
        for n in (6, 5, 4):
            v, w = rng.standard_normal(n), rng.standard_normal(n)
            factors.append(np.column_stack([v, v + 1e-5 * w]))
        X = DenseTensor(rng.standard_normal((6, 5, 4)))
        sol = ls_coefficients(X, factors)
        assert sol.gram_cond > GRAM_COND_LIMIT
        design = khatri_rao_design([f.astype(np.complex128) for f in factors])
        expected = np.linalg.lstsq(design, vectorize(X), rcond=None)[0]
        np.testing.assert_allclose(sol.coefficients, expected, rtol=1e-10, atol=0)


class TestCompressedLs:
    def test_identity_plan_matches_exact(self):
        model, X = synthesize(SynthSpec((8, 9, 10), 3, "gaussian", seed=13))
        exact = ls_coefficients(X, model.factors)
        viaplan = compressed_ls_coefficients(X, model.factors, make_plan(X.shape))
        assert np.max(np.abs(viaplan.coefficients - exact.coefficients)) < 1e-12

    def test_exact_solve_is_the_identity_plan_bit_for_bit(self):
        _, T = synthesize(SynthSpec((8, 9, 10), 3, "gaussian", seed=13))
        X = T + 0.1 * DenseTensor(RNG.standard_normal(T.shape))
        factors = SynthSpec((8, 9, 10), 3, "gaussian", seed=14).model().factors
        exact = ls_coefficients(X, factors)
        viaplan = compressed_ls_coefficients(X, factors, make_plan(X.shape))
        assert np.array_equal(exact.coefficients, viaplan.coefficients)
        assert exact.residual == viaplan.residual
        assert exact.gram_cond == viaplan.gram_cond

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_exact_data_recovered_through_sketch(self, variant):
        model, X = synthesize(SynthSpec((12, 12, 12), 3, "gaussian", seed=14))
        alpha = np.ones(3)
        errs = []
        for t in range(20):
            plan = make_plan(X.shape, targets_from_ratio(X.shape, 0.5), variant,
                             seed=derive_seed(15, t))
            sol = compressed_ls_coefficients(X, model.factors, plan, reference=alpha)
            errs.append(np.linalg.norm(sol.coefficients - alpha))
            assert sol.c_n_alpha == pytest.approx(1.0, abs=1e-6)
        assert np.median(errs) < 1e-8

    def test_second_stage_supported(self):
        model, X = synthesize(SynthSpec((8, 8, 8), 2, "gaussian", seed=16))
        plan = make_plan(X.shape, (4, 4, 4), "fjlt", second_stage=(30, "gaussian"),
                         seed=17)
        sol = compressed_ls_coefficients(X, model.factors, plan)
        assert np.linalg.norm(sol.coefficients - 1.0) < 1e-8

    def test_sketched_design_matches_rank1_route(self):
        # columns of the compressed design equal vectorized modewise sketches
        # of the rank-one basis tensors
        from modesketch import outer_product, sketch_modewise

        model, X = synthesize(SynthSpec((6, 7, 8), 3, "gaussian", seed=18))
        plan = make_plan(X.shape, (3, 3, 3), "fjlt", seed=19)
        sketched = [e.apply(f) for e, f in zip(plan.mode_embeddings, model.factors)]
        design = khatri_rao_design(sketched)
        for k in range(3):
            rank1 = outer_product([f[:, k] for f in model.factors])
            col = vectorize(sketch_modewise(plan, rank1))
            assert rel_err(design[:, k], col) < 1e-10

    def test_coefficient_ratio_approaches_one_with_growing_targets(self):
        # off-span data makes the compressed solution genuinely random;
        # the ratio medians must settle toward 1 as compression weakens
        model, T = synthesize(SynthSpec((20, 20, 20), 4, "gaussian", seed=12))
        rng = np.random.default_rng(0)
        E = DenseTensor(rng.standard_normal((20, 20, 20)))
        X = T + (0.5 * norm(T) / norm(E)) * E
        reference = ls_coefficients(X, model.factors).coefficients
        medians = []
        for cs in (0.2, 0.5, 1.0):
            vals = []
            for t in range(40):
                plan = make_plan(X.shape, targets_from_ratio(X.shape, cs), "fjlt",
                                 seed=derive_seed(88, int(cs * 100), t))
                sol = compressed_ls_coefficients(X, model.factors, plan,
                                                 reference=reference)
                vals.append(abs(sol.c_n_alpha - 1.0))
            medians.append(np.median(vals))
        assert all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
        assert medians[-1] < 0.01

    def test_plan_shape_mismatch(self):
        model, X = synthesize(SynthSpec((6, 6), 2, "gaussian", seed=20))
        with pytest.raises(ValueError):
            compressed_ls_coefficients(X, model.factors, make_plan((6, 7), (3, 3)))


class TestDecoupledSlices:
    def test_matrix_case_is_row_regression(self):
        model, X = synthesize(SynthSpec((7, 9), 3, "gaussian", seed=21))
        h = 4
        got = decoupled_ls_slice(X, model.factors, 0, h)
        row = X.data[h, :]
        oracle = np.linalg.lstsq(model.factors[1], row, rcond=None)[0]
        assert rel_err(got, oracle) < 1e-10

    def test_exact_data_recovers_weighted_factor_entries(self):
        model, X = synthesize(SynthSpec((6, 8, 9), 3, "gaussian", seed=22))
        for h in (0, 3, 5):
            got = decoupled_ls_slice(X, model.factors, 0, h)
            want = model.weights * model.factors[0][h, :]
            assert np.linalg.norm(got - want) < 1e-8

    def test_identity_plan_equals_unsketched(self):
        model, X = synthesize(SynthSpec((5, 6, 7), 2, "gaussian", seed=23))
        plan = make_plan((6, 7))  # reduced shape once mode 0 is removed
        a = decoupled_ls_slice(X, model.factors, 0, 2)
        b = decoupled_ls_slice(X, model.factors, 0, 2, plan=plan)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sketched_slice_solve(self):
        model, X = synthesize(SynthSpec((5, 12, 12), 2, "gaussian", seed=24))
        plan = make_plan((12, 12), (6, 6), "fjlt", seed=25)
        got = decoupled_ls_slice(X, model.factors, 0, 1, plan=plan)
        want = model.weights * model.factors[0][1, :]
        assert np.linalg.norm(got - want) < 1e-6

    def test_full_sweep_reassembles_joint_solution(self):
        model, X = synthesize(SynthSpec((6, 7, 8), 3, "gaussian", seed=26))
        noisy = X + 0.05 * DenseTensor(RNG.standard_normal(X.shape))
        j = 1
        rows = [decoupled_ls_slice(noisy, model.factors, j, h)
                for h in range(noisy.shape[j])]
        stacked = np.vstack(rows)
        others = [f for ell, f in enumerate(model.factors) if ell != j]
        design = khatri_rao_design(others)
        joint = np.linalg.lstsq(design, unfold(noisy, j).T, rcond=None)[0].T
        assert rel_err(stacked, joint) < 1e-8

    def test_factor_update_divides_out_weights(self):
        coeffs = np.array([[2.0, 6.0], [4.0, 3.0]])
        weights = np.array([2.0, 3.0])
        np.testing.assert_allclose(decoupled_factor_update(coeffs, weights),
                                   [[1.0, 2.0], [2.0, 1.0]])

    def test_factor_update_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            decoupled_factor_update(np.ones((2, 2)), np.array([1.0, 0.0]))

    def test_index_errors(self):
        model, X = synthesize(SynthSpec((4, 5), 2, "gaussian", seed=27))
        with pytest.raises(IndexError):
            decoupled_ls_slice(X, model.factors, 2, 0)
        with pytest.raises(IndexError):
            decoupled_ls_slice(X, model.factors, 0, 4)


class TestCpAls:
    def test_rank_one_exact_fit(self):
        _, X = synthesize(SynthSpec((12, 10, 11), 1, "gaussian", seed=701))
        model, history = cp_als(X, 1, max_iters=50, tol=0.0, seed=702)
        assert history[-1].e_cpd <= 1e-6
        assert model.is_standard_form()

    def test_objective_monotone_non_increasing(self):
        X = DenseTensor(RNG.standard_normal((8, 9, 7)))
        for seed in (700, 701, 702):
            _, history = cp_als(X, 3, max_iters=25, tol=0.0, seed=seed)
            errs = [h.e_cpd for h in history]
            assert all(errs[i + 1] <= errs[i] + 1e-10 for i in range(len(errs) - 1))

    def test_orthonormal_rank3_roundtrip(self):
        rng = np.random.default_rng(7)
        factors = tuple(np.linalg.qr(rng.standard_normal((12, 3)))[0] for _ in range(3))
        X = CpModel(np.ones(3), factors).to_tensor()
        _, history = cp_als(X, 3, max_iters=100, tol=0.0, seed=710)
        assert history[-1].e_cpd <= 1e-4

    def test_history_bookkeeping(self):
        _, X = synthesize(SynthSpec((6, 6, 6), 2, "gaussian", seed=30))
        _, history = cp_als(X, 2, max_iters=7, tol=0.0, seed=31)
        assert len(history) == 7
        assert [h.iteration for h in history] == list(range(1, 8))
        elapsed = [h.elapsed_s for h in history]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_tolerance_stops_early(self):
        _, X = synthesize(SynthSpec((6, 6, 6), 1, "gaussian", seed=32))
        _, history = cp_als(X, 1, max_iters=100, tol=1e-6, seed=33)
        assert len(history) < 100

    def test_sketched_sweeps_reduce_error(self):
        _, X = synthesize(SynthSpec((14, 14, 14), 2, "gaussian", seed=34))
        _, history = cp_als(X, 2, max_iters=25, tol=0.0, seed=35,
                            compression=0.6, variant="fjlt")
        assert history[-1].e_cpd < 0.5 * history[0].e_cpd

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_ratio_equals_its_targets_bit_for_bit(self, variant):
        _, X = synthesize(SynthSpec((10, 9, 8), 2, "gaussian", seed=37))
        a, ha = cp_als(X, 2, max_iters=6, tol=0.0, seed=38, compression=0.5,
                       variant=variant)
        b, hb = cp_als(X, 2, max_iters=6, tol=0.0, seed=38,
                       compression=targets_from_ratio(X.shape, 0.5), variant=variant)
        assert np.array_equal(a.weights, b.weights)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)
        assert [h.e_cpd for h in ha] == [h.e_cpd for h in hb]

    def test_unknown_variant_rejected_without_compression(self):
        _, X = synthesize(SynthSpec((4, 4), 1, "gaussian", seed=36))
        with pytest.raises(ValueError):
            cp_als(X, 1, variant="hadamard")

    def test_argument_validation(self):
        _, X = synthesize(SynthSpec((4, 4), 1, "gaussian", seed=36))
        with pytest.raises(ValueError):
            cp_als(X, 0)
        with pytest.raises(ValueError):
            cp_als(X, 1, max_iters=0)
        with pytest.raises(ValueError):
            cp_als(DenseTensor.zeros((4, 4)), 1)

    def test_non_finite_objective_aborts(self):
        data = RNG.standard_normal((4, 4, 4))
        data[1, 2, 3] = np.nan
        with pytest.raises(RuntimeError):
            cp_als(DenseTensor(data), 1, max_iters=5, seed=1)


FIT_VARIANTS = [(None, "gaussian"), (0.5, "gaussian"), (0.5, "fjlt")]


def dense_errors(X, rank, sweeps, **kwargs):
    """Dense relative error of each sweep's model, by rerunning the fit for
    exactly k sweeps and expanding the returned model."""
    errs = []
    for k in range(1, sweeps + 1):
        model, _ = cp_als(X, rank, max_iters=k, tol=-np.inf, **kwargs)
        errs.append(relative_reconstruction_error(X, model.to_tensor()))
    return errs


class TestCpAlsGramError:
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("compression,variant", FIT_VARIANTS)
    def test_sweep_errors_match_dense_above_floor(self, compression, variant, layout):
        _, X = synthesize(SynthSpec((20, 20, 20), 4, "gaussian", seed=50))
        if layout == "F":  # the layout read_tensor returns
            X = DenseTensor.from_flat(vectorize(X), X.shape)
        kwargs = dict(seed=51, compression=compression, variant=variant)
        _, history = cp_als(X, 4, max_iters=10, tol=-np.inf, **kwargs)
        dense = dense_errors(X, 4, 10, **kwargs)
        checked = [(h.e_cpd, e) for h, e in zip(history, dense) if e >= GRAM_ERROR_FLOOR]
        assert len(checked) >= 2
        assert all(abs(got - want) <= 1e-10 for got, want in checked)

    @pytest.mark.parametrize("tol", [1e-6, -np.inf])
    @pytest.mark.parametrize("compression,variant", FIT_VARIANTS)
    def test_last_entry_is_the_dense_error(self, compression, variant, tol):
        _, X = synthesize(SynthSpec((20, 20, 20), 4, "gaussian", seed=52))
        X = X + DenseTensor(0.01 * np.random.default_rng(52).standard_normal(X.shape))
        model, history = cp_als(X, 4, max_iters=30, tol=tol, seed=53,
                                compression=compression, variant=variant)
        assert history[-1].e_cpd == relative_reconstruction_error(X, model.to_tensor())

    def test_entries_below_floor_are_dense(self):
        _, X = synthesize(SynthSpec((20, 20, 20), 4, "gaussian", seed=50))
        _, history = cp_als(X, 4, max_iters=60, tol=0.0, seed=51)
        assert history[-1].e_cpd < 1e-13
        dense = dense_errors(X, 4, len(history), seed=51)
        below = [(h.e_cpd, e) for h, e in zip(history, dense) if h.e_cpd < GRAM_ERROR_FLOOR]
        assert len(below) >= 2
        assert all(got == want for got, want in below)

    def test_model_expanded_once_above_floor(self, monkeypatch):
        calls = []
        expand = CpModel.to_tensor

        def counting(self):
            calls.append(1)
            return expand(self)

        X = DenseTensor(np.random.default_rng(54).standard_normal((10, 11, 12)))
        monkeypatch.setattr(CpModel, "to_tensor", counting)
        _, history = cp_als(X, 2, max_iters=10, tol=-np.inf, seed=54)
        assert len(history) == 10
        assert min(h.e_cpd for h in history) > GRAM_ERROR_FLOOR
        assert len(calls) == 1

    def test_integer_compression_rejected(self):
        _, X = synthesize(SynthSpec((4, 4), 1, "gaussian", seed=36))
        with pytest.raises(ValueError, match="targets"):
            cp_als(X, 1, compression=1)


class TestMetrics:
    def test_trivial_values(self):
        X = DenseTensor(RNG.standard_normal((4, 5)))
        assert relative_norm(X, X) == pytest.approx(1.0)
        assert relative_reconstruction_error(X, DenseTensor.zeros((4, 5))) == pytest.approx(1.0)
        alpha = RNG.standard_normal(4)
        assert relative_coefficient_norm(2 * alpha, alpha) == pytest.approx(2.0)

    def test_accepts_vectors_and_tensors(self):
        X = DenseTensor(RNG.standard_normal((4, 5)))
        assert relative_norm(vectorize(X), X) == pytest.approx(1.0)

    def test_zero_denominators(self):
        X = DenseTensor(RNG.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            relative_norm(X, DenseTensor.zeros((3, 3)))
        with pytest.raises(ValueError):
            relative_coefficient_norm(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            relative_reconstruction_error(DenseTensor.zeros((3, 3)), X)
