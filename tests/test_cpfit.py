"""Synthetic data, exact and compressed least squares, decoupled slice
solves, CP-ALS, and the relative-norm metrics."""

import math
import tracemalloc
import warnings
from functools import reduce

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
    decoupled_ls_slice,
    derive_seed,
    ls_coefficients,
    make_plan,
    norm,
    relative_norm,
    relative_reconstruction_error,
    sketch_modewise,
    synthesize,
    targets_from_ratio,
    unfold,
    vectorize,
)
from modesketch import cpfit, sketch
from modesketch.cli import main
from modesketch.cpfit import (GRAM_COND_LIMIT, GRAM_ERROR_FLOOR, _contract_factors,
                              _gram_hadamard, _sketched_ls)
from modesketch.diagnostics import draw_unit_factors
from modesketch.embeddings import (_SWEEP_STREAM, FJLTEmbedding, GaussianEmbedding,
                                   IdentityEmbedding, make_rng)
from modesketch.harness import ls_experiment
from modesketch.tensor import khatri_rao_design
from modesketch.tensorfile import write_tensor

from helpers import layouts, record_mode_products, rel_err, without_mode

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, "seed must be an integer of at least 0"),
        ({"rank": 2.5}, "rank must be an integer"),
        ({"rank": True}, "rank must be an integer"),
        ({"shape": (4, 2.0)}, "every extent must be an integer"),
        ({"sigma": 0.3}, "applies only to coherent data"),
        ({"kind": "coherent"}, "finite sigma > 0, got None"),
        ({"kind": "coherent", "sigma": float("nan")}, "finite sigma > 0, got nan"),
        ({"kind": "coherent", "sigma": float("inf")}, "finite sigma > 0, got inf"),
        ({"kind": "coherent", "sigma": -0.5}, "finite sigma > 0, got -0.5"),
        ({"shape": (8.7, 4)}, "every extent must be an integer"),
        ({"shape": (True, 4)}, "every extent must be an integer"),
        ({"shape": ()}, "at least one mode"),
        ({"rank": 8.7}, "rank must be an integer"),
    ])
    def test_unusable_values_rejected(self, kwargs, message):
        spec = {"shape": (4, 4), "rank": 2, "kind": "gaussian", "sigma": None, "seed": 0}
        with pytest.raises(ValueError, match=message):
            SynthSpec(**{**spec, **kwargs})

    def test_numpy_integers_accepted(self):
        a = SynthSpec((np.int64(4), 5), np.int32(2), seed=np.uint8(3))
        assert a == SynthSpec((4, 5), 2, seed=3) and type(a.shape[0]) is int


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


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shape", [(7, 5), (6, 5, 4), (4, 3, 5, 2)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_factor_contraction_is_the_design_projection(shape, layout, kind):
    rng = np.random.default_rng(len(shape))
    wide = (shape[0], 2 * shape[1]) + shape[2:]
    data = rng.standard_normal(wide) + 1j * rng.standard_normal(wide)
    data = {"C": np.ascontiguousarray(data[:, ::2]), "F": np.asfortranarray(data[:, ::2]),
            "strided": data[:, ::2]}[layout]
    factors = [rng.standard_normal((n, 3)) for n in shape]
    if kind == "complex":
        factors = [f + 1j * rng.standard_normal(f.shape) for f in factors]
    got = _contract_factors(data, factors)[0]
    X = DenseTensor(data, copy=False)
    want = khatri_rao_design(factors).conj().T @ vectorize(X)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("solve", [
    lambda X, f: ls_coefficients(X, f),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "gaussian", seed=4)),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "fjlt", seed=4)),
    lambda X, f: decoupled_ls_slice(X, f, 1, 3),
], ids=["exact", "gaussian", "fjlt", "slice"])
def test_unstaged_solves_form_no_design(solve, monkeypatch):
    model, X = synthesize(SynthSpec((12, 10, 8), 3, "gaussian", seed=29))
    want = solve(X, model.factors)

    def forbidden(*args):
        raise AssertionError("the normal-equations path formed a design or a vectorized copy")

    monkeypatch.setattr("modesketch.cpfit.khatri_rao_design", forbidden)
    monkeypatch.setattr("modesketch.sketch.vectorize", forbidden)
    got = solve(X, model.factors)
    assert np.array_equal(getattr(got, "coefficients", got), getattr(want, "coefficients", want))


@pytest.mark.parametrize("solve", [
    lambda X, f: ls_coefficients(X, f),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "fjlt", seed=2)),
    lambda X, f: decoupled_ls_slice(X, f, 0, 1),
    lambda X, f: decoupled_ls_slice(X, f, 2, 3, make_plan((6, 5), (3, 3), seed=3)),
], ids=["exact", "compressed", "slice", "sketched-slice"])
def test_non_finite_data_raises(solve):
    model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=21))
    data = X.data.copy()
    data[1, 2, 3] = np.nan
    with pytest.raises(RuntimeError, match="non-finite values in a least-squares problem"):
        solve(DenseTensor(data), model.factors)


NON_FINITE_SOLVES = [
    lambda X, f: ls_coefficients(X, f),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "fjlt", seed=2)),
    lambda X, f: compressed_ls_coefficients(
        X, f, make_plan(X.shape, 0.5, "gaussian", (10, "gaussian"), seed=2)),
    lambda X, f: decoupled_ls_slice(X, f, 0, 1),
    lambda X, f: decoupled_ls_slice(X, f, 2, 3, make_plan((6, 5), (3, 3), seed=3)),
    lambda X, f: ls_experiment(X, f, [0.5], 3),
]
NON_FINITE_IDS = ["exact", "compressed", "two-stage", "slice", "sketched-slice", "ls-exp"]


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", NON_FINITE_SOLVES, ids=NON_FINITE_IDS)
def test_non_finite_factors_rejected(solve, entry):
    model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=21))
    factors = [f.copy() for f in model.factors]
    factors[1][2, 0] = entry
    with pytest.raises(ValueError, match=r"^factors must be finite matrices with one column "
                                         r"count, got shapes \[\(\d, 2\), \(\d, 2\)"):
        solve(X, factors)


@pytest.mark.parametrize("entry", [np.inf, -np.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("solve", NON_FINITE_SOLVES, ids=NON_FINITE_IDS)
def test_infinite_data_fails_in_one_line_without_a_warning(solve, entry):
    model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=21))
    data = X.data.copy()
    data[1, 2, 3] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^non-finite values in a least-squares problem; "
                                               "the data has a non-finite entry or overflows$"):
            solve(DenseTensor(data), model.factors)


@pytest.mark.parametrize("compression", [None, 0.5], ids=["exact", "sketched"])
def test_diverged_iterates_named_in_one_line(compression, monkeypatch):
    _, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=21))
    monkeypatch.setattr(cpfit, "_gram_hadamard", lambda factors: np.full((2, 2), np.nan))
    with pytest.raises(RuntimeError, match="^non-finite values in a least-squares problem; "
                                           "the iterates have diverged$"):
        cp_als(X, 2, max_iters=3, seed=1, compression=compression)


def test_huge_finite_coefficients_give_finite_ratios():
    """Coefficients near 1e298 square past the float range; their norms are
    taken scaled, so the records stay finite and without a warning."""
    model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=3))
    data = X.data.copy()
    data[1, 2, 3] = 1e300
    X = DenseTensor(data)
    reference = ls_coefficients(X, model.factors).coefficients
    records = ls_experiment(X, model.factors, [0.5], 2)
    assert len(records) == 4 and all(math.isfinite(r.value) for r in records)
    for k, trial in enumerate(records[::2]):
        plan = make_plan(X.shape, 0.5, seed=trial.seed)
        got = compressed_ls_coefficients(X, model.factors, plan).coefficients
        want = np.linalg.norm(got / 1e298) / np.linalg.norm(reference / 1e298)
        assert trial.value == pytest.approx(want, rel=1e-12)
        assert records[2 * k + 1].value == pytest.approx(
            np.linalg.norm((got - reference) / 1e298) / np.linalg.norm(reference / 1e298),
            rel=1e-12)


def test_ls_experiment_takes_the_reference_norm_once(monkeypatch):
    model, X = synthesize(SynthSpec((8, 8, 8), 2, "gaussian", seed=5))
    want = ls_experiment(X, model.factors, [0.4, 0.8], 3, seed=7)
    norms = []

    def recording(obj, original=cpfit._norm_of):
        norms.append(obj)
        return original(obj)

    monkeypatch.setattr("modesketch.cpfit._norm_of", recording)
    monkeypatch.setattr("modesketch.harness._norm_of", recording)
    got = ls_experiment(X, model.factors, [0.4, 0.8], 3, seed=7)
    assert len(norms) == 1 + 2 * 6  # the reference, then each trial's two numerators
    assert [r.value for r in got] == [r.value for r in want]


@pytest.mark.parametrize("x", [np.arange(5.0), np.array([3.0 - 4.0j, 1e-300]),
                               np.random.default_rng(5).standard_normal(7), np.zeros(3),
                               np.array([np.inf, 1.0]), np.array([np.nan, 1.0])])
def test_ordinary_norms_are_the_plain_norm(x):
    want = float(np.linalg.norm(x))
    got = cpfit._norm_of(x)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("solve, dtype", [
    (lambda X, f: ls_coefficients(X, f).coefficients, np.float64),
    (lambda X, f: compressed_ls_coefficients(
        X, f, make_plan(X.shape, 0.5, "gaussian", seed=4)).coefficients, np.float64),
    (lambda X, f: compressed_ls_coefficients(
        X, f, make_plan(X.shape, 0.5, "gaussian", (40, "gaussian"), seed=4)).coefficients,
     np.float64),
    (lambda X, f: compressed_ls_coefficients(
        X, f, make_plan(X.shape, 0.5, "fjlt", seed=4)).coefficients, np.complex128),
    (lambda X, f: decoupled_ls_slice(X, f, 1, 3), np.float64),
    (lambda X, f: decoupled_ls_slice(X, f, 0, 2, make_plan((10, 8), 0.5, "fjlt", seed=5)),
     np.complex128),
], ids=["exact", "gaussian", "two-stage", "fjlt", "slice", "fjlt-slice"])
def test_real_data_solves_match_the_promoted_data(solve, dtype):
    model, X = synthesize(SynthSpec((12, 10, 8), 3, "gaussian", seed=29))
    data = X.data + 0.1 * np.random.default_rng(30).standard_normal(X.shape)
    got = solve(DenseTensor(data), model.factors)
    want = solve(DenseTensor(data.astype(np.complex128)), model.factors)
    assert got.dtype == dtype
    assert rel_err(got, want) < 1e-12


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

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_hadamard_gram_is_the_sketched_design_gram(self, variant, order):
        # the unstaged solve takes its Gram from the sketched factors; the
        # 6-long mode maps to 3 rows, which the FJLT applies as a GEMM
        model, _ = synthesize(SynthSpec((30, 20, 6), 5, "gaussian", seed=22))
        plan = make_plan((30, 20, 6), 0.5, variant, seed=23)
        sketched = [e.apply(np.asarray(f, dtype=np.complex128, order=order))
                    for e, f in zip(plan.mode_embeddings, model.factors)]
        design = khatri_rao_design(sketched)
        expected = design.conj().T @ design
        assert np.abs(_gram_hadamard(sketched) - expected).max() <= 1e-12 * np.abs(expected).max()

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
        with pytest.raises(ValueError, match=r"tensor shape \(6, 6\) does not match plan shape"):
            compressed_ls_coefficients(X, model.factors, make_plan((6, 7), (3, 3)))


def dense_sketch_operator(plan):
    """``S_d (x) ... (x) S_1``, the modewise sketch of a colexicographic vector."""
    maps = [e.as_matrix() for e in plan.mode_embeddings]
    return reduce(np.kron, reversed(maps))


@pytest.mark.parametrize("shape, targets", [
    ((9, 7), 0.5),
    ((8, 6, 5), 0.5),
    ((8, 6, 5), (4, None, 3)),
    ((5, 4, 3, 6), 0.6),
], ids=["2-mode", "3-mode", "3-mode-none", "4-mode"])
@pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_compressed_solve_matches_the_dense_oracle(shape, targets, variant, order, kind):
    # off-span data, so the sketched solution differs from the exact one
    model, T = synthesize(SynthSpec(shape, 2, "gaussian", seed=len(shape)))
    rng = np.random.default_rng(40 + len(shape))
    noise = rng.standard_normal(shape)
    if kind == "complex":
        noise = noise + 1j * rng.standard_normal(shape)
    data = np.asarray(T.data + 0.3 * noise, order=order)
    plan = make_plan(shape, targets, variant, seed=41)
    sol = compressed_ls_coefficients(DenseTensor(data, copy=False), model.factors, plan)
    S = dense_sketch_operator(plan)
    design = S @ khatri_rao_design(model.factors)
    want = np.linalg.lstsq(design, S @ data.ravel(order="F"), rcond=None)[0]
    assert rel_err(sol.coefficients, want) < 1e-10
    assert rel_err(sol.coefficients, ls_coefficients(DenseTensor(data), model.factors)
                   .coefficients) > 1e-6


@pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
def test_compressed_fallback_matches_the_dense_oracle(variant):
    # nearly parallel basis tensors: the lstsq fallback sketches the tensor
    rng = np.random.default_rng(12)
    factors = []
    for n in (8, 7, 6):
        v, w = rng.standard_normal(n), rng.standard_normal(n)
        factors.append(np.column_stack([v, v + 1e-5 * w]))
    X = DenseTensor(rng.standard_normal((8, 7, 6)))
    plan = make_plan(X.shape, 0.6, variant, seed=5)
    sol = compressed_ls_coefficients(X, factors, plan)
    assert sol.gram_cond > GRAM_COND_LIMIT
    S = dense_sketch_operator(plan)
    want = np.linalg.lstsq(S @ khatri_rao_design(factors), S @ vectorize(X), rcond=None)[0]
    assert rel_err(sol.coefficients, want) < 1e-8


@pytest.mark.parametrize("solve", [
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "gaussian", seed=4)),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, 0.5, "fjlt", seed=4)),
    lambda X, f: compressed_ls_coefficients(X, f, make_plan(X.shape, (6, None, 4), seed=4)),
    lambda X, f: decoupled_ls_slice(X, f, 1, 3, make_plan((12, 8), 0.5, "fjlt", seed=5)),
], ids=["gaussian", "fjlt", "none-mode", "sketched-slice"])
def test_unstaged_solves_sketch_no_tensor(solve, monkeypatch):
    model, X = synthesize(SynthSpec((12, 10, 8), 3, "gaussian", seed=29))
    X = X + 0.1 * DenseTensor(np.random.default_rng(31).standard_normal(X.shape))
    want = solve(X, model.factors)

    def forbidden(*args):
        raise AssertionError("an unstaged solve sketched the tensor")

    monkeypatch.setattr("modesketch.sketch.sketch_modewise", forbidden)
    monkeypatch.setattr("modesketch.cpfit.sketch_modewise", forbidden)
    monkeypatch.setattr("modesketch.cpfit.sketch_full", forbidden)
    got = solve(X, model.factors)
    assert np.array_equal(getattr(got, "coefficients", got), getattr(want, "coefficients", want))
    with pytest.raises(AssertionError, match="sketched the tensor"):
        compressed_ls_coefficients(X, model.factors,
                                   make_plan(X.shape, 0.5, second_stage=(40, "gaussian")))


@pytest.mark.parametrize("kind", ["gaussian", "fjlt"])
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
def test_staged_solve_draws_the_stage_once(kind, complex_data, monkeypatch):
    model, X = synthesize(SynthSpec((9, 8, 7), 3, "gaussian", seed=12))
    noise = np.random.default_rng(13).standard_normal(X.shape) * (1j if complex_data else 1)
    X = X + 0.1 * DenseTensor(noise)
    plan = make_plan(X.shape, 0.6, "gaussian", (40, kind), seed=14)
    # N = 150 in blocks of 6 rows: 40 rows end on a partial block.
    monkeypatch.setattr("modesketch.sketch._STAGE_BLOCK_SCALARS", 6 * plan.intermediate_dim)
    stage = plan.second_stage  # the stored map, drawn before the streams are recorded
    streams = []

    def recording(seed, original=sketch.make_rng):
        streams.append(seed)
        return original(seed)

    monkeypatch.setattr("modesketch.sketch.make_rng", recording)
    got = compressed_ls_coefficients(X, model.factors, plan)
    assert streams == [plan.stage.stream]
    sketched = [e.apply(f) for e, f in zip(plan.mode_embeddings, model.factors)]
    design = stage.apply(khatri_rao_design(sketched))
    want = np.linalg.lstsq(design, stage.apply(vectorize(sketch_modewise(plan, X))),
                           rcond=None)[0]
    assert rel_err(got.coefficients, want) < 1e-12


@pytest.mark.parametrize("targets,variant", [(None, "identity"), (0.5, "gaussian"),
                                             (0.5, "fjlt")], ids=["exact", "gaussian", "fjlt"])
def test_identity_second_stage_is_the_unstaged_solve(targets, variant, monkeypatch):
    model, X = synthesize(SynthSpec((12, 10, 8), 3, "gaussian", seed=29))
    X = X + 0.1 * DenseTensor(np.random.default_rng(31).standard_normal(X.shape))
    plain = make_plan(X.shape, targets, variant, seed=4)
    want = compressed_ls_coefficients(X, model.factors, plain)

    def forbidden(*args):
        raise AssertionError("an identity second stage formed the design")

    monkeypatch.setattr("modesketch.cpfit.khatri_rao_design", forbidden)
    for stage in [(None, "identity"), (plain.intermediate_dim, "identity")]:
        got = compressed_ls_coefficients(X, model.factors,
                                         make_plan(X.shape, targets, variant, stage, seed=4))
        assert np.array_equal(got.coefficients, want.coefficients)
        assert got.gram_cond == want.gram_cond


def block_size(data, rank):
    """Plans per shared pass: the extent ``_contract_factors`` contracts first
    over twice the rank."""
    f_only = data.flags.f_contiguous and not data.flags.c_contiguous
    return max(1, (data.shape[0] if f_only else data.shape[-1]) // (2 * rank))


def grid_plans(shape, cells, variant, targets=0.6, seed=0):
    """The exact plan followed by ``cells - 1`` sketched plans, as ls_experiment
    lays out its grid."""
    return [make_plan(shape), *(make_plan(shape, targets, variant, seed=derive_seed(seed, k))
                                for k in range(cells - 1))]


def assert_matches_separate_solves(got, X, factors, plans):
    assert len(got) == len(plans)
    for solution, plan in zip(got, plans):
        want = compressed_ls_coefficients(X, factors, plan)
        scale = np.abs(want.coefficients).max()
        assert np.abs(solution.coefficients - want.coefficients).max() <= 1e-12 * scale
        assert solution.gram_cond == want.gram_cond


class TestGridSolve:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(6, 3), (9, 14), (8, 6, 10), (5, 4, 3, 12)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_blocks_match_separate_solves(self, shape, layout, kind, variant):
        # (6, 3) and the F-ordered 4-mode tensor take one plan per pass; the
        # others take 2 or 3, and 2B + 1 cells leave a partial last block
        model, T = synthesize(SynthSpec(shape, 2, "gaussian", seed=len(shape)))
        rng = np.random.default_rng(50 + len(shape))
        wide = (2 * shape[0],) + shape[1:]
        noise = rng.standard_normal(wide)
        if kind == "complex":
            noise = noise + 1j * rng.standard_normal(wide)
        data = np.concatenate([T.data, T.data]) + 0.3 * noise
        data = {"C": np.ascontiguousarray(data[::2]), "F": np.asfortranarray(data[::2]),
                "strided": data[::2]}[layout]
        X = DenseTensor(data, copy=False)
        B = block_size(data, 2)
        for cells in (2 * B, 2 * B + 1):
            plans = grid_plans(shape, cells, variant, seed=cells)
            blocks = list(_sketched_ls(X, model.factors, iter(plans)))
            assert [len(b) for b in blocks] == [B] * (cells // B) + [cells % B] * (cells % B > 0)
            assert_matches_separate_solves([s for b in blocks for s in b], X, model.factors,
                                           plans)

    def test_staged_plans_keep_their_own_solve(self):
        model, T = synthesize(SynthSpec((8, 6, 10), 2, "gaussian", seed=3))
        X = T + 0.2 * DenseTensor(np.random.default_rng(3).standard_normal(T.shape))
        plans = grid_plans(X.shape, 5, "fjlt")
        plans[2] = make_plan(X.shape, 0.6, "gaussian", (30, "fjlt"), seed=9)
        got = [s for b in _sketched_ls(X, model.factors, plans) for s in b]
        assert_matches_separate_solves(got, X, model.factors, plans)

    def test_ill_conditioned_cells_each_fall_back(self):
        rng = np.random.default_rng(12)
        factors = []
        for n in (8, 7, 12):
            v, w = rng.standard_normal(n), rng.standard_normal(n)
            factors.append(np.column_stack([v, v + 1e-5 * w]))
        X = DenseTensor(rng.standard_normal((8, 7, 12)))
        plans = grid_plans(X.shape, 7, "gaussian")
        blocks = list(_sketched_ls(X, factors, plans))
        assert len(blocks) == 3
        got = [s for b in blocks for s in b]
        assert all(s.gram_cond > GRAM_COND_LIMIT for s in got)
        assert_matches_separate_solves(got, X, factors, plans)

    @pytest.mark.parametrize("cells", [1, 3, 7, 21])
    def test_one_contraction_per_block(self, cells, monkeypatch):
        model, X = synthesize(SynthSpec((20, 8, 12), 2, "gaussian", seed=5))
        calls = []
        monkeypatch.setattr(cpfit, "_contract_factors",
                            lambda *args: calls.append(1) or _contract_factors(*args))
        plans = grid_plans(X.shape, cells, "fjlt")
        assert sum(len(b) for b in _sketched_ls(X, model.factors, plans)) == cells
        assert len(calls) == -(-cells // 3)

    def test_single_plan_solves_make_one_contraction(self, monkeypatch):
        model, X = synthesize(SynthSpec((20, 8, 12), 2, "gaussian", seed=5))
        calls = []
        monkeypatch.setattr(cpfit, "_contract_factors",
                            lambda *args: calls.append(1) or _contract_factors(*args))
        ls_coefficients(X, model.factors)
        compressed_ls_coefficients(X, model.factors, make_plan(X.shape, 0.5, seed=1))
        decoupled_ls_slice(X, model.factors, 1, 2)
        assert len(calls) == 3

    def test_ls_experiment_makes_one_contraction_per_block(self, monkeypatch):
        # the benchmark's ls-exp: 60^3 rank 5, 21 cells, six per pass
        model, X = synthesize(SynthSpec((60, 60, 60), 5, "gaussian", seed=6))
        calls = []
        monkeypatch.setattr(cpfit, "_contract_factors",
                            lambda *args: calls.append(1) or _contract_factors(*args))
        assert len(ls_experiment(X, model.factors, [0.2, 0.4], 10, seed=7)) == 40
        assert len(calls) == 4

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_plan_shape_checked_before_any_apply(self, bad, monkeypatch):
        model, X = synthesize(SynthSpec((6, 5, 12), 2, "gaussian", seed=8))
        plans = grid_plans(X.shape, 3, "gaussian")
        assert block_size(X.data, 2) == 3
        plans[bad] = make_plan((6, 5, 11), 0.5, seed=1)
        applied = []
        for cls in (GaussianEmbedding, FJLTEmbedding, IdentityEmbedding):
            original = cls.apply
            monkeypatch.setattr(cls, "apply", lambda self, x, f=original: applied.append(1)
                                or f(self, x))
        with pytest.raises(ValueError, match=r"tensor shape \(6, 5, 12\) does not match plan "
                                             r"shape \(6, 5, 11\)"):
            list(_sketched_ls(X, model.factors, plans))
        assert applied == []

    def test_plan_shape_checked_in_a_later_block(self):
        model, X = synthesize(SynthSpec((6, 5, 12), 2, "gaussian", seed=8))
        plans = grid_plans(X.shape, 5, "gaussian")
        plans[4] = make_plan((6, 5, 11), 0.5, seed=1)
        with pytest.raises(ValueError, match=r"does not match plan shape \(6, 5, 11\)"):
            list(_sketched_ls(X, model.factors, plans))

    def test_degenerate_basis_raises_before_any_trial(self, tmp_path, capsys):
        v, w = RNG.standard_normal(6), RNG.standard_normal(5)
        factors = (np.column_stack([v, v]), np.column_stack([w, w]))
        X = DenseTensor(RNG.standard_normal((6, 5)))
        with pytest.raises(DegenerateBasisError, match=r"design matrix is rank deficient "
                                                       r"\(rank 1 < 2\)"):
            ls_experiment(X, factors, [0.5], 3)
        # a 2x2 tensor spans at most 4 rank-one basis tensors, not 5
        gen, out = tmp_path / "g.dten", tmp_path / "l.csv"
        assert main(["gen", "--shape", "2,2", "--rank", "5", "--out", str(gen)]) == 0
        capsys.readouterr()
        assert main(["ls-exp", "--input", str(gen), "--cs", "0.5", "--trials", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: design matrix is rank deficient (rank 4 < 5); the basis tensors are "
            "numerically dependent\n")
        assert not out.exists()

    def test_non_finite_data_raises(self):
        model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=21))
        data = X.data.copy()
        data[1, 2, 3] = np.nan
        with pytest.raises(RuntimeError, match="non-finite values in a least-squares problem"):
            ls_experiment(DenseTensor(data), model.factors, [0.5], 3)

    def test_zero_reference_raises(self, tmp_path, capsys):
        model, X = synthesize(SynthSpec((6, 5, 4), 2, "gaussian", seed=22))
        with pytest.raises(ValueError, match="exact least-squares solution is zero"):
            ls_experiment(DenseTensor.zeros(X.shape), model.factors, [0.5], 3)
        # the sidecar still describes the basis once zeros overwrite the data
        gen, out = tmp_path / "g.dten", tmp_path / "l.csv"
        assert main(["gen", "--shape", "6,5,4", "--rank", "2", "--out", str(gen)]) == 0
        write_tensor(gen, DenseTensor.zeros(X.shape))
        capsys.readouterr()
        assert main(["ls-exp", "--input", str(gen), "--cs", "0.5", "--trials", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: exact least-squares solution is zero; ratios undefined\n")
        assert not out.exists()

    def test_ls_experiment_memory_is_bounded(self):
        # the first intermediate of a shared pass holds at most half of X's
        # entries, and a block's plans are released before the next are drawn
        model, X = synthesize(SynthSpec((60, 60, 60), 5, "gaussian", seed=6))
        peaks = []
        for trials in (10, 50):
            tracemalloc.start()
            try:
                ls_experiment(X, model.factors, [0.2, 0.4], trials, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 * X.data.nbytes
        assert peaks[1] <= 1.1 * peaks[0]


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

    def test_slice_is_copied_without_unfolding(self):
        model, X = synthesize(SynthSpec((64, 64, 64), 2, "gaussian", seed=28))
        tracemalloc.start()
        try:
            got = decoupled_ls_slice(X, model.factors, 1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.data.nbytes / 2
        assert np.linalg.norm(got - model.weights * model.factors[1][5, :]) < 1e-8

    def test_index_errors(self):
        model, X = synthesize(SynthSpec((4, 5), 2, "gaussian", seed=27))
        with pytest.raises(IndexError):
            decoupled_ls_slice(X, model.factors, 2, 0)
        with pytest.raises(IndexError):
            decoupled_ls_slice(X, model.factors, 0, 4)
        with pytest.raises(IndexError):
            decoupled_ls_slice(X, model.factors, -1, 0)
        with pytest.raises(ValueError, match="two modes"):
            decoupled_ls_slice(DenseTensor(np.ones(3)), [np.ones((3, 1))], 0, 0)


class TestCpAls:
    @pytest.mark.parametrize("compression, variant, dtype", [
        (None, "gaussian", np.float64), (0.6, "gaussian", np.float64),
        (0.6, "fjlt", np.complex128)], ids=["exact", "gaussian", "fjlt"])
    def test_real_input_matches_the_promoted_fit(self, compression, variant, dtype):
        _, X = synthesize(SynthSpec((10, 9, 8), 3, "gaussian", seed=41))
        data = X.data + 0.05 * np.random.default_rng(42).standard_normal(X.shape)
        fits = [cp_als(DenseTensor(d), 3, max_iters=5, tol=-math.inf, seed=43,
                       compression=compression, variant=variant)
                for d in (data, data.astype(np.complex128))]
        (fit, history), (want, want_history) = fits
        assert [f.dtype for f in fit.factors] == [dtype] * 3
        assert fit.weights.dtype == np.float64
        for got, ref in zip((fit.weights, *fit.factors), (want.weights, *want.factors)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        assert len(history) == len(want_history) == 5
        for a, b in zip(history, want_history):
            assert abs(a.e_cpd - b.e_cpd) <= 1e-10

    def test_one_mode_rejected(self):
        with pytest.raises(ValueError) as info:
            cp_als(DenseTensor(np.arange(1.0, 5.0)), 1)
        assert str(info.value) == "alternating least squares needs at least two modes"

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"rank": 2.5}, "rank must be an integer"),
        ({"rank": True}, "rank must be an integer"),
        ({"max_iters": 2.5}, "max_iters must be an integer"),
        ({"max_iters": True}, "max_iters must be an integer"),
        ({"rank": 0}, "rank must be an integer of at least 1, got 0"),
        ({"max_iters": 0}, "max_iters must be an integer of at least 1, got 0"),
        ({"rank": 8.7}, "rank must be an integer"),
        ({"max_iters": 8.7}, "max_iters must be an integer"),
    ])
    def test_rank_and_sweeps_must_be_integers(self, kwargs, message):
        _, X = synthesize(SynthSpec((5, 4, 3), 2, "gaussian", seed=36))
        with pytest.raises(ValueError, match=message):
            cp_als(X, **{"rank": 2, "max_iters": 3, **kwargs})

    def test_numpy_integer_rank_and_sweeps_give_the_same_fit(self):
        _, X = synthesize(SynthSpec((5, 4, 3), 2, "gaussian", seed=36))
        a, ha = cp_als(X, 2, max_iters=3, seed=4)
        b, hb = cp_als(X, np.int64(2), max_iters=np.int32(3), seed=4)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert all(fa.tobytes() == fb.tobytes() for fa, fb in zip(a.factors, b.factors))
        assert [h.e_cpd for h in ha] == [h.e_cpd for h in hb]

    @pytest.mark.parametrize("entry, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                              (-np.inf, "inf"), (1e200, "inf")],
                             ids=["nan", "inf", "-inf", "overflow"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_non_finite_data_rejected_before_any_plan(self, entry, shown, dtype, monkeypatch):
        data = RNG.standard_normal((4, 4, 4)).astype(dtype)
        data[1, 2, 3] = entry  # 1e200 is finite, but its square overflows the norm
        plans = []

        def recording(*args, **kwargs):
            plans.append(args)
            return make_plan(*args, **kwargs)

        monkeypatch.setattr("modesketch.cpfit.make_plan", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^cannot fit a tensor of norm {shown}$"):
                cp_als(DenseTensor(data), 1, max_iters=5, seed=1, compression=0.5)
        assert plans == []

    def test_nan_tolerance_rejected(self):
        _, X = synthesize(SynthSpec((4, 4), 1, "gaussian", seed=36))
        with pytest.raises(ValueError, match="tol must not be NaN"):
            cp_als(X, 1, tol=np.nan)
        _, history = cp_als(X, 1, max_iters=3, tol=-np.inf)
        assert len(history) == 3

    @pytest.mark.parametrize("shape, compression, variant, per_sweep", [
        ((20, 20, 20), 0.5, "gaussian", 5),  # (d-1) + d(d-1)/2, where separate sketches make 6
        ((6, 6, 6, 6), 0.5, "fjlt", 9),      # ... and 12
        ((5, 4, 3, 6), 0.5, "fjlt", 11),     # cost order [1, 2, 3, 0]
        ((10, 9, 8), None, "gaussian", 0),   # the identity plan sketches nothing
    ])
    def test_sweeps_share_partial_sketches(self, shape, compression, variant, per_sweep,
                                           monkeypatch):
        modes = record_mode_products(monkeypatch)
        X = DenseTensor(np.random.default_rng(44).standard_normal(shape))
        _, history = cp_als(X, 2, max_iters=3, tol=-np.inf, seed=45,
                            compression=compression, variant=variant)
        assert len(history) == 3
        assert len(modes) == 3 * per_sweep

    def test_shared_prefix_bounds_the_peak(self, monkeypatch):
        """A sketched FJLT fit holds at most one prefix, the first map's
        output, more than a fit that sketches every mode update separately."""
        _, X = synthesize(SynthSpec((60, 60, 60), 8, "gaussian", seed=1))

        def peak():
            tracemalloc.start()
            try:
                cp_als(X, 8, max_iters=2, tol=-np.inf, seed=3, compression=0.5,
                       variant="fjlt")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        shared = peak()

        def separate(plan, X):
            for j in range(X.ndim):
                yield sketch_modewise(without_mode(plan, j), X)

        monkeypatch.setattr(cpfit, "_sketch_all_but_one", separate)
        prefix_bytes = 30 * 60 * 60 * 16  # complex128 after one 60 -> 30 FJLT map
        assert shared <= peak() + prefix_bytes


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


def reference_als(X, rank, sweeps, seed):
    """Plain ALS from the matricized problem: each mode update solves
    ``unfold(X, j) ~ W design^T`` over the Khatri-Rao design of the other
    factors by ``lstsq``; returns each sweep's model."""
    rng = make_rng(derive_seed(seed, _SWEEP_STREAM, 0))
    factors, models = list(draw_unit_factors(X.shape, rank, rng)), []
    for _ in range(sweeps):
        for j in range(X.ndim):
            design = khatri_rao_design([f for ell, f in enumerate(factors) if ell != j])
            W = np.linalg.lstsq(design, unfold(X, j).T, rcond=None)[0].T
            weights = np.linalg.norm(W, axis=0)
            factors[j] = W / weights
        models.append(CpModel(weights, tuple(factors)))
    return models


TREE_SHAPES = [(9, 7), (6, 5, 4), (5, 4, 3, 6), (4, 3, 5, 3, 4)]


class TestCpAlsTree:
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", TREE_SHAPES, ids=lambda s: f"{len(s)}-mode")
    def test_exact_fit_matches_the_matricized_reference(self, shape, layout, complex_entries):
        data = layouts(np.random.default_rng(60), shape, complex_entries)[layout]
        X = DenseTensor(data, copy=False)
        assert X.data is data
        fit, history = cp_als(X, 3, max_iters=4, tol=-np.inf, seed=61)
        models = reference_als(X, 3, 4, 61)
        want = models[-1]
        assert rel_err(fit.weights, want.weights) <= 1e-10
        for got, ref in zip(fit.factors, want.factors):
            assert rel_err(got, ref) <= 1e-10
        dense = [relative_reconstruction_error(X, m.to_tensor()) for m in models]
        assert min(dense) >= GRAM_ERROR_FLOOR
        assert all(abs(h.e_cpd - e) <= 1e-10 for h, e in zip(history, dense))

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("shape", TREE_SHAPES, ids=lambda s: f"{len(s)}-mode")
    def test_two_passes_over_x_and_no_matricized_problem(self, shape, layout, monkeypatch):
        X = DenseTensor(layouts(np.random.default_rng(62), shape, False)[layout], copy=False)
        want, want_history = cp_als(X, 2, max_iters=5, tol=-np.inf, seed=63)
        passes, contract = [], cpfit._contract

        def counting(U, data, axis):
            passes.append(data.size == X.size)
            return contract(U, data, axis)

        def forbidden(*args):
            raise AssertionError("an exact sweep built the matricized problem")

        monkeypatch.setattr(cpfit, "_contract", counting)
        for name in ("unfold", "khatri_rao_design", "_gram_error"):
            monkeypatch.setattr(cpfit, name, forbidden)
        fit, history = cp_als(X, 2, max_iters=5, tol=-np.inf, seed=63)
        assert passes == [True] * 10
        assert [h.e_cpd for h in history] == [h.e_cpd for h in want_history]
        for got, ref in zip((fit.weights, *fit.factors), (want.weights, *want.factors)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", TREE_SHAPES, ids=lambda s: f"{len(s)}-mode")
    def test_fallback_builds_the_matricized_problem(self, shape, monkeypatch):
        X = DenseTensor(np.random.default_rng(64).standard_normal(shape))
        want, want_history = cp_als(X, 2, max_iters=3, tol=-np.inf, seed=65)
        built = []
        for name in ("unfold", "khatri_rao_design"):
            def recording(*args, name=name, original=getattr(cpfit, name)):
                built.append(name)
                return original(*args)

            monkeypatch.setattr(cpfit, name, recording)
        monkeypatch.setattr(cpfit, "GRAM_COND_LIMIT", -1.0)
        fit, history = cp_als(X, 2, max_iters=3, tol=-np.inf, seed=65)
        assert built == ["khatri_rao_design", "unfold"] * (3 * X.ndim)
        for got, ref in zip((fit.weights, *fit.factors), (want.weights, *want.factors)):
            assert rel_err(got, ref) <= 1e-10
        assert all(abs(a.e_cpd - b.e_cpd) <= 1e-10 for a, b in zip(history, want_history))

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_sweeps_hold_no_copy_of_x(self, layout, monkeypatch):
        """Up to the dense check of its last sweep, an exact fit holds less
        than half of X's bytes beyond X itself."""
        X = DenseTensor(layouts(np.random.default_rng(66), (40, 40, 40), False)[layout],
                        copy=False)
        peaks, expand = [], CpModel.to_tensor

        def recording(self):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return expand(self)

        monkeypatch.setattr(CpModel, "to_tensor", recording)
        tracemalloc.start()
        try:
            cp_als(X, 4, max_iters=3, tol=-np.inf, seed=67)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < X.data.nbytes / 2

    @pytest.mark.parametrize("compression, plans", [(None, 1), ([None, None, None], 1),
                                                    (0.5, 4), ([3, None, 2], 4)])
    def test_plans_drawn(self, compression, plans, monkeypatch):
        """An exact fit draws its identity plan once; a sketched fit draws
        one plan per sweep."""
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(kwargs["seed"])
            return make_plan(*args, **kwargs)

        monkeypatch.setattr(cpfit, "make_plan", recording)
        X = DenseTensor(np.random.default_rng(68).standard_normal((6, 5, 4)))
        _, history = cp_als(X, 2, max_iters=4, tol=-np.inf, seed=69, compression=compression)
        assert len(history) == 4
        assert drawn == [derive_seed(69, _SWEEP_STREAM, s) for s in range(1, plans + 1)]


class TestMetrics:
    def test_trivial_values(self):
        X = DenseTensor(RNG.standard_normal((4, 5)))
        assert relative_norm(X, X) == pytest.approx(1.0)
        assert relative_reconstruction_error(X, DenseTensor.zeros((4, 5))) == pytest.approx(1.0)
        alpha = RNG.standard_normal(4)
        assert relative_norm(2 * alpha, alpha) == pytest.approx(2.0)

    def test_accepts_vectors_and_tensors(self):
        X = DenseTensor(RNG.standard_normal((4, 5)))
        assert relative_norm(vectorize(X), X) == pytest.approx(1.0)

    def test_zero_denominators(self):
        X = DenseTensor(RNG.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            relative_norm(X, DenseTensor.zeros((3, 3)))
        with pytest.raises(ValueError):
            relative_norm(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            relative_reconstruction_error(DenseTensor.zeros((3, 3)), X)
