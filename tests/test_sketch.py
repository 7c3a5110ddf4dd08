"""Sketch plans: modewise and two-stage application, rank-one factoring,
vector reshaping, descriptors, and norm-preservation statistics."""

import dataclasses
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import (
    CpModel,
    DenseTensor,
    SynthSpec,
    derive_seed,
    fjlt_embedding,
    gaussian_embedding,
    make_plan,
    make_rng,
    norm,
    outer_product,
    plan_from_descriptor,
    relative_norm,
    sketch_full,
    sketch_modewise,
    sketch_rank1,
    synthesize,
    targets_from_ratio,
    vector_subspace_sketch,
    vectorize,
)
from modesketch.embeddings import GaussianEmbedding, IdentityEmbedding
from modesketch.sketch import _apply_stage, _cost_order, _sketch_all_but_one

from helpers import layouts, random_tensor, record_mode_products, rel_err, without_mode

RNG = np.random.default_rng(55351)


def dense_operator(plan) -> np.ndarray:
    """Independent materialization: Kronecker of per-mode dense matrices,
    then the dense second stage."""
    out = np.array([[1.0 + 0j]])
    for e in plan.mode_embeddings:
        out = np.kron(e.as_matrix(), out)
    if plan.second_stage is not None:
        out = plan.second_stage.as_matrix() @ out
    return out


class TestMakePlan:
    def test_identity_plan(self):
        plan = make_plan((3, 4, 5))
        assert all(isinstance(e, IdentityEmbedding) for e in plan.mode_embeddings)
        X = random_tensor(RNG, (3, 4, 5))
        np.testing.assert_array_equal(sketch_modewise(plan, X).data, X.data)

    def test_ratio_targets(self):
        assert targets_from_ratio((100, 100, 100), 0.3) == (30, 30, 30)
        plan = make_plan((100, 100, 100), targets_from_ratio((100, 100, 100), 0.3),
                         "gaussian", seed=1)
        assert plan.targets == (30, 30, 30)
        assert plan.intermediate_dim == 27000

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            targets_from_ratio((10,), 0.0)
        with pytest.raises(ValueError):
            targets_from_ratio((10,), 1.2)

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_float_targets_are_a_ratio(self, variant):
        shape = (10, 7, 13)
        by_ratio = make_plan(shape, 0.3, variant, second_stage=(20, "fjlt"), seed=6)
        by_dims = make_plan(shape, targets_from_ratio(shape, 0.3), variant,
                            second_stage=(20, "fjlt"), seed=6)
        assert by_ratio.descriptor() == by_dims.descriptor()

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_plan((4, 4), 1.5)

    @pytest.mark.parametrize("scalar", [np.float32(0.5), np.float64(0.5)])
    def test_numpy_float_targets_are_a_ratio(self, scalar):
        by_numpy = make_plan((10, 7, 13), scalar, "gaussian", seed=6)
        by_float = make_plan((10, 7, 13), 0.5, "gaussian", seed=6)
        assert by_numpy.descriptor() == by_float.descriptor()

    @pytest.mark.parametrize("scalar", [1, True, np.int64(3), np.bool_(False)])
    def test_integer_scalar_targets_rejected(self, scalar):
        with pytest.raises(ValueError, match="targets") as exc:
            make_plan((4, 4), scalar)
        assert repr(scalar) in str(exc.value)

    @pytest.mark.parametrize("entry", [2.5, np.float64(2.0), True, np.bool_(True), "3", 0, 8.7])
    def test_target_entries_must_be_positive_integers(self, entry):
        with pytest.raises(ValueError, match="mode 1") as exc:
            make_plan((4, 4), [3, entry])
        assert repr(entry) in str(exc.value)

    @pytest.mark.parametrize("m_prime", [2.5, True, np.True_, 0, -3, "4", np.float64(3.0)])
    def test_second_stage_dim_must_be_positive_integer(self, m_prime):
        with pytest.raises(ValueError, match="second-stage target dim") as exc:
            make_plan((4, 4), (2, 2), "gaussian", second_stage=(m_prime, "gaussian"))
        assert repr(m_prime) in str(exc.value)

    def test_numpy_integer_second_stage_accepted(self):
        by_numpy = make_plan((6, 7), (3, 4), "fjlt", second_stage=(np.int32(5), "fjlt"), seed=2)
        plain = make_plan((6, 7), (3, 4), "fjlt", second_stage=(5, "fjlt"), seed=2)
        assert by_numpy.descriptor() == plain.descriptor()

    def test_numpy_integer_entries_accepted(self):
        by_numpy = make_plan((6, 7), [np.int64(3), np.int32(4)], "fjlt", seed=2)
        assert by_numpy.descriptor() == make_plan((6, 7), [3, 4], "fjlt", seed=2).descriptor()

    def test_determinism(self):
        p1 = make_plan((6, 7), (3, 4), "fjlt", second_stage=(5, "gaussian"), seed=4)
        p2 = make_plan((6, 7), (3, 4), "fjlt", second_stage=(5, "gaussian"), seed=4)
        for e1, e2 in zip(p1.mode_embeddings, p2.mode_embeddings):
            np.testing.assert_array_equal(e1.signs, e2.signs)
            np.testing.assert_array_equal(e1.rows, e2.rows)
        np.testing.assert_array_equal(p1.second_stage.matrix, p2.second_stage.matrix)

    def test_modes_use_distinct_seeds(self):
        plan = make_plan((8, 8), (4, 4), "fjlt", seed=3)
        assert not np.array_equal(plan.mode_embeddings[0].signs,
                                  plan.mode_embeddings[1].signs) or \
               not np.array_equal(plan.mode_embeddings[0].rows,
                                  plan.mode_embeddings[1].rows)

    def test_per_mode_identity_marker(self):
        plan = make_plan((5, 6), (None, 3), "gaussian", seed=2)
        assert isinstance(plan.mode_embeddings[0], IdentityEmbedding)
        assert isinstance(plan.mode_embeddings[1], GaussianEmbedding)
        assert plan.targets == (5, 3)

    def test_fjlt_oversampling_rejected(self):
        with pytest.raises(ValueError):
            make_plan((4, 4), (5, 2), "fjlt")

    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            make_plan((4, 4), (2,))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_plan((4, 4), (2, 2), "hadamard")

    def test_second_stage_dims(self):
        plan = make_plan((4, 4), (2, 2), "gaussian", second_stage=(3, "fjlt"), seed=9)
        assert plan.second_stage.n == 4
        assert plan.output_dim == 3

    @pytest.mark.parametrize("stage", [(None, "identity"), (6, "identity")],
                             ids=["no-dim", "intermediate-dim"])
    def test_identity_second_stage_is_no_stage(self, stage):
        plan = make_plan((4, 5), (2, 3), "fjlt", second_stage=stage, seed=9)
        assert plan.second_stage is None
        assert plan.descriptor() == make_plan((4, 5), (2, 3), "fjlt", seed=9).descriptor()

    @pytest.mark.parametrize("targets,variant,stage,message", [
        ((2, 3), "fjlt", (5, "identity"), "identity marker cannot change dimension 6 to 5"),
        ((4, 2), "identity", None, "identity marker cannot change dimension 5 to 2"),
    ], ids=["second-stage", "mode"])
    def test_identity_cannot_resize(self, targets, variant, stage, message):
        with pytest.raises(ValueError) as info:
            make_plan((4, 5), targets, variant, second_stage=stage, seed=9)
        assert str(info.value) == message

    @pytest.mark.parametrize("stage,message", [
        (5, "second_stage must be None or a pair (m_prime, variant), got 5"),
        ("identity", "second_stage must be None or a pair (m_prime, variant), got 'identity'"),
        ((5, "fjlt", 1),
         "second_stage must be None or a pair (m_prime, variant), got (5, 'fjlt', 1)"),
        ((5,), "second_stage must be None or a pair (m_prime, variant), got (5,)"),
        ((None, None), "unknown second-stage variant None; "
                       "expected one of ('gaussian', 'fjlt', 'identity')"),
        ((None, "gaussian"), "second-stage target dim is required unless identity"),
    ], ids=["int", "string", "triple", "single", "no-variant", "no-dim"])
    def test_malformed_second_stage_fails_in_one_line(self, stage, message):
        with pytest.raises(ValueError) as info:
            make_plan((4, 4), None, "gaussian", second_stage=stage)
        assert str(info.value) == message

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_unknown_stage_variant_fails_before_any_draw(self, variant, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a map was drawn before the variants were checked")

        monkeypatch.setattr("modesketch.sketch.gaussian_embedding", forbidden)
        monkeypatch.setattr("modesketch.sketch.fjlt_embedding", forbidden)
        with pytest.raises(ValueError) as info:
            make_plan((4, 4), (2, 2), variant, second_stage=(3, "hadamard"))
        assert str(info.value) == ("unknown second-stage variant 'hadamard'; "
                                   "expected one of ('gaussian', 'fjlt', 'identity')")


class TestSketchModewise:
    def test_fjlt_against_dense_oracle(self):
        X = random_tensor(RNG, (8, 8, 8))
        plan = make_plan((8, 8, 8), (4, 4, 4), "fjlt", seed=13)
        got = vectorize(sketch_modewise(plan, X))
        want = dense_operator(plan) @ vectorize(X)
        assert rel_err(got, want) < 1e-10

    def test_equals_multi_mode_product_of_materializations(self):
        from modesketch import multi_mode_product

        X = random_tensor(RNG, (5, 7, 6))
        plan = make_plan((5, 7, 6), (3, 4, 2), "fjlt", seed=23)
        got = sketch_modewise(plan, X)
        want = multi_mode_product(
            X, [(j, e.as_matrix()) for j, e in enumerate(plan.mode_embeddings)])
        assert rel_err(got.data, want.data) < 1e-10

    def test_shape_contract(self):
        X = random_tensor(RNG, (6, 5, 7))
        plan = make_plan((6, 5, 7), (2, 3, 4), "gaussian", seed=5)
        assert sketch_modewise(plan, X).shape == (2, 3, 4)

    def test_shape_mismatch(self):
        plan = make_plan((6, 5), (2, 3), "gaussian")
        with pytest.raises(ValueError):
            sketch_modewise(plan, random_tensor(RNG, (6, 6)))

    def test_norm_preservation_statistics(self):
        _, X = synthesize(SynthSpec((20, 20, 20), 5, "gaussian", seed=1))
        nx2 = norm(X) ** 2
        ratios = []
        for s in range(100):
            plan = make_plan(X.shape, (10, 10, 10), "gaussian", seed=derive_seed(100, s))
            ratios.append(norm(sketch_modewise(plan, X)) ** 2 / nx2)
        assert 0.85 <= np.mean(ratios) <= 1.15

    def test_distortion_median_non_increasing_in_targets(self):
        _, X = synthesize(SynthSpec((20, 20, 20), 3, "gaussian", seed=9))
        medians = []
        for cs in (0.2, 0.4, 0.6, 0.8, 1.0):
            targets = targets_from_ratio(X.shape, cs)
            vals = [abs(relative_norm(sketch_modewise(
                        make_plan(X.shape, targets, "fjlt",
                                  seed=derive_seed(77, int(cs * 100), t)), X), X) - 1)
                    for t in range(60)]
            medians.append(np.median(vals))
        assert all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))


class TestRealData:
    """A real tensor stays real through Gaussian maps and turns complex at
    its first FJLT map; either way it agrees with the promoted tensor."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("variant, dtype", [("gaussian", np.float64),
                                                ("fjlt", np.complex128)])
    def test_sketch_and_norm_match_the_promoted_tensor(self, variant, dtype, layout):
        data = layouts(RNG, (12, 10, 14), complex_entries=False)[layout]
        X, promoted = DenseTensor(data, copy=False), DenseTensor(data.astype(np.complex128))
        assert abs(norm(X) - norm(promoted)) <= 1e-12 * norm(promoted)
        plan = make_plan(X.shape, 0.5, variant, seed=17)
        got, want = sketch_modewise(plan, X), sketch_modewise(plan, promoted)
        assert got.data.dtype == dtype
        assert rel_err(got.data, want.data) < 1e-12
        assert abs(norm(got) - norm(want)) <= 1e-12 * norm(want)

    def test_gaussian_sketch_makes_no_complex_copy(self):
        data = RNG.standard_normal((64, 64, 64))
        plan = make_plan(data.shape, 0.5, "gaussian", seed=3)
        tracemalloc.start()
        try:
            Y = sketch_modewise(plan, DenseTensor(data, copy=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.data.dtype == np.float64
        assert peak < data.nbytes  # a complex copy takes twice that

    def test_rank1_and_vector_sketches_follow_the_data(self):
        vs = [RNG.standard_normal(n) for n in (3, 4, 5)]
        for variant, dtype in (("gaussian", np.float64), ("fjlt", np.complex128)):
            plan = make_plan((3, 4, 5), (2, 2, 2), variant, seed=31)
            assert {v.dtype for v in sketch_rank1(plan, vs)[0]} == {np.dtype(dtype)}
            got = vector_subspace_sketch(vs[2], 2, 2, variant, seed=4)
            assert got.dtype == dtype
            want = vector_subspace_sketch(vs[2].astype(np.complex128), 2, 2, variant, seed=4)
            assert rel_err(got, want) < 1e-12


class TestCostOrder:
    def test_most_compressive_mode_first(self):
        plan = make_plan((2048, 64, 64), 0.1, "fjlt", seed=1)
        assert plan.targets == (205, 7, 7)
        assert _cost_order(plan.mode_embeddings) == [1, 2, 0]

    def test_key_is_not_the_target_alone(self):
        # 1/m - 1/n puts mode 1 (40 -> 4) before mode 0 (4 -> 3)
        plan = make_plan((4, 40), (3, 4), "gaussian", seed=1)
        assert _cost_order(plan.mode_embeddings) == [1, 0]

    def test_order_minimizes_chain_cost(self):
        def cost(dims, order):
            size, total = math.prod(n for _, n in dims), 0
            for mode in order:
                m, n = dims[mode]
                total += m * size
                size = size // n * m
            return total

        rng = np.random.default_rng(7)
        for _ in range(300):
            ns = rng.integers(1, 60, size=rng.integers(1, 5))
            dims = [(int(rng.integers(1, n + 1)), int(n)) for n in ns]
            embeddings = [types.SimpleNamespace(m=m, n=n) for m, n in dims]
            best = min(cost(dims, p) for p in itertools.permutations(range(len(dims))))
            assert cost(dims, _cost_order(embeddings)) == best

    def test_uniform_shape_stays_ascending(self):
        plan = make_plan((10, 10, 10, 10), 0.3, "gaussian", seed=2)
        assert _cost_order(plan.mode_embeddings) == [0, 1, 2, 3]

    def test_identity_and_oversampling_modes_go_last(self):
        plan = make_plan((5, 6, 7, 4), (None, 3, None, 8), "gaussian", seed=3)
        assert _cost_order(plan.mode_embeddings) == [1, 0, 2, 3]
        X = random_tensor(RNG, plan.shape)
        got = vectorize(sketch_modewise(plan, X))
        assert rel_err(got, dense_operator(plan) @ vectorize(X)) < 1e-10

    def test_sketch_modewise_applies_modes_in_cost_order(self):
        applied = []

        @dataclasses.dataclass(frozen=True)
        class Recording:
            inner: object

            @property
            def m(self):
                return self.inner.m

            @property
            def n(self):
                return self.inner.n

            def apply_to_mode(self, X, mode):
                applied.append(mode)
                return self.inner.apply_to_mode(X, mode)

        plan = make_plan((40, 8, 6), (20, 2, 3), "gaussian", seed=4)
        spied = dataclasses.replace(
            plan, mode_embeddings=tuple(Recording(e) for e in plan.mode_embeddings))
        sketch_modewise(spied, random_tensor(RNG, plan.shape))
        assert applied == _cost_order(plan.mode_embeddings) == [1, 2, 0]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    @pytest.mark.parametrize("shape", [(40, 8, 6), (6, 40, 8)])
    def test_non_uniform_shapes_match_dense_operator(self, shape, variant, layout):
        X = DenseTensor(layouts(RNG, shape)[layout], copy=False)
        plan = make_plan(shape, 0.3, variant, seed=5)
        got = vectorize(sketch_modewise(plan, X))
        assert rel_err(got, dense_operator(plan) @ vectorize(X)) < 1e-10


@pytest.fixture
def products(monkeypatch):
    return record_mode_products(monkeypatch)


class TestSketchAllButOne:
    """Target j equals the modewise sketch with mode j's map replaced by the
    identity, byte for byte, while consecutive targets share prefixes."""

    @staticmethod
    def assert_targets_are_the_separate_sketches(plan, X):
        targets = list(_sketch_all_but_one(plan, X))
        assert len(targets) == plan.ndim
        for j, got in enumerate(targets):
            want = sketch_modewise(without_mode(plan, j), X).data
            assert got.data.dtype == want.dtype and got.data.shape == want.shape
            assert got.data.strides == want.strides
            assert got.data.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("variant", ["gaussian", "fjlt", "identity"])
    @pytest.mark.parametrize("shape", [(9, 7), (8, 8, 8), (40, 8, 6), (6, 40, 8),
                                       (5, 4, 3, 6), (6, 6, 6, 6)])
    def test_targets_are_the_separate_sketches(self, shape, variant, layout):
        targets = None if variant == "identity" else 0.5
        plan = make_plan(shape, targets, variant, seed=11)
        for complex_entries in (False, True):
            X = DenseTensor(layouts(RNG, shape, complex_entries)[layout], copy=False)
            self.assert_targets_are_the_separate_sketches(plan, X)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape, targets, variant", [
        ((5, 6, 7, 4), (None, 3, 7, 8), "gaussian"),   # identity, m < n, m = n, m > n
        ((5, 6, 7, 4), (5, None, 2, 4), "fjlt"),
        ((12, 3, 9), (14, 2, None), "gaussian"),
        ((7, 11), (None, 11), "fjlt"),
    ])
    def test_explicit_targets_are_the_separate_sketches(self, shape, targets, variant, layout):
        plan = make_plan(shape, targets, variant, seed=12)
        for complex_entries in (False, True):
            X = DenseTensor(layouts(RNG, shape, complex_entries)[layout], copy=False)
            self.assert_targets_are_the_separate_sketches(plan, X)

    def test_identity_plan_yields_x_itself(self, products):
        X = random_tensor(RNG, (4, 5, 6))
        assert all(t is X for t in _sketch_all_but_one(make_plan(X.shape), X))
        assert products == []

    @pytest.mark.parametrize("shape, variant, order, count", [
        ((20, 20, 20), "gaussian", [0, 1, 2], 5),
        ((6, 6, 6, 6), "fjlt", [0, 1, 2, 3], 9),
        ((5, 4, 3, 6), "fjlt", [1, 2, 3, 0], 11),
        ((6, 30, 10), "fjlt", [0, 2, 1], 6),     # restarts once
        ((40, 12, 8), "gaussian", [2, 1, 0], 6),  # descending: nothing shared
        ((9, 7), "gaussian", [1, 0], 2),
    ])
    def test_products_made(self, shape, variant, order, count, products):
        plan = make_plan(shape, 0.5, variant, seed=13)
        assert _cost_order(plan.mode_embeddings) == order
        d = len(shape)
        if order == sorted(order):
            assert count == (d - 1) + d * (d - 1) // 2
        list(_sketch_all_but_one(plan, random_tensor(RNG, shape, complex_entries=False)))
        assert len(products) == count <= d * (d - 1)

    def test_never_more_products_than_separate_sketches(self, products):
        rng = np.random.default_rng(14)
        for trial in range(60):
            shape = tuple(int(n) for n in rng.integers(2, 9, size=rng.integers(2, 5)))
            variant = ("gaussian", "fjlt")[trial % 2]
            high = 12 if variant == "gaussian" else None
            targets = [None if rng.random() < 0.2 else int(rng.integers(1, (high or n) + 1))
                       for n in shape]
            plan = make_plan(shape, targets, variant, seed=trial)
            X = random_tensor(RNG, shape, complex_entries=False)
            list(_sketch_all_but_one(plan, X))
            shared = len(products)
            products.clear()
            for j in range(plan.ndim):
                sketch_modewise(without_mode(plan, j), X)
            assert shared <= len(products) <= plan.ndim * (plan.ndim - 1)
            products.clear()


class TestSketchFull:
    def test_identity_stages_give_vectorization(self):
        X = random_tensor(RNG, (3, 4, 2))
        plan = make_plan((3, 4, 2), None, "identity", second_stage=(None, "identity"))
        np.testing.assert_array_equal(sketch_full(plan, X), vectorize(X))

    def test_two_stage_fjlt_against_dense_composite(self):
        X = random_tensor(RNG, (8, 8, 8))
        plan = make_plan((8, 8, 8), (4, 4, 4), "fjlt", second_stage=(10, "fjlt"), seed=21)
        got = sketch_full(plan, X)
        want = dense_operator(plan) @ vectorize(X)
        assert got.shape == (10,)
        assert rel_err(got, want) < 1e-9

    def test_missing_second_stage(self):
        # A plan without a second stage sketches to its vectorized modewise sketch.
        X = random_tensor(RNG, (4, 5, 3))
        for variant in ("gaussian", "fjlt"):
            plan = make_plan((4, 5, 3), (2, 3, 2), variant, seed=8)
            assert plan.second_stage is None
            np.testing.assert_array_equal(sketch_full(plan, X),
                                          vectorize(sketch_modewise(plan, X)))

    def test_linearity(self):
        plan = make_plan((5, 6, 4), (3, 3, 3), "fjlt", second_stage=(7, "gaussian"), seed=2)
        X, Y = random_tensor(RNG, (5, 6, 4)), random_tensor(RNG, (5, 6, 4))
        a, b = 0.6 - 1.2j, -2.0 + 0.1j
        lhs = sketch_full(plan, a * X + b * Y)
        rhs = a * sketch_full(plan, X) + b * sketch_full(plan, Y)
        assert rel_err(lhs, rhs) < 1e-10

    def test_subspace_distortion_statistics(self):
        # differences of tensors spanned by one incoherent rank-3 basis:
        # the squared norm survives within 50% in at least 95% of trials
        base, _ = synthesize(SynthSpec((16, 16, 16), 3, "gaussian", seed=2))
        A = CpModel(np.array([1.0, -0.5, 2.0]), base.factors).to_tensor()
        B = CpModel(np.array([0.2, 1.0, -1.0]), base.factors).to_tensor()
        D = A - B
        nd2 = norm(D) ** 2
        hits = 0
        for s in range(200):
            plan = make_plan((16, 16, 16), (12, 12, 12), "fjlt",
                             second_stage=(500, "fjlt"), seed=derive_seed(55, s))
            ratio = np.linalg.norm(sketch_full(plan, D)) ** 2 / nd2
            hits += 0.5 <= ratio <= 1.5
        assert hits >= 190


class TestStreamedStage:
    """A Gaussian second stage is recorded by the plan and drawn block by
    block as it is applied; ``plan.second_stage`` draws the whole map."""

    # A 4 x 5 x 3 tensor sketched to 2 x 3 x 2 has N = 12; blocks of 48
    # scalars hold 4 rows.
    SHAPE, TARGETS, BLOCK = (4, 5, 3), (2, 3, 2), 48

    @pytest.mark.parametrize("m_prime", [1, 3, 4, 10, 12],
                             ids=["one-row", "below-block", "one-block", "partial-last",
                                  "whole-blocks"])
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_matches_the_drawn_map(self, m_prime, columns, complex_entries, monkeypatch):
        monkeypatch.setattr("modesketch.sketch._STAGE_BLOCK_SCALARS", self.BLOCK)
        plan = make_plan(self.SHAPE, self.TARGETS, "gaussian", (m_prime, "gaussian"), seed=6)
        x = RNG.standard_normal((12,) + columns)
        if complex_entries:
            x = x + 1j * RNG.standard_normal(x.shape)
        got = _apply_stage(plan, x)[0]
        assert got.shape == (m_prime,) + columns and got.dtype == x.dtype
        assert rel_err(got, plan.second_stage.apply(x)) < 1e-13

    def test_operands_share_one_draw(self, monkeypatch):
        monkeypatch.setattr("modesketch.sketch._STAGE_BLOCK_SCALARS", self.BLOCK)
        plan = make_plan(self.SHAPE, self.TARGETS, "gaussian", (10, "gaussian"), seed=6)
        design, x = RNG.standard_normal((12, 3)), RNG.standard_normal(12) * 1j
        both = _apply_stage(plan, design, x)
        np.testing.assert_array_equal(both[0], _apply_stage(plan, design)[0])
        np.testing.assert_array_equal(both[1], _apply_stage(plan, x)[0])

    def test_blocks_at_the_default_size(self):
        # N = 27,000 makes blocks of 9 rows, so 20 rows end on a partial block.
        X = random_tensor(RNG, (30, 30, 30))
        plan = make_plan(X.shape, None, "identity", (20, "gaussian"), seed=3)
        assert plan.intermediate_dim == 27_000
        got = sketch_full(plan, X)
        assert rel_err(got, plan.second_stage.apply(vectorize(X))) < 1e-13

    @pytest.mark.parametrize("seed", [0, 11])
    def test_second_stage_is_todays_map(self, seed):
        plan = make_plan(self.SHAPE, self.TARGETS, "fjlt", (7, "gaussian"), seed=seed)
        want = gaussian_embedding(7, 12, make_rng(derive_seed(seed, 1)))
        assert plan.stage.stream == derive_seed(seed, 1)
        np.testing.assert_array_equal(plan.second_stage.matrix, want.matrix)

    def test_plan_holds_no_stage_matrix(self):
        # The stored matrix would take 8 TB.
        plan = make_plan((1000, 1000), None, "identity", (10 ** 6, "gaussian"), seed=1)
        assert plan.output_dim == 10 ** 6 and plan.stage.m == 10 ** 6

    def test_sketch_full_peak_is_one_block(self):
        X = DenseTensor(RNG.standard_normal((30, 30, 30)), copy=False)
        plan = make_plan(X.shape, None, "identity", (100, "gaussian"), seed=8)
        assert plan.output_dim * plan.intermediate_dim * 8 >= 20e6
        tracemalloc.start()
        try:
            got = sketch_full(plan, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert rel_err(got, plan.second_stage.apply(vectorize(X))) < 1e-13

    @pytest.mark.parametrize("stage,message", [
        ((7, "fjlt"), "restriction cannot oversample: need 1 <= m <= n, got m=7, n=6"),
        ((5, "identity"), "identity marker cannot change dimension 6 to 5"),
        ((2.5, "gaussian"), "second-stage target dim must be an integer of at least 1, got 2.5"),
    ], ids=["fjlt-oversamples", "identity-resizes", "non-integer"])
    def test_bad_stage_fails_before_any_draw(self, stage, message, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a map was drawn before the second stage was checked")

        monkeypatch.setattr("modesketch.sketch.make_rng", forbidden)
        with pytest.raises(ValueError) as info:
            make_plan((4, 5), (2, 3), "gaussian", second_stage=stage, seed=9)
        assert str(info.value) == message

    @pytest.mark.parametrize("stage", [(5, "gaussian"), (5, "fjlt")])
    def test_descriptor_is_unchanged(self, stage):
        plan = make_plan((6, 7, 8), (3, None, 4), "fjlt", stage, seed=77)
        text = ("sketchplan v1 shape=6,7,8 targets=3,id,4 variant=fjlt "
                f"second=5:{stage[1]} seed=77")
        assert plan.descriptor() == text
        assert plan_from_descriptor(text).stage == plan.stage


class TestSketchRank1:
    def test_identity_plan_returns_inputs(self):
        plan = make_plan((3, 4))
        vs = [RNG.standard_normal(3), RNG.standard_normal(4)]
        sketched, norms = sketch_rank1(plan, vs)
        for got, v in zip(sketched, vs):
            np.testing.assert_array_equal(got, v.astype(np.complex128))
        np.testing.assert_allclose(norms, [np.linalg.norm(v) for v in vs])

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_factorized_equals_full_tensor_sketch(self, variant):
        vs = [RNG.standard_normal(n) + 1j * RNG.standard_normal(n) for n in (3, 4, 5)]
        plan = make_plan((3, 4, 5), (2, 2, 2), variant, seed=31)
        sketched, _ = sketch_rank1(plan, vs)
        full = sketch_modewise(plan, outer_product(vs))
        assert rel_err(outer_product(sketched).data, full.data) < 1e-10

    def test_norms_recomputed(self):
        plan = make_plan((6, 7), (3, 4), "gaussian", seed=8)
        vs = [RNG.standard_normal(6), RNG.standard_normal(7)]
        sketched, norms = sketch_rank1(plan, vs)
        np.testing.assert_allclose(norms, [np.linalg.norm(s) for s in sketched])

    def test_length_mismatch(self):
        plan = make_plan((3, 4), (2, 2), "gaussian")
        with pytest.raises(ValueError):
            sketch_rank1(plan, [np.ones(3), np.ones(5)])
        with pytest.raises(ValueError):
            sketch_rank1(plan, [np.ones(3)])


class TestVectorSubspaceSketch:
    def test_exact_power_is_pure_reshape(self):
        x = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
        got = vector_subspace_sketch(x, 3, (2, 2, 2), "gaussian",
                                     second_stage=(4, "gaussian"), seed=6)
        cube = DenseTensor(x.reshape((2, 2, 2), order="F"))
        plan = make_plan((2, 2, 2), (2, 2, 2), "gaussian",
                         second_stage=(4, "gaussian"), seed=6)
        np.testing.assert_allclose(got, sketch_full(plan, cube))

    def test_padding_matches_explicit_zero_extension(self):
        x = RNG.standard_normal(7)
        padded = np.concatenate([x, [0.0]])
        a = vector_subspace_sketch(x, 3, (2, 2, 2), "fjlt", seed=3)
        b = vector_subspace_sketch(padded, 3, (2, 2, 2), "fjlt", seed=3)
        np.testing.assert_allclose(a, b)

    def test_ratio_and_scalar_targets(self):
        x = RNG.standard_normal(27)
        a = vector_subspace_sketch(x, 3, 0.5, "gaussian", seed=4)
        b = vector_subspace_sketch(x, 3, 2, "gaussian", seed=4)
        np.testing.assert_allclose(a, b)  # ceil(0.5 * 3) == 2 per mode
        c = vector_subspace_sketch(x, 3, np.int64(2), "gaussian", seed=4)
        np.testing.assert_array_equal(c, b)
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                vector_subspace_sketch(x, 3, flag, "gaussian", seed=4)

    def test_norm_preservation_statistics(self):
        x = np.random.default_rng(11).standard_normal(64)
        x /= np.linalg.norm(x)
        sq = [np.linalg.norm(vector_subspace_sketch(x, 3, 3, "fjlt",
                                                    seed=derive_seed(201, s))) ** 2
              for s in range(50)]
        assert 0.7 <= np.mean(sq) <= 1.3

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            vector_subspace_sketch(np.ones(8), 1, 4)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError) as info:
            vector_subspace_sketch(np.ones(0), 2, 1)
        assert str(info.value) == "cannot sketch an empty vector"

    def test_builds_no_second_stage(self, monkeypatch):
        plans = []

        def recording(*args, **kwargs):
            plans.append(make_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr("modesketch.sketch.make_plan", recording)
        x = RNG.standard_normal(27)
        got = vector_subspace_sketch(x, 3, 2, "fjlt", seed=4)
        assert [p.second_stage for p in plans] == [None]
        cube = DenseTensor(x.reshape((3, 3, 3), order="F"))
        np.testing.assert_array_equal(got, vectorize(sketch_modewise(plans[0], cube)))


class TestDescriptor:
    @pytest.mark.parametrize("second", [None, (5, "gaussian"), (5, "fjlt"),
                                        (None, "identity")],
                             ids=["none", "gaussian", "fjlt", "identity"])
    @pytest.mark.parametrize("variant", ["gaussian", "fjlt", "identity"])
    def test_roundtrip_reproduces_plan(self, variant, second):
        targets = None if variant == "identity" else (3, None, 4)
        plan = make_plan((6, 7, 8), targets, variant, second_stage=second, seed=77)
        clone = plan_from_descriptor(plan.descriptor())
        X = random_tensor(RNG, (6, 7, 8))

        def run(p):
            return vectorize(sketch_modewise(p, X)) if second is None else sketch_full(p, X)

        np.testing.assert_array_equal(run(clone), run(plan))
        assert clone.descriptor() == plan.descriptor()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_reproduces_every_field(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
        variant = data.draw(st.sampled_from(["gaussian", "fjlt", "identity"]))
        seed = data.draw(st.integers(0, 2**32))
        targets = None
        if data.draw(st.booleans()):
            targets = tuple(data.draw(st.none() | st.integers(1, n)) if variant != "identity"
                            else data.draw(st.sampled_from([None, n])) for n in shape)
        source = 1
        for n, t in zip(shape, targets or shape):
            source *= n if t is None else t
        second = data.draw(st.sampled_from([None, "gaussian", "fjlt", "identity"]))
        if second == "identity":
            second = (None, "identity")
        elif second is not None:
            second = (data.draw(st.integers(1, min(8, source))), second)
        plan = make_plan(shape, targets, variant, second_stage=second, seed=seed)
        clone = plan_from_descriptor(plan.descriptor())
        assert (clone.shape, clone.variant, clone.seed) == (plan.shape, plan.variant, seed)

        def same(a, b):
            assert type(a) is type(b)
            for field in dataclasses.fields(a):
                np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))

        for a, b in zip(plan.mode_embeddings, clone.mode_embeddings, strict=True):
            same(a, b)
        if second is None or second[1] == "identity":  # an identity stage is no stage
            assert plan.second_stage is None and clone.second_stage is None
        else:
            same(plan.second_stage, clone.second_stage)
        # Random maps draw from the documented streams: (seed, 0, mode) for
        # mode maps, (seed, 1) for the second stage.
        makers = {"gaussian": gaussian_embedding, "fjlt": fjlt_embedding}
        streams = [(e, (0, mode)) for mode, e in enumerate(plan.mode_embeddings)]
        streams += [(plan.second_stage, (1,))] if plan.second_stage is not None else []
        for e, key in streams:
            if e.kind != "identity":
                same(e, makers[e.kind](e.m, e.n, make_rng(derive_seed(seed, *key))))

    def test_bad_descriptor_rejected(self):
        with pytest.raises(ValueError):
            plan_from_descriptor("not a plan")

    @pytest.mark.parametrize("edit", [("shape=", "shap="), ("seed=5", "seed5"),
                                      ("second=none", "second=4:gaussian:x"),
                                      ("seed=5", "seed=five")],
                             ids=["misspelt-key", "no-equals", "second-stage", "not-an-int"])
    def test_malformed_descriptor_rejected_in_one_line(self, edit):
        text = make_plan((6, 7, 8), 0.5, seed=5).descriptor().replace(*edit)
        with pytest.raises(ValueError) as info:
            plan_from_descriptor(text)
        assert str(info.value) == f"not a sketch plan descriptor: {text!r}"
