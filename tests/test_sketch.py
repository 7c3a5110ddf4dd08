"""Sketch plans: modewise and two-stage application, rank-one factoring,
vector reshaping, descriptors, and norm-preservation statistics."""

import dataclasses

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

from helpers import random_tensor, rel_err

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

    @pytest.mark.parametrize("entry", [2.5, np.float64(2.0), True, np.bool_(True), "3", 0])
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
        plan = make_plan((4, 4), (2, 2), "gaussian")
        with pytest.raises(ValueError):
            sketch_full(plan, random_tensor(RNG, (4, 4)))

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
        if second is None:
            assert clone.second_stage is None
        else:
            same(plan.second_stage, clone.second_stage)
        # Random maps draw from the documented streams: (seed, 0, mode) for
        # mode maps, (seed, 1) for the second stage.
        makers = {"gaussian": gaussian_embedding, "fjlt": fjlt_embedding}
        streams = [(e, (0, mode)) for mode, e in enumerate(plan.mode_embeddings)]
        streams += [(plan.second_stage, (1,))] if second is not None else []
        for e, key in streams:
            if e.kind != "identity":
                same(e, makers[e.kind](e.m, e.n, make_rng(derive_seed(seed, *key))))

    def test_bad_descriptor_rejected(self):
        with pytest.raises(ValueError):
            plan_from_descriptor("not a plan")
