"""One integer rule for extents, target dims, counts, modes and indices:
an ``int`` or numpy integer, never a bool or a float, else one
``ValueError`` that names the argument; numpy integers give the same bytes
as Python ints."""

import re

import numpy as np
import pytest

from modesketch import (
    DenseTensor,
    IdentityEmbedding,
    SynthSpec,
    cp_als,
    decoupled_ls_slice,
    fjlt_embedding,
    fold,
    gaussian_embedding,
    ls_coefficients,
    make_plan,
    make_rng,
    mode_product,
    subgaussian_coherence_check,
    synthesize,
    targets_from_ratio,
    unfold,
    vector_subspace_sketch,
)
from modesketch.diagnostics import draw_unit_factors, gaussian_cp_model
from modesketch.harness import ls_experiment, norm_experiment

MODEL, X = synthesize(SynthSpec((4, 5, 3), 2, "gaussian", seed=1))
RNG = make_rng(0)

# (call, the start of the message); every call passes 8.7, 2.5 or True
# where an integer belongs.
REJECTED = {
    "make_plan shape": (lambda: make_plan((8.7, 8), 0.5), "every extent"),
    "make_plan bool extent": (lambda: make_plan((True, 8), (1, 2)), "every extent"),
    "targets_from_ratio shape": (lambda: targets_from_ratio((8.7, 8), 0.5), "every extent"),
    "from_flat shape": (lambda: DenseTensor.from_flat(np.ones(6), (2.5, 3)), "every extent"),
    "zeros shape": (lambda: DenseTensor.zeros((True, 3)), "every extent"),
    "fold shape": (lambda: fold(np.ones((2, 3)), 0, (2, 3.0)), "every extent"),
    "fold mode": (lambda: fold(np.ones((2, 3)), True, (2, 3)), "mode"),
    "unfold mode": (lambda: unfold(X, 1.0), "mode"),
    "mode_product mode": (lambda: mode_product(X, np.ones((2, 5)), True), "mode"),
    "draw_unit_factors shape": (lambda: draw_unit_factors((2.5, 3), 2, RNG), "every extent"),
    "gaussian_cp_model shape": (lambda: gaussian_cp_model((2.5, 3), 2, RNG), "every extent"),
    "gaussian_cp_model rank": (lambda: gaussian_cp_model((2, 3), True, RNG), "rank"),
    "gaussian_embedding m": (lambda: gaussian_embedding(2.5, 3, RNG), "m"),
    "gaussian_embedding n": (lambda: gaussian_embedding(2, True, RNG), "n"),
    "fjlt_embedding m": (lambda: fjlt_embedding(8.7, 9, RNG), "m"),
    "fjlt_embedding n": (lambda: fjlt_embedding(1, True, RNG), "n"),
    "IdentityEmbedding n": (lambda: IdentityEmbedding(2.5), "n"),
    "IdentityEmbedding bool n": (lambda: IdentityEmbedding(True), "n"),
    "subgaussian n": (lambda: subgaussian_coherence_check(8.7, 2, 2, 3), "n"),
    "subgaussian r": (lambda: subgaussian_coherence_check(8, 2.5, 2, 3), "r"),
    "subgaussian d": (lambda: subgaussian_coherence_check(8, 2, True, 3), "d"),
    "subgaussian trials": (lambda: subgaussian_coherence_check(8, 2, 2, 2.5), "trials"),
    "norm_experiment trials": (lambda: norm_experiment(X, [0.5], True), "trials"),
    "ls_experiment trials": (lambda: ls_experiment(X, MODEL.factors, [0.5], 2.5), "trials"),
    "vector_subspace_sketch d": (lambda: vector_subspace_sketch(np.ones(9), 3.0, 2), "d"),
    "vector_subspace_sketch bool d": (lambda: vector_subspace_sketch(np.ones(9), True, 2), "d"),
    "slice index": (lambda: decoupled_ls_slice(X, MODEL.factors, 0, 1.5), "slice index"),
    "slice bool index": (lambda: decoupled_ls_slice(X, MODEL.factors, 0, True), "slice index"),
    "slice mode": (lambda: decoupled_ls_slice(X, MODEL.factors, 8.7, 1), "mode"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_non_integer_rejected_naming_the_argument(name):
    call, what = REJECTED[name]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be an integer") as exc:
        call()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("factors", [
    [MODEL.factors[0], MODEL.factors[1], np.ones(3)],
    [MODEL.factors[0], MODEL.factors[1], np.ones((3, 3))],
], ids=["vector", "column count"])
def test_factor_shapes_listed_in_one_error(factors):
    shapes = str([np.shape(f) for f in factors])
    with pytest.raises(ValueError, match=re.escape(shapes)):
        ls_coefficients(X, factors)
    with pytest.raises(ValueError, match=re.escape(shapes)):
        ls_experiment(X, factors, [0.5], 2)


def test_numpy_integers_give_the_same_bytes():
    i = np.int64
    shape, np_shape = (6, 5, 4), (i(6), np.int32(5), np.uint8(4))
    assert make_plan(np_shape, (i(3), 2, 2), "fjlt", (i(5), "gaussian"), i(2)).descriptor() \
        == make_plan(shape, (3, 2, 2), "fjlt", (5, "gaussian"), 2).descriptor()
    values = np.arange(120.0)
    assert DenseTensor.from_flat(values, np_shape).data.tobytes() \
        == DenseTensor.from_flat(values, shape).data.tobytes()
    M = unfold(X, 1)
    assert fold(M, i(1), (i(4), i(5), i(3))).data.tobytes() == fold(M, 1, X.shape).data.tobytes()
    assert synthesize(SynthSpec(np_shape, i(3), seed=i(4)))[1].data.tobytes() \
        == synthesize(SynthSpec(shape, 3, seed=4))[1].data.tobytes()
    assert gaussian_embedding(i(3), i(6), make_rng(1)).matrix.tobytes() \
        == gaussian_embedding(3, 6, make_rng(1)).matrix.tobytes()
    assert gaussian_cp_model(np_shape, i(2), make_rng(1)).to_tensor().data.tobytes() \
        == gaussian_cp_model(shape, 2, make_rng(1)).to_tensor().data.tobytes()
    assert subgaussian_coherence_check(i(8), i(2), i(3), i(4)) \
        == subgaussian_coherence_check(8, 2, 3, 4)
    assert decoupled_ls_slice(X, MODEL.factors, i(1), i(2)).tobytes() \
        == decoupled_ls_slice(X, MODEL.factors, 1, 2).tobytes()
    assert [r.value for r in norm_experiment(X, [0.5], i(2), seed=3)] \
        == [r.value for r in norm_experiment(X, [0.5], 2, seed=3)]
    assert vector_subspace_sketch(np.ones(30), i(3), 2).tobytes() \
        == vector_subspace_sketch(np.ones(30), 3, 2).tobytes()
    fa, fb = cp_als(X, i(2), max_iters=i(3))[0], cp_als(X, 2, max_iters=3)[0]
    assert all(p.tobytes() == q.tobytes() for p, q in zip(fa.factors, fb.factors))
