"""Compose per-mode embeddings into modewise and two-stage tensor sketches.

A :class:`SketchPlan` holds one embedding per mode plus an optional second
stage acting on the vectorized intermediate tensor.  A plan is a pure
function of ``(shape, targets, variant, second stage, seed)``: per-mode
seeds are derived from the master seed with a fixed mix, so a short text
descriptor is enough to replay any experiment.

Modewise sketches apply the maps in one cost order.  CP-ALS needs, for
each mode j, the sketch over every mode but j; those d sketches are taken
in one walk that shares the order's prefixes between them, and each equals
the modewise sketch with mode j's map replaced by the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .embeddings import (
    _MODE_STREAM,
    _STAGE2_STREAM,
    Embedding,
    IdentityEmbedding,
    _check_restriction,
    derive_seed,
    fjlt_embedding,
    gaussian_embedding,
    make_rng,
)
from .tensor import DenseTensor, _contract, _integer, _scalars, _shape, vectorize

__all__ = [
    "SketchPlan",
    "make_plan",
    "targets_from_ratio",
    "sketch_modewise",
    "sketch_full",
    "sketch_rank1",
    "vector_subspace_sketch",
    "plan_from_descriptor",
]

VARIANTS = ("gaussian", "fjlt", "identity")

# A Gaussian second stage is drawn and applied this many scalars of its
# matrix at a time (2 MB): whole rows, at least one.
_STAGE_BLOCK_SCALARS = 2 ** 18


def targets_from_ratio(shape: Sequence[int], ratio: float) -> tuple[int, ...]:
    """Per-mode target dims ``ceil(ratio * n_j)`` for a compression ratio."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"compression ratio must lie in (0, 1], got {ratio}")
    return tuple(math.ceil(ratio * n) for n in _shape(shape))


def _check_size(variant: str, m: int, n: int) -> None:
    """Reject an ``m x n`` map that ``variant`` cannot make: an identity
    that changes the dimension, or a restriction that oversamples."""
    if variant == "identity" and m != n:
        raise ValueError(f"identity marker cannot change dimension {n} to {m}")
    if variant == "fjlt":
        _check_restriction(m, n)


def _draw(variant: str, m: int, n: int, stream: int) -> Embedding:
    """An ``m x n`` embedding of a checked variant; a random one draws from
    the seed ``stream``, the identity marker nothing."""
    _check_size(variant, m, n)
    if variant == "identity":
        return IdentityEmbedding(n)
    draw = gaussian_embedding if variant == "gaussian" else fjlt_embedding
    return draw(m, n, make_rng(stream))


class _Stage(NamedTuple):
    """A second stage as a plan records it: the row count, the variant and
    the seed of the stream its map is drawn from."""

    m: int
    kind: str
    stream: int


@dataclass(frozen=True)
class SketchPlan:
    """Per-mode embeddings plus an optional second stage.

    The per-mode maps are drawn and stored: sweeps, factor applies and
    adjoints use each of them several times.  The second stage is recorded
    in ``stage`` (``None`` for none) and drawn as it is applied, so a
    Gaussian stage never exists as an ``m' x N`` matrix; reading
    :attr:`second_stage` pays the full draw.
    """

    shape: tuple[int, ...]
    mode_embeddings: tuple[Embedding, ...]
    stage: Optional[_Stage]
    variant: str
    seed: int

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(e.m for e in self.mode_embeddings)

    @property
    def intermediate_dim(self) -> int:
        """Length of the vectorized tensor after the modewise stage."""
        return math.prod(self.targets)

    @property
    def output_dim(self) -> int:
        return self.stage.m if self.stage is not None else self.intermediate_dim

    @property
    def second_stage(self) -> Optional[Embedding]:
        """The second-stage embedding, drawn in full on every read (``m' N``
        normals for a Gaussian stage), or ``None`` without a stage."""
        if self.stage is None:
            return None
        return _draw(self.stage.kind, self.stage.m, self.intermediate_dim, self.stage.stream)

    def descriptor(self) -> str:
        """Deterministic one-line text form from which the plan can be rebuilt."""
        targets = ",".join(
            "id" if e.kind == "identity" else str(e.m) for e in self.mode_embeddings
        )
        stage = self.stage
        second = "none" if stage is None else f"{stage.m}:{stage.kind}"
        shape = ",".join(str(n) for n in self.shape)
        return (f"sketchplan v1 shape={shape} targets={targets} "
                f"variant={self.variant} second={second} seed={self.seed}")


def make_plan(
    shape: Sequence[int],
    targets: Union[float, Sequence[Optional[int]], None] = None,
    variant: str = "gaussian",
    second_stage: Optional[tuple[Optional[int], str]] = None,
    seed: int = 0,
) -> SketchPlan:
    """Build a reproducible sketch plan.

    ``make_plan(shape)`` is the all-identity plan: sketching with it leaves
    the tensor and the factors as they are, so the exact least-squares
    problems are the sketched ones run through this plan.

    Parameters
    ----------
    shape:
        Source extents ``n_1 .. n_d``.
    targets:
        Per-mode target dims, each a positive ``int`` or numpy integer (not
        a bool), or a float (Python or numpy) compression ratio resolved by
        :func:`targets_from_ratio`; an integer scalar is rejected.  ``None``
        produces the all-identity plan; a ``None`` entry marks that single
        mode as identity.
    variant:
        The map drawn for every mode that has a target: ``"gaussian"``,
        ``"fjlt"``, or ``"identity"``, which only takes targets equal to
        the extents.
    second_stage:
        ``None``, or a pair ``(m_prime, variant)`` for one final embedding
        of the vectorized intermediate tensor; ``m_prime`` follows the rule
        for a per-mode target.  An identity stage, ``(None, "identity")`` or
        ``m_prime`` equal to the intermediate dimension, is no stage: the
        plan's ``stage`` and ``second_stage`` are ``None``.  Any other stage
        is recorded, not drawn: a Gaussian one is drawn block by block as
        :func:`sketch_full` applies it, and reading ``plan.second_stage``
        draws the whole map.  Both variants and the stage's size are
        checked before any map is drawn.
    seed:
        Master seed, a nonnegative ``int`` or numpy integer (not a bool);
        mode ``j`` uses the derived seed ``(seed, 0, j)`` and the second
        stage ``(seed, 1)``.
    """
    seed = _integer(seed, "seed", low=0)
    shape = _shape(shape)
    if second_stage is None:
        second_stage = (None, "identity")  # dropped below, like every identity stage
    if not (isinstance(second_stage, (tuple, list)) and len(second_stage) == 2):
        raise ValueError(f"second_stage must be None or a pair (m_prime, variant), "
                         f"got {second_stage!r}")
    m_prime, stage_variant = second_stage
    for what, v in (("embedding", variant), ("second-stage", stage_variant)):
        if v not in VARIANTS:
            raise ValueError(f"unknown {what} variant {v!r}; expected one of {VARIANTS}")
    if m_prime is None and stage_variant != "identity":
        raise ValueError("second-stage target dim is required unless identity")

    if targets is None:
        targets = [None] * len(shape)
    elif isinstance(targets, (float, np.floating)):
        targets = targets_from_ratio(shape, float(targets))
    elif isinstance(targets, (int, np.integer, np.bool_)):
        raise ValueError(f"targets must be a float ratio or one target dim per mode, "
                         f"got the scalar {targets!r}")
    targets = list(targets)
    if len(targets) != len(shape):
        raise ValueError(f"{len(targets)} targets for a {len(shape)}-mode tensor")

    dims = [n if t is None else _integer(t, f"target dim for mode {mode}")
            for mode, (n, t) in enumerate(zip(shape, targets))]
    source = math.prod(dims)
    m_prime = source if m_prime is None else _integer(m_prime, "second-stage target dim")
    _check_size(stage_variant, m_prime, source)
    stage = (None if stage_variant == "identity"
             else _Stage(m_prime, stage_variant, derive_seed(seed, _STAGE2_STREAM)))
    embeddings = tuple(
        IdentityEmbedding(n) if t is None
        else _draw(variant, m, n, derive_seed(seed, _MODE_STREAM, mode))
        for mode, (n, t, m) in enumerate(zip(shape, targets, dims)))
    return SketchPlan(shape, embeddings, stage, variant, seed)


def plan_from_descriptor(text: str) -> SketchPlan:
    """Rebuild a plan from :meth:`SketchPlan.descriptor` output."""
    fields = text.strip().split()
    try:
        if len(fields) != 7 or fields[:2] != ["sketchplan", "v1"]:
            raise ValueError
        kv = dict(f.split("=", 1) for f in fields[2:])
        shape = tuple(int(n) for n in kv["shape"].split(","))
        targets = [None if t == "id" else int(t) for t in kv["targets"].split(",")]
        second: Optional[tuple[Optional[int], str]] = None
        if kv["second"] != "none":
            m_prime, stage_variant = kv["second"].split(":")
            second = (int(m_prime), stage_variant)
        variant, seed = kv["variant"], int(kv["seed"])
    except (KeyError, ValueError):
        raise ValueError(f"not a sketch plan descriptor: {text!r}") from None
    return make_plan(shape, targets, variant, second, seed)


def _cost_order(embeddings: Sequence[Embedding]) -> list[int]:
    """Modes in the order that makes a chain of mode products cheapest.

    A map taking extent n to m costs about m times the current size, which
    it then scales by m/n.  Sorting by ``1/m - 1/n`` descending, compared
    exactly over a common denominator, minimizes the total.  Ties keep
    ascending mode order, so uniform shapes run ascending, and identity
    modes (key 0) cost nothing wherever they land.
    """
    common = math.lcm(*(e.m * e.n for e in embeddings))
    keys = [(e.n - e.m) * (common // (e.m * e.n)) for e in embeddings]
    return sorted(range(len(keys)), key=lambda mode: -keys[mode])


def sketch_modewise(plan: SketchPlan, X: DenseTensor) -> DenseTensor:
    """Apply the per-mode embeddings, most compressive first.

    Mode products commute, so the order (:func:`_cost_order`) changes only
    the cost and the rounding, never the operator.
    """
    if X.shape != plan.shape:
        raise ValueError(f"tensor shape {X.shape} does not match plan shape {plan.shape}")
    return _apply_modes(plan, X, _cost_order(plan.mode_embeddings))


def _apply_modes(plan: SketchPlan, X: DenseTensor, modes: Sequence[int]) -> DenseTensor:
    """The plan's maps for ``modes`` applied to ``X`` one after another."""
    for mode in modes:
        X = plan.mode_embeddings[mode].apply_to_mode(X, mode)
    return X


def _sketch_all_but_one(plan: SketchPlan, X: DenseTensor) -> Iterator[DenseTensor]:
    """Yield ``X`` sketched on every mode except j, for j = 0 .. d-1 in turn.

    Target j is :func:`sketch_modewise` of the plan with mode j's map
    replaced by the identity, computed by the same operations: the identity
    has cost key 0 and the sort is stable, so that chain is the plan's cost
    order with j left out.  Consecutive targets share the prefix of the
    order before the mode they leave out, so one prefix is held between
    targets: extended when the next target's is longer, restarted from
    ``X`` when it is shorter.  On an ascending order (uniform shapes) that
    makes (d-1) + d(d-1)/2 mode products where separate sketches make
    d(d-1), and no order makes more.
    """
    order = _cost_order(plan.mode_embeddings)
    prefix, held = X, 0  # X with the first `held` maps of the order applied
    for j in range(plan.ndim):
        cut = order.index(j)
        if cut < held:
            prefix, held = X, 0
        prefix, held = _apply_modes(plan, prefix, order[held:cut]), cut
        yield _apply_modes(plan, prefix, order[cut + 1:])


def sketch_full(plan: SketchPlan, X: DenseTensor) -> np.ndarray:
    """The whole sketch as a vector: the modewise sketch vectorized, then
    the second-stage embedding if the plan has one.  A Gaussian stage is
    drawn as it is applied (:func:`_apply_stage`), about 2 MB of its matrix
    at a time; the values are those of ``plan.second_stage.apply``, whose
    read of ``plan.second_stage`` pays the full draw."""
    flat = vectorize(sketch_modewise(plan, X))
    return flat if plan.stage is None else _apply_stage(plan, flat)[0]


def _apply_stage(plan: SketchPlan, *operands) -> list[np.ndarray]:
    """The plan's second stage applied to each operand, a vector or the
    columns of a matrix, from one draw of its map.  A Gaussian stage is
    drawn into one buffer of ``_STAGE_BLOCK_SCALARS // N`` rows (at least
    one) at a time, each block scaled in place as :func:`gaussian_embedding`
    scales the whole matrix, so its rows are ``plan.second_stage.matrix``'s
    bit for bit and no ``m' x N`` array exists."""
    m, kind, stream = plan.stage
    if kind == "fjlt":
        stage = plan.second_stage
        return [stage.apply(x) for x in operands]
    n = plan.intermediate_dim
    operands = [_scalars(x) for x in operands]
    outs = [np.empty((m,) + x.shape[1:], dtype=x.dtype) for x in operands]
    rng, rows, scale = make_rng(stream), max(1, _STAGE_BLOCK_SCALARS // n), math.sqrt(m)
    buffer = np.empty((min(rows, m), n))  # every block is drawn into it
    for start in range(0, m, rows):
        block = buffer[:m - start]
        rng.standard_normal(out=block)
        block /= scale
        for x, out in zip(operands, outs):
            out[start:start + rows] = _contract(block, x, 0)
    return outs


def sketch_rank1(
    plan: SketchPlan, vectors: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Sketch a rank-one tensor factor by factor.

    Returns the per-mode embedded vectors and their 2-norms.  The outer
    product of the returned vectors equals the modewise sketch of the outer
    product of the inputs.
    """
    if len(vectors) != plan.ndim:
        raise ValueError(f"{len(vectors)} vectors for a {plan.ndim}-mode plan")
    sketched = []
    for mode, (e, v) in enumerate(zip(plan.mode_embeddings, vectors)):
        v = _scalars(v).ravel()
        if v.size != plan.shape[mode]:
            raise ValueError(f"vector for mode {mode} has length {v.size}, "
                             f"expected {plan.shape[mode]}")
        sketched.append(e.apply(v))
    norms = np.array([np.linalg.norm(v) for v in sketched])
    return sketched, norms


def _cube_side(total: int, d: int) -> int:
    side = max(1, int(round(total ** (1.0 / d))))
    while side ** d < total:
        side += 1
    while side > 1 and (side - 1) ** d >= total:
        side -= 1
    return side


def vector_subspace_sketch(
    x,
    d: int,
    targets: Union[int, float, Sequence[int], None],
    variant: str = "gaussian",
    second_stage: Optional[tuple[Optional[int], str]] = None,
    seed: int = 0,
) -> np.ndarray:
    """Sketch a long vector by reshaping it into a d-mode cube first.

    The vector is zero-padded up to the smallest d-th power, reshaped
    colexicographically, and sketched by :func:`sketch_full`.  ``targets``
    may be a per-mode sequence, a single ``int`` or numpy integer used for
    every mode (a bool is rejected), or a float compression ratio (see
    :func:`make_plan`).  Without a second stage the result is the
    vectorized modewise sketch.
    """
    d = _integer(d, "d", low=2)
    x = _scalars(x).ravel()
    if x.size == 0:
        raise ValueError("cannot sketch an empty vector")
    side = _cube_side(x.size, d)
    padded = np.zeros(side ** d, dtype=x.dtype)
    padded[: x.size] = x
    cube = DenseTensor(padded.reshape((side,) * d, order="F"), copy=False)

    if isinstance(targets, (int, np.integer)) and not isinstance(targets, bool):
        targets = (targets,) * d
    return sketch_full(make_plan(cube.shape, targets, variant, second_stage, seed), cube)

