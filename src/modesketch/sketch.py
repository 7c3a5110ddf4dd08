"""Compose per-mode embeddings into modewise and two-stage tensor sketches.

A :class:`SketchPlan` holds one embedding per mode plus an optional second
stage acting on the vectorized intermediate tensor.  A plan is a pure
function of ``(shape, targets, variant, second stage, seed)``: per-mode
seeds are derived from the master seed with a fixed mix, so a short text
descriptor is enough to replay any experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .embeddings import (
    Embedding,
    IdentityEmbedding,
    derive_seed,
    fjlt_embedding,
    gaussian_embedding,
    make_rng,
)
from .tensor import DenseTensor, vectorize

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

# Stream tags for per-plan seed derivation.
_MODE_STREAM = 0
_STAGE2_STREAM = 1


def targets_from_ratio(shape: Sequence[int], ratio: float) -> tuple[int, ...]:
    """Per-mode target dims ``ceil(ratio * n_j)`` for a compression ratio."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"compression ratio must lie in (0, 1], got {ratio}")
    return tuple(math.ceil(ratio * n) for n in shape)


def _target_dim(value, what: str) -> int:
    """A target dim given as a positive ``int`` or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer or None, got {value!r}")
    return int(value)


def _draw(variant: str, m: int, n: int, seed: int, *key: int) -> Embedding:
    """An ``m x n`` embedding; a random variant draws from the stream
    ``derive_seed(seed, *key)``, the identity marker draws nothing."""
    if variant == "identity":
        if m != n:
            raise ValueError(f"identity marker cannot change dimension {n} to {m}")
        return IdentityEmbedding(n)
    if variant == "gaussian":
        return gaussian_embedding(m, n, make_rng(derive_seed(seed, *key)))
    if variant == "fjlt":
        return fjlt_embedding(m, n, make_rng(derive_seed(seed, *key)))
    raise ValueError(f"unknown embedding variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class SketchPlan:
    """Per-mode embeddings plus an optional second-stage embedding."""

    shape: tuple[int, ...]
    mode_embeddings: tuple[Embedding, ...]
    second_stage: Optional[Embedding]
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
        return self.second_stage.m if self.second_stage is not None else self.intermediate_dim

    def descriptor(self) -> str:
        """Deterministic one-line text form from which the plan can be rebuilt."""
        targets = ",".join(
            "id" if e.kind == "identity" else str(e.m) for e in self.mode_embeddings
        )
        stage = self.second_stage
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
    the tensor and the factors as they are, so the exact least-squares and
    CP-ALS problems are the sketched ones run through this plan.

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
        ``"gaussian"``, ``"fjlt"`` or ``"identity"`` for the non-identity
        modes.
    second_stage:
        ``None``, or ``(m_prime, variant)`` for a final embedding of the
        vectorized intermediate tensor; ``m_prime`` follows the rule for a
        per-mode target.  ``m_prime=None`` with variant ``"identity"`` keeps
        the intermediate dimension.
    seed:
        Master seed; mode ``j`` uses the derived seed ``(seed, 0, j)`` and
        the second stage ``(seed, 1)``.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or min(shape) < 1:
        raise ValueError(f"invalid tensor shape {shape}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown embedding variant {variant!r}; expected one of {VARIANTS}")

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

    embeddings: list[Embedding] = []
    for mode, (n, t) in enumerate(zip(shape, targets)):
        if t is None:
            embeddings.append(_draw("identity", n, n, seed))
            continue
        m = _target_dim(t, f"target dim for mode {mode}")
        embeddings.append(_draw(variant, m, n, seed, _MODE_STREAM, mode))

    stage2: Optional[Embedding] = None
    if second_stage is not None:
        m_prime, stage_variant = second_stage
        source = math.prod(e.m for e in embeddings)
        if m_prime is None:
            if stage_variant != "identity":
                raise ValueError("second-stage target dim is required unless identity")
            m_prime = source
        m_prime = _target_dim(m_prime, "second-stage target dim")
        stage2 = _draw(stage_variant, m_prime, source, seed, _STAGE2_STREAM)

    return SketchPlan(shape, tuple(embeddings), stage2, variant, int(seed))


def plan_from_descriptor(text: str) -> SketchPlan:
    """Rebuild a plan from :meth:`SketchPlan.descriptor` output."""
    fields = text.strip().split()
    if len(fields) != 7 or fields[0] != "sketchplan" or fields[1] != "v1":
        raise ValueError(f"not a sketch plan descriptor: {text!r}")
    kv = dict(f.split("=", 1) for f in fields[2:])
    shape = tuple(int(n) for n in kv["shape"].split(","))
    targets = [None if t == "id" else int(t) for t in kv["targets"].split(",")]
    second: Optional[tuple[Optional[int], str]] = None
    if kv["second"] != "none":
        m_prime, stage_variant = kv["second"].split(":")
        second = (int(m_prime), stage_variant)
    return make_plan(shape, targets, kv["variant"], second, int(kv["seed"]))


def _check_plan_shape(plan: SketchPlan, X: DenseTensor) -> None:
    if X.shape != plan.shape:
        raise ValueError(f"tensor shape {X.shape} does not match plan shape {plan.shape}")


def sketch_modewise(plan: SketchPlan, X: DenseTensor) -> DenseTensor:
    """Apply the per-mode embeddings in ascending mode order."""
    _check_plan_shape(plan, X)
    out = X
    for mode, e in enumerate(plan.mode_embeddings):
        out = e.apply_to_mode(out, mode)
    return out


def sketch_full(plan: SketchPlan, X: DenseTensor) -> np.ndarray:
    """Two-stage sketch: vectorize the modewise sketch, then apply the
    second-stage embedding."""
    if plan.second_stage is None:
        raise ValueError("plan has no second stage; use sketch_modewise")
    return plan.second_stage.apply(vectorize(sketch_modewise(plan, X)))


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
        v = np.asarray(v, dtype=np.complex128).ravel()
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
    colexicographically, and pushed through a two-stage sketch.  ``targets``
    may be a per-mode sequence, a single ``int`` or numpy integer used for
    every mode (a bool is rejected), or a float compression ratio (see
    :func:`make_plan`).  When no second stage is requested an identity
    stage is used, so the result is the vectorized modewise sketch.
    """
    if d < 2:
        raise ValueError(f"need at least two modes, got d={d}")
    x = np.asarray(x, dtype=np.complex128).ravel()
    if x.size == 0:
        raise ValueError("cannot sketch an empty vector")
    side = _cube_side(x.size, d)
    padded = np.zeros(side ** d, dtype=np.complex128)
    padded[: x.size] = x
    cube = DenseTensor(padded.reshape((side,) * d, order="F"), copy=False)

    if isinstance(targets, (int, np.integer)) and not isinstance(targets, bool):
        targets = (targets,) * d
    if second_stage is None:
        second_stage = (None, "identity")
    plan = make_plan(cube.shape, targets, variant, second_stage, seed)
    return sketch_full(plan, cube)

