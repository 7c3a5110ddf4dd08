"""Least squares machinery: synthetic low-rank data, exact and compressed
coefficient estimation, decoupled per-slice solves, and a CP-ALS fitter.

Every least-squares problem is a sketched one (the exact ones run through
the all-identity plan ``make_plan(shape)``), solved one block of plans at a
time; the three public solvers share one single-plan helper.  Without a
second stage neither the design nor the sketched tensor is formed: the
Gram is the Hadamard product of the sketched factor Grams, and a block's
projections come from one r-column-per-plan pass over the tensor against
the sketched factors pulled back through each map's adjoint (``S^H S A``).
The fallback takes ``S X`` from :func:`sketch_full`; a second stage maps
the design and the modewise sketch of ``X`` through one draw.  A badly
conditioned Gram sends the solve to an SVD-based least-squares fallback on
the design, and a rank-deficient basis raises :class:`DegenerateBasisError`.

CP-ALS shares that solve, not the plan.  An exact sweep runs on a dimension
tree: two r-column passes over the tensor, which it unfolds, like the
Khatri-Rao design, only for the fallback.  A sketched sweep unfolds each
partially sketched tensor and forms each sketched design.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .diagnostics import CpModel, draw_unit_factors
from .embeddings import _SWEEP_STREAM, derive_seed, make_rng
from .sketch import (SketchPlan, _apply_stage, _sketch_all_but_one, make_plan, sketch_full,
                     sketch_modewise)
from .tensor import (DenseTensor, _check_axis, _contract, _integer, _shape, khatri_rao_design,
                     norm, unfold, vectorize)

__all__ = [
    "DegenerateBasisError",
    "SynthSpec",
    "LsSolution",
    "FitRecord",
    "synthesize",
    "ls_coefficients",
    "compressed_ls_coefficients",
    "decoupled_ls_slice",
    "cp_als",
    "relative_norm",
    "relative_reconstruction_error",
]

# Above this Gram condition number the solver abandons the normal equations.
GRAM_COND_LIMIT = 1e8

# cp_als estimates each sweep's relative error e from the factor Grams.  The
# estimate loses about 1e-15 absolutely in e^2, hence about 1e-15/(2e) in e,
# which stays under GRAM_ERROR_SLACK only while e is above GRAM_ERROR_FLOOR.
# A sweep under the floor, or one whose stopping test the slack could flip,
# is re-evaluated against the dense model.
GRAM_ERROR_FLOOR = 1e-5
GRAM_ERROR_SLACK = 1e-10


class DegenerateBasisError(RuntimeError):
    """Raised when the least-squares basis is numerically rank deficient."""


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for synthetic exact-rank data.

    ``kind`` is ``"gaussian"`` (i.i.d. standard normal factor entries) or
    ``"coherent"`` (entries ``1 + sigma * g``, giving factor vectors that
    cluster around the constant direction); ``sigma`` is given for coherent
    data only.  Factors are unit-normalized after generation and all weights
    are 1.
    """

    shape: tuple[int, ...]
    rank: int
    kind: str = "gaussian"
    sigma: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", _shape(self.shape))
        _integer(self.rank, "rank")
        _integer(self.seed, "seed", low=0)
        if self.kind not in ("gaussian", "coherent"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "coherent" and not 0 < (self.sigma or 0) < math.inf:
            raise ValueError(f"coherent data needs a finite sigma > 0, got {self.sigma!r}")
        if self.kind == "gaussian" and self.sigma is not None:
            raise ValueError("sigma applies only to coherent data, not to kind 'gaussian'")

    def model(self) -> CpModel:
        """Draw the random exact-rank model without expanding it."""
        factors = draw_unit_factors(self.shape, self.rank, make_rng(self.seed), self.sigma)
        return CpModel(np.ones(self.rank), factors)


def synthesize(spec: SynthSpec) -> tuple[CpModel, DenseTensor]:
    """Draw a random exact-rank model and its dense expansion."""
    model = spec.model()
    return model, model.to_tensor()


@dataclass(frozen=True)
class LsSolution:
    """Least-squares coefficients with solve diagnostics.

    ``gram_cond`` is the condition number of the normal-equations Gram
    matrix; ``c_n_alpha`` is the coefficient-norm ratio against reference
    coefficients when they were supplied, else ``None``.
    """

    coefficients: np.ndarray
    gram_cond: float
    c_n_alpha: Optional[float] = None


def _gram_hadamard(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Hadamard product of the factor Grams ``A^H A``: the Gram matrix of
    their Khatri-Rao design."""
    rank = factors[0].shape[1]
    gram = np.ones((rank, rank), dtype=factors[0].dtype)
    for f in factors:
        gram = gram * (f.conj().T @ f)
    return gram


def _solve_ls(gram: np.ndarray, projected: np.ndarray,
              system: Callable[[], tuple[np.ndarray, np.ndarray]],
              source: str) -> tuple[np.ndarray, float]:
    """Coefficients ``beta``, one row per row of ``rows`` (a vector for one
    right-hand side), minimizing ``||rows - beta design^T||_F``, given
    ``gram = design^H design`` and ``projected = design^H rows^T``.

    Normal equations first; above GRAM_COND_LIMIT, ``system()`` supplies
    ``(design, rows)`` for an SVD solve, so only the fallback needs the
    design.  Returns ``beta`` and the Gram condition number.  Raises
    RuntimeError on non-finite values, naming their ``source``, and
    DegenerateBasisError when the design itself is rank deficient.
    """
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(projected))):
        raise RuntimeError(f"non-finite values in a least-squares problem; {source}")
    cond = float(np.linalg.cond(gram))
    if np.isfinite(cond) and cond <= GRAM_COND_LIMIT:
        try:
            return np.linalg.solve(gram, projected).T, cond
        except np.linalg.LinAlgError:
            pass
    design, rows = system()
    coeffs, _, rank, _ = np.linalg.lstsq(design, rows.T, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateBasisError(
            f"design matrix is rank deficient (rank {rank} < {design.shape[1]}); "
            "the basis tensors are numerically dependent")
    return coeffs.T, cond


def _sketched_ls(X: DenseTensor, factors: Sequence[np.ndarray],
                 plans: Iterable[SketchPlan]) -> Iterator[list[LsSolution]]:
    """Solve the problem sketched by each plan, yielding the solutions of
    one block of consecutive plans at a time.

    Each rank-one basis tensor is sketched factor by factor.  Without a
    second stage the tensor is not sketched:
    ``(*_l S_l A_l)^H (S_d (x) ... (x) S_1) vec X = (*_l S_l^H S_l A_l)^H vec X``,
    so the projection is a pass over ``X`` against the sketched factors
    pulled back through each map's adjoint.  Column k of that contraction
    involves only column k of each factor, so the unstaged plans of a block
    share one pass against their column-stacked pulled-back factors.  A
    block holds B = max(1, n_c // (2r)) plans, n_c being the extent
    :func:`_contraction_order` puts first, so the pass's first intermediate
    holds at most half of ``X``'s scalars: half its bytes, or all of them where
    FJLT maps make the pulled-back factors of real ``X`` complex and the real
    GEMM has 2rB columns.  Plans are drawn, and their shapes checked, one block
    at a time, before any of the block's maps is applied.  Each plan keeps its
    own Gram, solve and fallback; ``X`` is sketched and the design formed only
    for a second stage or the SVD fallback."""
    factors = [np.asarray(f) for f in factors]
    if (any(f.ndim != 2 for f in factors) or len({f.shape[1] for f in factors}) > 1
            or not all(np.isfinite(f).all() for f in factors)):
        raise ValueError(f"factors must be finite matrices with one column count, got "
                         f"shapes {[f.shape for f in factors]}")
    shape = tuple(f.shape[0] for f in factors)
    if X.shape != shape:
        raise ValueError(f"factor dims {shape} do not match tensor shape {X.shape}")
    rank = factors[0].shape[1]
    n_c = _contraction_order(X.data, factors)[0].shape[-1]
    plans = iter(plans)
    while block := list(islice(plans, max(1, n_c // max(1, 2 * rank)))):
        for plan in block:
            if X.shape != plan.shape:
                raise ValueError(f"tensor shape {X.shape} does not match plan shape "
                                 f"{plan.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite data fails in _solve_ls
            sketched = [[e.apply(f) for e, f in zip(plan.mode_embeddings, factors)]
                        for plan in block]
            unstaged = [k for k, plan in enumerate(block) if plan.stage is None]
            projected = {}
            if unstaged:
                pulled = [[e.adjoint(s) for e, s in zip(block[k].mode_embeddings, sketched[k])]
                          for k in unstaged]
                # A lone plan's factors go in as they are: its solve is the unbatched one.
                stacked = [np.hstack(c) if len(c) > 1 else c[0] for c in zip(*pulled)]
                t = _contract_factors(X.data, stacked)[0]
                projected = {k: t[i * rank:(i + 1) * rank] for i, k in enumerate(unstaged)}
            solutions = [_solve_sketched(X, plan, s, projected.get(k))
                         for k, (plan, s) in enumerate(zip(block, sketched))]
        yield solutions


def _solve_sketched(X: DenseTensor, plan: SketchPlan, sketched: list[np.ndarray],
                    projected: Optional[np.ndarray]) -> LsSolution:
    """One plan's solve from its sketched factors and, without a second
    stage, its projection ``(*_l S_l^H S_l A_l)^H vec X``.  A second stage
    maps the design and the modewise sketch of ``X`` from one draw."""
    if plan.stage is None:
        gram = _gram_hadamard(sketched)
        system = lambda: (khatri_rao_design(sketched), sketch_full(plan, X))  # noqa: E731
    else:
        design, x_p = _apply_stage(plan, khatri_rao_design(sketched),
                                   vectorize(sketch_modewise(plan, X)))
        gram, projected = design.conj().T @ design, x_p @ design.conj()
        system = lambda: (design, x_p)  # noqa: E731
    return LsSolution(*_solve_ls(gram, projected, system,
                                 "the data has a non-finite entry or overflows"))


def _solve_one(X: DenseTensor, factors: Sequence[np.ndarray], plan: SketchPlan,
               reference: Optional[np.ndarray] = None) -> LsSolution:
    """The single-plan solve, with ``c_n_alpha`` against ``reference`` if given."""
    s = next(_sketched_ls(X, factors, [plan]))[0]
    ratio = None if reference is None else relative_norm(s.coefficients, reference)
    return LsSolution(s.coefficients, s.gram_cond, ratio)


def ls_coefficients(X: DenseTensor, factors: Sequence[np.ndarray],
                    reference: Optional[np.ndarray] = None) -> LsSolution:
    """Best coefficients expressing ``X`` over the rank-one basis given by
    the factor columns: the compressed problem under the identity plan."""
    return _solve_one(X, factors, make_plan(X.shape), reference)


def compressed_ls_coefficients(X: DenseTensor, factors: Sequence[np.ndarray],
                               plan: SketchPlan,
                               reference: Optional[np.ndarray] = None) -> LsSolution:
    """Coefficients from the problem sketched by ``plan``; without a second
    stage ``X`` itself is never sketched."""
    return _solve_one(X, factors, plan, reference)


def decoupled_ls_slice(X: DenseTensor, factors: Sequence[np.ndarray], mode: int,
                       index: int, plan: Optional[SketchPlan] = None) -> np.ndarray:
    """Solve one slice of the decoupled mode update.

    Fixes the factors of every mode except ``mode``, extracts slice
    ``index`` along it (one row of the unfolding, re-tensorized), and
    returns the best coefficients over the reduced rank-one basis.  The
    slice problem is sketched modewise with ``plan``, a plan for the
    reduced shape; without one it is solved exactly (the identity plan).
    """
    if X.ndim < 2:
        raise ValueError("a decoupled slice solve needs at least two modes")
    _check_axis(X.shape, mode)
    if not 0 <= _integer(index, "slice index", low=None) < X.shape[mode]:
        raise IndexError(f"slice {index} out of range for mode {mode} "
                         f"of extent {X.shape[mode]}")
    slice_t = DenseTensor(np.take(X.data, index, axis=mode), copy=False)
    reduced_factors = [f for ell, f in enumerate(factors) if ell != mode]
    return _solve_one(slice_t, reduced_factors, plan or make_plan(slice_t.shape)).coefficients


@dataclass(frozen=True)
class FitRecord:
    """One ALS sweep: iteration number, relative error, elapsed seconds."""

    iteration: int
    e_cpd: float
    elapsed_s: float


def _contraction_order(data: np.ndarray, factors: Sequence[np.ndarray]):
    """``data`` and ``factors`` turned so that the contiguous axis is last."""
    f_only = data.flags.f_contiguous and not data.flags.c_contiguous
    return (data.T, factors[::-1]) if f_only else (data, factors)


def _contract_factors(data: np.ndarray, factors: Sequence[np.ndarray]):
    """``design^H vec(data)`` for the Khatri-Rao design of ``factors``,
    contiguous mode first; also the factors in contraction order
    (:func:`_contraction_order`)."""
    data, factors = _contraction_order(data, factors)
    return _contract_last(data, factors), factors


def _contract_last(data: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """``data`` contracted over its last ``len(factors)`` axes against the
    conjugated factors, rank axis last: one :func:`_contract` GEMM on the
    last axis, which copies neither C- nor F-ordered data, and one einsum
    per other axis."""
    t = _contract(factors[-1].conj().T, data, data.ndim - 1)
    for f in reversed(factors[:-1]):
        t = np.einsum("...ir,ir->...r", t, f.conj())
    return t


def _relative_error(norm_x: float, weights: np.ndarray, factors: Sequence[np.ndarray],
                    cross: float) -> float:
    """Relative error of the CP model without expanding it, from the cross
    term ``Re<X, M>``: ``||X - M||^2 = ||X||^2 - 2 Re<X, M> + w^H (*_j A_j^H A_j) w``."""
    model_sq = float(np.real(np.vdot(weights, _gram_hadamard(factors) @ weights)))
    e2 = (norm_x * norm_x - 2.0 * cross + model_sq) / (norm_x * norm_x)
    return math.sqrt(max(e2, 0.0))


def _gram_error(X: DenseTensor, norm_x: float, weights: np.ndarray,
                factors: Sequence[np.ndarray]) -> float:
    """:func:`_relative_error` with the cross term from one pass over ``X``."""
    t, factors = _contract_factors(X.data, factors)
    return _relative_error(norm_x, weights, factors, float(np.real(np.vdot(weights, t))))


def _als_update(others: Sequence[np.ndarray], projected: np.ndarray,
                system: Callable[[], tuple[np.ndarray, np.ndarray]]):
    """One mode update from the other modes' (sketched) factors and the
    MTTKRP ``projected``: the least-squares solve, then the columns
    normalized.  Returns the new factor and the weights."""
    W = _solve_ls(_gram_hadamard(others), projected, system, "the iterates have diverged")[0]
    norms = np.linalg.norm(W, axis=0)
    return W / np.where(norms > 0.0, norms, 1.0), norms


def _tree_sweep(X: DenseTensor, norm_x: float, factors: list) -> tuple[np.ndarray, float]:
    """One exact sweep on a dimension tree, updating ``factors`` in place;
    returns the weights and the Gram-estimated relative error.

    ``X`` is contracted over its last d - h modes (h = ceil(d/2)), and each
    of modes 0..h-1 is updated from that partial result; then ``X.T`` is
    contracted over the first h modes with their new factors, and each of
    modes h..d-1 is updated.  A mode's MTTKRP is its half's partial result
    contracted over the half's other modes.  The cross term ``Re<X, M>``
    is the last MTTKRP against the last factor, so the error needs no pass
    of its own.  ``unfold`` and the design are built only for the fallback.
    """
    d, h = X.ndim, (X.ndim + 1) // 2
    for data, modes, k in ((X.data, list(range(d)), h), (X.data.T, list(range(d))[::-1], d - h)):
        kept = modes[:k]  # the partial result's leading axes, in order
        partial = _contract_last(data, [factors[ell] for ell in modes[k:]])
        for j in sorted(kept):
            operands = [partial, list(range(k + 1))]
            for axis, ell in enumerate(kept):
                if ell != j:
                    operands += [factors[ell].conj(), [axis, k]]
            projected = np.einsum(*operands, [k, kept.index(j)])
            others = [f for ell, f in enumerate(factors) if ell != j]
            factors[j], weights = _als_update(
                others, projected, lambda: (khatri_rao_design(others), unfold(X, j)))
    cross = float(np.real(np.vdot(weights, np.einsum("ri,ir->r", projected, factors[-1].conj()))))
    return weights, _relative_error(norm_x, weights, factors, cross)


def cp_als(
    X: DenseTensor,
    rank: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    compression: Union[float, Sequence[int], None] = None,
    variant: str = "gaussian",
) -> tuple[CpModel, list[FitRecord]]:
    """Fit a rank-``rank`` CP model by alternating least squares.

    Starts from normalized Gaussian factors and cycles the modes in
    ascending order, solving each subproblem by its Khatri-Rao normal
    equations; after each mode update the factor columns are normalized
    and their norms absorbed into the weights.  The relative
    reconstruction error is recorded after every sweep and the iteration
    stops once its relative improvement falls below ``tol``.  Each sweep's
    error comes from the factor Grams and the cross term ``Re<X, M>``; the
    sweep that ends the fit, any sweep whose estimate falls below
    ``GRAM_ERROR_FLOOR``, and any sweep whose stopping test is within
    ``GRAM_ERROR_SLACK`` of flipping are evaluated against the dense model,
    so the stop and the last recorded error are those of the dense model.

    ``compression`` is a ratio or per-mode target dims for the plan
    ``make_plan(X.shape, compression, variant)``; ``None`` (or all-``None``
    targets) gives the identity plan, the exact problem.  An exact fit
    draws that plan once and runs each sweep on a dimension tree
    (:func:`_tree_sweep`): two passes over ``X``, whose last MTTKRP also
    gives the cross term.  A sketched fit draws a plan every sweep, from a
    seed derived from ``seed``, and sketches each subproblem modewise over
    the fixed modes.  The fixed modes are applied in the plan's cost order,
    not in the update order, and the sweep's d targets come from one walk
    of that order that shares its prefixes between them; each target equals
    :func:`sketch_modewise` on the plan with the updated mode's map replaced
    by the identity, and the cross term takes one more pass over ``X``.
    Sketched sweeps trade monotonicity of the objective for speed.  Data
    with a non-finite norm (a NaN or infinite entry, or squares that
    overflow) is rejected before the first sweep.
    """
    rank, max_iters = _integer(rank, "rank"), _integer(max_iters, "max_iters")
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if X.ndim < 2:
        raise ValueError("alternating least squares needs at least two modes")
    norm_x = norm(X)
    if norm_x == 0.0:
        raise ValueError("cannot fit a zero tensor")
    if not math.isfinite(norm_x):
        raise ValueError(f"cannot fit a tensor of norm {norm_x}")

    rng = make_rng(derive_seed(seed, _SWEEP_STREAM, 0))
    factors, weights = list(draw_unit_factors(X.shape, rank, rng)), np.ones(rank)
    plan = make_plan(X.shape, compression, variant, seed=derive_seed(seed, _SWEEP_STREAM, 1))
    exact = all(e.kind == "identity" for e in plan.mode_embeddings)

    history: list[FitRecord] = []
    start = time.perf_counter()
    prev_err: Optional[float] = None
    for sweep in range(max_iters):
        if exact:
            weights, err = _tree_sweep(X, norm_x, factors)
        else:
            if sweep:
                plan = make_plan(X.shape, compression, variant,
                                 seed=derive_seed(seed, _SWEEP_STREAM, sweep + 1))
            # next(), not enumerate(), which would hold each target through
            # the next one's sketch.
            targets = _sketch_all_but_one(plan, X)
            for j in range(X.ndim):
                target = next(targets)
                others = [e.apply(f) for ell, (e, f)
                          in enumerate(zip(plan.mode_embeddings, factors)) if ell != j]
                design, rows = khatri_rao_design(others), unfold(target, j)
                factors[j], weights = _als_update(others, (rows @ design.conj()).T,
                                                  lambda: (design, rows))
                del target, design, rows  # not held through the next mode's sketch
            del targets  # drops the held prefix before the error check
            err = _gram_error(X, norm_x, weights, factors)

        if (err < GRAM_ERROR_FLOOR or sweep == max_iters - 1
                or _converged(prev_err, err + GRAM_ERROR_SLACK, tol)):
            err = relative_reconstruction_error(X, CpModel(weights, tuple(factors)).to_tensor())
        if not math.isfinite(err):
            raise RuntimeError(f"CP-ALS objective became non-finite at sweep {sweep + 1} "
                               f"(e_cpd={err}); aborting")
        history.append(FitRecord(sweep + 1, err, time.perf_counter() - start))
        if _converged(prev_err, err, tol):
            break
        prev_err = err

    return CpModel(weights, tuple(factors)), history


def _converged(prev_err: Optional[float], err: float, tol: float) -> bool:
    return prev_err is not None and prev_err - err < tol * max(prev_err, 1e-300)


def relative_norm(sketched, original) -> float:
    """Norm ratio of a sketched object to the original."""
    denom = _norm_of(original)
    if denom == 0.0:
        raise ValueError("relative norm undefined: the reference has zero norm")
    return _norm_of(sketched) / denom


def relative_reconstruction_error(X: DenseTensor, X_hat: DenseTensor) -> float:
    """Relative reconstruction error ``||X - X_hat|| / ||X||``."""
    return relative_norm(X - X_hat, X)


def _norm_of(obj) -> float:
    """Euclidean norm of a tensor or an array; an array whose squares
    overflow, though every entry is finite, is scaled by its largest
    magnitude first."""
    if isinstance(obj, DenseTensor):
        return norm(obj)
    x = np.ravel(obj)
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(x))
    if value == math.inf and np.isfinite(x).all():
        scale = np.abs(x).max()
        value = float(scale * np.linalg.norm(x / scale))
    return value
