"""Least squares machinery: synthetic low-rank data, exact and compressed
coefficient estimation, decoupled per-slice solves, and a CP-ALS fitter.

The exact problems are the sketched ones run through the all-identity plan
``make_plan(shape)``: each solver has one code path, and the identity maps
hand their inputs back unchanged.

The primary solver uses the normal equations of the (possibly sketched)
design matrix; when the Gram matrix is badly conditioned it falls back to
an SVD-based least-squares solve, and a genuinely rank-deficient basis
raises :class:`DegenerateBasisError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .diagnostics import CpModel, draw_unit_factors
from .embeddings import derive_seed, make_rng
from .sketch import SketchPlan, make_plan, sketch_modewise
from .tensor import DenseTensor, khatri_rao_design, norm, unfold, vectorize

__all__ = [
    "DegenerateBasisError",
    "SynthSpec",
    "LsSolution",
    "FitRecord",
    "synthesize",
    "ls_coefficients",
    "compressed_ls_coefficients",
    "decoupled_ls_slice",
    "decoupled_factor_update",
    "cp_als",
    "relative_norm",
    "relative_coefficient_norm",
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

# Stream tag for per-sweep sketch plans inside cp_als.
_SWEEP_STREAM = 2


class DegenerateBasisError(RuntimeError):
    """Raised when the least-squares basis is numerically rank deficient."""


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for synthetic exact-rank data.

    ``kind`` is ``"gaussian"`` (i.i.d. standard normal factor entries) or
    ``"coherent"`` (entries ``1 + sigma * g``, giving factor vectors that
    cluster around the constant direction).  Factors are unit-normalized
    after generation and all weights are 1.
    """

    shape: tuple[int, ...]
    rank: int
    kind: str = "gaussian"
    sigma: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) == 0 or min(self.shape) < 1:
            raise ValueError(f"invalid shape {self.shape}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.kind not in ("gaussian", "coherent"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "coherent":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("coherent data needs sigma > 0")

    def model(self) -> CpModel:
        """Draw the random exact-rank model without expanding it."""
        sigma = self.sigma if self.kind == "coherent" else None
        factors = draw_unit_factors(self.shape, self.rank, make_rng(self.seed), sigma)
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
    residual: float
    gram_cond: float
    c_n_alpha: Optional[float] = None


def _solve_ls(gram: np.ndarray, projected: np.ndarray, design: np.ndarray,
              rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``||rhs - design @ beta||`` for one or many right-hand sides.

    ``gram`` and ``projected`` are ``design^H design`` and ``design^H rhs``,
    which callers may form more cheaply than from ``design``.  Normal
    equations first; SVD fallback on ``(design, rhs)`` above
    GRAM_COND_LIMIT.  Returns the coefficients and the Gram condition
    number.  Raises RuntimeError on a non-finite Gram matrix and
    DegenerateBasisError when the design itself is rank deficient.
    """
    if not np.all(np.isfinite(gram)):
        raise RuntimeError("non-finite values in a least-squares problem; the data "
                           "or the iterates have diverged")
    cond = float(np.linalg.cond(gram))
    if np.isfinite(cond) and cond <= GRAM_COND_LIMIT:
        try:
            return np.linalg.solve(gram, projected), cond
        except np.linalg.LinAlgError:
            pass
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateBasisError(
            f"design matrix is rank deficient (rank {rank} < {design.shape[1]}); "
            "the basis tensors are numerically dependent")
    return coeffs, cond


def _sketched_ls(X: DenseTensor, factors: Sequence[np.ndarray], plan: SketchPlan,
                 reference: Optional[np.ndarray]) -> LsSolution:
    """Sketch the tensor once and each rank-one basis tensor factor by
    factor with ``plan``, then solve."""
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    shape = tuple(f.shape[0] for f in factors)
    if X.shape != shape:
        raise ValueError(f"factor dims {shape} do not match tensor shape {X.shape}")
    x_p = vectorize(sketch_modewise(plan, X))
    design = khatri_rao_design([e.apply(f) for e, f in zip(plan.mode_embeddings, factors)])
    if plan.second_stage is not None:
        x_p = plan.second_stage.apply(x_p)
        design = plan.second_stage.apply(design)
    coeffs, cond = _solve_ls(design.conj().T @ design, design.conj().T @ x_p, design, x_p)
    residual = float(np.linalg.norm(x_p - design @ coeffs))
    ratio = None if reference is None else relative_coefficient_norm(coeffs, reference)
    return LsSolution(coeffs, residual, cond, ratio)


def ls_coefficients(X: DenseTensor, factors: Sequence[np.ndarray],
                    reference: Optional[np.ndarray] = None) -> LsSolution:
    """Best coefficients expressing ``X`` over the rank-one basis given by
    the factor columns: the compressed problem under the identity plan."""
    return _sketched_ls(X, factors, make_plan(X.shape), reference)


def compressed_ls_coefficients(X: DenseTensor, factors: Sequence[np.ndarray],
                               plan: SketchPlan,
                               reference: Optional[np.ndarray] = None) -> LsSolution:
    """Coefficients from the sketched problem: the tensor is sketched once
    and each rank-one basis tensor is sketched factor by factor."""
    return _sketched_ls(X, factors, plan, reference)


def _slice_tensor(X: DenseTensor, mode: int, index: int) -> DenseTensor:
    row = unfold(X, mode)[index]
    rest = X.shape[:mode] + X.shape[mode + 1 :]
    if not rest:
        rest = (1,)
    return DenseTensor(row.reshape(rest, order="F"), copy=False)


def decoupled_ls_slice(X: DenseTensor, factors: Sequence[np.ndarray], mode: int,
                       index: int, plan: Optional[SketchPlan] = None) -> np.ndarray:
    """Solve one slice of the decoupled mode update.

    Fixes the factors of every mode except ``mode``, extracts slice
    ``index`` along it (one row of the unfolding, re-tensorized), and
    returns the best coefficients over the reduced rank-one basis.  The
    slice problem is sketched modewise with ``plan``, a plan for the
    reduced shape; without one it is solved exactly (the identity plan).
    """
    if not 0 <= mode < X.ndim:
        raise IndexError(f"mode {mode} out of range for a {X.ndim}-mode tensor")
    if not 0 <= index < X.shape[mode]:
        raise IndexError(f"slice {index} out of range for mode {mode} "
                         f"of extent {X.shape[mode]}")
    slice_t = _slice_tensor(X, mode, index)
    reduced_factors = [f for ell, f in enumerate(factors) if ell != mode]
    return _sketched_ls(slice_t, reduced_factors, plan or make_plan(slice_t.shape),
                        None).coefficients


def decoupled_factor_update(slice_coefficients: np.ndarray,
                            weights: np.ndarray) -> np.ndarray:
    """Turn stacked slice coefficients into factor entries by dividing out
    the model weights.  Rejects weights that are numerically zero."""
    weights = np.asarray(weights, dtype=np.complex128).ravel()
    if np.any(np.abs(weights) < 1e-12):
        raise ValueError("cannot update factors: a model weight is numerically zero")
    return np.asarray(slice_coefficients, dtype=np.complex128) / weights


@dataclass(frozen=True)
class FitRecord:
    """One ALS sweep: iteration number, relative error, elapsed seconds."""

    iteration: int
    e_cpd: float
    elapsed_s: float


def _gram_hadamard(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Hadamard product of the factor Grams ``A^H A``: the Gram matrix of
    their Khatri-Rao design."""
    rank = factors[0].shape[1]
    gram = np.ones((rank, rank), dtype=np.complex128)
    for f in factors:
        gram = gram * (f.conj().T @ f)
    return gram


def _als_mode_update(M: np.ndarray, others: Sequence[np.ndarray]) -> np.ndarray:
    """Solve ``min || M - W K^T ||_F`` for W, where K is the Khatri-Rao
    design of the fixed factors."""
    K = khatri_rao_design(others)
    return _solve_ls(_gram_hadamard(others), (M @ K.conj()).T, K, M.T)[0].T


def _gram_error(X: DenseTensor, norm_x: float, weights: np.ndarray,
                factors: Sequence[np.ndarray]) -> float:
    """Relative error of the CP model without expanding it:
    ``||X - M||^2 = ||X||^2 - 2 Re<X, M> + w^H (*_j A_j^H A_j) w``.

    ``<X, M>`` is one GEMM of X's contiguous mode against its factor,
    then column-wise contractions over the remaining modes.
    """
    data = X.data
    if data.flags.f_contiguous and not data.flags.c_contiguous:
        data, factors = data.T, factors[::-1]
    t = np.tensordot(data, factors[-1].conj(), axes=([data.ndim - 1], [0]))
    for f in reversed(factors[:-1]):
        t = np.einsum("...ir,ir->...r", t, f.conj())
    cross = float(np.real(np.vdot(weights, t)))
    model_sq = float(np.real(np.vdot(weights, _gram_hadamard(factors) @ weights)))
    e2 = (norm_x * norm_x - 2.0 * cross + model_sq) / (norm_x * norm_x)
    return math.sqrt(max(e2, 0.0))


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
    ascending order, solving each matricized subproblem via Khatri-Rao
    normal equations; after each mode update the factor columns are
    normalized and their norms absorbed into the weights.  The relative
    reconstruction error is recorded after every sweep and the iteration
    stops once its relative improvement falls below ``tol``.  Each sweep's
    error comes from the factor Grams and one contraction of ``X`` against
    the factors; the sweep that ends the fit, any sweep whose estimate falls
    below ``GRAM_ERROR_FLOOR``, and any sweep whose stopping test is within
    ``GRAM_ERROR_SLACK`` of flipping are evaluated against the dense model,
    so the stop and the last recorded error are those of the dense model.

    Every sweep draws ``make_plan(X.shape, compression, variant)`` from a
    seed derived from ``seed`` and sketches each subproblem modewise over
    the fixed modes.  ``compression`` is a ratio or per-mode target dims;
    ``None`` gives the identity plan, which is the exact problem.  Sketched
    sweeps trade monotonicity of the objective for speed.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if X.ndim < 2:
        raise ValueError("alternating least squares needs at least two modes")
    norm_x = norm(X)
    if norm_x == 0.0:
        raise ValueError("cannot fit a zero tensor")
    d = X.ndim

    rng = make_rng(derive_seed(seed, _SWEEP_STREAM, 0))
    factors = []
    for n in X.shape:
        f = rng.standard_normal((n, rank)).astype(np.complex128)
        factors.append(f / np.linalg.norm(f, axis=0))
    weights = np.ones(rank, dtype=np.complex128)

    history: list[FitRecord] = []
    start = time.perf_counter()
    prev_err: Optional[float] = None
    for sweep in range(max_iters):
        plan = make_plan(X.shape, compression, variant,
                         seed=derive_seed(seed, _SWEEP_STREAM, sweep + 1))
        for j in range(d):
            target = X
            others = []
            for ell, e in enumerate(plan.mode_embeddings):
                if ell != j:
                    target = e.apply_to_mode(target, ell)
                    others.append(e.apply(factors[ell]))
            W = _als_mode_update(unfold(target, j), others)
            norms = np.linalg.norm(W, axis=0)
            safe = np.where(norms > 0.0, norms, 1.0)
            factors[j] = W / safe
            weights = norms.astype(np.complex128)

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


def relative_coefficient_norm(estimated, reference) -> float:
    """2-norm ratio of estimated to reference coefficients."""
    denom = float(np.linalg.norm(np.asarray(reference, dtype=np.complex128)))
    if denom == 0.0:
        raise ValueError("relative coefficient norm undefined: reference is zero")
    return float(np.linalg.norm(np.asarray(estimated, dtype=np.complex128))) / denom


def relative_reconstruction_error(X: DenseTensor, X_hat: DenseTensor) -> float:
    """Relative reconstruction error ``||X - X_hat|| / ||X||``."""
    denom = norm(X)
    if denom == 0.0:
        raise ValueError("relative error undefined: the data tensor has zero norm")
    return norm(X - X_hat) / denom


def _norm_of(obj) -> float:
    if isinstance(obj, DenseTensor):
        return norm(obj)
    return float(np.linalg.norm(np.asarray(obj, dtype=np.complex128).ravel()))
