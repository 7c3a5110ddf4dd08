"""CP models in standard form and their coherence diagnostics.

A rank-r CP model keeps r weights and, per mode, a matrix whose columns
are the factor vectors.  Standard form means every factor column has unit
2-norm; the coherence quantities below are only defined for models in
standard form, so those entry points validate and reject rather than
silently renormalizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embeddings import make_rng
from .tensor import DenseTensor, _integer, _scalars, _shape, norm, outer_product

__all__ = [
    "CpModel",
    "CoherenceReport",
    "CoefficientNormBound",
    "coherence",
    "coefficient_norm_bound",
    "subgaussian_coherence_check",
    "normalize",
]

# Unit-norm check used by all standard-form entry points.
STANDARD_FORM_TOL = 1e-12


@dataclass(frozen=True)
class CpModel:
    """Weights plus per-mode factor matrices (columns are factor vectors)."""

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        weights = _scalars(self.weights).ravel()
        factors = tuple(_scalars(f) for f in self.factors)
        r = weights.size
        if r < 1:
            raise ValueError("a CP model needs rank at least 1")
        if len(factors) < 1:
            raise ValueError("a CP model needs at least one mode")
        for mode, f in enumerate(factors):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(f"factor matrix for mode {mode} must have {r} columns, "
                                 f"got shape {f.shape}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def to_tensor(self) -> DenseTensor:
        """Dense expansion: the weighted sum of the rank-one terms.

        Row k of an ``(r, N / n_last)`` array holds the outer product of
        term k over the leading modes, its weight folded into the first
        factor column; one GEMM against the last factor matrix then sums
        the terms, C-ordered.  A 1-mode model is ``factor @ weights``.
        """
        *lead, last = self.factors
        if not lead:
            return DenseTensor(last @ self.weights, copy=False)
        first, *rest = lead
        terms = np.empty((self.rank, math.prod(f.shape[0] for f in lead)),
                         dtype=np.result_type(self.weights, *self.factors))
        for k in range(self.rank):
            terms[k] = outer_product([first[:, k] * self.weights[k],
                                      *(f[:, k] for f in rest)]).data.ravel()
        return DenseTensor((terms.T @ last.T).reshape(self.shape), copy=False)

    def is_standard_form(self) -> bool:
        return all(np.all(np.abs(np.linalg.norm(f, axis=0) - 1.0) <= STANDARD_FORM_TOL)
                   for f in self.factors)


def normalize(model: CpModel) -> CpModel:
    """Fold factor-column norms into the weights, leaving unit columns."""
    new_factors = []
    scale = np.ones(model.rank)
    for mode, f in enumerate(model.factors):
        norms = np.linalg.norm(f, axis=0)
        if np.any(norms == 0.0):
            raise ValueError(f"mode {mode} has a zero factor column; cannot normalize")
        new_factors.append(f / norms)
        scale = scale * norms
    return CpModel(model.weights * scale, tuple(new_factors))


@dataclass(frozen=True)
class CoherenceReport:
    """Per-mode and cross-mode coherences of a CP basis."""

    mode_coherences: tuple[float, ...]
    max_modewise: float
    basis_coherence: float
    rank: int
    admissible: bool

    @property
    def ndim(self) -> int:
        return len(self.mode_coherences)

    @property
    def product_of_mode_coherences(self) -> float:
        return float(np.prod(self.mode_coherences))

    def as_text(self) -> str:
        lines = [f"rank={self.rank}", f"modes={self.ndim}"]
        lines += [f"mode_coherence_{ell}={mu!r}" for ell, mu in enumerate(self.mode_coherences)]
        lines += [
            f"max_modewise_coherence={self.max_modewise!r}",
            f"basis_coherence={self.basis_coherence!r}",
            f"admissible={str(self.admissible).lower()}",
        ]
        return "\n".join(lines)


def coherence(model: CpModel) -> CoherenceReport:
    """Coherence report for a standard-form model.

    Per mode, the coherence is the largest absolute inner product between
    distinct factor columns; the basis coherence takes, over distinct
    column pairs, the largest product of those inner products across all
    modes.  Rank 1 has no pairs, so every coherence is 0 by convention.
    The admissibility flag records whether ``max_modewise ** (d-1)`` stays
    below ``1 / (2 r)``.
    """
    if not model.is_standard_form():
        raise ValueError("model is not in standard form (factor columns must have unit "
                         "2-norm); call normalize() first")
    r, d = model.rank, model.ndim
    if r == 1:
        return CoherenceReport((0.0,) * d, 0.0, 0.0, 1, True)

    off = ~np.eye(r, dtype=bool)
    mode_mus = []
    pair_products = np.ones((r, r))
    for f in model.factors:
        gram_abs = np.abs(f.conj().T @ f)
        mode_mus.append(float(gram_abs[off].max()))
        pair_products = pair_products * gram_abs
    mu = max(mode_mus)
    mu_prime = float(pair_products[off].max())
    admissible = mu ** (d - 1) < 1.0 / (2.0 * r)
    return CoherenceReport(tuple(mode_mus), mu, mu_prime, r, admissible)


@dataclass(frozen=True)
class CoefficientNormBound:
    """Bounds on ``||weights||^2 / ||tensor||^2`` implied by the basis coherence.

    ``vacuous`` is set when the basis coherence reaches ``1/(r-1)`` and the
    upper bound carries no information (it is reported as ``inf``).  The
    lower bound holds regardless.  ``ratio`` is the empirically computed
    value from the dense expansion, for verification.
    """

    lower: float
    upper: float
    ratio: float
    vacuous: bool


def coefficient_norm_bound(model: CpModel) -> CoefficientNormBound:
    mu_prime = coherence(model).basis_coherence
    r = model.rank

    # An expansion that cancels leaves a rounding residue, not an exact 0:
    # compare its norm with the sum of the term norms.
    term_norms = np.abs(model.weights) * np.prod([np.linalg.norm(f, axis=0)
                                                  for f in model.factors], axis=0)
    dense_norm = norm(model.to_tensor())
    if dense_norm <= 4 * r * np.finfo(float).eps * term_norms.sum():
        raise ValueError("model expands to the zero tensor; the ratio is undefined")
    ratio = float(np.linalg.norm(model.weights) ** 2) / dense_norm ** 2

    lower = 1.0 / (1.0 + (r - 1) * mu_prime)
    if (r - 1) * mu_prime < 1.0:
        return CoefficientNormBound(lower, 1.0 / (1.0 - (r - 1) * mu_prime), ratio, False)
    return CoefficientNormBound(lower, float("inf"), ratio, True)


@dataclass(frozen=True)
class SubgaussianCoherenceStats:
    """Max-modewise coherences observed over random Gaussian models."""

    coherences: tuple[float, ...]

    @property
    def max(self) -> float:
        return max(self.coherences)

    @property
    def median(self) -> float:
        return float(np.median(self.coherences))


def draw_unit_factors(shape: Sequence[int], rank: int, rng: np.random.Generator,
                      sigma: Optional[float] = None) -> tuple[np.ndarray, ...]:
    """Per mode, an ``n x rank`` draw of standard normals ``g`` (or
    ``1 + sigma * g`` when ``sigma`` is given) with unit-norm columns.
    Modes are drawn in order from ``rng``."""
    factors = []
    for n in _shape(shape):
        g = rng.standard_normal((n, rank))
        f = g if sigma is None else 1.0 + sigma * g
        factors.append(f / np.linalg.norm(f, axis=0))
    return tuple(factors)


def gaussian_cp_model(shape: Sequence[int], rank: int,
                      rng: np.random.Generator) -> CpModel:
    """Unit weights with i.i.d. standard Gaussian factors, columns normalized."""
    rank = _integer(rank, "rank")
    return CpModel(np.ones(rank), draw_unit_factors(shape, rank, rng))


def subgaussian_coherence_check(n: int, r: int, d: int, trials: int,
                                seed: int = 0) -> SubgaussianCoherenceStats:
    """Empirical max-modewise coherence of random Gaussian CP bases.

    Draws ``trials`` models with n-dimensional normalized Gaussian factors
    and reports the max-modewise coherence of each; random bases of this
    kind are incoherent with high probability, and the returned statistics
    make that concrete for given ``(n, r, d)``.
    """
    for value, what in ((n, "n"), (r, "r"), (d, "d"), (trials, "trials")):
        _integer(value, what)
    rng = make_rng(seed)
    samples = []
    for _ in range(trials):
        model = gaussian_cp_model((n,) * d, r, rng)
        samples.append(coherence(model).max_modewise)
    return SubgaussianCoherenceStats(tuple(samples))
