"""Random linear maps used as per-mode sketching blocks.

Two families are provided: explicit Gaussian matrices, and an implicit
subsampled-DFT operator (random sign flip, unnormalized FFT, random row
restriction) that stores only its signs and rows.  A short subsampled-DFT
map applied to at least as many fibers as it has rows runs as one GEMM with
its matrix, built for that call only (see :class:`FJLTEmbedding` for the
rule); any other application runs through FFTs in O(n log n) per fiber.  An
identity marker rounds out the set so that sketch plans can leave modes
untouched.  Every class carries a constant ``kind`` tag naming its variant,
which plan descriptors record.

Both random families are scaled so that ``E ||A x||^2 = ||x||^2`` for any
fixed vector ``x``.  For the subsampled DFT that choice is ``1/sqrt(m)``
with the unnormalized transform; equivalently ``sqrt(n/m)`` with a unitary
DFT.  When ``m == n`` the operator is an exact isometry.

All randomness flows through explicitly seeded generators; identical
seeds reproduce identical maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .tensor import DenseTensor, _check_axis, _contract, mode_product

__all__ = [
    "GaussianEmbedding",
    "FJLTEmbedding",
    "IdentityEmbedding",
    "Embedding",
    "gaussian_embedding",
    "fjlt_embedding",
    "make_rng",
    "derive_seed",
]

# Largest m for which the restricted-DFT GEMM beats the FFT, measured on
# 16-64 MB complex arrays with n from 256 to 2048 on one BLAS thread.  Along
# the contiguous axis the FFT runs about twice as fast, so the GEMM stops
# paying off at about half the length.
_GEMM_MAX_ROWS = 256
_GEMM_MAX_ROWS_CONTIGUOUS = 128


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit nonnegative seed."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seeds must be nonnegative")
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(seed: int, *key: int) -> int:
    """Mix a master seed with integer stream keys into a child seed.

    The mix is a fixed, documented function of ``(seed, *key)`` so that
    independent streams (per mode, per trial, per sweep) are reproducible
    from one master seed.
    """
    entropy = [int(seed)] + [int(k) for k in key]
    if any(e < 0 for e in entropy):
        raise ValueError("seed components must be nonnegative")
    return int(np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint64)[0])


@dataclass(frozen=True)
class GaussianEmbedding:
    """Explicit ``m x n`` matrix with i.i.d. N(0, 1/m) real entries."""

    kind: ClassVar[str] = "gaussian"
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x) -> np.ndarray:
        """Multiply a vector (or the columns of a matrix) by the map."""
        x = np.asarray(x, dtype=np.complex128)
        _check_axis(x.shape, 0, self.n)
        out = _contract(self.matrix, x.reshape(self.n, -1), 0)
        return out.reshape((self.m,) + x.shape[1:])

    def apply_to_mode(self, X: DenseTensor, mode: int) -> DenseTensor:
        return mode_product(X, self.matrix, mode)

    def as_matrix(self) -> np.ndarray:
        return self.matrix.astype(np.complex128)


@dataclass(frozen=True)
class FJLTEmbedding:
    """Implicit restriction * DFT * random-sign operator.

    ``signs`` holds the +-1 diagonal, ``rows`` the m distinct sorted row
    indices kept after the unnormalized DFT, and the overall scale is
    ``1/sqrt(m)``.  Only these are stored.  When m is at most
    ``_GEMM_MAX_ROWS`` (``_GEMM_MAX_ROWS_CONTIGUOUS`` along the contiguous
    axis) and the input holds at least m fibers, so the matrix is never
    larger than the data, application builds the ``m x n`` matrix for that
    call and runs one GEMM.  Otherwise it flips signs, runs an FFT (mixed
    radix, any length), restricts, and scales.
    """

    kind: ClassVar[str] = "fjlt"
    signs: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.float64)
        rows = np.asarray(self.rows, dtype=np.intp)
        if signs.ndim != 1 or rows.ndim != 1:
            raise ValueError("signs and rows must be one-dimensional")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("sign diagonal entries must be +-1")
        n, m = signs.size, rows.size
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        if np.any(rows < 0) or np.any(rows >= n):
            raise ValueError("row indices out of range")
        if np.any(np.diff(rows) <= 0):
            raise ValueError("row indices must be distinct and sorted")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return self.rows.size

    @property
    def n(self) -> int:
        return self.signs.size

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.m)

    def _use_gemm(self, data: np.ndarray, axis: int) -> bool:
        contiguous = data.strides[axis] == data.itemsize
        limit = _GEMM_MAX_ROWS_CONTIGUOUS if contiguous else _GEMM_MAX_ROWS
        return self.m <= limit and data.size >= self.m * self.n

    def _matrix(self) -> np.ndarray:
        """The ``m x n`` operator, gathered from a table of the n twiddles."""
        n = self.n
        twiddles = np.exp(np.arange(n) * (-2j * np.pi / n))
        matrix = twiddles[np.multiply.outer(self.rows, np.arange(n)) % n]
        matrix *= self.signs * self.scale
        return matrix

    def _transform(self, data: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * data.ndim
        shape[axis] = self.n
        spectrum = np.fft.fft(data * self.signs.reshape(shape), axis=axis)
        return np.take(spectrum, self.rows, axis=axis) * self.scale

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        _check_axis(x.shape, 0, self.n)
        if self._use_gemm(x, 0):
            return np.tensordot(self._matrix(), x, axes=1)
        return self._transform(x, 0)

    def apply_to_mode(self, X: DenseTensor, mode: int) -> DenseTensor:
        _check_axis(X.shape, mode, self.n)
        if self._use_gemm(X.data, mode):
            return mode_product(X, self._matrix(), mode)
        return DenseTensor(self._transform(X.data, mode), copy=False)

    def as_matrix(self) -> np.ndarray:
        # Columns of the unnormalized DFT are FFTs of the standard basis.
        dft = np.fft.fft(np.eye(self.n), axis=0)
        return dft[self.rows] * self.signs[None, :] * self.scale


@dataclass(frozen=True)
class IdentityEmbedding:
    """Marker leaving a mode (or the second sketch stage) untouched."""

    kind: ClassVar[str] = "identity"
    n: int

    @property
    def m(self) -> int:
        return self.n

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        _check_axis(x.shape, 0, self.n)
        return x

    def apply_to_mode(self, X: DenseTensor, mode: int) -> DenseTensor:
        _check_axis(X.shape, mode, self.n)
        return X

    def as_matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=np.complex128)


Embedding = Union[GaussianEmbedding, FJLTEmbedding, IdentityEmbedding]


def gaussian_embedding(m: int, n: int, rng: np.random.Generator) -> GaussianEmbedding:
    """Draw an ``m x n`` Gaussian map scaled by ``1/sqrt(m)``."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}")
    return GaussianEmbedding(rng.standard_normal((m, n)) / math.sqrt(m))


def fjlt_embedding(m: int, n: int, rng: np.random.Generator) -> FJLTEmbedding:
    """Draw the sign diagonal and a sorted without-replacement restriction.

    Draw order is fixed (signs first, then rows) so a seed fully determines
    the operator.
    """
    if not 1 <= m <= n:
        raise ValueError(f"restriction cannot oversample: need 1 <= m <= n, got m={m}, n={n}")
    signs = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    rows = np.sort(rng.choice(n, size=m, replace=False))
    return FJLTEmbedding(signs, rows)
