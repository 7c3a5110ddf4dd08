"""Dense complex tensors and the deterministic multilinear algebra on them.

Conventions used throughout the package:

* scalars are complex double precision; real input is promoted on entry,
* flattening is colexicographic (the first index varies fastest), so
  ``vectorize(multi_mode_product(X, maps))`` equals the Kronecker product
  ``U_d (x) ... (x) U_1`` applied to ``vectorize(X)``,
* ``unfold(X, mode)`` arranges the mode fibers as columns, ordering the
  columns over the remaining modes ascending with the smallest one varying
  fastest,
* modes are 0-based.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "DenseTensor",
    "unfold",
    "fold",
    "mode_product",
    "multi_mode_product",
    "vectorize",
    "outer_product",
    "inner",
    "norm",
    "khatri_rao",
]


class DenseTensor:
    """A dense d-mode tensor of complex double-precision scalars.

    Wraps a ``numpy.ndarray`` whose shape carries the mode extents.  Real
    input is accepted and promoted to complex.  Instances are treated as
    immutable by every operation in this package; nothing mutates ``data``
    in place.
    """

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = True):
        arr = np.array(data, dtype=np.complex128) if copy else np.asarray(data, dtype=np.complex128)
        if arr.ndim == 0:
            raise ValueError("a tensor needs at least one mode")
        if min(arr.shape) < 1:
            raise ValueError(f"every extent must be at least 1, got shape {arr.shape}")
        self.data = arr

    @classmethod
    def from_flat(cls, values, shape: Sequence[int]) -> "DenseTensor":
        """Build a tensor from colexicographically ordered flat values."""
        flat = np.asarray(values, dtype=np.complex128).ravel()
        shape = tuple(int(n) for n in shape)
        if flat.size != math.prod(shape):
            raise ValueError(f"{flat.size} values do not fill shape {shape}")
        return cls(flat.reshape(shape, order="F"), copy=False)

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "DenseTensor":
        return cls(np.zeros(tuple(int(n) for n in shape), dtype=np.complex128), copy=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return DenseTensor(self.data + other.data, copy=False)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return DenseTensor(self.data - other.data, copy=False)

    def __mul__(self, scalar) -> "DenseTensor":
        return DenseTensor(self.data * scalar, copy=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


def _check_axis(shape: Sequence[int], mode: int, extent: Optional[int] = None) -> None:
    """Reject a mode outside ``shape``, or one whose extent is not ``extent``."""
    if not 0 <= mode < len(shape):
        raise IndexError(f"mode {mode} out of range for a {len(shape)}-mode tensor")
    if extent is not None and shape[mode] != extent:
        raise ValueError(f"mode {mode} has extent {shape[mode]}, but the map acts on "
                         f"dimension {extent}")


def unfold(X: DenseTensor, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of ``X``.

    Returns the ``n_mode x prod(other extents)`` matrix whose columns are
    the mode fibers of ``X``, ordered over the remaining modes ascending
    with the smallest remaining mode varying fastest.
    """
    _check_axis(X.shape, mode)
    moved = np.moveaxis(X.data, mode, 0)
    return moved.reshape(X.shape[mode], -1, order="F")


def fold(M, mode: int, shape: Sequence[int]) -> DenseTensor:
    """Inverse of :func:`unfold`: rebuild a tensor of ``shape`` from its
    mode-``mode`` matricization."""
    shape = tuple(int(n) for n in shape)
    M = np.asarray(M, dtype=np.complex128)
    _check_axis(shape, mode)
    rest = shape[:mode] + shape[mode + 1 :]
    expected = (shape[mode], math.prod(rest) if rest else 1)
    if M.ndim != 2 or M.shape != expected:
        raise ValueError(f"matrix shape {getattr(M, 'shape', None)} does not match "
                         f"mode-{mode} unfolding of {shape} (expected {expected})")
    moved = M.reshape((shape[mode],) + rest, order="F")
    return DenseTensor(np.moveaxis(moved, 0, mode))


def mode_product(X: DenseTensor, U, mode: int) -> DenseTensor:
    """Mode product of ``X`` with a matrix ``U`` acting on the given mode.

    Every mode fiber of ``X`` is multiplied by ``U``; the result replaces
    extent ``n_mode`` with the row count of ``U``.
    """
    U = np.asarray(U)
    if U.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {U.ndim}")
    _check_axis(X.shape, mode, U.shape[1])
    return DenseTensor(_contract(U, X.data, mode), copy=False)


def _contract(U: np.ndarray, data: np.ndarray, axis: int) -> np.ndarray:
    """``U`` applied to every fiber of the complex array ``data`` along
    ``axis``; the result has ``U``'s row count in place of that extent.

    A real ``U`` meets the ``(re, im)`` float view of ``data`` in one real
    GEMM, half the work of promoting ``U`` to complex.  The view is taken
    only where it needs no copy, which is along any axis but the contiguous
    one: with the last axis contiguous directly, with the first axis
    contiguous (an F-ordered array) through the transpose.  Everywhere else
    ``U`` is promoted and the product is complex.
    """
    def packed(ax: int) -> bool:
        return data.shape[ax] == 1 or data.strides[ax] == data.itemsize

    last = data.ndim - 1
    if not np.iscomplexobj(U) and data.ndim > 1:
        if axis != last and packed(last):
            out = np.tensordot(U.astype(np.float64, copy=False), data.view(np.float64),
                               axes=([1], [axis]))
            return np.moveaxis(out.view(np.complex128), 0, axis)
        if axis != 0 and packed(0):
            return _contract(U, data.T, last - axis).T
    out = np.tensordot(U.astype(np.complex128, copy=False), data, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def multi_mode_product(X: DenseTensor, maps: Iterable[tuple[int, np.ndarray]]) -> DenseTensor:
    """Apply several mode products at distinct modes.

    ``maps`` is an iterable of ``(mode, matrix)`` pairs.  The result does
    not depend on the order of the pairs; they are applied ascending by
    mode for reproducibility.
    """
    pairs = sorted(maps, key=lambda mu: mu[0])
    seen = [m for m, _ in pairs]
    if len(set(seen)) != len(seen):
        raise ValueError(f"duplicate modes in multi-mode product: {seen}")
    out = X
    for mode, U in pairs:
        out = mode_product(out, U, mode)
    return out


def vectorize(X: DenseTensor) -> np.ndarray:
    """Colexicographic flattening of ``X`` (first index fastest)."""
    return X.data.ravel(order="F")


def outer_product(vectors: Sequence[np.ndarray]) -> DenseTensor:
    """Outer product of ``d`` vectors: entry ``(i_1..i_d)`` is the product
    of the vector coordinates."""
    if len(vectors) == 0:
        raise ValueError("outer product of an empty vector list")
    arrays = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    out = arrays[0]
    for v in arrays[1:]:
        out = out[..., None] * v
    return DenseTensor(out, copy=False)


def inner(X: DenseTensor, Y: DenseTensor) -> complex:
    """Euclidean inner product, conjugate-linear in the second argument."""
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch in inner product: {X.shape} vs {Y.shape}")
    return complex(np.vdot(Y.data, X.data))


def norm(X: DenseTensor) -> float:
    """Euclidean norm, the square root of ``inner(X, X)``."""
    return float(np.linalg.norm(X.data.ravel()))


def khatri_rao(A, B) -> np.ndarray:
    """Columnwise Kronecker product: column ``k`` is ``kron(A[:, k], B[:, k])``.

    The ordering matches :func:`vectorize` of outer products: column ``k``
    of ``khatri_rao(A, B)`` equals ``vectorize(outer_product([b_k, a_k]))``.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"column-count mismatch: {A.shape[1]} vs {B.shape[1]}")
    return (A[:, None, :] * B[None, :, :]).reshape(A.shape[0] * B.shape[0], A.shape[1])


def khatri_rao_design(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Design matrix whose column ``k`` is the vectorized rank-one tensor
    built from column ``k`` of every factor matrix.

    With colexicographic vectorization this is the Khatri-Rao chain run
    from the last factor down to the first.
    """
    if len(factors) == 0:
        raise ValueError("need at least one factor matrix")
    return reduce(khatri_rao, reversed([np.asarray(f, dtype=np.complex128) for f in factors]))
