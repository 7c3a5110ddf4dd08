"""Dense real or complex tensors and the deterministic multilinear algebra
on them.

Conventions used throughout the package:

* scalars are double precision: real input (ints and bools included) is
  held as ``float64``, complex input as ``complex128``, and an array turns
  complex only where a complex map or complex data meets it,
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


def _scalars(x, copy: bool = False) -> np.ndarray:
    """``x`` as a ``complex128`` array if it holds complex values, else as
    ``float64``; a copy only when ``copy`` is set or the dtype changes."""
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    return np.array(x, dtype=dtype) if copy else np.asarray(x, dtype=dtype)


def _integer(value, what: str, low: Optional[int] = 1) -> int:
    """``value`` as an ``int``: an int or numpy integer, not a bool, at least ``low`` if set."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        bound = "" if low is None else f" of at least {low}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _shape(shape: Iterable[int]) -> tuple[int, ...]:
    """``shape`` as a tuple of at least one extent, each an integer of at least 1."""
    shape = tuple(_integer(n, "every extent") for n in shape)
    if not shape:
        raise ValueError("a tensor needs at least one mode")
    return shape


class DenseTensor:
    """A dense d-mode tensor of real or complex double-precision scalars.

    Wraps a ``numpy.ndarray`` whose shape carries the mode extents; ``data``
    is ``float64`` for real input and ``complex128`` for complex input (see
    :func:`_scalars`).  Instances are treated as immutable by every
    operation in this package; nothing mutates ``data`` in place.
    """

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = True):
        arr = _scalars(data, copy)
        _shape(arr.shape)
        self.data = arr

    @classmethod
    def from_flat(cls, values, shape: Sequence[int]) -> "DenseTensor":
        """Build a tensor from colexicographically ordered flat values."""
        flat = _scalars(values).ravel()
        shape = _shape(shape)
        if flat.size != math.prod(shape):
            raise ValueError(f"{flat.size} values do not fill shape {shape}")
        return cls(flat.reshape(shape, order="F"), copy=False)

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "DenseTensor":
        return cls(np.zeros(_shape(shape)), copy=False)

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
    """Reject a non-integer or out-of-range mode, or one whose extent is not ``extent``."""
    if not 0 <= _integer(mode, "mode", low=None) < len(shape):
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
    shape = _shape(shape)
    M = _scalars(M)
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
    """``U`` applied to every fiber of the ``float64`` or ``complex128``
    array ``data`` along ``axis``; the result has ``U``'s row count in place
    of that extent and is complex only if ``U`` or ``data`` is.

    A C-contiguous array is viewed as ``(lead, n, trail)`` and contracted by
    one ``np.matmul`` with no transposing copy: ``U`` times each of the
    ``lead`` blocks of ``n x trail`` (a single GEMM when ``lead`` is 1), or
    ``data @ U.T`` when ``trail`` is 1.  Real data always meets one real
    GEMM: with ``U`` itself, or for a complex ``U`` with ``[Re U; Im U]``,
    whose two halves are written into the real and imaginary parts of the
    result (along the contiguous axis the rows are interleaved instead, so
    the product's ``(re, im)`` pairs are the result with no copy).  For
    complex data a real ``U`` meets the ``(re, im)`` float view of the data
    in a real GEMM, unless the contracted axis is the contiguous one of
    several fibers, where ``U`` is promoted; a vector keeps the view.  An
    F-contiguous array is contracted through its transpose, and any other
    layout is first copied to C order.  The result is C-contiguous, or
    F-contiguous for F-contiguous input.
    """
    if not data.flags.c_contiguous:
        if data.flags.f_contiguous:
            return _contract(U, data.T, data.ndim - 1 - axis).T
        data = np.ascontiguousarray(data)
    shape = data.shape
    lead, n, trail = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    m, complex_u = U.shape[0], np.iscomplexobj(U)
    out_shape = shape[:axis] + (m,) + shape[axis + 1:]
    if np.iscomplexobj(data):
        if not complex_u and (trail > 1 or lead == 1):
            U, data, trail = U.astype(np.float64, copy=False), data.view(np.float64), 2 * trail
        elif trail == 1:
            U = U.astype(np.complex128, copy=False)
            return (data.reshape(lead, n) @ U.T).reshape(out_shape)
        return np.matmul(U, data.reshape(lead, n, trail)).view(np.complex128).reshape(out_shape)
    if trail == 1:
        V = np.stack([U.real, U.imag], 1).reshape(2 * m, n) if complex_u else U
        out = data.reshape(lead, n) @ V.T
        return (out.view(np.complex128) if complex_u else out).reshape(out_shape)
    if not complex_u:
        return np.matmul(U, data.reshape(lead, n, trail)).reshape(out_shape)
    parts = np.matmul(np.concatenate([U.real, U.imag]), data.reshape(lead, n, trail))
    out = np.empty((lead, m, trail), dtype=np.complex128)
    out.real, out.imag = parts[:, :m], parts[:, m:]
    return out.reshape(out_shape)


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
    arrays = [_scalars(v).ravel() for v in vectors]
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
    """Euclidean norm, the square root of ``inner(X, X)``.

    One pass of a real dot product over the ``(re, im)`` float view of the
    data, in memory order; squares that overflow give ``inf``, quietly.
    ``np.vdot`` is not used: it turns an infinite entry into ``nan``.
    """
    flat = X.data.ravel(order="K").view(np.float64)
    with np.errstate(over="ignore"):
        return math.sqrt(flat @ flat)


def khatri_rao(A, B) -> np.ndarray:
    """Columnwise Kronecker product: column ``k`` is ``kron(A[:, k], B[:, k])``.

    The ordering matches :func:`vectorize` of outer products: column ``k``
    of ``khatri_rao(A, B)`` equals ``vectorize(outer_product([b_k, a_k]))``.
    """
    A, B = _scalars(A), _scalars(B)
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
    return reduce(khatri_rao, reversed([_scalars(f) for f in factors]))
