"""Shared helpers for the test suite."""

import numpy as np

from modesketch import DenseTensor


def rel_err(a, b) -> float:
    """Norm of the difference scaled by the larger operand norm."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / scale)


def tensor_rel_err(X: DenseTensor, Y: DenseTensor) -> float:
    return rel_err(X.data, Y.data)


def random_tensor(rng, shape, complex_entries=True) -> DenseTensor:
    data = rng.standard_normal(shape)
    if complex_entries:
        data = data + 1j * rng.standard_normal(shape)
    return DenseTensor(data)


def layouts(rng, shape) -> dict:
    """One complex array of ``shape`` laid out three ways: C-ordered,
    F-ordered, and strided with no contiguous axis at all."""
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    wide = np.zeros(tuple(shape[:-1]) + (2 * shape[-1],), dtype=np.complex128)
    wide[..., ::2] = data
    return {"C": data, "F": np.asfortranarray(data), "strided": wide[..., ::2]}


def random_matrix(rng, m, n, complex_entries=True) -> np.ndarray:
    data = rng.standard_normal((m, n))
    if complex_entries:
        data = data + 1j * rng.standard_normal((m, n))
    return data
