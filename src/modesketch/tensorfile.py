"""DTEN tensor files and synthesis sidecar descriptors.

DTEN layout: magic ``DTEN``, version byte 1, scalar-kind byte (0 = real
float64, 1 = complex float64 pairs), mode-count byte, then d little-endian
64-bit extents, then the payload in colexicographic order, little endian.
Real payloads are written whenever the imaginary part is exactly zero, and
read back as ``float64`` tensors (complex payloads as ``complex128``), so
writing what was read back reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .tensor import DenseTensor, _shape

__all__ = ["write_tensor", "read_tensor", "write_sidecar", "read_sidecar", "sidecar_path"]

MAGIC = b"DTEN"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1

# Fewest scalars write_tensor puts in one write (32 KB of real payload).
_MIN_RUN = 2 ** 12


def write_tensor(path: Union[str, Path], X: DenseTensor) -> None:
    """Write a DTEN file; a payload that ``read_tensor`` would refuse is not written.

    The payload goes out in runs of last-mode slabs, each a contiguous
    range of the colexicographic order, so a C-ordered tensor is reordered
    one run at a time; a run holds one slab, or enough slabs for
    ``_MIN_RUN`` scalars.
    """
    data = X.data
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: payload holds NaN or infinite values")
    kind = KIND_COMPLEX if np.iscomplexobj(data) and np.any(data.imag) else KIND_REAL
    header = MAGIC + bytes([VERSION, kind, X.ndim]) + struct.pack(f"<{X.ndim}Q", *X.shape)
    step = max(1, _MIN_RUN // math.prod(X.shape[:-1]))
    with open(path, "wb") as fh:
        fh.write(header)
        for k in range(0, X.shape[-1], step):
            run = data[..., k:k + step].ravel(order="F")
            # A copy only where the run is not one little-endian block already:
            # the real part of a complex array, or a byte-swapped machine.
            fh.write(np.ascontiguousarray(run.real, dtype="<f8") if kind == KIND_REAL
                     else np.ascontiguousarray(run, dtype="<c16"))


def read_tensor(path: Union[str, Path]) -> DenseTensor:
    """Read a DTEN file, checking its header against the file size first.

    A real payload gives a ``float64`` tensor, a complex one ``complex128``;
    either is F-ordered, a view of the payload.
    """
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) < 7 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not a DTEN file")
        version, kind, d = head[4], head[5], head[6]
        if version != VERSION:
            raise ValueError(f"{path}: unsupported DTEN version {version}")
        if kind not in (KIND_REAL, KIND_COMPLEX):
            raise ValueError(f"{path}: unknown scalar kind {kind}")
        extents = fh.read(8 * d)
        if len(extents) < 8 * d:
            raise ValueError(f"{path}: truncated DTEN header")
        try:
            shape = _shape(struct.unpack(f"<{d}Q", extents))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        count = math.prod(shape)
        width = 8 if kind == KIND_REAL else 16
        if os.fstat(fh.fileno()).st_size != 7 + 8 * d + count * width:
            raise ValueError(f"{path}: payload size does not match shape {shape}")
        flat = np.fromfile(fh, dtype="<f8" if kind == KIND_REAL else "<c16", count=count)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: payload holds NaN or infinite values")
    return DenseTensor.from_flat(flat, shape)


def sidecar_path(path: Union[str, Path]) -> Path:
    return Path(str(path) + ".meta.json")


def write_sidecar(path: Union[str, Path], descriptor: dict) -> None:
    text = json.dumps(descriptor, sort_keys=True, separators=(", ", ": ")) + "\n"
    sidecar_path(path).write_text(text, encoding="utf-8")


def read_sidecar(path: Union[str, Path]) -> dict:
    return json.loads(sidecar_path(path).read_text(encoding="utf-8"))
