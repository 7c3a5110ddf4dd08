"""DTEN tensor files and synthesis sidecar descriptors.

DTEN layout: magic ``DTEN``, version byte 1, scalar-kind byte (0 = real
float64, 1 = complex float64 pairs), mode-count byte, then d little-endian
64-bit extents, then the payload in colexicographic order, little endian.
Real payloads are written whenever the imaginary part is exactly zero, so
writing what was read back reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .tensor import DenseTensor, vectorize

__all__ = ["write_tensor", "read_tensor", "write_sidecar", "read_sidecar", "sidecar_path"]

MAGIC = b"DTEN"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1


def write_tensor(path: Union[str, Path], X: DenseTensor) -> None:
    flat = vectorize(X)
    kind = KIND_REAL if not np.any(flat.imag) else KIND_COMPLEX
    header = MAGIC + bytes([VERSION, kind, X.ndim])
    header += struct.pack(f"<{X.ndim}Q", *X.shape)
    payload = (flat.real.astype("<f8") if kind == KIND_REAL else flat.astype("<c16")).tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path: Union[str, Path]) -> DenseTensor:
    raw = Path(path).read_bytes()
    if len(raw) < 7 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a DTEN file")
    version, kind, d = raw[4], raw[5], raw[6]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported DTEN version {version}")
    if kind not in (KIND_REAL, KIND_COMPLEX):
        raise ValueError(f"{path}: unknown scalar kind {kind}")
    if d < 1:
        raise ValueError(f"{path}: tensor needs at least one mode")
    header_end = 7 + 8 * d
    if len(raw) < header_end:
        raise ValueError(f"{path}: truncated DTEN header")
    shape = struct.unpack(f"<{d}Q", raw[7:header_end])
    count = math.prod(shape)
    width = 8 if kind == KIND_REAL else 16
    if len(raw) != header_end + count * width:
        raise ValueError(f"{path}: payload size does not match shape {shape}")
    dtype = "<f8" if kind == KIND_REAL else "<c16"
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=header_end)
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
