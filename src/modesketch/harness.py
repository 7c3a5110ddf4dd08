"""Experiment sweeps over compression ratios, and their CSV serialization.

Each record is one (experiment, c_s, trial) observation.  Per-trial seeds
are derived from the master seed and the sweep position, so a sweep rerun
with the same flags reproduces identical values; wall times are recorded
in memory but written to CSV only on request, keeping output files
byte-identical across reruns by default.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .cpfit import compressed_ls_coefficients, ls_coefficients
from .embeddings import derive_seed
from .sketch import make_plan, sketch_full, sketch_modewise, targets_from_ratio
from .tensor import DenseTensor, norm

__all__ = [
    "ExperimentRecord",
    "norm_experiment",
    "ls_experiment",
    "write_records_csv",
    "write_replay_csv",
    "summarize",
]

# Stream tag separating harness trial seeds from other derived streams.
_TRIAL_STREAM = 4

CSV_HEADER = "experiment,c_s,trial,seed,metric,value,wall_ms"


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured value of one metric at one (c_s, trial) grid point."""

    experiment: str
    c_s: float
    trial: int
    seed: int
    metric: str
    value: float
    wall_ms: float


def _grid(shape: Sequence[int], cs_values: Sequence[float], trials: int,
          seed: int) -> list[tuple[float, int, int]]:
    """The validated sweep as ``(c_s, trial, trial seed)`` points.

    The trial seed is derived from ``(seed, c_s index, trial)``.  Every ratio
    is resolved against ``shape`` up front so a bad one fails before any
    trial runs.
    """
    ratios = [float(c) for c in cs_values]
    if not ratios:
        raise ValueError("need at least one compression ratio")
    for c in ratios:
        targets_from_ratio(shape, c)
    if trials < 1:
        raise ValueError("need at least one trial")
    return [(cs, t, derive_seed(seed, _TRIAL_STREAM, ci, t))
            for ci, cs in enumerate(ratios) for t in range(trials)]


def norm_experiment(
    X: DenseTensor,
    cs_values: Sequence[float],
    trials: int,
    variant: str = "gaussian",
    seed: int = 0,
    second_stage: Optional[tuple[Optional[int], str]] = None,
) -> list[ExperimentRecord]:
    """Relative sketched norm ``c_n_X`` over a (c_s, trial) grid.

    Every trial draws a fresh plan from a seed derived from ``(seed,
    c_s index, trial)``.
    """
    grid = _grid(X.shape, cs_values, trials, seed)
    norm_x = norm(X)
    if norm_x == 0.0:
        raise ValueError("norm ratios are undefined: the data tensor has zero norm")
    if not math.isfinite(norm_x):
        raise ValueError(f"norm ratios are undefined: the data tensor has norm {norm_x}")
    records = []
    for cs, t, trial_seed in grid:
        t0 = time.perf_counter()
        plan = make_plan(X.shape, cs, variant, second_stage, trial_seed)
        if plan.second_stage is not None:
            value = float(np.linalg.norm(sketch_full(plan, X))) / norm_x
        else:
            value = norm(sketch_modewise(plan, X)) / norm_x
        wall = (time.perf_counter() - t0) * 1e3
        records.append(ExperimentRecord("norm/c_n_X", cs, t, trial_seed,
                                        "c_n_X", value, wall))
    return records


def ls_experiment(
    X: DenseTensor,
    factors: Sequence[np.ndarray],
    cs_values: Sequence[float],
    trials: int,
    variant: str = "gaussian",
    seed: int = 0,
) -> list[ExperimentRecord]:
    """Compressed coefficient recovery over a (c_s, trial) grid.

    The reference coefficients are the exact (unsketched) least-squares
    solution over the given basis; each trial reports the coefficient-norm
    ratio ``c_n_alpha`` and the relative coefficient error.
    """
    grid = _grid(X.shape, cs_values, trials, seed)
    reference = ls_coefficients(X, factors).coefficients
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise ValueError("exact least-squares solution is zero; ratios undefined")
    records = []
    for cs, t, trial_seed in grid:
        t0 = time.perf_counter()
        plan = make_plan(X.shape, cs, variant, seed=trial_seed)
        solution = compressed_ls_coefficients(X, factors, plan, reference=reference)
        wall = (time.perf_counter() - t0) * 1e3
        err = float(np.linalg.norm(solution.coefficients - reference)) / ref_norm
        records.append(ExperimentRecord("ls/c_n_alpha", cs, t, trial_seed,
                                        "c_n_alpha", solution.c_n_alpha, wall))
        records.append(ExperimentRecord("ls/alpha_rel_err", cs, t, trial_seed,
                                        "alpha_rel_err", err, wall))
    return records


def write_records_csv(
    path: Union[str, Path],
    invocation: str,
    records: Sequence[ExperimentRecord],
    timing: bool = False,
) -> None:
    """Write records with a header row and a replay comment line."""
    rows = [(r.experiment, repr(r.c_s), str(r.trial), str(r.seed), r.metric,
             repr(float(r.value)), r.wall_ms) for r in records]
    write_replay_csv(path, invocation, CSV_HEADER, rows, timing)


def write_replay_csv(path: Union[str, Path], invocation: str, header: str,
                     rows: Sequence[tuple], timing: bool) -> None:
    """Write ``# invocation``, the header and one line per row.

    Each row holds preformatted text cells followed by a wall time.  Wall
    times are written only when ``timing`` is set; otherwise the last
    column is left empty so identical flags produce identical bytes.
    """
    lines = [f"# {invocation}", header]
    for *cells, wall in rows:
        lines.append(",".join([*cells, repr(float(wall)) if timing else ""]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def summarize(records: Sequence[ExperimentRecord]) -> list[str]:
    """Mean and standard deviation per (experiment, c_s), pooled over trials."""
    grid: dict[tuple[str, float], list[float]] = {}
    for r in records:
        grid.setdefault((r.experiment, r.c_s), []).append(r.value)
    lines = []
    for (experiment, cs), values in sorted(grid.items()):
        arr = np.asarray(values)
        lines.append(f"{experiment} c_s={cs!r} trials={arr.size} "
                     f"pooled_mean={arr.mean():.6g} pooled_std={arr.std():.6g}")
    return lines
