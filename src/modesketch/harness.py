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
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .cpfit import _norm_of, _sketched_ls
from .embeddings import _TRIAL_STREAM, derive_seed
from .sketch import make_plan, sketch_full, sketch_modewise, targets_from_ratio
from .tensor import DenseTensor, _integer, norm

__all__ = [
    "ExperimentRecord",
    "norm_experiment",
    "ls_experiment",
    "write_records_csv",
    "write_replay_csv",
    "summarize",
]

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


def _check_grid(shape: Sequence[int], cs_values: Sequence[float],
                trials: int) -> list[float]:
    """The sweep's ratios as floats, each resolved against ``shape`` so a
    bad one, or a trial count below one, fails before any trial runs."""
    ratios = [float(c) for c in cs_values]
    if not ratios:
        raise ValueError("need at least one compression ratio")
    for c in ratios:
        targets_from_ratio(shape, c)
    if _integer(trials, "trials", low=None) < 1:
        raise ValueError("need at least one trial")
    return ratios


def _grid(shape: Sequence[int], cs_values: Sequence[float], trials: int,
          seed: int) -> list[tuple[float, int, int]]:
    """The validated sweep as ``(c_s, trial, trial seed)`` points; the
    trial seed is derived from ``(seed, c_s index, trial)``."""
    return [(cs, t, derive_seed(seed, _TRIAL_STREAM, ci, t))
            for ci, cs in enumerate(_check_grid(shape, cs_values, trials))
            for t in range(trials)]


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
        # Norms need no vector: an unstaged sketch skips sketch_full's vectorize copy.
        sketch = sketch_modewise if plan.stage is None else sketch_full
        value = _norm_of(sketch(plan, X)) / norm_x
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
    ratio ``c_n_alpha`` and the relative coefficient error.  The exact
    solve comes first and the trials follow, all solved in blocks of
    consecutive cells that share one pass over ``X``.  A trial's
    ``wall_ms`` is its block's elapsed time, plan draws included, divided
    by the block's cell count.
    """
    grid = _grid(X.shape, cs_values, trials, seed)
    cells = (make_plan(X.shape, cs, variant, seed=trial_seed) for cs, _, trial_seed in grid)
    points = iter(grid)
    records, reference = [], None
    start = time.perf_counter()
    for block in _sketched_ls(X, factors, chain([make_plan(X.shape)], cells)):
        wall = (time.perf_counter() - start) * 1e3 / len(block)
        if reference is None:
            reference, block = block[0].coefficients, block[1:]
            reference_norm = _norm_of(reference)  # each ratio's denominator
            if reference_norm == 0.0:
                raise ValueError("exact least-squares solution is zero; ratios undefined")
        for solution, (cs, t, trial_seed) in zip(block, points):
            ratio = _norm_of(solution.coefficients) / reference_norm
            err = _norm_of(solution.coefficients - reference) / reference_norm
            records.append(ExperimentRecord("ls/c_n_alpha", cs, t, trial_seed,
                                            "c_n_alpha", ratio, wall))
            records.append(ExperimentRecord("ls/alpha_rel_err", cs, t, trial_seed,
                                            "alpha_rel_err", err, wall))
        start = time.perf_counter()
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
