"""The four benchmark workloads and the oracle that checks their outputs.

Every workload builds its own input from a seed, cycles through a fixed
list of configurations (one op per configuration), and checks each op's
output outside the timed interval.  The oracle never trusts the dense path
under test: it rebuilds each sketch from the input's known CP factors and
each embedding's public fields, using the factorized rank-one identity
``sketch(sum_k w_k a_1k o ... o a_dk) = sum_k w_k (A_1 a_1k) o ... o (A_d a_dk)``.
"""

from __future__ import annotations

import io
import math
import statistics
import struct
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import modesketch as ms
from modesketch import cli, cpfit, harness

RTOL = 1e-10


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------- oracle math

def gram(factors_a, factors_b) -> np.ndarray:
    """Hadamard product over modes of ``A_j^H B_j``: the inner products of
    every pair of rank-one terms."""
    out = 1.0
    for a, b in zip(factors_a, factors_b):
        out = out * (a.conj().T @ b)
    return out


def cp_norm(weights, factors) -> float:
    w = np.asarray(weights)
    return math.sqrt(max(float(np.real(w.conj() @ gram(factors, factors) @ w)), 0.0))


def design(factors) -> np.ndarray:
    """Column k is the colexicographic vectorization of the k-th rank-one term."""
    out = factors[0]
    for f in factors[1:]:
        out = (f[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def dense_map(e) -> np.ndarray:
    """A per-mode embedding as a dense matrix.  An FJLT map is built entry by
    entry from its public fields: ``as_matrix()`` runs an FFT over the n x n
    identity, which costs 70 ms at n = 2048 on every check."""
    if isinstance(e, ms.FJLTEmbedding):
        phase = np.outer(e.rows, np.arange(e.n)) % e.n
        return np.exp(-2j * np.pi * phase / e.n) * e.signs * e.scale
    return e.as_matrix()


def mode_maps(plan, factors) -> list[np.ndarray]:
    """Each factor pushed through its mode's embedding as a dense matrix."""
    return [dense_map(e) @ f for e, f in zip(plan.mode_embeddings, factors)]


def second_stage_map(stage, columns: np.ndarray) -> np.ndarray:
    """The second stage applied to the columns of a matrix, from the
    embedding's public fields (its full matrix is too large to form)."""
    if isinstance(stage, ms.GaussianEmbedding):
        return stage.matrix @ columns
    spectrum = np.fft.fft(stage.signs[:, None] * columns, axis=0)
    return spectrum[stage.rows] * stage.scale


def read_dten(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Minimal DTEN reader: shape and the colexicographic payload."""
    raw = Path(path).read_bytes()
    _require(raw[:4] == b"DTEN", f"{path}: bad magic")
    kind, d = raw[5], raw[6]
    shape = struct.unpack(f"<{d}Q", raw[7:7 + 8 * d])
    dtype = "<f8" if kind == 0 else "<c16"
    return shape, np.frombuffer(raw, dtype=dtype, offset=7 + 8 * d).astype(np.complex128)


def quiet_main(argv) -> tuple[int, str]:
    """``cli.main`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- workloads

class Workload:
    """Interface the measuring loop relies on.  ``check`` raises on a wrong
    output and may return an observation; ``summary`` turns the observations
    of one loop into extra metrics."""

    def summary(self, observations) -> dict:
        return {}


@dataclass
class NormSweep(Workload):
    """One-trial ``harness.norm_experiment`` calls over a config cycle.

    ``parts`` rank-``rank`` syntheses are summed with weights 1, 1j, ...,
    so ``parts=1`` gives real data and ``parts=2`` truly complex data.
    Each config is ``(variant, c_s, second_stage)``.
    """

    name: str
    shape: tuple[int, ...]
    rank: int
    parts: int
    configs: list

    def setup(self, rundir: Path, seed: int) -> None:
        self.X = X = None  # free the previous build before the next one
        weights, factors = [], None
        for part in range(self.parts):
            spec = ms.SynthSpec(self.shape, self.rank, "gaussian", seed=seed + part)
            model, term = cpfit.synthesize(spec)
            scale = 1j ** part
            X = term if X is None else X + scale * term
            del term
            weights.append(model.weights * scale)
            factors = model.factors if factors is None else tuple(
                np.hstack([a, b]) for a, b in zip(factors, model.factors))
        self.X = X
        self.weights = np.concatenate(weights)
        self.factors = factors

    def prepare_oracle(self) -> None:
        self.norm_x = cp_norm(self.weights, self.factors)

    def run(self, config, seed: int):
        variant, cs, second = config
        return harness.norm_experiment(self.X, [cs], 1, variant, seed=seed,
                                       second_stage=second)

    def check(self, config, seed: int, records) -> None:
        variant, cs, second = config
        _require(len(records) == 1, f"{len(records)} records for one trial")
        record = records[0]
        plan = ms.make_plan(self.shape, ms.targets_from_ratio(self.shape, cs),
                            variant, second, record.seed)
        sketched = mode_maps(plan, self.factors)
        if plan.second_stage is None:
            want = cp_norm(self.weights, sketched)
        else:
            columns = second_stage_map(plan.second_stage, design(sketched))
            want = float(np.linalg.norm(columns @ self.weights))
        want /= self.norm_x
        _require(_close(record.value, want),
                 f"{variant} c_s={cs} second={second}: c_n_X {record.value!r} != {want!r}")


@dataclass
class CpFit(Workload):
    """``cp_als`` run for exactly ``sweeps`` sweeps, cycling exact and
    sketched fits.

    Run to convergence, a fit takes from 5 to 100 sweeps depending on whether
    its init stalls or, when sketched, sees its error rise early, so the
    median fit time moved by 20% from one workload seed to the next.  Even
    capped at 10 sweeps, 17-25% of the fits stopped early, a share that
    changed with the seed.  A tolerance of -inf turns the stopping rule off,
    so every fit does the same work and the time tracks the cost of a sweep.
    """

    name: str
    shape: tuple[int, ...]
    rank: int
    sweeps: int
    configs: list

    def setup(self, rundir: Path, seed: int) -> None:
        self.model, self.X = cpfit.synthesize(
            ms.SynthSpec(self.shape, self.rank, "gaussian", seed=seed))

    def prepare_oracle(self) -> None:
        self.norm2 = cp_norm(self.model.weights, self.model.factors) ** 2

    def run(self, config, seed: int):
        compression, variant = config
        return cpfit.cp_als(self.X, self.rank, max_iters=self.sweeps, tol=-math.inf,
                            seed=seed, compression=compression, variant=variant)

    def check(self, config, seed: int, result) -> float:
        fit, history = result
        _require(len(history) == self.sweeps, f"{len(history)} sweeps")
        _require(fit.rank == self.rank and fit.shape == self.shape, "fit has the wrong form")
        _require(all(np.all(np.isfinite(f)) for f in fit.factors), "non-finite factors")
        # ||X - M||^2 from Gram matrices of the known and fitted factors.
        known_w, known_f = self.model.weights, self.model.factors
        cross = np.real(known_w.conj() @ gram(known_f, fit.factors) @ fit.weights)
        fit_norm2 = cp_norm(fit.weights, fit.factors) ** 2
        e2 = max(self.norm2 - 2.0 * cross + fit_norm2, 0.0) / self.norm2
        reported = history[-1].e_cpd
        _require(abs(reported ** 2 - e2) <= 1e-11 + 1e-6 * e2,
                 f"reported e_cpd {reported!r} but the oracle gives {math.sqrt(e2)!r}")
        return math.sqrt(e2)

    def summary(self, observations) -> dict:
        if not observations:
            return {}
        return {"fit_e_cpd_p50": {"value": statistics.median(observations), "unit": "ratio"}}


@dataclass
class CliFiles(Workload):
    """``cli.main`` in-process on a DTEN file and sidecar written by ``gen``.

    Every op writes to a path that did not exist before: rewriting an
    existing file would time the file system rather than the program.
    """

    name: str
    shape: tuple[int, ...]
    rank: int
    ls_trials: int
    configs: list
    _serial: int = 0

    def setup(self, rundir: Path, seed: int) -> None:
        self.rundir = rundir
        self.gen_seed = seed
        self.input = str(self._fresh("input", ".dten"))
        code, _ = quiet_main(["gen", "--shape", ",".join(map(str, self.shape)),
                              "--rank", str(self.rank), "--seed", str(seed),
                              "--out", self.input])
        _require(code == 0, f"gen exited {code}")

    def _fresh(self, stem: str, suffix: str) -> Path:
        # rundir starts empty and serials never repeat, so no path is reused.
        self._serial += 1
        return self.rundir / f"{stem}{self._serial}{suffix}"

    def prepare_oracle(self) -> None:
        self.model, _ = cpfit.synthesize(
            ms.SynthSpec(self.shape, self.rank, "gaussian", seed=self.gen_seed))
        self.norm_x = cp_norm(self.model.weights, self.model.factors)

    def run(self, config, seed: int):
        out = None
        if config == "info":
            argv = ["info", "--input", self.input]
        elif config == "sketch":
            out = self._fresh("sketch", ".dten")
            argv = ["sketch", "--input", self.input, "--cs", "0.3", "--variant", "fjlt",
                    "--seed", str(seed), "--out", str(out)]
        else:
            out = self._fresh("ls", ".csv")
            argv = ["ls-exp", "--input", self.input, "--cs", "0.2,0.4",
                    "--trials", str(self.ls_trials), "--seed", str(seed), "--out", str(out)]
        code, text = quiet_main(argv)
        return code, text, out

    def check(self, config, seed: int, result) -> None:
        code, text, out = result
        _require(code == 0, f"{config} exited {code}")
        if config == "info":
            fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
            _require(fields["tensor_shape"] == ",".join(map(str, self.shape)), "info shape")
            _require(_close(float(fields["tensor_norm"]), self.norm_x), "info norm")
        elif config == "sketch":
            shape, flat = read_dten(out)
            plan = ms.make_plan(self.shape, ms.targets_from_ratio(self.shape, 0.3),
                                "fjlt", seed=seed)
            _require(shape == plan.targets, f"sketch shape {shape} != {plan.targets}")
            want = design(mode_maps(plan, self.model.factors)) @ self.model.weights
            err = np.linalg.norm(flat - want) / np.linalg.norm(want)
            _require(err <= RTOL, f"sketch output off by {err:.3g}")
            out.unlink()
        else:
            rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
            _require(len(rows) == 2 * 2 * self.ls_trials, f"{len(rows)} ls-exp rows")
            for row in rows:
                value = float(row[5])
                # Noise-free exact-rank data: sketched LS recovers the coefficients.
                target = 1.0 if row[4] == "c_n_alpha" else 0.0
                _require(abs(value - target) <= 1e-8, f"ls-exp {row[4]}={value!r}")
            out.unlink()


def build(name: str):
    """The named workload at its benchmark size."""
    if name == "modewise_sweep":
        return NormSweep(name, (100, 100, 100), 10, 1,
                         [(v, cs, None) for v in ("gaussian", "fjlt")
                          for cs in (0.1, 0.2, 0.3, 0.5)])
    if name == "two_stage_sweep":
        return NormSweep(name, (2048, 64, 64), 10, 2,
                         [(v, 0.1, (1000, s)) for v in ("gaussian", "fjlt")
                          for s in ("gaussian", "fjlt")])
    if name == "cp_fit":
        return CpFit(name, (60, 60, 60), 8, 10,
                     [(None, "gaussian"), (0.5, "gaussian"), (0.5, "fjlt")])
    if name == "cli_files":
        return CliFiles(name, (60, 60, 60), 5, 10, ["info", "sketch", "ls-exp"])
    raise KeyError(name)


NAMES = ["modewise_sweep", "two_stage_sweep", "cp_fit", "cli_files"]
