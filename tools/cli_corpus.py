"""Run a fixed corpus of modesketch CLI calls and library least-squares
solves, and keep everything they write.

    python3 tools/cli_corpus.py OUTDIR

Every call runs in-process with OUTDIR as the working directory, so the
files it writes and the paths it prints are relative.  Call ``NN`` leaves
``NN.log``: the command line, standard output, standard error and the exit
status.  The corpus covers every subcommand, every second stage, synthetic
and file input, non-uniform shapes, and exact and sketched fits of 2, 3 and
4 modes, and pins the one-line errors of a few rejected calls.

After the calls, ``ls.solves.txt`` gets one line per single-plan solve of
a fixed set: ``ls_coefficients`` (with a reference, so ``c_n_alpha`` is
set), ``compressed_ls_coefficients`` and ``decoupled_ls_slice`` on 2- to
4-mode tensors; C-ordered, F-ordered and strided data; real and complex
data; Gaussian, FJLT and identity plans, with and without a second stage;
and every slice mode with and without a plan.  A line is labelled by the
solve's inputs and holds the coefficients' dtype and the ``repr`` of each
coefficient, the Gram condition number and ``c_n_alpha``.

Two runs of the same source tree must give byte-identical directories
(``diff -r``); two trees can be compared file by file, and
``ls.solves.txt`` line by line, to list the outputs a change moved.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from modesketch import (DenseTensor, SynthSpec, compressed_ls_coefficients,  # noqa: E402
                        decoupled_ls_slice, ls_coefficients, make_plan, synthesize)
from modesketch.cli import main  # noqa: E402

CALLS = [
    "gen --shape 20,20,20 --rank 4 --seed 1 --out cube.dten",
    "gen --shape 40,12,8 --rank 3 --kind coherent --sigma 0.3 --seed 2 --out wide.dten",
    "gen --shape 6,30,10 --rank 2 --seed 3 --out mid.dten",
    "info --input cube.dten",
    "info --input wide.dten",
    "sketch --input cube.dten --cs 0.3 --variant fjlt --seed 4 --out cube.fjlt.dten",
    "sketch --input cube.dten --cs 0.3 --variant gaussian --seed 4 --out cube.gauss.dten",
    "sketch --input wide.dten --cs 0.5 --variant fjlt --seed 6 --out wide.fjlt.dten",
    "sketch --input wide.dten --targets 10,3,2 --variant gaussian --out wide.gauss.dten",
    "sketch --input mid.dten --cs 0.4 --variant fjlt --seed 7 --out mid.fjlt.dten",
    "sketch --input mid.dten --targets 6,30,10 --variant identity --out mid.id.dten",
    *(f"norm-exp --input cube.dten --cs 0.2,0.5 --trials 3 --seed 5 --variant {v}{s} "
      f"--out norm.{v}{i}.csv"
      for v in ("gaussian", "fjlt")
      for i, s in enumerate(("", " --second-stage 40:gaussian",
                             " --second-stage 40:fjlt", " --second-stage identity"))),
    "norm-exp --input wide.dten --cs 0.2,0.5 --trials 3 --seed 5 --variant fjlt "
    "--second-stage 30:fjlt --out norm.wide.csv",
    "norm-exp --input mid.dten --cs 0.3 --trials 3 --seed 5 --variant gaussian "
    "--second-stage identity --out norm.mid.csv",
    "norm-exp --shape 10,10,10 --rank 2 --kind coherent --sigma 0.5 --gen-seed 3 --cs 0.4 "
    "--trials 3 --seed 5 --out norm.inline.csv",
    "ls-exp --input cube.dten --cs 0.3,0.6 --trials 3 --variant gaussian --out ls.gauss.csv",
    "ls-exp --input cube.dten --cs 0.3,0.6 --trials 3 --variant fjlt --out ls.fjlt.csv",
    "ls-exp --input wide.dten --cs 0.5 --trials 3 --variant fjlt --seed 2 --out ls.wide.csv",
    "ls-exp --shape 12,12,12 --rank 3 --gen-seed 6 --cs 0.4 --trials 2 --out ls.inline.csv",
    "ls-exp --input cube.fjlt.dten --rank 2 --iters 10 --cs 0.5 --trials 2 --out ls.fit.csv",
    "ls-exp --input cube.fjlt.dten --rank 2 --cs 1.5 --trials 2 --out ls.bad.csv",
    "cpals --input cube.dten --rank 4 --iters 20 --out-prefix fit.exact",
    "cpals --input cube.dten --rank 4 --iters 10 --cs 0.5 --variant fjlt --out-prefix fit.fjlt",
    "cpals --input wide.dten --rank 3 --iters 10 --cs 0.5 --variant gaussian "
    "--out-prefix fit.wide",
    "cpals --input mid.dten --rank 2 --iters 15 --tol 0 --seed 9 --out-prefix fit.mid",
    "gen --shape 4,4 --rank 1 --sigma 0.3 --out sigma.dten",
    # Sketching a file onto its own path leaves the sidecar of the old shape.
    "gen --shape 6,5,4 --rank 2 --seed 4 --out stale.dten",
    "sketch --input stale.dten --targets 6,5,3 --variant gaussian --out stale.dten",
    "info --input stale.dten",
    "ls-exp --input cube.dten --cs 0.3 --trials 2 --iters 3 --tol 0.5 --out ls.iters.csv",
    "ls-exp --input cube.fjlt.dten --rank 2 --tol nan --cs 0.5 --trials 2 --out ls.nan.csv",
    # Complex input (an FJLT sketch) through a Gaussian map and a two-stage sweep.
    "sketch --input cube.fjlt.dten --cs 0.5 --variant gaussian --seed 8 "
    "--out cube.fjlt.gauss.dten",
    "norm-exp --input cube.fjlt.dten --cs 0.5 --trials 2 --seed 5 --variant fjlt "
    "--second-stage 20:gaussian --out norm.complex.csv",
    # 2- and 4-mode expansions.
    "gen --shape 9,7 --rank 3 --seed 10 --out flat.dten",
    "gen --shape 5,4,3,6 --rank 2 --seed 11 --out quad.dten",
    "info --input flat.dten",
    "info --input quad.dten",
    # 2- and 4-mode compressed solves on pulled-back factors.
    "ls-exp --input flat.dten --cs 0.5 --trials 2 --variant fjlt --out ls.flat.csv",
    "ls-exp --input quad.dten --cs 0.5 --trials 2 --out ls.quad.csv",
    # Grids sharing passes over X: 13 cells two to a pass, so the last pass
    # holds one, on complex pulled-back factors; then one cell per pass on 4 modes.
    "ls-exp --input cube.dten --cs 0.2,0.5,0.8 --trials 4 --variant fjlt --seed 3 "
    "--out ls.grid.csv",
    "ls-exp --input quad.dten --cs 0.5,0.9 --trials 3 --variant fjlt --out ls.quad.grid.csv",
    # Sketched fits whose cost order is not ascending: 4 modes in the order
    # [1, 2, 3, 0], and [0, 2, 1], where a later mode update restarts its
    # partial sketch from the data.
    "cpals --input quad.dten --rank 2 --iters 4 --tol=-inf --cs 0.5 --variant fjlt --seed 4 "
    "--out-prefix fit.quad",
    "cpals --input mid.dten --rank 2 --iters 4 --tol=-inf --cs 0.5 --variant fjlt --seed 2 "
    "--out-prefix fit.mid.fjlt",
    # Exact fits of 2 and 4 modes: the dimension tree's halves of 1 + 1 and 2 + 2 modes.
    "cpals --input flat.dten --rank 3 --iters 6 --out-prefix fit.flat",
    "cpals --input quad.dten --rank 2 --iters 6 --out-prefix fit.quad.exact",
    # A Gaussian second stage drawn as it is applied: 300 rows on N = 27,000
    # make 33 blocks of 9 rows and a partial block of 3.
    "norm-exp --shape 30,30,30 --rank 2 --gen-seed 4 --cs 1 --trials 2 --seed 5 "
    "--second-stage 300:gaussian --out norm.blocks.csv",
]


SHAPES = [(9, 7), (8, 6, 10), (5, 4, 3, 6)]
RANK = 3
# (targets, variant, second stage); "half" takes half the intermediate dimension
PLANS = [
    (None, "identity", None),
    (None, "identity", (None, "identity")),
    (0.6, "gaussian", None),
    (0.6, "fjlt", None),
    ("mixed", "gaussian", None),
    (0.6, "gaussian", ("half", "gaussian")),
    (0.6, "fjlt", ("half", "fjlt")),
    (0.6, "gaussian", ("half", "fjlt")),
]


def layouts(data):
    """``data`` C-ordered, F-ordered, and strided with no contiguous axis."""
    wide = np.zeros(data.shape[:-1] + (2 * data.shape[-1],), dtype=data.dtype)
    wide[..., ::2] = data
    return {"C": np.ascontiguousarray(data), "F": np.asfortranarray(data),
            "strided": wide[..., ::2]}


def plan_for(shape, targets, variant, second, seed):
    if targets == "mixed":  # one identity mode among sketched ones
        targets = [None] + [max(1, (6 * n) // 10) for n in shape[1:]]
    if second is not None and second[0] == "half":
        inner = make_plan(shape, targets, variant, seed=seed)
        second = (max(RANK, inner.intermediate_dim // 2), second[1])
    return make_plan(shape, targets, variant, second, seed)


def solves():
    """Yield ``(label, LsSolution or coefficient array)`` for every problem."""
    for s, shape in enumerate(SHAPES):
        model, T = synthesize(SynthSpec(shape, RANK, "gaussian", seed=s))
        rng = np.random.default_rng(100 + s)
        for kind in ("real", "complex"):
            noise = rng.standard_normal(shape)
            if kind == "complex":
                noise = noise + 1j * rng.standard_normal(shape)
            for layout, data in layouts(T.data + 0.1 * noise).items():
                X = DenseTensor(data, copy=False)
                tag = f"{shape} {kind} {layout}"
                exact = ls_coefficients(X, model.factors)
                yield f"{tag} exact", ls_coefficients(X, model.factors, exact.coefficients)
                for p, spec in enumerate(PLANS):
                    plan = plan_for(shape, *spec, seed=10 * s + p)
                    yield (f"{tag} plan {spec}",
                           compressed_ls_coefficients(X, model.factors, plan,
                                                      exact.coefficients))
                for mode in range(len(shape)):
                    reduced = shape[:mode] + shape[mode + 1:]
                    yield f"{tag} slice {mode}", decoupled_ls_slice(X, model.factors, mode, 1)
                    for variant in ("gaussian", "fjlt"):
                        plan = make_plan(reduced, 0.6, variant, seed=mode)
                        yield (f"{tag} slice {mode} {variant}",
                               decoupled_ls_slice(X, model.factors, mode, 1, plan))


def solve_line(label: str, solution) -> str:
    coefficients = getattr(solution, "coefficients", solution)
    return (f"{label}: {coefficients.dtype.str} {coefficients.tolist()!r} "
            f"gram_cond={getattr(solution, 'gram_cond', None)!r} "
            f"c_n_alpha={getattr(solution, 'c_n_alpha', None)!r}\n")


def run_call(number: int, line: str) -> None:
    argv = line.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejections
            status = exc.code
    log = (f"$ modesketch {' '.join(argv)}\n{out.getvalue()}--- stderr\n"
           f"{err.getvalue()}--- exit {status}\n")
    Path(f"{number:02d}.log").write_text(log, encoding="utf-8", newline="\n")


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        sys.exit(f"{outdir} is not empty")
    os.chdir(outdir)
    for number, line in enumerate(CALLS, start=1):
        run_call(number, line)
    Path("ls.solves.txt").write_text("".join(solve_line(*s) for s in solves()),
                                     encoding="utf-8", newline="\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(Path(sys.argv[1]).resolve())
