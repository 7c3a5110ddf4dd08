"""Command-line harness: synthetic data generation, tensor file inspection,
sketching, and compression-ratio sweeps with CSV output.

Examples:
  modesketch gen --shape 20,20,20 --rank 5 --kind gaussian --seed 7 --out data.dten
  modesketch info --input data.dten
  modesketch sketch --input data.dten --cs 0.3 --variant fjlt --out small.dten
  modesketch norm-exp --input data.dten --cs 0.1,0.3,0.5 --trials 100 --out norms.csv
  modesketch ls-exp --input data.dten --cs 0.3 --trials 100 --out coeffs.csv
  modesketch cpals --input data.dten --rank 5 --iters 50 --out-prefix fit

All commands are deterministic for a fixed --seed; reruns with identical
flags rewrite identical files.  Exit status is 0 on success and nonzero
with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import tensorfile
from .cpfit import SynthSpec, cp_als, synthesize
from .diagnostics import coherence
from .harness import (_check_grid, ls_experiment, norm_experiment, summarize,
                      write_records_csv, write_replay_csv)
from .sketch import make_plan, sketch_modewise
from .tensor import DenseTensor, norm

__all__ = ["main", "entry_point"]


def _csv_of(convert, what: str):
    """An argparse type reading comma-separated values with ``convert``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


_ints_csv = _csv_of(int, "integers")
_floats_csv = _csv_of(float, "numbers")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _second_stage(text: str):
    if text == "identity":
        return (None, "identity")
    try:
        m, variant = text.split(":")
        return (int(m), variant)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected M:VARIANT or 'identity', got {text!r}")


def _load_sidecar(path, shape):
    """The :class:`SynthSpec` in the sidecar of a DTEN file of ``shape``, or
    None without a sidecar; a sidecar must be a synthesis sidecar of this file."""
    meta_path = tensorfile.sidecar_path(path)
    if not meta_path.exists():
        return None
    try:
        meta = tensorfile.read_sidecar(path)
        if not isinstance(meta, dict):
            raise ValueError(f"expected a JSON object, got {type(meta).__name__}")
        if meta.get("format") != "modesketch-synth":
            raise ValueError('not a synthesis sidecar (no "format": "modesketch-synth")')
        spec = SynthSpec(**{f.name: meta[f.name] for f in fields(SynthSpec)})
        if spec.shape != shape:
            raise ValueError(f"describes shape {spec.shape}, but the file holds {shape}")
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{meta_path}: {problem}") from None
    return spec


# Flags that only describe synthetic data; --input rejects them.
_SYNTH_FLAGS = ("shape", "kind", "sigma", "gen_seed")


def _load_data(args, synth_flags=_SYNTH_FLAGS):
    """Return (tensor, model-or-None) from --input or the synthesis flags."""
    if args.input is not None:
        for name in synth_flags:
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} describes synthetic data "
                                 "and cannot be combined with --input")
        X = tensorfile.read_tensor(args.input)
        spec = _load_sidecar(args.input, X.shape)
        return X, None if spec is None else spec.model()
    if args.shape is None or args.rank is None:
        raise ValueError("either --input or both --shape and --rank are required")
    model, X = synthesize(SynthSpec(args.shape, args.rank, args.kind or "gaussian",
                                    args.sigma, args.gen_seed or 0))
    return X, model


def _cmd_gen(args, invocation: str) -> int:
    spec = SynthSpec(args.shape, args.rank, args.kind, args.sigma, args.seed)
    _, X = synthesize(spec)
    tensorfile.write_tensor(args.out, X)
    tensorfile.write_sidecar(args.out, {"format": "modesketch-synth", **asdict(spec)})
    print(f"wrote {args.out} shape={'x'.join(map(str, X.shape))} "
          f"rank={spec.rank} kind={spec.kind} seed={spec.seed}")
    return 0


def _cmd_info(args, invocation: str) -> int:
    X = tensorfile.read_tensor(args.input)
    spec = _load_sidecar(args.input, X.shape)
    print(f"tensor_shape={','.join(map(str, X.shape))}")
    print(f"tensor_modes={X.ndim}")
    print(f"tensor_entries={X.size}")
    print(f"tensor_norm={norm(X)!r}")
    if spec is not None:
        for key in ("rank", "kind", "sigma", "seed"):
            print(f"synth_{key}={getattr(spec, key)}")
        print(coherence(spec.model()).as_text())
    return 0


def _cmd_sketch(args, invocation: str) -> int:
    X = tensorfile.read_tensor(args.input)
    plan = make_plan(X.shape, args.targets, args.variant, seed=args.seed)
    Y = sketch_modewise(plan, X)
    tensorfile.write_tensor(args.out, Y)
    print(f"wrote {args.out} shape={'x'.join(map(str, Y.shape))} "
          f"plan='{plan.descriptor()}'")
    return 0


def _cmd_norm_exp(args, invocation: str) -> int:
    X, _ = _load_data(args, _SYNTH_FLAGS + ("rank",))
    records = norm_experiment(X, args.cs, args.trials, args.variant,
                              args.seed, args.second_stage)
    return _write_records(args, invocation, records)


def _cmd_ls_exp(args, invocation: str) -> int:
    X, model = _load_data(args)
    _check_grid(X.shape, args.cs, args.trials)  # fail before any fit
    if model is None:
        if args.rank is None:
            raise ValueError("--rank is required when the input has no synthesis "
                             "sidecar (a CP basis must be fitted first)")
        model, _ = cp_als(X, args.rank, max_iters=50 if args.iters is None else args.iters,
                          tol=1e-6 if args.tol is None else args.tol, seed=args.seed)
    elif args.rank not in (None, model.rank):
        raise ValueError(f"--rank {args.rank} does not match the rank {model.rank} "
                         "of the input's synthesis sidecar")
    elif args.iters is not None or args.tol is not None:
        raise ValueError("--iters and --tol apply only when a basis is fitted, but the "
                         "synthesis model supplies the basis")
    records = ls_experiment(X, model.factors, args.cs, args.trials,
                            args.variant, args.seed)
    return _write_records(args, invocation, records)


def _write_records(args, invocation: str, records) -> int:
    """The sweep commands' tail: the CSV, the summary and the "wrote" line."""
    write_records_csv(args.out, invocation, records, timing=args.timing)
    for line in summarize(records):
        print(line)
    print(f"wrote {args.out} rows={len(records)}")
    return 0


def _cmd_cpals(args, invocation: str) -> int:
    X = tensorfile.read_tensor(args.input)
    model, history = cp_als(X, args.rank, max_iters=args.iters, tol=args.tol,
                            seed=args.seed, compression=args.cs,
                            variant=args.variant)
    prefix = Path(args.out_prefix)
    tensorfile.write_tensor(f"{prefix}.alpha.dten", DenseTensor(model.weights))
    for j, f in enumerate(model.factors):
        tensorfile.write_tensor(f"{prefix}.factor{j}.dten", DenseTensor(f))
    rows = [(str(rec.iteration), repr(rec.e_cpd), rec.elapsed_s) for rec in history]
    write_replay_csv(f"{prefix}.history.csv", invocation, "iter,e_cpd,elapsed_s",
                     rows, args.timing)
    print(f"fit rank={args.rank} sweeps={len(history)} "
          f"e_cpd={history[-1].e_cpd:.6g} prefix={prefix}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modesketch", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic exact-rank tensor")
    p.add_argument("--shape", type=_ints_csv, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kind", choices=("gaussian", "coherent"), default="gaussian")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="print tensor metadata")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("sketch", help="write a modewise-sketched tensor")
    p.add_argument("--input", required=True)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--cs", dest="targets", type=float, metavar="CS",
                      help="compress every mode to this ratio")
    size.add_argument("--targets", dest="targets", type=_ints_csv,
                      help="per-mode target dims, e.g. 5,4,3")
    p.add_argument("--variant", choices=("gaussian", "fjlt", "identity"),
                   default="fjlt")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sketch)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--input", default=None)
    sweep.add_argument("--shape", type=_ints_csv, help="extents, e.g. 100,100,100")
    sweep.add_argument("--rank", type=int, help="number of rank-one terms")
    sweep.add_argument("--kind", choices=("gaussian", "coherent"), default=None,
                       help="synthetic factor kind (default gaussian)")
    sweep.add_argument("--sigma", type=float, default=None,
                       help="noise level for coherent factors")
    sweep.add_argument("--gen-seed", type=_nonneg_int, default=None,
                       help="seed for the synthetic data itself (default 0)")
    sweep.add_argument("--cs", type=_floats_csv, required=True)
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--variant", choices=("gaussian", "fjlt"), default="gaussian")
    sweep.add_argument("--seed", type=_nonneg_int, default=0)
    sweep.add_argument("--timing", action="store_true",
                       help="record wall times in the CSV (breaks byte determinism)")
    sweep.add_argument("--out", required=True)

    p = sub.add_parser("norm-exp", parents=[sweep], help="relative-norm sweep over c_s")
    p.add_argument("--second-stage", type=_second_stage, default=None)
    p.set_defaults(func=_cmd_norm_exp)

    p = sub.add_parser("ls-exp", parents=[sweep],
                       help="compressed coefficient-recovery sweep")
    p.add_argument("--iters", type=int, default=None,
                   help="ALS sweeps when a basis must be fitted (default 50)")
    p.add_argument("--tol", type=float, default=None,
                   help="ALS tolerance when a basis must be fitted (default 1e-6)")
    p.set_defaults(func=_cmd_ls_exp)

    p = sub.add_parser("cpals", help="fit a CP model by alternating least squares")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--cs", type=float, default=None,
                   help="sketch each subproblem at this compression ratio")
    p.add_argument("--variant", choices=("gaussian", "fjlt"), default="gaussian")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_cpals)

    return parser


# One parser per process, built on first use: parsing leaves no state in it,
# and building it costs about as much as a small command.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    invocation = "modesketch " + " ".join(argv)
    try:
        return args.func(args, invocation)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
