"""Closed-loop benchmark of modesketch: one caller, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each op starts only after the previous one has
finished and been checked.  The run stops at the end of the first cycle of
configurations after S seconds of op time.  With ``--trace 0`` the
end-to-end metrics are measured, the op figures over the fastest tenth of
half-second windows (see ``Loop.quiet_latencies``); with ``--trace 1``
half the time runs untraced and half traced, giving the per-layer metrics
and the tracing overhead.  Every metric is printed as ``name value
unit``; the last line of standard output is one JSON object.  A full result
file with an environment block (and, when traced, the spans) goes to
``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WARMUP_STREAM, MEASURE_STREAM = 1, 2
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WINDOW_S = 0.5       # a window: the fewest whole cycles with this much op time
QUIET_SHARE = 0.1    # op figures come from this share of windows, fastest first,
QUIET_MIN_OPS = 40   # and from at least this many ops
DEADLINE_S = 150.0
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread.  Must run before numpy is imported.

    With a pool of ``nproc`` threads, one busy process elsewhere on the host
    stalls the pool at every synchronisation: on 2 vCPUs a one-core busy loop
    cut ``cli_files`` from 64 to 21 ops/s, while one thread went from 56 to
    53 ops/s.  The benchmark should measure the program, not the neighbours.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_seconds() -> float:
    """Shortest time to import modesketch (and with it numpy) in a fresh
    interpreter, over SETUP_REPEATS interpreters."""
    probe = ("import time; start = time.perf_counter(); import modesketch; "
             "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout))
    return min(samples)


def op_seed(seed: int, stream: int, op: int) -> int:
    """A 32-bit seed that depends only on its three arguments."""
    digest = hashlib.sha256(f"{seed}:{stream}:{op}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Loop:
    """Outcome of one measured closed loop."""

    def __init__(self):
        self.cycles: list[list[float]] = []  # latencies of the checked ops, per cycle
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.observations: list = []
        self.first_error = None

    @property
    def latencies(self) -> list[float]:
        return [t for cycle in self.cycles for t in cycle]

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy > 0 else 0.0

    def quiet_latencies(self) -> tuple[list[float], int, int]:
        """Latencies from the fastest windows of the run, with the number of
        windows kept and formed.

        The run is cut into windows of whole cycles, each at least WINDOW_S
        long, so every window holds the same mix of configurations.  Windows
        are kept fastest first until QUIET_SHARE of them and QUIET_MIN_OPS
        ops are in.  On a shared host the op rate of the cache-resident
        workloads swings by 30% over a few seconds as neighbours come and go;
        the fastest windows are the ones they disturbed least, while a change
        to the program moves every window alike.
        """
        windows, current = [], []
        for cycle in self.cycles:
            current += cycle
            if sum(current) >= WINDOW_S:
                windows.append(current)
                current = []
        if current:
            if windows:
                windows[-1] += current
            else:
                windows.append(current)
        windows.sort(key=lambda w: sum(w) / len(w))
        kept: list[float] = []
        used = 0
        for window in windows:
            if used >= QUIET_SHARE * len(windows) and len(kept) >= QUIET_MIN_OPS:
                break
            kept += window
            used += 1
        return kept, used, len(windows)

    def record_failure(self, config, exc: BaseException) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{config}: " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def run_ops(workload, seed: int, stream: int, seconds: float, tracer=None) -> Loop:
    """Run whole config cycles, at least one, until ``seconds`` of op time
    have passed."""
    loop = Loop()
    op = 0
    cycles = 0
    while cycles == 0 or loop.busy < seconds:
        if time.perf_counter() - PROCESS_START > DEADLINE_S:
            break
        checked = []
        for config in workload.configs:
            s = op_seed(seed, stream, op)
            if tracer is not None:
                tracer.op, tracer.active = op, True
            error = None
            start = time.perf_counter()
            try:
                result = workload.run(config, s)
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            loop.busy += elapsed
            loop.attempted += 1
            op += 1
            if error is None:
                try:
                    observation = workload.check(config, s, result)
                    if observation is not None:
                        loop.observations.append(observation)
                except Exception as exc:  # a wrong output counts as failed
                    error = exc
            if error is None:
                checked.append(elapsed)
            else:
                loop.record_failure(config, error)
        loop.cycles.append(checked)
        cycles += 1
    return loop


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, loop: Loop, setup_s: float) -> tuple[dict, dict]:
    """The declared end-to-end metrics, and the extra per-workload ones.
    The op figures come from the run's quietest windows; the same figures
    over the whole run are kept as extras."""
    quiet, used, formed = loop.quiet_latencies()
    lat_ms = [t * 1e3 for t in quiet] or [float("nan")]
    tail_ms, tail_pct = tail(lat_ms)
    run_ms = [t * 1e3 for t in loop.latencies] or [float("nan")]
    values = {
        "ops_per_s": len(quiet) / sum(quiet) if quiet else 0.0,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    extra = {
        "failed_ratio": {"value": loop.failed / max(loop.attempted, 1), "unit": "ratio"},
        "op_tail_percentile": {"value": tail_pct, "unit": "%"},
        "op_samples": {"value": len(quiet), "unit": "count"},
        "windows_kept": {"value": used, "unit": "count"},
        "windows_formed": {"value": formed, "unit": "count"},
        "run_ops_per_s": {"value": loop.ops_per_s, "unit": "1/s"},
        "run_op_p50_ms": {"value": statistics.median(run_ms), "unit": "ms"},
        "run_op_tail_ms": {"value": tail(run_ms)[0], "unit": "ms"},
    }
    extra.update(workload.summary(loop.observations))
    return metrics, extra


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def l3_bytes():
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return None


def environment(blas_threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": blas_threads,
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, rundir: Path,
            import_s: float = 0.0):
    """Set up, warm up and measure one workload.  Returns the result record
    and the tracer (``None`` when untraced)."""
    from tracing import Tracer, per_layer_metrics

    gen_seed = op_seed(seed, 0, 0)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(rundir, gen_seed)
        setup_times.append(time.perf_counter() - start)
    # The fastest of several tries: over two sets of five modewise_sweep
    # runs, the median of five moved from 0.091 s to 0.121 s.
    setup_s = import_s + min(setup_times)
    workload.prepare_oracle()

    warmup = run_ops(workload, seed, WARMUP_STREAM, 0.0)
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_repeats_s": setup_times, "import_s": import_s}
    tracer = None
    if not trace:
        loop = run_ops(workload, seed, MEASURE_STREAM, seconds)
        loops = [warmup, loop]
        metrics, extra = end_to_end(workload, loop, setup_s)
    else:
        # Both halves run the same op seeds, so their rates compare op for op.
        untraced = run_ops(workload, seed, MEASURE_STREAM, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_ops(workload, seed, MEASURE_STREAM, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        loops = [warmup, untraced, loop]
        metrics = per_layer_metrics(tracer, loop.attempted)
        metrics["trace.overhead_ops_per_s"] = {
            "value": untraced.ops_per_s - loop.ops_per_s, "unit": "1/s"}
        extra = {"untraced_ops_per_s": {"value": untraced.ops_per_s, "unit": "1/s"},
                 "traced_ops_per_s": {"value": loop.ops_per_s, "unit": "1/s"},
                 "spans": {"value": len(tracer.spans), "unit": "count"}}
    failed = sum(lp.failed for lp in loops)
    result.update({
        "correct": failed == 0,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": failed,
        "first_error": next((lp.first_error for lp in loops if lp.first_error), None),
        "metrics": metrics,
        "extra": extra,
        "latencies_ms": [t * 1e3 for t in loop.latencies],
    })
    return result, tracer


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modesketch" / "__init__.py").is_file():
        print(f"error: no modesketch sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import modesketch
    if Path(modesketch.__file__).resolve().parent != SRC / "modesketch":
        print(f"error: imported modesketch from {modesketch.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads.NAMES}", file=sys.stderr)
        return 2

    import_s = import_seconds()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir = OUT / stem
    rundir.mkdir()
    try:
        result, tracer = measure(workloads.build(args.workload), args.seed, args.seconds,
                                 bool(args.trace), rundir, import_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    result["environment"] = environment(blas_threads)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for key, value in result["environment"].items():
        print(f"env {key} {value}")
    for name, m in {**result["metrics"], **result["extra"]}.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if result["first_error"]:
        print(f"first failure: {result['first_error']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
