"""Spans and work counts recorded from outside the modesketch package.

A :class:`Tracer` wraps the public functions named in :data:`TRACED` by
rebinding each name in every ``modesketch`` module that holds it (so
``harness.sketch_modewise`` and ``cpfit.sketch_modewise`` are both caught),
and wraps the embedding and model methods on their classes.  Each call made
while the tracer is active becomes one span ``(name, start, end, parent,
op)``; spans stay in memory until the benchmark writes them out.  Calls made
while it is inactive (output checks, warm-up) pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

from modesketch.cpfit import GRAM_COND_LIMIT

# Layer (package module) -> public functions and methods timed in that layer.
TRACED = {
    "tensor": ["mode_product", "unfold", "khatri_rao_design", "outer_product", "norm"],
    "embeddings": ["GaussianEmbedding.apply_to_mode", "GaussianEmbedding.apply",
                   "FJLTEmbedding.apply_to_mode", "FJLTEmbedding.apply",
                   "gaussian_embedding", "fjlt_embedding"],
    "sketch": ["make_plan", "sketch_modewise", "sketch_full"],
    "diagnostics": ["CpModel.to_tensor", "coherence"],
    "cpfit": ["synthesize", "cp_als", "ls_coefficients", "compressed_ls_coefficients",
              "relative_reconstruction_error"],
    "harness": ["norm_experiment", "ls_experiment", "write_records_csv"],
    "tensorfile": ["read_tensor", "write_tensor"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]

# Work counts, all per op.  Flops and bytes are computed from array shapes
# (complex entries are 16 bytes, a complex multiply-add 8 flops); they ignore
# caches and temporaries and repeat exactly for the same shapes.
COUNTERS = [
    ("embeddings.gaussian.flops_computed", "flop/op"),
    ("embeddings.gaussian.bytes_computed", "B/op"),
    ("embeddings.fjlt.flops_computed", "flop/op"),
    ("embeddings.fjlt.bytes_computed", "B/op"),
    ("embeddings.normals_drawn", "count/op"),
    ("tensorfile.read_tensor.bytes", "B/op"),
    ("tensorfile.write_tensor.bytes", "B/op"),
    ("cpfit.cp_als.sweeps", "count/op"),
    ("cpfit.ls.solutions", "count/op"),
]


def _gaussian_mode_work(e, X, mode):
    n, m, size = e.n, e.m, X.size
    out = size // n * m
    return 8 * m * size, 16 * (size + m * n + out)


def _fjlt_mode_work(e, X, mode):
    # Sign flip, FFT along the mode (5 n log2 n flops per fiber), row
    # restriction and scaling; every step reads and writes its operand once.
    n, m, size = e.n, e.m, X.size
    out = size // n * m
    return size * (2 + 5 * math.log2(n)) + 2 * out, 16 * (4 * size + 4 * out)


def _columns(e, x):
    shape = getattr(x, "shape", (e.n,))
    return max(1, math.prod(shape) // e.n)


def _count_gaussian_mode(counts, args, kwargs, result):
    flops, nbytes = _gaussian_mode_work(*args[:3])
    counts["embeddings.gaussian.flops_computed"] += flops
    counts["embeddings.gaussian.bytes_computed"] += nbytes


def _count_gaussian_apply(counts, args, kwargs, result):
    e, x = args[:2]
    k = _columns(e, x)
    counts["embeddings.gaussian.flops_computed"] += 8 * e.m * e.n * k
    counts["embeddings.gaussian.bytes_computed"] += 16 * (e.n * k + e.m * e.n + e.m * k)


def _count_fjlt_mode(counts, args, kwargs, result):
    flops, nbytes = _fjlt_mode_work(*args[:3])
    counts["embeddings.fjlt.flops_computed"] += flops
    counts["embeddings.fjlt.bytes_computed"] += nbytes


def _count_fjlt_apply(counts, args, kwargs, result):
    e, x = args[:2]
    size = e.n * _columns(e, x)
    out = size // e.n * e.m
    counts["embeddings.fjlt.flops_computed"] += size * (2 + 5 * math.log2(e.n)) + 2 * out
    counts["embeddings.fjlt.bytes_computed"] += 16 * (4 * size + 4 * out)


def _count_normals(counts, args, kwargs, result):
    counts["embeddings.normals_drawn"] += result.m * result.n


def _count_file(key):
    def count(counts, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        counts[key] += os.stat(path).st_size
    return count


def _count_sweeps(counts, args, kwargs, result):
    counts["cpfit.cp_als.sweeps"] += len(result[1])


def _count_solution(counts, args, kwargs, result):
    counts["cpfit.ls.solutions"] += 1
    counts["cpfit.ls.normal_eq_solutions"] += result.gram_cond <= GRAM_COND_LIMIT


COUNT_HOOKS = {
    "embeddings.GaussianEmbedding.apply_to_mode": _count_gaussian_mode,
    "embeddings.GaussianEmbedding.apply": _count_gaussian_apply,
    "embeddings.FJLTEmbedding.apply_to_mode": _count_fjlt_mode,
    "embeddings.FJLTEmbedding.apply": _count_fjlt_apply,
    "embeddings.gaussian_embedding": _count_normals,
    "tensorfile.read_tensor": _count_file("tensorfile.read_tensor.bytes"),
    "tensorfile.write_tensor": _count_file("tensorfile.write_tensor.bytes"),
    "cpfit.cp_als": _count_sweeps,
    "cpfit.ls_coefficients": _count_solution,
    "cpfit.compressed_ls_coefficients": _count_solution,
}


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn):
        count = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of :data:`TRACED` in the loaded package."""
        homes = {layer: importlib.import_module(f"modesketch.{layer}") for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "modesketch" or key.startswith("modesketch."))]
        for layer, fns in TRACED.items():
            home = homes[layer]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original, self.wrap(name, original))
                    continue
                original = getattr(home, fn)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Calls and self time per op for every traced name, plus the counters."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    ops = max(ops, 1)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": calls[name] / ops, "unit": "calls/op"}
        metrics[f"{name}.self_ms"] = {"value": self_s[name] * 1e3 / ops, "unit": "ms/op"}
    for key, unit in COUNTERS:
        metrics[key] = {"value": tracer.counts[key] / ops, "unit": unit}
    solutions = tracer.counts["cpfit.ls.solutions"]
    ratio = tracer.counts["cpfit.ls.normal_eq_solutions"] / solutions if solutions else 0.0
    metrics["cpfit.ls.normal_eq_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics
