"""Print one SHA-256 over the bytes of a fixed set of single-plan
least-squares solves.

    python3 tools/ls_digest.py

The set covers ``ls_coefficients`` (with a reference, so ``c_n_alpha`` is
set), ``compressed_ls_coefficients`` and ``decoupled_ls_slice`` on 2- to
4-mode tensors; C-ordered, F-ordered and strided data; real and complex
data; Gaussian, FJLT and identity plans, with and without a second stage;
and every slice mode with and without a plan.  Each solve adds its
coefficients (dtype and bytes), Gram condition number and ``c_n_alpha`` to
the digest.  A change to the least-squares kernel that keeps every answer
bit for bit prints the same digest as its parent on the same machine; run
the script in both source trees and compare the two lines.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from modesketch import (DenseTensor, SynthSpec, compressed_ls_coefficients,  # noqa: E402
                        decoupled_ls_slice, ls_coefficients, make_plan, synthesize)

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
                    yield (f"{tag} {plan.descriptor()}",
                           compressed_ls_coefficients(X, model.factors, plan,
                                                      exact.coefficients))
                for mode in range(len(shape)):
                    reduced = shape[:mode] + shape[mode + 1:]
                    yield f"{tag} slice {mode}", decoupled_ls_slice(X, model.factors, mode, 1)
                    for variant in ("gaussian", "fjlt"):
                        plan = make_plan(reduced, 0.6, variant, seed=mode)
                        yield (f"{tag} slice {mode} {variant}",
                               decoupled_ls_slice(X, model.factors, mode, 1, plan))


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for label, solution in solves():
        coefficients = getattr(solution, "coefficients", solution)
        digest.update(label.encode())
        digest.update(coefficients.dtype.str.encode() + coefficients.tobytes())
        digest.update(repr((getattr(solution, "gram_cond", None),
                            getattr(solution, "c_n_alpha", None))).encode())
        count += 1
    print(f"{count} solves sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
