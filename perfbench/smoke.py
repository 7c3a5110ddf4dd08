"""Smoke test of the benchmark itself, at tiny shapes.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload traced and untraced, checks that the tracer catches
calls made through imported names and class methods, and checks the
self-time and tail arithmetic on synthetic data.  Kept outside the tier-1
suite: nothing here depends on timing.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import modesketch  # noqa: E402
from modesketch import cpfit, harness, sketch  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name):
    w = workloads.build(name)
    if name == "two_stage_sweep":
        return replace(w, shape=(64, 8, 8), rank=2,
                       configs=[(v, 0.5, (20, s)) for v, _, (_, s) in w.configs])
    if name == "cli_files":
        return replace(w, shape=(8, 8, 8), rank=2, ls_trials=2)
    return replace(w, shape=(8, 7, 6), rank=2)


def declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_clean(name, trace, tmp_path):
    w = tiny(name)
    result, _ = run.measure(w, seed=3, seconds=0.02, trace=trace, rundir=tmp_path)
    assert result["first_error"] is None
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(w.configs)
    section = "per_layer" if trace else "end_to_end"
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == declared(section)


def test_tracer_catches_imported_names():
    model, X = cpfit.synthesize(modesketch.SynthSpec((8, 7, 6), 2, seed=1))
    original = sketch.make_plan
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.make_plan is not original and cpfit.make_plan is harness.make_plan
        assert modesketch.make_plan is harness.make_plan
        tracer.active = True
        harness.norm_experiment(X, [0.5], 1, "gaussian", seed=2)
        cpfit.cp_als(X, 2, max_iters=2, seed=3, compression=0.5, variant="fjlt")
        tracer.active = False
        modesketch.make_plan(X.shape, (2, 2, 2), "gaussian", seed=4)
    finally:
        tracer.uninstall()
    assert harness.make_plan is original and cpfit.make_plan is original
    names = [span[0] for span in tracer.spans]
    for name in ["harness.norm_experiment", "sketch.make_plan", "sketch.sketch_modewise",
                 "embeddings.GaussianEmbedding.apply_to_mode", "embeddings.gaussian_embedding",
                 "tensor.mode_product", "tensor.norm", "cpfit.cp_als",
                 "cpfit.relative_reconstruction_error", "diagnostics.CpModel.to_tensor",
                 "tensor.outer_product", "tensor.unfold", "tensor.khatri_rao_design",
                 "embeddings.FJLTEmbedding.apply_to_mode", "embeddings.FJLTEmbedding.apply"]:
        assert name in names, name
    # The inactive call above left no span; parents point at the caller.
    assert names.count("sketch.make_plan") == 1 + 2
    first_plan = names.index("sketch.make_plan")
    assert tracer.spans[tracer.spans[first_plan][3]][0] == "harness.norm_experiment"
    assert tracer.counts["embeddings.normals_drawn"] == 4 * 8 + 4 * 7 + 3 * 6
    assert tracer.counts["cpfit.cp_als.sweeps"] == 2


def test_self_time_arithmetic():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),    # overlaps a: [1, 5] is covered once
        ("c", 8.0, 12.0, 0, 0),   # clipped to the parent's end
        ("a.child", 1.5, 2.5, 1, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(v) for v in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cp_fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_dense_fjlt_matches_as_matrix():
    rng = modesketch.make_rng(5)
    for n in (1, 2, 7, 16, 33):
        e = modesketch.fjlt_embedding(max(1, n // 2), n, rng)
        assert abs(workloads.dense_map(e) - e.as_matrix()).max() < 1e-12 * n


def test_oracle_rejects_a_wrong_norm(tmp_path):
    w = tiny("modewise_sweep")
    w.setup(tmp_path, 1)
    w.prepare_oracle()
    config = w.configs[-1]
    records = w.run(config, 9)
    w.check(config, 9, records)
    wrong = [replace(records[0], value=records[0].value * (1 + 1e-8))]
    with pytest.raises(workloads.CheckFailed):
        w.check(config, 9, wrong)
