"""DTEN file format and the command-line harness."""

import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import (CpModel, DenseTensor, SynthSpec, compressed_ls_coefficients, cp_als,
                        ls_coefficients, make_plan, synthesize)
from modesketch import cli, harness
from modesketch.cli import main
from modesketch.harness import ExperimentRecord, _grid, norm_experiment, write_records_csv
from modesketch.tensorfile import read_sidecar, read_tensor, sidecar_path, write_tensor

RNG = np.random.default_rng(606)


def run_fresh(argv):
    """``python -m modesketch.cli`` in a fresh interpreter with Python's default
    warning filters, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "modesketch.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestTensorFile:
    def test_real_roundtrip_bit_exact(self, tmp_path):
        X = DenseTensor(RNG.standard_normal((3, 4, 5)))
        path = tmp_path / "real.dten"
        write_tensor(path, X)
        Y = read_tensor(path)
        assert Y.shape == X.shape
        assert np.array_equal(Y.data, X.data)

    def test_complex_roundtrip_bit_exact(self, tmp_path):
        X = DenseTensor(RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2)))
        path = tmp_path / "cplx.dten"
        write_tensor(path, X)
        assert np.array_equal(read_tensor(path).data, X.data)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        X = DenseTensor(RNG.standard_normal((6, 7)))
        a, b = tmp_path / "a.dten", tmp_path / "b.dten"
        write_tensor(a, X)
        write_tensor(b, read_tensor(a))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind, dtype", [(0, np.float64), (1, np.complex128)])
    def test_payload_kind_gives_the_dtype(self, tmp_path, kind, dtype):
        values = RNG.standard_normal((5, 4, 3)) + (1j if kind else 0.0)
        a, b = tmp_path / "a.dten", tmp_path / "b.dten"
        write_tensor(a, DenseTensor(values))
        assert a.read_bytes()[5] == kind
        X = read_tensor(a)
        assert X.data.dtype == dtype and X.data.flags.f_contiguous
        write_tensor(b, X)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_imaginary_part_writes_the_real_bytes(self, tmp_path, order):
        values = RNG.standard_normal((5, 4, 3))
        a, b = tmp_path / "a.dten", tmp_path / "b.dten"
        write_tensor(a, DenseTensor(values))
        write_tensor(b, DenseTensor(np.asarray(values + 0j, order=order)))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("order, limit", [("F", 0.25), ("C", 0.25)])
    def test_write_copies_the_payload_at_most_once(self, tmp_path, order, limit):
        # F-ordered data is the payload already; C-ordered data is
        # reordered one last-mode slab at a time.  The isfinite mask adds
        # an eighth either way.
        X = DenseTensor(np.asarray(RNG.standard_normal((64, 64, 64)), order=order))
        tracemalloc.start()
        try:
            write_tensor(tmp_path / "big.dten", X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * X.data.nbytes
        assert np.array_equal(read_tensor(tmp_path / "big.dten").data, X.data)

    @pytest.mark.parametrize("shape", [(10_000,), (3, 5_000), (4, 3, 2_000)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_written_in_runs_is_colexicographic(self, tmp_path, shape, order):
        # Slabs smaller than a run are grouped; the last run is partial.
        X = DenseTensor(np.asarray(RNG.standard_normal(shape), order=order))
        path = tmp_path / "runs.dten"
        write_tensor(path, X)
        payload = path.read_bytes()[7 + 8 * len(shape):]
        assert payload == X.data.ravel(order="F").astype("<f8").tobytes()

    def test_real_payload_is_compact(self, tmp_path):
        X = DenseTensor(np.ones((10, 10)))
        path = tmp_path / "real.dten"
        write_tensor(path, X)
        assert len(path.read_bytes()) == 7 + 16 + 100 * 8

    def test_vector_payload_order_is_colexicographic(self, tmp_path):
        X = DenseTensor.from_flat(np.arange(1, 9), (2, 2, 2))
        path = tmp_path / "cube.dten"
        write_tensor(path, X)
        payload = np.frombuffer(path.read_bytes()[7 + 24:], dtype="<f8")
        np.testing.assert_array_equal(payload, np.arange(1, 9))

    def test_rejects_malformed_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.dten"
        bad.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError):
            read_tensor(bad)
        truncated = tmp_path / "short.dten"
        truncated.write_bytes(b"DTEN\x01\x00\x03" + bytes(8))
        with pytest.raises(ValueError):
            read_tensor(truncated)
        wrong_version = tmp_path / "vers.dten"
        wrong_version.write_bytes(b"DTEN\x07\x00\x01" + bytes(16))
        with pytest.raises(ValueError):
            read_tensor(wrong_version)
        # 2^40 x 2^40 entries overflow a 64-bit count to 0
        huge = tmp_path / "huge.dten"
        huge.write_bytes(b"DTEN\x01\x00\x02" + struct.pack("<2Q", 2**40, 2**40))
        with pytest.raises(ValueError, match="payload size does not match shape"):
            read_tensor(huge)
        # Header errors name the file, a zero extent or mode count included.
        for name, d, extents, message in [("zero.dten", 2, (3, 0), "every extent"),
                                          ("nomode.dten", 0, (), "at least one mode")]:
            path = tmp_path / name
            path.write_bytes(b"DTEN\x01\x00" + bytes([d]) + struct.pack(f"<{d}Q", *extents))
            with pytest.raises(ValueError, match=re.escape(f"{path}: ") + f".*{message}"):
                read_tensor(path)
            assert main(["info", "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_payload(self, tmp_path, capsys, bad):
        values = np.ones((3, 4), dtype=np.complex128)
        values[1, 2] = bad
        path = tmp_path / "bad.dten"
        with pytest.raises(ValueError, match=re.escape(f"{path}: payload holds NaN or")):
            write_tensor(path, DenseTensor(values))
        assert not path.exists()
        # The same payload written by hand, as another program might.
        path.write_bytes(b"DTEN\x01\x01\x02" + struct.pack("<2Q", 3, 4)
                         + values.T.astype("<c16").tobytes())
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_tensor(path)
        assert main(["info", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NaN or infinite" in err and err.count("\n") == 1

    def test_oversized_header_rejected_before_payload_read(self, tmp_path, monkeypatch):
        path = tmp_path / "big.dten"
        write_tensor(path, DenseTensor(np.ones((64, 64, 64))))
        raw = bytearray(path.read_bytes())
        raw[7:15] = struct.pack("<Q", 65)  # declares one slab more than it holds
        path.write_bytes(bytes(raw))

        def no_read(*args, **kwargs):
            raise AssertionError("payload read before the size check")

        monkeypatch.setattr(np, "fromfile", no_read)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload size does not match"):
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(raw) / 8

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_headers_raise_only_value_error(self, tmp_path_factory, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        values = np.ones(shape) + (1j if data.draw(st.booleans()) else 0.0)
        path = tmp_path_factory.getbasetemp() / "fuzz.dten"
        write_tensor(path, DenseTensor(values))
        raw = bytearray(path.read_bytes())
        header = 7 + 8 * len(shape)
        for _ in range(data.draw(st.integers(0, 3))):
            raw[data.draw(st.integers(0, header - 1))] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            del raw[data.draw(st.integers(0, len(raw))):]
        path.write_bytes(bytes(raw))
        try:
            read_tensor(path)
        except ValueError:
            pass


class TestGen:
    def test_writes_tensor_and_sidecar(self, tmp_path):
        out = tmp_path / "d.dten"
        assert main(["gen", "--shape", "6,7,8", "--rank", "3", "--kind", "gaussian",
                     "--seed", "7", "--out", str(out)]) == 0
        X = read_tensor(out)
        assert X.shape == (6, 7, 8)
        meta = read_sidecar(out)
        assert meta["rank"] == 3 and meta["seed"] == 7 and meta["kind"] == "gaussian"

    def test_regen_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.dten", tmp_path / "b.dten"
        flags = ["gen", "--shape", "5,5,5", "--rank", "2", "--kind", "coherent",
                 "--sigma", "0.316228", "--seed", "3"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

    def test_coherent_requires_sigma(self, tmp_path):
        assert main(["gen", "--shape", "4,4", "--rank", "2", "--kind", "coherent",
                     "--out", str(tmp_path / "x.dten")]) == 1

    def test_sigma_requires_coherent(self, tmp_path, capsys):
        out = tmp_path / "x.dten"
        assert main(["gen", "--shape", "4,4", "--rank", "2", "--sigma", "0.3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "coherent" in err and err.count("\n") == 1
        assert not out.exists() and not sidecar_path(out).exists()


class TestInfo:
    def test_reports_generating_shape(self, tmp_path, capsys):
        out = tmp_path / "d.dten"
        main(["gen", "--shape", "6,7,8", "--rank", "2", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["info", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tensor_shape=6,7,8" in text
        assert "synth_rank=2" in text
        assert "max_modewise_coherence=" in text

    def test_sidecar_model_is_not_expanded(self, tmp_path, monkeypatch):
        src = tmp_path / "d.dten"
        assert main(["gen", "--shape", "6,7,8", "--rank", "2", "--seed", "1",
                     "--out", str(src)]) == 0

        def refuse(self):
            raise AssertionError("dense expansion of the sidecar model")

        monkeypatch.setattr(CpModel, "to_tensor", refuse)
        assert main(["info", "--input", str(src)]) == 0
        assert main(["ls-exp", "--input", str(src), "--cs", "0.5", "--trials", "2",
                     "--out", str(tmp_path / "l.csv")]) == 0

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["info", "--input", str(tmp_path / "nope.dten")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: [meta], "expected a JSON object, got list"),
        (lambda meta: {k: v for k, v in meta.items() if k != "rank"}, "missing field 'rank'"),
        (lambda meta: {**meta, "shape": [6, 5, 3]},
         "describes shape (6, 5, 3), but the file holds (6, 5, 4)"),
        (lambda meta: {k: v for k, v in meta.items() if k != "format"},
         'not a synthesis sidecar (no "format": "modesketch-synth")'),
        (lambda meta: {"note": "hand-written"},
         'not a synthesis sidecar (no "format": "modesketch-synth")'),
    ], ids=["list", "missing-field", "other-shape", "no-format", "other-object"])
    @pytest.mark.parametrize("command", ["info", "ls-exp"])
    def test_sidecar_must_describe_its_file(self, tmp_path, capsys, command, edit, message):
        src = tmp_path / "d.dten"
        assert main(["gen", "--shape", "6,5,4", "--rank", "2", "--seed", "1",
                     "--out", str(src)]) == 0
        sidecar_path(src).write_text(json.dumps(edit(read_sidecar(src))))
        capsys.readouterr()
        argv = [command, "--input", str(src)]
        if command == "ls-exp":
            argv += ["--cs", "0.5", "--trials", "2", "--out", str(tmp_path / "l.csv")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {sidecar_path(src)}: {message}\n"


class TestSketchCommand:
    def test_identity_writes_byte_equal_payload(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "5,6,7", "--rank", "2", "--seed", "2", "--out", str(src)])
        out = tmp_path / "s.dten"
        assert main(["sketch", "--input", str(src), "--variant", "identity",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_output_shape_is_ceil_ratio(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "12,12,12", "--rank", "2", "--seed", "2",
              "--out", str(src)])
        out = tmp_path / "s.dten"
        assert main(["sketch", "--input", str(src), "--cs", "0.3", "--variant",
                     "fjlt", "--seed", "4", "--out", str(out)]) == 0
        assert read_tensor(out).shape == (4, 4, 4)

    def test_four_mode_pipeline(self, tmp_path):
        src = tmp_path / "d4.dten"
        assert main(["gen", "--shape", "6,6,6,6", "--rank", "2", "--seed", "8",
                     "--out", str(src)]) == 0
        out = tmp_path / "s4.dten"
        assert main(["sketch", "--input", str(src), "--cs", "0.5", "--variant",
                     "gaussian", "--seed", "9", "--out", str(out)]) == 0
        assert read_tensor(out).shape == (3, 3, 3, 3)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# modesketch ")
    header = lines[1].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestNormExp:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["norm-exp", "--shape", "10,10,10", "--rank", "2",
                     "--gen-seed", "1", "--cs", "0.3,0.6", "--trials", "4",
                     "--variant", "gaussian", "--seed", "5", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["experiment", "c_s", "trial", "seed", "metric", "value",
                          "wall_ms"]
        assert len(rows) == 8
        assert {(r["experiment"], r["c_s"], r["trial"]) for r in rows} == {
            ("norm/c_n_X", c, str(t)) for c in ("0.3", "0.6") for t in range(4)}

    def test_full_restriction_gives_unit_ratio(self, tmp_path):
        out = tmp_path / "n.csv"
        main(["norm-exp", "--shape", "9,9,9", "--rank", "2", "--gen-seed", "2",
              "--cs", "1.0", "--trials", "6", "--variant", "fjlt", "--seed", "3",
              "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert all(abs(float(r["value"]) - 1.0) <= 1e-12 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "n.csv"
        flags = ["norm-exp", "--shape", "8,8,8", "--rank", "2", "--gen-seed", "3",
                 "--cs", "0.5", "--trials", "5", "--variant", "fjlt", "--seed", "9",
                 "--out", str(out)]
        assert main(flags) == 0
        first = out.read_bytes()
        assert main(flags) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("variant", ["gaussian", "fjlt"])
    def test_identity_second_stage_is_no_stage(self, tmp_path, variant):
        model, X = synthesize(SynthSpec((20, 20, 20), 4, "gaussian", seed=1))
        for cs, stage in [([0.2, 0.5], (None, "identity")), ([0.5], (10 ** 3, "identity"))]:
            want = norm_experiment(X, cs, 3, variant, seed=5)
            got = norm_experiment(X, cs, 3, variant, seed=5, second_stage=stage)
            assert [r.value for r in got] == [r.value for r in want]
        path = tmp_path / "cube.dten"
        write_tensor(path, X)
        flags = ["norm-exp", "--input", str(path), "--cs", "0.2,0.5", "--trials", "3",
                 "--seed", "5", "--variant", variant]
        assert main(flags + ["--out", str(tmp_path / "none.csv")]) == 0
        assert main(flags + ["--second-stage", "identity", "--out", str(tmp_path / "id.csv")]) == 0
        none, staged = ((tmp_path / f).read_text().splitlines() for f in ("none.csv", "id.csv"))
        assert staged[1:] == none[1:]
        assert staged[0].endswith(" --second-stage identity --out " + str(tmp_path / "id.csv"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError) as info:
            norm_experiment(DenseTensor(np.ones((4, 4))), [], 2)
        assert str(info.value) == "need at least one compression ratio"

    def test_timing_flag_adds_wall_times(self, tmp_path):
        out = tmp_path / "n.csv"
        main(["norm-exp", "--shape", "6,6", "--rank", "1", "--cs", "0.5",
              "--trials", "2", "--seed", "1", "--timing", "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert all(float(r["wall_ms"]) >= 0.0 for r in rows)

    def test_bad_ratio_fails(self, tmp_path, capsys):
        assert main(["norm-exp", "--shape", "6,6", "--rank", "1", "--cs", "1.5",
                     "--trials", "2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("second", [None, "10:gaussian"])
    def test_zero_tensor_rejected(self, tmp_path, capsys, second):
        zero = DenseTensor.zeros((4, 4, 4))
        stage = None if second is None else (10, "gaussian")
        with pytest.raises(ValueError, match="zero norm"):
            norm_experiment(zero, [0.5], 2, second_stage=stage)
        path = tmp_path / "zeros.dten"
        write_tensor(path, zero)
        argv = ["norm-exp", "--input", str(path), "--cs", "0.5", "--trials", "2",
                "--out", str(tmp_path / "z.csv")]
        assert main(argv + ([] if second is None else ["--second-stage", second])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero norm" in err and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        values = np.ones((4, 4, 4))
        values[1, 2, 3] = bad
        with pytest.raises(ValueError, match=f"the data tensor has norm {bad}"):
            norm_experiment(DenseTensor(values), [0.5], 2)

    def test_overflowing_norm_rejected_in_one_line(self, tmp_path, capsys):
        values = np.ones((4, 4, 4))
        values[1, 2, 3] = 1e200  # finite, but its square overflows the norm
        with pytest.raises(ValueError, match="the data tensor has norm inf"):
            norm_experiment(DenseTensor(values), [0.5], 2)
        path = tmp_path / "big.dten"
        write_tensor(path, DenseTensor(values))
        argv = ["norm-exp", "--input", str(path), "--cs", "0.5", "--trials", "2",
                "--out", str(tmp_path / "big.csv")]
        message = "error: norm ratios are undefined: the data tensor has norm inf\n"
        assert main(argv) == 1
        assert capsys.readouterr().err == message
        failed = run_fresh(argv)
        assert (failed.returncode, failed.stderr) == (1, message)
        shown = run_fresh(["info", "--input", str(path)])
        assert (shown.returncode, shown.stderr) == (0, "")
        assert "tensor_norm=inf\n" in shown.stdout

    def test_sigma_without_coherent_kind_rejected(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert main(["norm-exp", "--shape", "6,6", "--rank", "1", "--sigma", "0.2",
                     "--cs", "0.5", "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "coherent" in err and err.count("\n") == 1
        assert not out.exists()

    def test_second_stage_flag(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["norm-exp", "--shape", "8,8,8", "--rank", "2",
                     "--gen-seed", "1", "--cs", "0.5", "--trials", "3",
                     "--second-stage", "20:fjlt", "--seed", "2",
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        assert len(rows) == 3


class TestLsExp:
    def test_unit_ratio_at_full_restriction(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["ls-exp", "--shape", "10,10,10", "--rank", "3",
                     "--gen-seed", "4", "--cs", "1.0", "--trials", "3",
                     "--variant", "fjlt", "--seed", "6", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        ratios = [float(r["value"]) for r in rows if r["metric"] == "c_n_alpha"]
        assert ratios and all(abs(v - 1.0) <= 1e-10 for v in ratios)

    def test_rows_sorted_and_unique(self, tmp_path):
        out = tmp_path / "l.csv"
        main(["ls-exp", "--shape", "8,8,8", "--rank", "2", "--gen-seed", "5",
              "--cs", "0.4,0.8", "--trials", "3", "--seed", "7", "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert len(rows) == 2 * 2 * 3  # two metric streams per grid point
        keys = [(r["experiment"], r["c_s"], r["trial"]) for r in rows]
        assert len(set(keys)) == len(keys)
        grid = [(float(r["c_s"]), int(r["trial"])) for r in rows]
        assert grid == sorted(grid)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "l.csv"
        flags = ["ls-exp", "--shape", "8,8,8", "--rank", "2", "--gen-seed", "5",
                 "--cs", "0.5", "--trials", "3", "--seed", "8", "--out", str(out)]
        assert main(flags) == 0
        first = out.read_bytes()
        assert main(flags) == 0
        assert out.read_bytes() == first

    def test_timing_gives_each_trial_one_positive_wall_time(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["ls-exp", "--shape", "8,8,8", "--rank", "2", "--gen-seed", "5",
                     "--cs", "0.4,0.8", "--trials", "3", "--seed", "7", "--timing",
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        walls = {}
        for r in rows:
            walls.setdefault((r["c_s"], r["trial"]), set()).add(r["wall_ms"])
        assert len(walls) == 6
        assert all(len(w) == 1 and float(min(w)) > 0.0 for w in walls.values())

    def test_untimed_output_is_that_of_separate_solves(self, tmp_path):
        # an 8x8x3 rank-2 tensor gives one cell per pass over it, so every
        # cell is the single-plan solve and the CSV matches their loop's bytes
        out, want = tmp_path / "l.csv", tmp_path / "w.csv"
        argv = ["ls-exp", "--shape", "8,8,3", "--rank", "2", "--gen-seed", "5",
                "--cs", "0.4,0.8", "--trials", "3", "--variant", "fjlt", "--seed", "7",
                "--out", str(out)]
        assert main(argv) == 0
        model, X = synthesize(SynthSpec((8, 8, 3), 2, seed=5))
        reference = ls_coefficients(X, model.factors).coefficients
        records = []
        for cs, t, seed in _grid(X.shape, [0.4, 0.8], 3, 7):
            plan = make_plan(X.shape, cs, "fjlt", seed=seed)
            sol = compressed_ls_coefficients(X, model.factors, plan, reference)
            err = float(np.linalg.norm(sol.coefficients - reference) / np.linalg.norm(reference))
            records += [ExperimentRecord("ls/c_n_alpha", cs, t, seed, "c_n_alpha",
                                         sol.c_n_alpha, 0.0),
                        ExperimentRecord("ls/alpha_rel_err", cs, t, seed, "alpha_rel_err",
                                         err, 0.0)]
        write_records_csv(want, "modesketch " + " ".join(argv), records)
        assert out.read_bytes() == want.read_bytes()

    def test_exact_rank_data_recovers_at_partial_compression(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["ls-exp", "--shape", "12,12,12", "--rank", "3",
                     "--gen-seed", "6", "--cs", "0.3", "--trials", "20",
                     "--variant", "gaussian", "--seed", "9", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        ratios = [float(r["value"]) for r in rows if r["metric"] == "c_n_alpha"]
        assert 0.9 <= np.median(ratios) <= 1.1

    def test_fits_basis_when_no_sidecar(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "2", "--seed", "2",
              "--out", str(src)])
        sidecar_path(src).unlink()
        out = tmp_path / "l.csv"
        assert main(["ls-exp", "--input", str(src), "--rank", "2", "--iters", "40",
                     "--cs", "0.5", "--trials", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        assert main(["ls-exp", "--input", str(src), "--cs", "0.5", "--trials", "2",
                     "--out", str(tmp_path / "x.csv")]) == 1  # no --rank


    @pytest.mark.parametrize("flags, message", [
        (["--cs", "1.5", "--trials", "2"], "compression ratio must lie in (0, 1], got 1.5"),
        (["--cs", "0.5", "--trials", "0"], "need at least one trial"),
    ])
    def test_bad_grid_fails_before_fitting(self, tmp_path, capsys, monkeypatch,
                                           flags, message):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "2", "--seed", "2",
              "--out", str(src)])
        sidecar_path(src).unlink()
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("cp_als ran before the grid was checked")

        monkeypatch.setattr("modesketch.cli.cp_als", no_fit)
        assert main(["ls-exp", "--input", str(src), "--rank", "2", *flags,
                     "--out", str(tmp_path / "l.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "l.csv").exists()

    def test_grid_seeds_are_derived_once(self, tmp_path, monkeypatch):
        derived = []

        def recording(*key, original=harness.derive_seed):
            derived.append(key)
            return original(*key)

        monkeypatch.setattr("modesketch.harness.derive_seed", recording)
        assert main(["ls-exp", "--shape", "8,8,8", "--rank", "2", "--cs", "0.4,0.8",
                     "--trials", "3", "--seed", "7", "--out", str(tmp_path / "l.csv")]) == 0
        assert derived == [(7, 4, ci, t) for ci in range(2) for t in range(3)]

    @pytest.mark.parametrize("flags, iters, tol", [([], 50, 1e-6),
                                                   (["--iters", "7", "--tol", "0.5"], 7, 0.5)])
    def test_fit_flags_apply_when_basis_is_fitted(self, tmp_path, monkeypatch, flags,
                                                  iters, tol):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "2", "--seed", "2", "--out", str(src)])
        sidecar_path(src).unlink()
        seen = {}

        def fit(X, rank, **kwargs):
            seen.update(kwargs)
            return cp_als(X, rank, **kwargs)

        monkeypatch.setattr("modesketch.cli.cp_als", fit)
        assert main(["ls-exp", "--input", str(src), "--rank", "2", "--cs", "0.5",
                     "--trials", "2", *flags, "--out", str(tmp_path / "l.csv")]) == 0
        assert seen["max_iters"] == iters and seen["tol"] == tol

    @pytest.mark.parametrize("flags", [["--iters", "3"], ["--tol", "0.5"],
                                       ["--iters", "3", "--tol", "0.5"]])
    def test_fit_flags_rejected_when_sidecar_supplies_basis(self, tmp_path, capsys, flags):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "2", "--seed", "2", "--out", str(src)])
        capsys.readouterr()
        out = tmp_path / "l.csv"
        assert main(["ls-exp", "--input", str(src), "--cs", "0.5", "--trials", "2",
                     *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err and err.count("\n") == 1
        assert not out.exists()

    def test_rank_must_match_sidecar(self, tmp_path, capsys):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "3", "--seed", "2",
              "--out", str(src)])
        capsys.readouterr()
        flags = ["ls-exp", "--input", str(src), "--cs", "0.5", "--trials", "2",
                 "--out", str(tmp_path / "l.csv")]
        assert main(flags + ["--rank", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--rank 1" in err and "rank 3" in err
        assert len(err.splitlines()) == 1
        assert main(flags + ["--rank", "3"]) == 0


class TestCpalsCommand:
    def test_writes_model_and_history(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "8,8,8", "--rank", "2", "--seed", "6", "--out", str(src)])
        prefix = tmp_path / "fit"
        assert main(["cpals", "--input", str(src), "--rank", "2", "--iters", "40",
                     "--tol", "0", "--seed", "9", "--out-prefix", str(prefix)]) == 0
        alpha = read_tensor(f"{prefix}.alpha.dten")
        assert alpha.shape == (2,)
        for j in range(3):
            assert read_tensor(f"{prefix}.factor{j}.dten").shape == (8, 2)
        lines = (tmp_path / "fit.history.csv").read_text().splitlines()
        assert lines[1] == "iter,e_cpd,elapsed_s"
        assert len(lines) == 2 + 40  # one row per executed sweep
        final = float(lines[-1].split(",")[1])
        assert final < 1e-6

    def test_zero_iters_rejected(self, tmp_path, capsys):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "6,6", "--rank", "1", "--out", str(src)])
        assert main(["cpals", "--input", str(src), "--rank", "1", "--iters", "0",
                     "--out-prefix", str(tmp_path / "f")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cpals", "ls-exp"])
    def test_nan_tolerance_rejected(self, tmp_path, capsys, command):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "6,6", "--rank", "1", "--out", str(src)])
        sidecar_path(src).unlink()  # so ls-exp fits a basis
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--input", str(src), "--rank", "1", "--tol", "nan"]
        argv += (["--out-prefix", str(out)] if command == "cpals" else
                 ["--cs", "0.5", "--trials", "2", "--out", str(out)])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: tol must not be NaN\n")
        assert list(tmp_path.iterdir()) == [src]

    def test_cs_takes_one_ratio(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cpals", "--input", str(tmp_path / "d.dten"), "--rank", "2",
                  "--cs", "0.5,0.9", "--out-prefix", str(tmp_path / "f")])

    def test_sketched_fit_runs(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "12,12,12", "--rank", "2", "--seed", "3",
              "--out", str(src)])
        assert main(["cpals", "--input", str(src), "--rank", "2", "--iters", "15",
                     "--cs", "0.6", "--variant", "fjlt", "--seed", "4",
                     "--out-prefix", str(tmp_path / "g")]) == 0

    def test_rank_sweep_improves_fit(self, tmp_path):
        src = tmp_path / "d.dten"
        main(["gen", "--shape", "12,12,12", "--rank", "5", "--seed", "10",
              "--out", str(src)])

        def final_error(rank, prefix):
            assert main(["cpals", "--input", str(src), "--rank", str(rank),
                         "--iters", "60", "--tol", "1e-9", "--seed", "11",
                         "--out-prefix", str(tmp_path / prefix)]) == 0
            last = (tmp_path / f"{prefix}.history.csv").read_text().splitlines()[-1]
            return float(last.split(",")[1])

        assert final_error(5, "r5") < final_error(1, "r1")


class TestArgumentHandling:
    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_sketch_rejects_cs_with_targets(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--input", str(tmp_path / "d.dten"), "--cs", "0.5",
                  "--targets", "5,4,3", "--out", str(tmp_path / "s.dten")])
        assert exc.value.code != 0

    def test_malformed_integer_list_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--shape", "3,x", "--rank", "1", "--out", str(tmp_path / "x.dten")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "modesketch gen: error: argument --shape: expected comma-separated integers, "
            "got '3,x'")

    @pytest.mark.parametrize("extra", [[], ["--shape", "4,4"], ["--rank", "2"]],
                             ids=["neither", "shape-only", "rank-only"])
    def test_sweep_needs_input_or_shape_and_rank(self, tmp_path, capsys, extra):
        out = tmp_path / "x.csv"
        assert main(["ls-exp", "--cs", "0.5", "--out", str(out)] + extra) == 1
        assert capsys.readouterr().err == (
            "error: either --input or both --shape and --rank are required\n")
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--shape", "4,4", "--rank", "1", "--seed", "-3",
                  "--out", str(tmp_path / "x.dten")])

    @pytest.mark.parametrize("command,extra", [
        ("ls-exp", ["--shape", "4,4"]),
        ("ls-exp", ["--kind", "coherent"]),
        ("ls-exp", ["--sigma", "0.2"]),
        ("ls-exp", ["--gen-seed", "9"]),
        ("ls-exp", ["--gen-seed", "0"]),
        ("norm-exp", ["--shape", "4,4"]),
        ("norm-exp", ["--kind", "gaussian"]),
        ("norm-exp", ["--sigma", "0.2"]),
        ("norm-exp", ["--gen-seed", "9"]),
        ("norm-exp", ["--rank", "7"]),
    ])
    def test_input_rejects_synthesis_flags(self, tmp_path, capsys, command, extra):
        src = tmp_path / "g.dten"
        main(["gen", "--shape", "6,6,6", "--rank", "2", "--seed", "1", "--out", str(src)])
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main([command, "--input", str(src), "--cs", "0.5", "--trials", "2",
                     "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and extra[0] in err and "--input" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ls-exp", "norm-exp"])
    def test_plain_input_still_runs(self, tmp_path, command):
        src = tmp_path / "g.dten"
        main(["gen", "--shape", "6,6,6", "--rank", "2", "--seed", "1", "--out", str(src)])
        assert main([command, "--input", str(src), "--cs", "0.5", "--trials", "2",
                     "--out", str(tmp_path / "x.csv")]) == 0

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # A rejected ls-exp, then norm-exp, then ls-exp through the process's
        # one parser give what a freshly built parser gives each call.
        calls = [
            ["ls-exp", "--input", "g.dten", "--cs", "0.5", "--trials", "x", "--out", "bad.csv"],
            ["norm-exp", "--input", "g.dten", "--cs", "0.5", "--trials", "2",
             "--second-stage", "10:fjlt", "--out", "n.csv"],
            ["ls-exp", "--input", "g.dten", "--cs", "0.5", "--trials", "2", "--out", "l.csv"],
        ]

        def run_all(where):
            where.mkdir()
            monkeypatch.chdir(where)
            main(["gen", "--shape", "6,5,4", "--rank", "2", "--seed", "1", "--out", "g.dten"])
            capsys.readouterr()
            results = []
            for argv in calls:
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
                results.append((status, *capsys.readouterr()))
            files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
            return results, files

        cli._parser.cache_clear()
        shared = run_all(tmp_path / "shared")
        assert cli._parser.cache_info().misses == 1
        assert [status for status, *_ in shared[0]] == [2, 0, 0]
        for argv in calls[1:]:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert "iters" not in vars(cli._parser().parse_args(calls[1]))
        assert "second_stage" not in vars(cli._parser().parse_args(calls[2]))

        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all(tmp_path / "fresh") == shared
