"""DTEN file format and the command-line harness."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesketch import CpModel, DenseTensor
from modesketch.cli import main
from modesketch.harness import norm_experiment
from modesketch.tensorfile import read_sidecar, read_tensor, sidecar_path, write_tensor

RNG = np.random.default_rng(606)


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

    def test_rejects_malformed_files(self, tmp_path):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_payload(self, tmp_path, capsys, bad):
        values = np.ones((3, 4), dtype=np.complex128)
        values[1, 2] = bad
        path = tmp_path / "bad.dten"
        write_tensor(path, DenseTensor(values))
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_tensor(path)
        assert main(["info", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NaN or infinite" in err and err.count("\n") == 1

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
