import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest

from hyperdiff.cli import main
from hyperdiff.covariance import covariance_legendre
from hyperdiff.field_sim import grid_from_binary
from hyperdiff.kernel import transfer
from hyperdiff.measure import DiffusionParams, SpectralMeasure
from hyperdiff.spectrum import c_l


@pytest.fixture
def atom_config(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({
        "params": {"c": 1.0, "D": 1.0},
        "measure": {"atoms": [{"mu": 1.0, "mass": 1.0}], "segments": []},
    }))
    return str(path)


@pytest.fixture
def origin_segment_config(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text(json.dumps({
        "params": {"c": 1.0, "D": 1.0},
        "measure": {"atoms": [],
                    "segments": [{"lo": 0.0, "hi": 1.0,
                                  "amplitude": 1.0, "exponent": 0.5}]},
    }))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestKernelCommand:
    def test_zero_mode_row(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["kernel", "--c", "1", "--D", "1", "--mu", "0",
                     "--t", "5", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "kernel.csv"))
        assert header == ["mu", "t", "h1", "h2", "h"]
        assert float(rows[0][4]) == 1.0

    def test_wave_value(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["kernel", "--c", "1", "--D", "1", "--mu", "1",
                     "--t", "1", "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "kernel.csv"))
        assert float(rows[0][4]) == pytest.approx(0.6597, abs=5e-5)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["kernel", "--config", str(bad), "--mu", "0", "--t", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_params_required(self, tmp_path):
        rc = main(["kernel", "--mu", "0", "--t", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_output_dir_parent_is_created(self, tmp_path):
        out = str(tmp_path / "a" / "b")
        assert main(["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "1",
                     "--out", out]) == 0

    def test_work_dir_inside_existing_out(self, tmp_path, monkeypatch):
        # an existing --out hosts the work directory, so nothing is written
        # above it; a new --out uses its nearest existing ancestor
        dirs = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            dirs.append(kwargs["dir"])
            return real_mkdtemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        out = tmp_path / "run"
        args = ["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "1"]
        assert main(args + ["--out", str(out / "new")]) == 0
        assert main(args + ["--out", str(out)]) == 0
        assert dirs == [str(tmp_path), str(out)]
        assert sorted(os.listdir(out)) == ["kernel.csv", "manifest.json", "new"]

    def test_io_error_exits_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "1",
                   "--out", str(blocker / "sub")])
        assert rc == 4


class TestSpectrumCommand:
    def test_rows_match_library(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["spectrum", "--config", atom_config, "--lmax", "3",
                     "--times", "0,0.1", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "spectrum.csv"))
        assert header == ["t", "t_prime", "l", "C_l"]
        assert len(rows) == 6
        m = SpectralMeasure(atoms=((1.0, 1.0),))
        p = DiffusionParams(1.0, 1.0)
        for row in rows:
            t, tp, l, value = float(row[0]), float(row[1]), int(row[2]), float(row[3])
            assert value == pytest.approx(c_l(l, t, tp, m, p), rel=1e-12)

    def test_single_degree(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["spectrum", "--config", atom_config, "--lmax", "1",
                     "--times", "0", "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "spectrum.csv"))
        assert len(rows) == 1

    def test_descending_times_rejected(self, atom_config, tmp_path):
        rc = main(["spectrum", "--config", atom_config, "--lmax", "2",
                   "--times", "0.1,0.0", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestCovarianceCommand:
    def test_gamma_zero_equals_variance(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["covariance", "--config", atom_config, "--gammas", "0",
                     "--t", "0", "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "covariance.csv"))
        assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-10)

    def test_both_routes_agree(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["covariance", "--config", atom_config,
                     "--gammas", "0,0.7,1.5,3.0", "--t", "0.2", "--route", "both",
                     "--lmax", "48", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "covariance.csv"))
        assert header == ["gamma", "R_spectral", "R_legendre", "remainder",
                          "discrepancy"]
        for row in rows:
            assert float(row[4]) <= float(row[3]) + 1e-9

    def test_gamma_out_of_range(self, atom_config, tmp_path):
        rc = main(["covariance", "--config", atom_config, "--gammas", "3.5",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        for gammas in ("nan", "0.5,inf"):
            for route in ("spectral", "legendre", "both"):
                out = tmp_path / f"{route}_{gammas}"
                rc = main(["covariance", "--config", atom_config,
                           "--gammas", gammas, "--route", route, "--out", str(out)])
                assert rc == 2
                assert not (out / "covariance.csv").exists()

    def test_legendre_rows_match_library(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["covariance", "--config", atom_config, "--gammas", "0,1.2,3.0",
                     "--t", "0.2", "--t-prime", "0.5", "--route", "legendre",
                     "--lmax", "24", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "covariance.csv"))
        assert header == ["gamma", "R", "remainder"]
        m = SpectralMeasure(atoms=((1.0, 1.0),))
        for row in rows:
            lc = covariance_legendre(float(row[0]), 0.2, 0.5, m,
                                     DiffusionParams(1.0, 1.0), 24)
            assert float(row[1]) == pytest.approx(lc.value, rel=1e-13, abs=1e-15)
            assert float(row[2]) == lc.remainder


@pytest.mark.parametrize("argv", [
    ["kernel", "--c", "1", "--D", "1", "--mu", "nan", "--t", "1"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "nan"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "inf", "--t", "1"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "inf"],
    ["spectrum", "--config", "{config}", "--lmax", "3", "--times", "nan"],
    ["spectrum", "--config", "{config}", "--lmax", "3", "--times", "0,inf"],
    ["covariance", "--config", "{config}", "--gammas", "0.5", "--t", "nan"],
    ["covariance", "--config", "{config}", "--gammas", "0.5", "--t-prime", "inf"],
    ["memory", "--config", "{config}", "--hmax", "inf"],
    ["memory", "--config", "{config}", "--hmax", "2", "--t", "nan"],
    ["entropy1d", "--experiment", "rectangle", "--times", "nan"],
    ["entropy1d", "--experiment", "point_source", "--times", "0,inf"],
    ["entropy1d", "--experiment", "rectangle", "--snapshot-times", "nan"],
    ["entropy1d", "--experiment", "rectangle", "--half-length", "nan"],
    ["entropy1d", "--experiment", "point_source", "--half-length", "inf"],
    ["entropy1d", "--experiment", "standing_wave", "--half-length", "-3"],
    ["entropy1d", "--experiment", "rectangle", "--width", "nan"],
], ids=lambda argv: "_".join(argv[:1] + argv[-2:]))
def test_non_finite_input_exits_2(argv, atom_config, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [atom_config if a == "{config}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if argv[0] == "entropy1d":
        assert {"--times": "trace_times", "--snapshot-times": "snapshot_times",
                "--half-length": "half_length", "--width": "width"}[argv[-2]] in err
    assert not out.exists()
    assert os.listdir(tmp_path) == ["atom.json"]


class TestSimulateCommand:
    def test_repeat_run_bitwise_identical(self, atom_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["simulate", "--config", atom_config, "--lmax", "6",
                "--grid", "8x16", "--times", "0,0.5", "--seed", "11"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in sorted(os.listdir(out1)):
            if name == "manifest.json":
                continue  # contains wall-clock duration
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_degree_zero_rejected(self, atom_config, tmp_path):
        rc = main(["simulate", "--config", atom_config, "--lmax", "0",
                   "--grid", "4x8", "--times", "0", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_failed_run_leaves_nothing(self, atom_config, tmp_path):
        # a 1x1 grid fails in synthesis, after the coefficients were written
        out = tmp_path / "o"
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "1x1", "--times", "0", "--out", str(out / "nested")])
        assert rc == 2
        assert not out.exists()
        assert os.listdir(tmp_path) == ["atom.json"]

    def test_binary_format_round_trips(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "4",
                     "--grid", "6x12", "--times", "0.3", "--seed", "2",
                     "--format", "bin", "--out", out]) == 0
        grid = grid_from_binary(open(os.path.join(out, "field_t0.bin"), "rb").read())
        assert grid.n_theta == 6 and grid.n_phi == 12
        assert grid.time == 0.3

    def test_ensemble_emits_empirical_spectrum(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "3",
                     "--grid", "4x8", "--times", "0", "--seed", "1",
                     "--ensemble", "64", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "empirical_spectrum.csv"))
        assert header == ["t", "l", "estimate", "std_error", "theory"]
        assert len(rows) == 3
        for row in rows:
            estimate, se, theory = float(row[2]), float(row[3]), float(row[4])
            assert abs(estimate - theory) <= 6 * se

    def test_coefficient_csv_schema(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "3",
                     "--grid", "4x8", "--times", "0", "--seed", "9",
                     "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "coefficients_t0.csv"))
        assert header == ["l", "m", "re", "im"]
        assert len(rows) == sum(2 * l + 1 for l in range(3))


class TestMemoryCommand:
    def test_atoms_short_range(self, atom_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["memory", "--config", atom_config, "--hmax", "10",
                     "--out", out]) == 0
        assert "ShortRange" in capsys.readouterr().out
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["result"]["classification"] == "ShortRange"

    def test_origin_segment_long_range(self, origin_segment_config, tmp_path,
                                       capsys):
        out = str(tmp_path / "run")
        assert main(["memory", "--config", origin_segment_config, "--hmax", "5",
                     "--out", out]) == 0
        assert "LongRange" in capsys.readouterr().out

    def test_trace_monotone_nondecreasing(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["memory", "--config", atom_config, "--hmax", "20",
                     "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "memory.csv"))
        values = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEntropyCommand:
    def test_standing_wave_peaks_at_log_6pi(self, tmp_path):
        out = str(tmp_path / "run")
        omega = math.sqrt(7.0) / 6.0
        times = f"0.5,{math.pi / (2 * omega)},4.0"
        assert main(["entropy1d", "--experiment", "standing_wave",
                     "--times", times, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "entropy.csv"))
        values = [float(r[1]) for r in rows if r[2] == "1"]
        assert max(values) == pytest.approx(math.log(6 * math.pi), abs=1e-6)

    def test_snapshot_files(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["entropy1d", "--experiment", "rectangle", "--times", "0,1",
                     "--snapshot-times", "0.5", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "profile_0.csv"))
        assert header == ["x", "q"]
        assert len(rows) == 401

    def test_sentinel_for_noncomputable(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["entropy1d", "--experiment", "rectangle", "--times", "0",
                     "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "entropy.csv"))
        assert rows[0][1] == "" and rows[0][2] == "0"

    def test_critical_half_length(self, tmp_path):
        # L = 2pi puts mode 1 on the cut-off k = 1/2; neighbours agree
        rows = {}
        for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            out = str(tmp_path / f"run{scale}")
            assert main(["entropy1d", "--experiment", "point_source",
                         "--half-length", repr(2.0 * math.pi * scale),
                         "--times", "1,5,12,20", "--out", out]) == 0
            _, rows[scale] = read_csv(os.path.join(out, "entropy.csv"))
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            for near, at in zip(rows[scale], rows[1.0]):
                assert near[2] == at[2]
                if at[2] == "1":
                    assert float(near[1]) == pytest.approx(float(at[1]), abs=1e-6)
        assert any(row[2] == "1" for row in rows[1.0])

    def test_unknown_experiment(self, tmp_path):
        rc = main(["entropy1d", "--experiment", "vortex",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestManifestAndRerun:
    def test_manifest_fields(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "3",
                     "--grid", "4x8", "--times", "0", "--seed", "7",
                     "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["tool_version"]
        assert manifest["duration_seconds"] >= 0.0
        assert set(manifest["outputs"]) == {"coefficients_t0.csv", "field_t0.csv"}

    def test_rerun_reproduces_bitwise(self, atom_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", atom_config, "--lmax", "5",
                     "--grid", "6x12", "--times", "0,1", "--seed", "3",
                     "--out", out1]) == 0
        assert main(["rerun", os.path.join(out1, "manifest.json"),
                     "--out", out2]) == 0
        for name in sorted(os.listdir(out1)):
            if name == "manifest.json":
                continue
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_rerun_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"subcommand": "nope", "settings": {}}))
        assert main(["rerun", str(bad), "--out", str(tmp_path / "o")]) == 2
        for manifest in ({"subcommand": "kernel"},
                         {"subcommand": "kernel", "settings": {}},
                         ["kernel", {}]):
            bad.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert main(["rerun", str(bad), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err


class TestThreadEnv:
    def test_worker_count_env_validated(self, atom_config, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("HYPERDIFF_THREADS", "zebra")
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "4x8", "--times", "0", "--seed", "1",
                   "--ensemble", "4", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_thread_count_invariance(self, atom_config, tmp_path, monkeypatch):
        outs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("HYPERDIFF_THREADS", threads)
            out = str(tmp_path / f"run{threads}")
            assert main(["simulate", "--config", atom_config, "--lmax", "4",
                         "--grid", "4x8", "--times", "0,0.5", "--seed", "21",
                         "--ensemble", "32", "--out", out]) == 0
            outs[threads] = out
        for name in sorted(os.listdir(outs["1"])):
            if name == "manifest.json":
                continue
            a = open(os.path.join(outs["1"], name), "rb").read()
            b = open(os.path.join(outs["8"], name), "rb").read()
            assert a == b, name
