import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hyperdiff import cli, entropy1d, field_sim
from hyperdiff.cli import main
from hyperdiff.covariance import MAX_LAGS, covariance_legendre
from hyperdiff.field_sim import grid_from_binary, simulate_coefficients, synthesize
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


def read_outputs(directory):
    """Bytes of every output file by name; the manifest holds a wall-clock time."""
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()
            if p.name != "manifest.json"}


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

    def test_both_routes_above_degree_cap(self, tmp_path, capsys, recwarn):
        # the atom at 5000 puts most of its variance above degree 4096
        config = tmp_path / "far.json"
        config.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [{"mu": 1.0, "mass": 1.0},
                                  {"mu": 5000.0, "mass": 1e-3}], "segments": []},
        }))
        out = str(tmp_path / "run")
        assert main(["covariance", "--config", str(config), "--gammas", "0.3",
                     "--route", "both", "--lmax", "16", "--out", out]) == 0
        assert capsys.readouterr().err == "" and len(recwarn) == 0
        _, rows = read_csv(os.path.join(out, "covariance.csv"))
        assert float(rows[0][4]) <= float(rows[0][3])

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
    ["kernel", "--c", "1e300", "--D", "1e-300", "--mu", "1", "--t", "1"],
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


@pytest.mark.parametrize("argv, words", [
    (["kernel", "--c", "1", "--D", "5e299", "--mu", "1e300", "--t", "1e10"],
     ["overflows"]),
    (["memory", "--config", "two_band.json", "--t", "0", "--hmax", "1e12"],
     ["h_max", "h_step", "lags"]),
    (["entropy1d", "--experiment", "point_source", "--n-modes", "100000000"],
     ["n_modes", "n_intervals"]),
], ids=["kernel", "memory", "entropy1d"])
def test_unrepresentable_run_exits_2(argv, words, tmp_path, capsys):
    # no value exists in floating point, the lag grid would need 1 PiB, or
    # the cosine basis 299 GiB
    configs = Path(__file__).parent.parent / "configs"
    argv = [str(configs / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "X"
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert all(word in lines[0] for word in words)
    assert not out.exists() and os.listdir(tmp_path) == []


def test_memory_help_states_lag_budget(capsys):
    assert main(["memory", "--help"]) == 0
    assert f"{MAX_LAGS} points" in " ".join(capsys.readouterr().out.split())


def test_entropy1d_help_states_element_budget(capsys):
    assert main(["entropy1d", "--help"]) == 0
    assert f"at most {entropy1d.MAX_BASIS_ELEMENTS}" in " ".join(
        capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lmax", "8", "--times", "1e308"],
    ["covariance", "--t", "1e308", "--gammas", "0.5"],
], ids=lambda argv: argv[0])
def test_huge_time_rows_are_finite(argv, tmp_path):
    config = str(Path(__file__).parent.parent / "configs" / "inverse_decay.json")
    out = tmp_path / "o"
    assert main([argv[0], "--config", config, *argv[1:], "--out", str(out)]) == 0
    _, rows = read_csv(out / f"{argv[0]}.csv")
    assert rows and np.all(np.isfinite(np.array(rows, dtype=float)))


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    code = "import sys, hyperdiff.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSimulateCommand:
    def test_repeat_run_bitwise_identical(self, atom_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["simulate", "--config", atom_config, "--lmax", "6",
                "--grid", "8x16", "--times", "0,0.5", "--seed", "11"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_degree_zero_rejected(self, atom_config, tmp_path):
        rc = main(["simulate", "--config", atom_config, "--lmax", "0",
                   "--grid", "4x8", "--times", "0", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_failed_run_leaves_nothing(self, atom_config, tmp_path, monkeypatch):
        # a 1x1 grid fails in synthesis, before anything is written, so not
        # even a work directory is made
        made = []
        monkeypatch.setattr(tempfile, "mkdtemp", lambda **kwargs: made.append(kwargs))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "1x1", "--times", "0", "--out", str(out / "nested")])
        assert rc == 2
        assert made == []
        assert not out.exists()
        assert os.listdir(tmp_path) == ["atom.json"]

    @pytest.mark.parametrize("extra, name", [
        (["--ensemble", "1"], "--ensemble"),
        (["--ensemble", "-3"], "--ensemble"),
        (["--seed", "-1"], "seed"),
        (["--seed", "-1", "--ensemble", "4"], "master_seed"),
        (["--seed", str(2 ** 64), "--ensemble", "4"], "master_seed"),
        (["--seed", str(2 ** 128)], "seed"),
    ])
    def test_bad_seed_or_ensemble_rejected_before_drawing(
            self, extra, name, atom_config, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew coefficients")

        monkeypatch.setattr(field_sim, "_draw", no_draw)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "4x8", "--times", "0", *extra, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not out.exists()
        assert os.listdir(tmp_path) == ["atom.json"]

    def test_n_quad_checked_on_atom_measure(self, atom_config, tmp_path, capsys):
        # atomising leaves an atom-only measure as it is, but still checks n_quad
        out = tmp_path / "o"
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "4x8", "--times", "0", "--n-quad", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n_quad must be >= 1")
        assert os.listdir(tmp_path) == ["atom.json"]

    def test_csv_rows_match_library(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "5",
                     "--grid", "3x4", "--times", "0,0.7", "--seed", "13",
                     "--out", out]) == 0
        cs = simulate_coefficients(5, (0.0, 0.7), SpectralMeasure(atoms=((1.0, 1.0),)),
                                   DiffusionParams(1.0, 1.0), seed=13)
        for ti in range(2):
            _, rows = read_csv(os.path.join(out, f"coefficients_t{ti}.csv"))
            assert [(int(l), int(m)) for l, m, _, _ in rows] == [
                (l, m) for l in range(5) for m in range(-l, l + 1)]
            for l, m, re, im in rows:
                value = cs.coeffs[ti, int(l), 4 + int(m)]
                assert (float(re), float(im)) == (value.real, value.imag)
            grid = synthesize(cs, ti, 3, 4)
            _, rows = read_csv(os.path.join(out, f"field_t{ti}.csv"))
            assert [[float(v) for v in row] for row in rows] == [
                [grid.thetas()[j], grid.phis()[k], grid.values[j, k]]
                for j in range(3) for k in range(4)]

    def test_binary_format_round_trips(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "4",
                     "--grid", "6x12", "--times", "0.3", "--seed", "2",
                     "--format", "bin", "--out", out]) == 0
        grid = grid_from_binary((Path(out) / "field_t0.bin").read_bytes())
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

    def test_empirical_rows_match_library(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "4",
                     "--grid", "4x8", "--times", "0,0.6", "--seed", "5",
                     "--ensemble", "30", "--out", out]) == 0
        ens = field_sim.simulate_ensemble(4, (0.0, 0.6), SpectralMeasure(atoms=((1.0, 1.0),)),
                                          DiffusionParams(1.0, 1.0), master_seed=5, n_runs=30)
        _, rows = read_csv(os.path.join(out, "empirical_spectrum.csv"))
        assert [(float(r[0]), int(r[1])) for r in rows] == [
            (t, l) for t in (0.0, 0.6) for l in range(4)]
        for t, l, estimate, std_error, _ in rows:
            est = field_sim.empirical_spectrum(ens, int(l), float(t))
            assert float(estimate) == pytest.approx(est.value, rel=1e-14)
            assert float(std_error) == pytest.approx(est.std_error, rel=1e-14)

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
        manifest = json.loads((Path(out) / "manifest.json").read_text())
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


ATOM_CONFIG = {"params": {"c": 1.0, "D": 1.0},
               "measure": {"atoms": [{"mu": 1.0, "mass": 1.0}], "segments": []}}

# One command line per subcommand and the settings its manifest records,
# written out in the manifest's format.
RECORDED = {
    "kernel": (["kernel", "--c", "1", "--D", "2", "--mu", "0,1.5", "--t", "0,1"],
               {"params": {"c": 1.0, "D": 2.0}, "mu": [0.0, 1.5], "t": [0.0, 1.0]}),
    "spectrum": (["spectrum", "--config", "{config}", "--lmax", "4",
                  "--times", "0,0.5"],
                 {"config": ATOM_CONFIG, "l_count": 4, "times": [0.0, 0.5]}),
    "covariance": (["covariance", "--config", "{config}", "--gammas", "0,1.2",
                    "--t", "0.2", "--route", "both", "--lmax", "16"],
                   {"config": ATOM_CONFIG, "gammas": [0.0, 1.2], "t": 0.2,
                    "t_prime": 0.2, "route": "both", "l_count": 16}),
    "simulate": (["simulate", "--config", "{config}", "--lmax", "4", "--grid", "4x8",
                  "--times", "0,0.5", "--seed", "3", "--ensemble", "4",
                  "--n-quad", "8"],
                 {"config": ATOM_CONFIG, "degree_count": 4, "grid": [4, 8],
                  "times": [0.0, 0.5], "seed": 3, "ensemble": 4, "format": "csv",
                  "n_quad": 8}),
    "memory": (["memory", "--config", "{config}", "--t", "0.1", "--hmax", "5"],
               {"config": ATOM_CONFIG, "t": 0.1, "h_max": 5.0, "gamma": 0.0}),
    "entropy1d": (["entropy1d", "--experiment", "rectangle", "--n-modes", "40",
                   "--n-intervals", "100", "--times", "0.5,1",
                   "--snapshot-times", "1"],
                  {"experiment": "rectangle", "half_length": 3.0 * math.pi,
                   "width": 2.0, "n_intervals": 100, "n_modes": 40,
                   "trace_times": [0.5, 1.0], "snapshot_times": [1.0]}),
}


def run_recorded(name, config, out):
    argv = [config if a == "{config}" else a for a in RECORDED[name][0]]
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def write_manifest(path, name, settings):
    path.write_text(json.dumps({"subcommand": name, "tool_version": "0.1.0",
                                "settings": settings, "outputs": [],
                                "seed": settings.get("seed"),
                                "duration_seconds": 0.1}))
    return str(path)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_rerun_reproduces_every_subcommand(name, atom_config, tmp_path):
    manifest = run_recorded(name, atom_config, tmp_path / "a")
    assert manifest["settings"] == RECORDED[name][1]
    assert main(["rerun", str(tmp_path / "a" / "manifest.json"),
                 "--out", str(tmp_path / "b")]) == 0
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")
    rerun = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert rerun["settings"] == manifest["settings"]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_written_manifest_reruns_like_its_command_line(name, atom_config, tmp_path):
    run_recorded(name, atom_config, tmp_path / "a")
    path = write_manifest(tmp_path / "m.json", name, RECORDED[name][1])
    assert main(["rerun", path, "--out", str(tmp_path / "b")]) == 0
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")


@pytest.mark.parametrize("name, change, key", [
    ("simulate", {"format": "xml"}, "format"),
    ("entropy1d", {"n_modes": 1.5}, "n_modes"),
    ("covariance", {"route": "legendre", "l_count": True}, "l_count"),
    ("entropy1d", {"width": True}, "width"),
    ("covariance", {"route": "x"}, "route"),
    ("simulate", {"bogus": 1}, "bogus"),
    ("spectrum", {"times": None}, "times"),
    ("kernel", {"mu": "1,a"}, "mu"),
    ("simulate", {"grid": [4]}, "grid"),
    ("memory", {"config": {"params": {"c": 1.0}, "measure": {}}}, "config"),
    ("spectrum", {"config": {**ATOM_CONFIG, "measure": {"atoms": [1.0]}}}, "config"),
], ids=["format", "n_modes", "l_count", "width", "route", "bogus", "missing_times",
        "mu", "grid", "config", "config_atom"])
def test_rerun_rejects_what_the_command_line_rejects(name, change, key, tmp_path,
                                                     capsys):
    settings = {**RECORDED[name][1], **change}
    settings = {k: v for k, v in settings.items() if v is not None}
    path = write_manifest(tmp_path / "m.json", name, settings)
    out = tmp_path / "o"
    assert main(["rerun", path, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and repr(key) in lines[0]
    assert os.listdir(tmp_path) == ["m.json"]


@pytest.mark.parametrize("argv, words", [
    (["kernel", "--c", "1", "--D", "1", "--mu", "1"], ["required", "--t"]),
    (["kernel", "--mu", "0", "--t", "0"], ["--config", "--c", "--D"]),
    (["covariance", "--config", "{config}", "--gammas", "0.5", "--route", "x"],
     ["--route", "'x'"]),
    (["spectrum", "--config", "{config}", "--lmax", "2.5", "--times", "0"],
     ["--lmax", "2.5"]),
    (["simulate", "--config", "{config}", "--lmax", "3", "--times", "0",
      "--grid", "4by8"], ["--grid"]),
    (["memory", "--config", "{config}", "--hmax", "1", "--bogus"], ["--bogus"]),
], ids=["missing_t", "missing_params", "bad_route", "float_lmax", "bad_grid",
        "unknown_flag"])
def test_usage_error_is_one_line(argv, words, atom_config, tmp_path, capsys):
    argv = [atom_config if a == "{config}" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and captured.out == ""
    assert all(word in lines[0] for word in words)
    assert os.listdir(tmp_path) == ["atom.json"]


def test_help_and_version_exit_0(capsys):
    assert main(["--version"]) == 0
    assert main(["simulate", "--help"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "unexpected error: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "unexpected error: RecursionError: maximum recursion depth exceeded\n"),
])
def test_unexpected_error_is_one_line(error, line, atom_config, tmp_path, capsys,
                                      monkeypatch):
    def failing(settings):
        raise error
    monkeypatch.setitem(cli._RUNNERS, "memory", failing)
    out = tmp_path / "run"
    assert main(["memory", "--config", atom_config, "--hmax", "10",
                 "--out", str(out / "nested")]) == 5
    assert capsys.readouterr().err == line
    assert not out.exists()
    assert os.listdir(tmp_path) == ["atom.json"]


@pytest.mark.parametrize("error, code, line", [
    (OSError("disk full"), 4, "i/o error: disk full\n"),
    (MemoryError(), 5, "unexpected error: MemoryError\n"),
])
def test_write_failure_leaves_nothing(error, code, line, atom_config, tmp_path,
                                      capsys, monkeypatch):
    # the first output is written, the second fails: neither --out nor the
    # work directory with the first file is left
    written = []
    real_write = cli._write_file

    def failing_write(path, content):
        if written:
            raise error
        real_write(path, content)
        written.append(path)
    monkeypatch.setattr(cli, "_write_file", failing_write)
    out = tmp_path / "run"
    assert main(["simulate", "--config", atom_config, "--lmax", "2", "--grid", "4x8",
                 "--times", "0", "--out", str(out / "nested")]) == code
    assert capsys.readouterr().err == line
    assert len(written) == 1 and not os.path.exists(written[0])
    assert not out.exists()
    assert os.listdir(tmp_path) == ["atom.json"]


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    def no_build():
        raise AssertionError("parser rebuilt")
    monkeypatch.setattr(cli, "_build_parser", no_build)
    out = tmp_path / "kernel"
    assert main(["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "1",
                 "--out", str(out)]) == 0
    assert main(["rerun", str(out / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 0
    assert read_outputs(out) == read_outputs(tmp_path / "again")


def test_shared_grid_default_left_unchanged(atom_config, tmp_path):
    (grid,) = [action for action in cli._COMMANDS["simulate"]._actions
               if action.dest == "grid"]
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["simulate", "--config", atom_config, "--lmax", "2",
                     "--times", "0", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["grid"] == [32, 64]
    assert grid.default == [32, 64]


class TestManifestAndRerun:
    def test_manifest_fields(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "3",
                     "--grid", "4x8", "--times", "0", "--seed", "7",
                     "--out", out]) == 0
        manifest = json.loads((Path(out) / "manifest.json").read_text())
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
        assert read_outputs(out1) == read_outputs(out2)

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
    def test_hyperdiff_threads_ignored(self, atom_config, tmp_path,
                                       monkeypatch):
        # the variable selected nothing and is no longer read
        monkeypatch.setenv("HYPERDIFF_THREADS", "zebra")
        rc = main(["simulate", "--config", atom_config, "--lmax", "3",
                   "--grid", "4x8", "--times", "0", "--seed", "1",
                   "--ensemble", "4", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_blas_thread_count_invariance(self, tmp_path, run_cli_child):
        config = str(Path(__file__).parent.parent / "configs" / "two_band.json")
        args = ["simulate", "--config", config, "--lmax", "64",
                "--grid", "64x128", "--times", "0,0.05", "--seed", "21",
                "--ensemble", "50"]
        outs = []
        for threads in (1, 2):
            out = str(tmp_path / f"blas{threads}")
            proc = run_cli_child(args + ["--out", out], threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(read_outputs(out))
        assert len(outs[0]) == 5 and outs[0] == outs[1]

    def test_memory_bitwise_under_blas_threads(self, tmp_path, run_cli_child):
        # 30082 lags: the time-lag quadrature takes (173 x 42) @ (42 x 174)
        # products per panel, a size whose unsplit product changed the last
        # bits of R between 1 and 2 BLAS threads. The cumulative trapezoid
        # absorbed those changes here; test_covariance compares R itself.
        config = tmp_path / "segment.json"
        config.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [], "segments": [
                {"lo": 0.0, "hi": 3.0, "amplitude": 1.0, "exponent": 0.9}]},
        }))
        args = ["memory", "--config", str(config), "--t", "0.2", "--hmax", "6300"]
        outs = []
        for threads in (1, 2):
            out = str(tmp_path / f"blas{threads}")
            proc = run_cli_child(args + ["--out", out], threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(read_outputs(out))
        assert outs[0]["memory.csv"].count(b"\n") == 1 + 30082
        assert outs[0] == outs[1]
