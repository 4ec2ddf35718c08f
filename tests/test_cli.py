import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hyperdiff import _quad, cli, entropy1d, field_sim
from hyperdiff.cli import main
from hyperdiff.covariance import (MAX_LAGS, covariance_legendre, covariance_spectral,
                                  integrated_abs_covariance)
from hyperdiff.field_sim import grid_from_binary, simulate_coefficients, synthesize
from hyperdiff.kernel import transfer
from hyperdiff.measure import DiffusionParams, SpectralMeasure
from hyperdiff.spectrum import angular_spectrum

ROOT = Path(__file__).parent.parent


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

    def test_csv_bytes_match_library(self, tmp_path):
        # Wave numbers on both sides of the cut-off c/(2D) = 0.5 and on it: a
        # row takes h1 = h up to the cut-off and h2 = h above it, the other 0.0.
        # At mu = 0.612674, t = 1480, h is -0.0, which h1 + h2 would turn to 0.0.
        mus, times = [0.0, 0.25, 0.5, 0.75, 2.0, 0.612674], [0.0, 0.7, 3.0, 1480.0]
        params = DiffusionParams(1.0, 1.0)
        assert params.cutoff == 0.5
        out = tmp_path / "run"
        assert main(["kernel", "--c", "1", "--D", "1", "--mu", "0,0.25,0.5,0.75,2,0.612674",
                     "--t", "0,0.7,3,1480", "--out", str(out)]) == 0
        rows = []
        for mu in mus:
            for t in times:
                h = transfer(mu, t, params)
                rows.append([mu, t, h if mu <= 0.5 else 0.0, 0.0 if mu <= 0.5 else h, h])
        written = (out / "kernel.csv").read_bytes()
        assert written == csv_bytes(["mu", "t", "h1", "h2", "h"], rows)
        assert b"\r\n0.612674,1480.0,0.0,-0.0,-0.0\r\n" in written

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
            assert value == pytest.approx(angular_spectrum(l + 1, t, tp, m, p)[l],
                                          rel=1e-12)

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

    def test_all_times_from_one_quadrature(self, origin_segment_config, tmp_path,
                                           monkeypatch):
        calls = []
        real = _quad.integrate_vector

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)
        monkeypatch.setattr(_quad, "integrate_vector", counting)
        out = str(tmp_path / "run")
        assert main(["spectrum", "--config", origin_segment_config, "--lmax", "4",
                     "--times", "0,0.5,2", "--out", out]) == 0
        assert calls == [(0.0, 1.0)]
        _, rows = read_csv(os.path.join(out, "spectrum.csv"))
        assert [row[0] for row in rows[::4]] == ["0.0", "0.5", "2.0"]

    def test_one_integrand_call_with_nodes(self, origin_segment_config, tmp_path,
                                           monkeypatch):
        # The first Gauss-Kronrod round meets the tolerance, and the probe
        # that picks the rule carries no nodes.
        sizes = []
        real = _quad.integrate_vector

        def counting(f, *args, **kwargs):
            def counted(x):
                sizes.append(x.size)
                return f(x)
            return real(counted, *args, **kwargs)
        monkeypatch.setattr(_quad, "integrate_vector", counting)
        assert main(["spectrum", "--config", origin_segment_config, "--lmax", "4",
                     "--times", "0,0.5,2", "--out", str(tmp_path / "run")]) == 0
        assert sizes[0] == 0
        assert len([n for n in sizes if n]) == 1


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

    @pytest.mark.parametrize("route", ["spectral", "legendre", "both"])
    def test_csv_bytes_match_library(self, route, atom_config, tmp_path):
        out = tmp_path / "run"
        assert main(["covariance", "--config", atom_config, "--gammas", "0,0.7,1.5,3",
                     "--t", "0.2", "--t-prime", "0.5", "--route", route,
                     "--lmax", "24", "--out", str(out)]) == 0
        gammas = np.array([0.0, 0.7, 1.5, 3.0])
        args = (gammas, 0.2, 0.5, SpectralMeasure(atoms=((1.0, 1.0),)),
                DiffusionParams(1.0, 1.0))
        spectral = covariance_spectral(*args)
        lc = covariance_legendre(*args, 24)
        header, rows = {
            "spectral": (["gamma", "R"], zip(gammas, spectral)),
            "legendre": (["gamma", "R", "remainder"],
                         [[g, r, lc.remainder] for g, r in zip(gammas, lc.value)]),
            "both": (["gamma", "R_spectral", "R_legendre", "remainder", "discrepancy"],
                     [[g, s, r, lc.remainder, abs(s - r)]
                      for g, s, r in zip(gammas, spectral, lc.value)]),
        }[route]
        assert (out / "covariance.csv").read_bytes() == csv_bytes(header, rows)


@pytest.mark.parametrize("argv", [
    ["kernel", "--c", "1", "--D", "1", "--mu", "nan", "--t", "1"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "nan"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "inf", "--t", "1"],
    ["kernel", "--c", "1", "--D", "1", "--mu", "1", "--t", "inf"],
    ["spectrum", "--config", "{config}", "--lmax", "3", "--times", "nan"],
    ["spectrum", "--config", "{config}", "--lmax", "3", "--times", "0,inf"],
    ["spectrum", "--config", "{config}", "--lmax", "3", "--times", "-1"],
    ["simulate", "--config", "{config}", "--lmax", "3", "--times", "nan"],
    ["simulate", "--config", "{config}", "--lmax", "3", "--times", "0,-1"],
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


@pytest.mark.parametrize("h_max", ["5e-324", "1e-310"])
def test_subnormal_lag_step_exits_2(h_max, atom_config, tmp_path, capsys):
    # h_max / 1e4 is 0.0 or subnormal: no evenly spaced lag grid exists
    out = tmp_path / "X"
    assert main(["memory", "--config", atom_config, "--hmax", h_max,
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "h_max" in lines[0] and "h_step" in lines[0]
    assert not out.exists() and os.listdir(tmp_path) == ["atom.json"]


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--lmax", "4", "--times", "0"], "spectrum.csv"),
    (["covariance", "--gammas", "0.5", "--route", "both"], "covariance.csv"),
    (["simulate", "--lmax", "4", "--times", "0", "--ensemble", "3"],
     "empirical_spectrum.csv"),
    (["memory", "--hmax", "10"], "memory.csv"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_overflowing_result_exits_3(argv, name, tmp_path, capsys):
    # Two atoms of mass 1e308 overflow each of these results to inf or nan.
    # numpy's warnings would fail the run (exit 5) under this suite's
    # warning filter, so exit 3 also shows that none was issued.
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({
        "params": {"c": 1.0, "D": 1.0},
        "measure": {"atoms": [{"mu": 1.0, "mass": 1e308}, {"mu": 2.0, "mass": 1e308}],
                    "segments": []}}))
    out = tmp_path / "run"
    assert main(argv[:1] + ["--config", str(config)] + argv[1:]
                + ["--out", str(out)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("accuracy error:")
    assert name in lines[0]
    assert not out.exists() and os.listdir(tmp_path) == ["huge.json"]


def test_non_finite_grid_exits_3(atom_config, tmp_path, capsys, monkeypatch):
    # a field grid is checked in its bytes, past the 32-byte header
    values = np.zeros((2, 4))
    values[1, 2] = math.nan
    grid = field_sim.FieldGrid(n_theta=2, n_phi=4, values=values, time=0.0)

    def nan_grid(settings):
        return {"coefficients_t0.csv": (["l", "re"], [np.arange(2), np.ones(2)]),
                "field_t0.bin": field_sim.grid_to_binary(grid)}, None
    monkeypatch.setitem(cli._RUNNERS, "simulate", nan_grid)
    out = tmp_path / "run"
    assert main(["simulate", "--config", atom_config, "--lmax", "2", "--times", "0",
                 "--format", "bin", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("accuracy error: field_t0.bin ")
    assert not out.exists() and os.listdir(tmp_path) == ["atom.json"]


def test_memory_help_states_lag_budget(capsys):
    assert main(["memory", "--help"]) == 0
    assert f"{MAX_LAGS} points" in " ".join(capsys.readouterr().out.split())


def test_entropy1d_help_states_element_budget(capsys):
    assert main(["entropy1d", "--help"]) == 0
    assert f"at most {entropy1d.MAX_BASIS_ELEMENTS}" in " ".join(
        capsys.readouterr().out.split())


def _readme_usage_and_schemas():
    """The commands of README's CLI usage block, as argv lists after
    `hyperdiff`, and its CSV schemas as {file name pattern: headers}."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(command) for command in block.replace("\\\n", " ").splitlines()
                if command.strip() and not command.startswith("#")]
    schemas = {}
    section = text.split("### CSV schemas", 1)[1].split("\n\n", 2)[1]
    for item in section.split("\n* "):
        name, _, rest = item.lstrip("* ").partition(":")
        pattern = re.escape(name.strip("`")).replace(r"\{i\}", r"\d+")
        schemas[pattern] = [cols.split(",") for cols in re.findall(r"`([^`]*)`", rest)
                            if re.fullmatch(r"\w+(,\w+)+", cols)]
    return commands, schemas


def test_readme_usage_runs_as_written(tmp_path, monkeypatch):
    commands, schemas = _readme_usage_and_schemas()
    assert len(commands) == 7 and len(schemas) == 9
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    classes = {}
    for argv in commands:
        assert argv[0] == "hyperdiff"
        assert main(argv[1:]) == 0, argv
        if argv[1] == "memory":
            out = Path(argv[argv.index("--out") + 1])
            manifest = json.loads((out / "manifest.json").read_text())
            classes[Path(argv[argv.index("--config") + 1]).name] = (
                manifest["result"]["classification"])
    assert classes == {"inverse_decay.json": "ShortRange",
                       "long_range.json": "LongRange"}
    seen = set()
    for path in sorted((tmp_path / "out").rglob("*.csv")):
        (pattern,) = [p for p in schemas if re.fullmatch(p, path.name)]
        header, _ = read_csv(path)
        assert header in schemas[pattern], path.name
        seen.add(pattern)
    assert seen == set(schemas)


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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lmax", "8", "--times", "0.2"],
    ["covariance", "--gammas", "0.5", "--t", "0.2", "--route", "spectral"],
], ids=lambda argv: argv[0])
def test_origin_exponent_near_minus_one(argv, tmp_path, capsys):
    config = tmp_path / "near.json"
    config.write_text(json.dumps({
        "params": {"c": 1.0, "D": 2.0},
        "measure": {"atoms": [], "segments": [
            {"lo": 0.0, "hi": 3.0, "amplitude": 1.0, "exponent": -0.99}]}}))
    out = tmp_path / "o"
    assert main([argv[0], "--config", str(config), *argv[1:], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / f"{argv[0]}.csv")
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values)) and np.all(values[:, -1] > 0.0)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    code = "import sys, hyperdiff.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_export_is_defined():
    # `from hyperdiff import *` raises AttributeError on an undefined name.
    import hyperdiff
    assert [name for name in hyperdiff.__all__ if not hasattr(hyperdiff, name)] == []


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

    @pytest.mark.parametrize("lmax, n_runs, drawn", [
        ("64", "100000", False), ("1", "10000000", True), ("1", "10000001", False),
    ])
    def test_ensemble_size_capped_before_drawing(
            self, lmax, n_runs, drawn, atom_config, tmp_path, capsys, monkeypatch):
        # runs x times x L x (2L - 1) coefficients may be at most 10^7
        def no_ensemble(*args, **kwargs):
            raise ValueError("ensemble drawn")

        monkeypatch.setattr(field_sim, "ensemble_spectrum", no_ensemble)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", atom_config, "--lmax", lmax, "--grid", "4x8",
                   "--times", "0", "--ensemble", n_runs, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if drawn:
            assert err == "error: ensemble drawn\n"
        else:
            assert err.startswith("error: --ensemble") and "10000000" in err
        assert not out.exists()

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
        est, se, _ = field_sim.ensemble_spectrum(
            4, (0.0, 0.6), SpectralMeasure(atoms=((1.0, 1.0),)),
            DiffusionParams(1.0, 1.0), master_seed=5, n_runs=30)
        _, rows = read_csv(os.path.join(out, "empirical_spectrum.csv"))
        assert [(float(r[0]), int(r[1])) for r in rows] == [
            (t, l) for t in (0.0, 0.6) for l in range(4)]
        for row, value, error in zip(rows, est.ravel(), se.ravel(), strict=True):
            assert float(row[2]) == pytest.approx(value, rel=1e-14)
            assert float(row[3]) == pytest.approx(error, rel=1e-14)

    def test_ensemble_memory_does_not_grow_with_members(self, atom_config, tmp_path):
        # Members are reduced as they are drawn: 360 more runs at L = 32 add
        # their per-run table (runs x times x L float64) and np.std's
        # temporary of it, not 360 members of 2 x 32 x 63 complex coefficients
        # (23 MB), as holding and stacking them did.
        def traced_peak(n_runs):
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", atom_config, "--lmax", "32",
                             "--grid", "4x8", "--times", "0,0.5", "--ensemble",
                             str(n_runs), "--out", str(tmp_path / str(n_runs))]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        table = 360 * 2 * 32 * 8
        assert traced_peak(400) - traced_peak(40) <= table + 2 ** 20

    def test_coefficient_csv_schema(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", atom_config, "--lmax", "3",
                     "--grid", "4x8", "--times", "0", "--seed", "9",
                     "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "coefficients_t0.csv"))
        assert header == ["l", "m", "re", "im"]
        assert len(rows) == sum(2 * l + 1 for l in range(3))

    def test_csv_bytes_match_library(self, tmp_path):
        # Byte for byte, so a -0.0 written as 0.0 or a lost digit shows; L = 6
        # has m < 0 rows of odd and even order.
        atoms = ((1.0, 1.0), (2.5, 0.5), (4.0, 0.25))
        config = tmp_path / "atoms.json"
        config.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [{"mu": mu, "mass": mass} for mu, mass in atoms],
                        "segments": []}}))
        measure, params = SpectralMeasure(atoms=atoms), DiffusionParams(1.0, 1.0)
        times = (0.0, 0.4)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--lmax", "6", "--grid", "5x8",
                     "--times", "0,0.4", "--seed", "21", "--ensemble", "6",
                     "--out", str(out)]) == 0
        cs = simulate_coefficients(6, times, measure, params, seed=21)
        for ti in range(2):
            assert (out / f"coefficients_t{ti}.csv").read_bytes() == csv_bytes(
                ["l", "m", "re", "im"],
                [[l, m, cs.coeffs[ti, l, 5 + m].real, cs.coeffs[ti, l, 5 + m].imag]
                 for l in range(6) for m in range(-l, l + 1)])
            grid = synthesize(cs, ti, 5, 8)
            assert (out / f"field_t{ti}.csv").read_bytes() == csv_bytes(
                ["theta", "phi", "value"],
                [[grid.thetas()[j], grid.phis()[k], grid.values[j, k]]
                 for j in range(5) for k in range(8)])
        estimate, std_error, theory = field_sim.ensemble_spectrum(
            6, times, measure, params, master_seed=21, n_runs=6)
        assert (out / "empirical_spectrum.csv").read_bytes() == csv_bytes(
            ["t", "l", "estimate", "std_error", "theory"],
            [[t, l, estimate[i, l], std_error[i, l], theory[i, l]]
             for i, t in enumerate(times) for l in range(6)])

        out = tmp_path / "spectrum"
        assert main(["spectrum", "--config", str(config), "--lmax", "6",
                     "--times", "0,0.4", "--out", str(out)]) == 0
        spec = angular_spectrum(6, times, times, measure, params)
        assert (out / "spectrum.csv").read_bytes() == csv_bytes(
            ["t", "t_prime", "l", "C_l"],
            [[t, t, l, spec[i, l]] for i, t in enumerate(times) for l in range(6)])

    def test_zero_coefficients_keep_their_signs(self, tmp_path):
        # The weights of an atom at mu = 1e-3 underflow from degree 69 on, so
        # those a_lm are zeros; the m < 0 rows still follow (-1)^m conj(a_lm)
        # in the signs of those zeros.
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [{"mu": 1e-3, "mass": 1.0}], "segments": []}}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--lmax", "80", "--grid", "4x8",
                     "--times", "0", "--seed", "3", "--out", str(out)]) == 0
        a = simulate_coefficients(80, (0.0,), SpectralMeasure(atoms=((1e-3, 1.0),)),
                                  DiffusionParams(1.0, 1.0), seed=3).coeffs[0]
        rows = [(l, m) for l in range(80) for m in range(-l, l + 1)]
        written = (out / "coefficients_t0.csv").read_bytes()
        assert written == csv_bytes(["l", "m", "re", "im"], [
            [l, m, a[l, 79 + m].real, a[l, 79 + m].imag] for l, m in rows])

        def by_parity(l, m):  # m < 0 rows as (-1)^m conj(a_l|m|), sign bits included
            value = a[l, 79 + abs(m)].item()
            s = (-1.0) ** m
            return [l, m, value.real, value.imag] if m >= 0 else [
                l, m, s * value.real, -s * value.imag]
        assert written == csv_bytes(["l", "m", "re", "im"],
                                    [by_parity(l, m) for l, m in rows])


def csv_bytes(header, rows):
    """What csv.writer's default dialect writes for header and rows, each
    numpy scalar taken as the Python number it holds."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([[v.item() if isinstance(v, np.generic) else v for v in row]
                      for row in rows])
    return buffer.getvalue().encode("utf-8")


class TestWriteFile:
    VALUES = np.array([0.0, -0.0, math.nan, np.copysign(math.nan, -1), math.inf,
                       -math.inf, 5e-324, 1e16, 1e-5, 0.1])

    @pytest.mark.parametrize("n_rows", [0, 1, cli._PIECE_ROWS, 2 * cli._PIECE_ROWS + 1])
    def test_pairs_and_plain_columns_as_csv_writer(self, n_rows, tmp_path):
        # Plain columns against csv.writer. Drawn values repeat within and
        # across pieces; runs of 5 cross the piece boundary; pairs of a value
        # and its negation share one magnitude, in a strided view as .imag
        # gives; distinct values repeat nothing.
        rng = np.random.default_rng(n_rows)
        drawn = rng.choice(self.VALUES, n_rows)
        runs = np.repeat(rng.choice(self.VALUES, n_rows // 5 + 1), 5)[:n_rows]
        half = rng.choice(self.VALUES, (n_rows + 1) // 2)
        pairs = np.zeros(n_rows, dtype=complex)
        pairs.imag = np.stack([half, -half], axis=1).ravel()[:n_rows]
        distinct = rng.normal(size=n_rows)
        words = ["", "x"] * (n_rows // 2) + ["y"] * (n_rows % 2)
        ints = np.arange(n_rows)
        path = tmp_path / "table.csv"
        header = ["a", "b", "c", "d", "e", "f"]
        cli._write_file(str(path), (header, [drawn, runs, pairs.imag, distinct, words,
                                             ints]))
        expected = csv_bytes(header, zip(drawn.tolist(), runs.tolist(), pairs.imag.tolist(),
                                         distinct.tolist(), words, ints.tolist()))
        assert path.read_bytes() == expected

    def test_traced_peak_of_a_memory_table(self, tmp_path):
        # A MAX_LAGS memory job's table, 3 MB of text, is written a piece at a
        # time; joining the whole file into one string peaks at 17 MB.
        h = np.linspace(0.0, 15.0, MAX_LAGS + 1)
        cumulative = np.cumsum(np.abs(np.cos(h))) * 1e-3
        tracemalloc.start()
        try:
            cli._write_file(str(tmp_path / "memory.csv"),
                            (["h", "integrated_abs_cov"], [h, cumulative]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "memory.csv").stat().st_size > 3 * 10 ** 6
        assert peak < 2 * 2 ** 20


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

    def test_failed_run_prints_no_classification(self, tmp_path, capsys):
        # Two atoms of mass 1e308 overflow the diagnostic: the run exits 3,
        # writes nothing and, its outputs never in place, prints nothing.
        config = tmp_path / "heavy.json"
        config.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [{"mu": 1.0, "mass": 1e308},
                                  {"mu": 2.0, "mass": 1e308}], "segments": []},
        }))
        assert main(["memory", "--config", str(config), "--hmax", "10",
                     "--out", str(tmp_path / "run")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("accuracy error:")
        assert os.listdir(tmp_path) == ["heavy.json"]

    def test_trace_monotone_nondecreasing(self, atom_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["memory", "--config", atom_config, "--hmax", "20",
                     "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "memory.csv"))
        values = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_csv_bytes_match_library(self, atom_config, tmp_path):
        # 10,001 lags: the table is written in several pieces.
        out = tmp_path / "run"
        assert main(["memory", "--config", atom_config, "--hmax", "10", "--t", "0.3",
                     "--gamma", "0.4", "--out", str(out)]) == 0
        h, cumulative = integrated_abs_covariance(
            0.3, 10.0, SpectralMeasure(atoms=((1.0, 1.0),)), DiffusionParams(1.0, 1.0),
            gamma=0.4)
        assert h.size > 2 * cli._PIECE_ROWS
        assert (out / "memory.csv").read_bytes() == csv_bytes(
            ["h", "integrated_abs_cov"], zip(h, cumulative))


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

    def test_csv_bytes_match_library(self, tmp_path):
        # The rectangle's entropy is not computable at t = 0.5, and is at 12.
        out = tmp_path / "run"
        assert main(["entropy1d", "--experiment", "rectangle", "--times", "0.5,12",
                     "--snapshot-times", "0.5", "--out", str(out)]) == 0
        result = entropy1d.run_experiment("rectangle", trace_times=[0.5, 12.0],
                                          snapshot_times=[0.5])
        entropy = result.trace.entropy
        assert np.isnan(entropy).tolist() == [True, False]
        assert (out / "entropy.csv").read_bytes() == csv_bytes(
            ["t", "entropy", "computable"],
            [[t, "" if math.isnan(s) else s, int(not math.isnan(s))]
             for t, s in zip(result.trace.times, entropy)])
        (_, x, q), = result.snapshots
        assert (out / "profile_0.csv").read_bytes() == csv_bytes(["x", "q"], zip(x, q))

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


def test_comma_list_skips_blank_parts(tmp_path):
    out = tmp_path / "run"
    assert main(["kernel", "--c", "1", "--D", "1", "--mu", "0, 1.5,,2", "--t", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["mu"] == [0.0, 1.5, 2.0]


def test_comma_list_names_the_bad_part(tmp_path, capsys):
    assert main(["kernel", "--c", "1", "--D", "1", "--mu", "1,abc", "--t", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "error: hyperdiff kernel: argument --mu: expected float, got 'abc'\n")
    assert os.listdir(tmp_path) == []


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

    # Each job takes products beyond serial_matmul's budget: (100 x 150) @
    # (150 x 300) in synthesize, (16 x 200) @ (200 x 401) per 16 entropy1d
    # times, (1 x 1000) @ (1000 x 500) over the Legendre series, and 30082
    # memory lags make (173 x 42) @ (42 x 174) panel products. Unsplit, the
    # first three changed the last bits of their outputs between 1 and 2
    # BLAS threads. The memory job's cumulative trapezoid absorbed such
    # changes; test_covariance compares the time-lag covariance itself.
    # long_range.json's origin segment takes its atoms from LAPACK's eigh,
    # which serial_matmul does not reach.
    @pytest.mark.parametrize("args", [
        ["simulate", "--config", "{configs}/inverse_decay.json", "--lmax", "150",
         "--grid", "100x300", "--times", "0.1", "--seed", "3", "--format", "bin"],
        ["simulate", "--config", "{configs}/long_range.json", "--lmax", "32",
         "--grid", "32x64", "--times", "0.05", "--n-quad", "64"],
        ["entropy1d", "--experiment", "rectangle",
         "--snapshot-times", ",".join(str(0.5 * i) for i in range(1, 21))],
        ["covariance", "--config", "{configs}/inverse_decay.json", "--route", "legendre",
         "--lmax", "1000", "--t", "0.1",
         "--gammas", ",".join(str(3.14159 * i / 499) for i in range(500))],
        ["memory", "--config", "{segment}", "--t", "0.2", "--hmax", "6300"],
    ], ids=["simulate", "simulate_origin_segment", "entropy1d", "covariance", "memory"])
    def test_outputs_bitwise_under_blas_threads(self, args, tmp_path, run_cli_child):
        segment = tmp_path / "segment.json"
        segment.write_text(json.dumps({
            "params": {"c": 1.0, "D": 1.0},
            "measure": {"atoms": [], "segments": [
                {"lo": 0.0, "hi": 3.0, "amplitude": 1.0, "exponent": 0.9}]},
        }))
        args = [a.format(configs=ROOT / "configs", segment=segment) for a in args]
        outs = []
        for threads in (1, 2):
            out = str(tmp_path / f"blas{threads}")
            proc = run_cli_child(args + ["--out", out], threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(read_outputs(out))
        assert outs[0] and outs[0] == outs[1]
        if args[0] == "memory":
            assert outs[0]["memory.csv"].count(b"\n") == 1 + 30082
