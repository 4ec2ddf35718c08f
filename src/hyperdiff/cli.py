"""Command-line front end: one subcommand per computation, CSV out, manifests.

Every run writes a JSON manifest next to its outputs recording the resolved
settings, seed, tool version, output paths, and wall-clock duration; the
`rerun` subcommand replays a manifest into a fresh output location, which for
seeded commands reproduces the outputs bitwise. A run writes into a temporary
directory (inside --out if it exists, else in its nearest existing ancestor)
and moves its files into --out only once everything succeeded, so a failed
run leaves nothing behind.

Exit codes: 0 success, 2 usage or config error, 3 numerical accuracy error,
4 I/O error. The HYPERDIFF_THREADS environment variable is accepted and
validated (a positive integer) for ensemble runs but has no effect on the
results: ensembles are computed serially.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .exceptions import AccuracyError, ConfigError
from .measure import (DiffusionParams, SpectralMeasure, load_config,
                      measure_from_dict, params_from_dict)
from .kernel import transfer, transfer_diffusive, transfer_wave
from .spectrum import angular_spectrum
from .covariance import (covariance_legendre, covariance_spectral,
                         integrated_abs_covariance, memory_classify)
from . import field_sim
from . import entropy1d


def _check_thread_env() -> None:
    raw = os.environ.get("HYPERDIFF_THREADS", "")
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"HYPERDIFF_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"HYPERDIFF_THREADS must be >= 1, got {n}")


def _parse_floats(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--{name} must be a comma-separated float list") from exc
    if not values:
        raise ConfigError(f"--{name} must contain at least one value")
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError("--grid must look like NTHETAxNPHI, e.g. 32x64")
    try:
        n_theta, n_phi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError("--grid must contain two integers") from exc
    return n_theta, n_phi


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    params, measure = load_config(text)
    return {"params": {"c": params.c, "D": params.D}, "measure": measure.to_dict()}


def _settings_config(settings: dict) -> tuple[DiffusionParams, SpectralMeasure]:
    cfg = settings["config"]
    return params_from_dict(cfg["params"]), measure_from_dict(cfg["measure"])


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(directory: str, subcommand: str, settings: dict,
                    outputs: list[str], seed: int | None,
                    started: float, extra: dict | None = None) -> str:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "settings": settings,
        "outputs": outputs,
        "seed": seed,
        "duration_seconds": time.perf_counter() - started,
    }
    if extra:
        manifest["result"] = extra
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return path


# --- subcommand implementations (settings dict -> output files) ---

def _run_kernel(settings: dict, out: str) -> tuple[list[str], dict | None]:
    params = params_from_dict(settings["params"])
    rows = []
    for mu in settings["mu"]:
        for t in settings["t"]:
            rows.append([mu, t,
                         transfer_diffusive(mu, t, params),
                         transfer_wave(mu, t, params),
                         transfer(mu, t, params)])
    path = os.path.join(out, "kernel.csv")
    _write_csv(path, ["mu", "t", "h1", "h2", "h"], rows)
    return [path], None


def _run_spectrum(settings: dict, out: str) -> tuple[list[str], dict | None]:
    params, measure = _settings_config(settings)
    times = settings["times"]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times must be strictly increasing")
    l_count = settings["l_count"]
    rows = []
    for t in times:
        spec = angular_spectrum(l_count, t, t, measure, params)
        for l, value in enumerate(spec.values):
            rows.append([t, t, l, value])
    path = os.path.join(out, "spectrum.csv")
    _write_csv(path, ["t", "t_prime", "l", "C_l"], rows)
    return [path], None


def _run_covariance(settings: dict, out: str) -> tuple[list[str], dict | None]:
    params, measure = _settings_config(settings)
    gammas = settings["gammas"]
    t, t_prime = settings["t"], settings["t_prime"]
    route = settings["route"]
    l_count = settings["l_count"]
    path = os.path.join(out, "covariance.csv")
    if route == "spectral":
        values = covariance_spectral(np.array(gammas), t, t_prime, measure, params)
        _write_csv(path, ["gamma", "R"], list(zip(gammas, values)))
    elif route == "legendre":
        lc = covariance_legendre(np.array(gammas), t, t_prime, measure, params, l_count)
        _write_csv(path, ["gamma", "R", "remainder"],
                   [[g, r, lc.remainder] for g, r in zip(gammas, lc.value)])
    elif route == "both":
        spectral = covariance_spectral(np.array(gammas), t, t_prime, measure, params)
        lc = covariance_legendre(np.array(gammas), t, t_prime, measure, params, l_count)
        _write_csv(path, ["gamma", "R_spectral", "R_legendre", "remainder",
                          "discrepancy"],
                   [[g, rs, rl, lc.remainder, abs(rs - rl)]
                    for g, rs, rl in zip(gammas, spectral, lc.value)])
    else:
        raise ConfigError(f"unknown route {route!r}")
    return [path], None


def _run_simulate(settings: dict, out: str) -> tuple[list[str], dict | None]:
    params, measure = _settings_config(settings)
    degree_count = settings["degree_count"]
    times = settings["times"]
    seed = settings["seed"]
    n_theta, n_phi = settings["grid"]
    n_quad = settings.get("n_quad", 64)
    fmt = settings.get("format", "csv")
    n_runs = settings.get("ensemble", 0)
    if n_runs:
        _check_thread_env()
    outputs = []

    cs = field_sim.simulate_coefficients(degree_count, times, measure, params,
                                         seed=seed, n_quad=n_quad)
    half = degree_count - 1
    for ti, t in enumerate(times):
        cpath = os.path.join(out, f"coefficients_t{ti}.csv")
        rows = []
        for l in range(degree_count):
            for m in range(-l, l + 1):
                value = cs.coeffs[ti, l, half + m]
                rows.append([l, m, value.real, value.imag])
        _write_csv(cpath, ["l", "m", "re", "im"], rows)
        outputs.append(cpath)

        grid = field_sim.synthesize(cs, ti, n_theta, n_phi)
        if fmt == "bin":
            fpath = os.path.join(out, f"field_t{ti}.bin")
            with open(fpath, "wb") as fh:
                fh.write(field_sim.grid_to_binary(grid))
        else:
            fpath = os.path.join(out, f"field_t{ti}.csv")
            thetas, phis = grid.thetas(), grid.phis()
            rows = [
                [thetas[j], phis[k], grid.values[j, k]]
                for j in range(n_theta) for k in range(n_phi)
            ]
            _write_csv(fpath, ["theta", "phi", "value"], rows)
        outputs.append(fpath)

    if n_runs:
        ensemble = field_sim.simulate_ensemble(
            degree_count, times, measure, params, master_seed=seed,
            n_runs=n_runs, n_quad=n_quad,
        )
        atomic = field_sim.atomize(measure, n_quad)
        rows = []
        for t in times:
            theory = angular_spectrum(degree_count, t, t, atomic, params).values
            for l in range(degree_count):
                est = field_sim.empirical_spectrum(ensemble, l, t)
                rows.append([t, l, est.value, est.std_error, theory[l]])
        epath = os.path.join(out, "empirical_spectrum.csv")
        _write_csv(epath, ["t", "l", "estimate", "std_error", "theory"], rows)
        outputs.append(epath)
    return outputs, None


def _run_memory(settings: dict, out: str) -> tuple[list[str], dict | None]:
    params, measure = _settings_config(settings)
    report = memory_classify(measure)
    h, cumulative = integrated_abs_covariance(
        settings["t"], settings["h_max"], measure, params,
        gamma=settings.get("gamma", 0.0),
    )
    path = os.path.join(out, "memory.csv")
    _write_csv(path, ["h", "integrated_abs_cov"], list(zip(h, cumulative)))
    result = {
        "classification": report.classification.value,
        "origin_exponent": report.origin_exponent,
    }
    print(f"classification: {report.classification.value}")
    return [path], result


def _run_entropy1d(settings: dict, out: str) -> tuple[list[str], dict | None]:
    result = entropy1d.run_experiment(
        settings["experiment"],
        half_length=settings.get("half_length", 3.0 * math.pi),
        n_modes=settings.get("n_modes"),
        width=settings.get("width", 2.0),
        trace_times=settings.get("trace_times"),
        snapshot_times=settings.get("snapshot_times", ()),
        n_intervals=settings.get("n_intervals", 400),
    )
    outputs = []
    tpath = os.path.join(out, "entropy.csv")
    rows = [
        [t, "" if math.isnan(s) else s, 0 if math.isnan(s) else 1]
        for t, s in zip(result.trace.times, result.trace.entropy)
    ]
    _write_csv(tpath, ["t", "entropy", "computable"], rows)
    outputs.append(tpath)
    for idx, (t, x, q) in enumerate(result.snapshots):
        spath = os.path.join(out, f"profile_{idx}.csv")
        _write_csv(spath, ["x", "q"], list(zip(x, q)))
        outputs.append(spath)
    return outputs, None


_RUNNERS = {
    "kernel": _run_kernel,
    "spectrum": _run_spectrum,
    "covariance": _run_covariance,
    "simulate": _run_simulate,
    "memory": _run_memory,
    "entropy1d": _run_entropy1d,
}


def _execute(subcommand: str, settings: dict, out: str) -> int:
    started = time.perf_counter()
    # The work directory sits in --out if it exists, else in its nearest
    # existing ancestor: the final renames stay on one file system, need no
    # write access above --out, and a failure creates nothing.
    base = os.path.abspath(out)
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    work = tempfile.mkdtemp(prefix=".hyperdiff-", dir=base)
    try:
        outputs, extra = _RUNNERS[subcommand](settings, work)
        names = [os.path.basename(p) for p in outputs]
        _write_manifest(work, subcommand, settings, names,
                        settings.get("seed"), started, extra)
        os.makedirs(out, exist_ok=True)
        for name in names + ["manifest.json"]:
            os.replace(os.path.join(work, name), os.path.join(out, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdiff",
        description="Random hyperbolic diffusion on the sphere: kernels, "
                    "spectra, covariances, field simulation, 1D entropy.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    k = sub.add_parser("kernel", help="tabulate the transfer function")
    k.add_argument("--config", help="JSON config (params used, measure ignored)")
    k.add_argument("--c", type=float, help="speed (overrides config)")
    k.add_argument("--D", type=float, help="diffusivity (overrides config)")
    k.add_argument("--mu", required=True, help="comma list of wave numbers")
    k.add_argument("--t", required=True, help="comma list of times")
    k.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("spectrum", help="angular power spectrum C_l(t,t)")
    s.add_argument("--config", required=True)
    s.add_argument("--lmax", type=int, required=True,
                   help="number of degrees (l = 0..lmax-1)")
    s.add_argument("--times", required=True, help="strictly increasing comma list")
    s.add_argument("--out", required=True)

    c = sub.add_parser("covariance", help="covariance R(cos gamma, t, t')")
    c.add_argument("--config", required=True)
    c.add_argument("--gammas", required=True, help="comma list of angles in [0, pi]")
    c.add_argument("--t", type=float, default=0.0)
    c.add_argument("--t-prime", type=float, default=None)
    c.add_argument("--route", choices=["spectral", "legendre", "both"],
                   default="spectral")
    c.add_argument("--lmax", type=int, default=128,
                   help="Legendre series length for the legendre/both routes")
    c.add_argument("--out", required=True)

    m = sub.add_parser("simulate", help="simulate coefficients and field grids")
    m.add_argument("--config", required=True)
    m.add_argument("--lmax", type=int, required=True, help="truncation degree L")
    m.add_argument("--grid", default="32x64", help="NTHETAxNPHI")
    m.add_argument("--times", required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--ensemble", type=int, default=0,
                   help="additionally estimate the spectrum from N runs")
    m.add_argument("--format", choices=["csv", "bin"], default="csv")
    m.add_argument("--n-quad", type=int, default=64,
                   help="Gauss-Legendre nodes per segment when atomising")
    m.add_argument("--out", required=True)

    y = sub.add_parser("memory", help="dependence classification and diagnostic")
    y.add_argument("--config", required=True)
    y.add_argument("--t", type=float, default=0.0)
    y.add_argument("--hmax", type=float, required=True)
    y.add_argument("--gamma", type=float, default=0.0)
    y.add_argument("--out", required=True)

    e = sub.add_parser("entropy1d", help="1D entropy experiments")
    e.add_argument("--experiment", required=True)
    e.add_argument("--half-length", type=float, default=3.0 * math.pi)
    e.add_argument("--n-modes", type=int, default=None)
    e.add_argument("--width", type=float, default=2.0)
    e.add_argument("--times", default=None, help="trace times (comma list)")
    e.add_argument("--snapshot-times", default="", help="profile times (comma list)")
    e.add_argument("--n-intervals", type=int, default=400)
    e.add_argument("--out", required=True)

    r = sub.add_parser("rerun", help="replay a manifest into a new directory")
    r.add_argument("manifest")
    r.add_argument("--out", required=True)
    return parser


def _settings_from_args(args) -> tuple[str, dict]:
    name = args.subcommand
    if name == "kernel":
        if args.config:
            params = _load_config_file(args.config)["params"]
        elif args.c is not None and args.D is not None:
            params = {"c": args.c, "D": args.D}
        else:
            raise ConfigError("kernel needs --config or both --c and --D")
        if args.c is not None:
            params["c"] = args.c
        if args.D is not None:
            params["D"] = args.D
        return name, {
            "params": params,
            "mu": _parse_floats(args.mu, "mu"),
            "t": _parse_floats(args.t, "t"),
        }
    if name == "spectrum":
        return name, {
            "config": _load_config_file(args.config),
            "l_count": args.lmax,
            "times": _parse_floats(args.times, "times"),
        }
    if name == "covariance":
        return name, {
            "config": _load_config_file(args.config),
            "gammas": _parse_floats(args.gammas, "gammas"),
            "t": args.t,
            "t_prime": args.t if args.t_prime is None else args.t_prime,
            "route": args.route,
            "l_count": args.lmax,
        }
    if name == "simulate":
        return name, {
            "config": _load_config_file(args.config),
            "degree_count": args.lmax,
            "grid": list(_parse_grid(args.grid)),
            "times": _parse_floats(args.times, "times"),
            "seed": args.seed,
            "ensemble": args.ensemble,
            "format": args.format,
            "n_quad": args.n_quad,
        }
    if name == "memory":
        return name, {
            "config": _load_config_file(args.config),
            "t": args.t,
            "h_max": args.hmax,
            "gamma": args.gamma,
        }
    if name == "entropy1d":
        settings = {
            "experiment": args.experiment,
            "half_length": args.half_length,
            "width": args.width,
            "n_intervals": args.n_intervals,
        }
        if args.n_modes is not None:
            settings["n_modes"] = args.n_modes
        if args.times:
            settings["trace_times"] = _parse_floats(args.times, "times")
        if args.snapshot_times:
            settings["snapshot_times"] = _parse_floats(args.snapshot_times,
                                                       "snapshot-times")
        return name, settings
    raise ConfigError(f"unknown subcommand {name!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        if args.subcommand == "rerun":
            with open(args.manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict) or not isinstance(
                    manifest.get("settings"), dict):
                raise ConfigError("manifest must be a JSON object with a settings object")
            name = manifest.get("subcommand")
            if name not in _RUNNERS:
                raise ConfigError(f"manifest names unknown subcommand {name!r}")
            try:
                return _execute(name, manifest["settings"], args.out)
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"manifest settings are incomplete or malformed "
                                  f"({type(exc).__name__}: {exc})") from exc
        name, settings = _settings_from_args(args)
        return _execute(name, settings, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
