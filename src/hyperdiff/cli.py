"""Command-line front end: one subcommand per computation, CSV out, manifests.

Every run writes a JSON manifest next to its outputs recording the resolved
settings, seed, tool version, output paths, and wall-clock duration; the
`rerun` subcommand replays a manifest into a fresh output location, which for
seeded commands reproduces the outputs bitwise. Each setting is declared once,
as an argument whose dest is its settings key and whose converter and choices
the command line and `rerun` both apply; the parser is built once per
process. A run computes all its outputs first, without touching the disk;
then one writer puts them and the manifest into a temporary directory
(inside --out if it exists, else in its nearest existing ancestor), which
is renamed into place when --out is new, or whose files move into an
existing --out, only once everything was written, so a failed run leaves
nothing behind.

Exit codes: 0 success, 2 usage or config error, 3 numerical accuracy error
or an inf or nan result, 4 I/O error, 5 any other error (e.g. out of memory).
"""

from __future__ import annotations

import argparse
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
from .kernel import transfer_branches
from .spectrum import angular_spectrum
from .covariance import (MAX_LAGS, covariance_legendre, covariance_spectral,
                         integrated_abs_covariance, memory_classify)
from . import field_sim
from . import entropy1d


# Coefficients an ensemble draws, runs x times x L x (2L - 1). This bounds
# work, not memory: each member is reduced to its power per degree as it is
# drawn, so an ensemble holds one draw block plus 8 bytes per (run, time, L).
_MAX_ENSEMBLE_COEFFICIENTS = 10_000_000


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they print as one `error:` line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# --- converters: each takes command-line text or the JSON value a manifest stores ---

def _real(value, kind=float) -> float:
    try:
        if isinstance(value, (str, int, kind)) and not isinstance(value, bool):
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {value!r}")


def _count(value) -> int:
    return _real(value, int)


def _reals(value) -> list[float]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip() != ""]
        if value:
            try:  # one pass; on a bad part, the _real loop below names it
                return list(map(float, value))
            except ValueError:
                pass
    if not isinstance(value, list) or not value:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return [_real(v) for v in value]


def _grid(value) -> list[int]:
    value = value.lower().split("x") if isinstance(value, str) else value
    if not isinstance(value, list) or len(value) != 2:
        raise argparse.ArgumentTypeError("expected NTHETAxNPHI, e.g. 32x64")
    n_theta, n_phi = (_count(v) for v in value)
    if n_theta < 2 or n_phi < 4:
        raise argparse.ArgumentTypeError(
            f"NTHETAxNPHI needs NTHETA >= 2 and NPHI >= 4, got {n_theta}x{n_phi}")
    return [n_theta, n_phi]


def _config(value) -> dict:
    """A config file's path, or the config document a manifest embeds."""
    if isinstance(value, str):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = json.dumps(value)
    try:
        params, measure = load_config(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return {"params": {"c": params.c, "D": params.D}, "measure": measure.to_dict()}


def _params(value) -> dict:
    """kernel's params: a config file's path, or the object a manifest stores."""
    return _config(value if isinstance(value, str)
                   else {"params": value, "measure": {}})["params"]


def _settings_config(settings: dict) -> tuple[DiffusionParams, SpectralMeasure]:
    cfg = settings["config"]
    return params_from_dict(cfg["params"]), measure_from_dict(cfg["measure"])


# Rows of a table turned into text at a time: writing holds one piece's text,
# not the whole file's.
_PIECE_ROWS = 2048


def _text(piece) -> list[str]:
    """str of each field of a column's piece. A float64 array formats each
    distinct magnitude once, keyed on its bits, and prefixes "-" where the
    sign bit is set: -0.0 keeps its sign, a value shares its negation's
    digits, and a nan reads nan whatever its sign."""
    if not isinstance(piece, np.ndarray):
        return list(map(str, piece))
    if piece.dtype == np.float64:
        magnitudes, index = np.unique(np.abs(piece).view(np.int64), return_inverse=True)
        if magnitudes.size < piece.size:
            text = np.array(list(map(str, magnitudes.view(np.float64).tolist())),
                            dtype=object)[index]
            negative = np.signbit(piece)
            if negative.any():
                negative &= ~np.isnan(piece)
                text[negative] = "-" + text[negative]
            return text.tolist()
    return list(map(str, piece.tolist()))


def _write_file(path: str, content) -> None:
    """One output file: bytes as they are, or a (header, columns) table of
    equal-length columns, numpy arrays or lists of numbers or strings, as
    csv's default dialect writes it: str of each field (repr for a float),
    commas, CRLF after every line. The table is written in pieces of
    _PIECE_ROWS rows, each column's piece turned into text by _text."""
    if isinstance(content, bytes):
        with open(path, "wb") as fh:
            fh.write(content)
        return
    header, columns = content
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _PIECE_ROWS):
            fields = [_text(c[start:start + _PIECE_ROWS]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _write_manifest(directory: str, subcommand: str, settings: dict,
                    outputs: list[str], started: float,
                    result: dict | None) -> None:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "settings": settings,
        "outputs": outputs,
        "seed": settings.get("seed"),
        "duration_seconds": time.perf_counter() - started,
    }
    if result:
        manifest["result"] = result
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        # Compact dumps runs the C encoder; json.dump and indent run the Python one.
        fh.write(json.dumps(manifest))


# --- subcommand implementations: settings -> ({file name: content}, result) ---

def _run_kernel(settings: dict) -> tuple[dict, dict | None]:
    params = params_from_dict(settings["params"])
    mu, t = np.meshgrid(settings["mu"], settings["t"], indexing="ij")
    h, h1, h2 = transfer_branches(mu, t, params)
    return {"kernel.csv": (["mu", "t", "h1", "h2", "h"],
                           [mu.ravel(), t.ravel(), h1.ravel(), h2.ravel(), h.ravel()])}, None


def _run_spectrum(settings: dict) -> tuple[dict, dict | None]:
    params, measure = _settings_config(settings)
    times = settings["times"]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times must be strictly increasing")
    l_count = settings["l_count"]
    spec = angular_spectrum(l_count, times, times, measure, params)
    t_column = np.repeat(times, l_count)
    return {"spectrum.csv": (["t", "t_prime", "l", "C_l"],
                             [t_column, t_column, np.tile(np.arange(l_count), len(times)),
                              spec.ravel()])}, None


def _run_covariance(settings: dict) -> tuple[dict, dict | None]:
    params, measure = _settings_config(settings)
    gammas, route = settings["gammas"], settings["route"]
    args = (np.array(gammas), settings["t"], settings["t_prime"], measure, params)
    if route != "legendre":
        spectral = covariance_spectral(*args)
    if route != "spectral":
        lc = covariance_legendre(*args, settings["l_count"])
        remainder = np.full(len(gammas), lc.remainder)
    if route == "spectral":
        table = (["gamma", "R"], [gammas, spectral])
    elif route == "legendre":
        table = (["gamma", "R", "remainder"], [gammas, lc.value, remainder])
    else:
        table = (["gamma", "R_spectral", "R_legendre", "remainder", "discrepancy"],
                 [gammas, spectral, lc.value, remainder, np.abs(spectral - lc.value)])
    return {"covariance.csv": table}, None


def _run_simulate(settings: dict) -> tuple[dict, dict | None]:
    params, measure = _settings_config(settings)
    degree_count = settings["degree_count"]
    times = settings["times"]
    seed = settings["seed"]
    n_theta, n_phi = settings["grid"]
    n_quad = settings["n_quad"]
    n_runs = settings["ensemble"]
    empirical = None
    if n_runs:
        if n_runs < 2:
            raise ConfigError(f"--ensemble must be 0 or at least 2, got {n_runs}")
        size = n_runs * len(times) * degree_count * (2 * degree_count - 1)
        if size > _MAX_ENSEMBLE_COEFFICIENTS:
            raise ConfigError(
                f"--ensemble draws runs x times x L x (2L - 1) = {n_runs} x {len(times)} "
                f"x {degree_count} x {2 * degree_count - 1} = {size} coefficients, "
                f"more than {_MAX_ENSEMBLE_COEFFICIENTS}")
        # Drawn first, so its seed and size checks come before any work.
        estimate, std_error, theory = field_sim.ensemble_spectrum(
            degree_count, times, measure, params, master_seed=seed,
            n_runs=n_runs, n_quad=n_quad)
        empirical = (["t", "l", "estimate", "std_error", "theory"],
                     [np.repeat(times, degree_count),
                      np.tile(np.arange(degree_count), len(times)),
                      estimate.ravel(), std_error.ravel(), theory.ravel()])
    outputs = {}

    cs = field_sim.simulate_coefficients(degree_count, times, measure, params,
                                         seed=seed, n_quad=n_quad)
    # (l, m) pairs with |m| <= l, in the row-major order of the coefficients.
    ls, ms = np.indices((degree_count, 2 * degree_count - 1))
    ms -= degree_count - 1
    kept = np.abs(ms) <= ls
    ls, ms = ls[kept], ms[kept]
    for ti in range(len(times)):
        values = cs.coeffs[ti][kept]
        outputs[f"coefficients_t{ti}.csv"] = (["l", "m", "re", "im"],
                                              [ls, ms, values.real, values.imag])
        grid = field_sim.synthesize(cs, ti, n_theta, n_phi)
        if settings["format"] == "bin":
            outputs[f"field_t{ti}.bin"] = field_sim.grid_to_binary(grid)
        else:
            outputs[f"field_t{ti}.csv"] = (["theta", "phi", "value"],
                                           [np.repeat(grid.thetas(), n_phi),
                                            np.tile(grid.phis(), n_theta),
                                            grid.values.ravel()])

    if empirical is not None:
        outputs["empirical_spectrum.csv"] = empirical
    return outputs, None


def _run_memory(settings: dict) -> tuple[dict, dict | None]:
    params, measure = _settings_config(settings)
    report = memory_classify(measure)
    h, cumulative = integrated_abs_covariance(
        settings["t"], settings["h_max"], measure, params,
        gamma=settings["gamma"],
    )
    result = {
        "classification": report.classification.value,
        "origin_exponent": report.origin_exponent,
    }
    return {"memory.csv": (["h", "integrated_abs_cov"], [h, cumulative])}, result


def _run_entropy1d(settings: dict) -> tuple[dict, dict | None]:
    # The other settings keys are run_experiment's keywords.
    kwargs = {key: value for key, value in settings.items() if key != "experiment"}
    result = entropy1d.run_experiment(settings["experiment"], **kwargs)
    trace = result.trace
    outputs = {"entropy.csv": (["t", "entropy", "computable"],
                               [trace.times,
                                ["" if math.isnan(s) else s for s in trace.entropy.tolist()],
                                trace.computable.astype(int)])}
    for idx, (t, x, q) in enumerate(result.snapshots):
        outputs[f"profile_{idx}.csv"] = (["x", "q"], [x, q])
    return outputs, None


_RUNNERS = {
    "kernel": _run_kernel,
    "spectrum": _run_spectrum,
    "covariance": _run_covariance,
    "simulate": _run_simulate,
    "memory": _run_memory,
    "entropy1d": _run_entropy1d,
}


def _finite(content) -> bool:
    """Whether a grid's values or a table's numbers (not entropy's "") are finite."""
    if isinstance(content, bytes):
        return bool(np.isfinite(np.frombuffer(content, "<f8", offset=32)).all())
    return all(np.isfinite(c if isinstance(c, np.ndarray)
                           else [v for v in c if isinstance(v, float)]).all()
               for c in content[1])


def _execute(subcommand: str, settings: dict, out: str) -> int:
    started = time.perf_counter()
    with np.errstate(all="ignore"):  # an overflow is caught in the outputs
        outputs, result = _RUNNERS[subcommand](settings)
    for name, content in outputs.items():
        if not _finite(content):
            raise AccuracyError(f"{name} would hold inf or nan; nothing was written")
    # The work directory sits in --out if it exists, else in its nearest
    # existing ancestor: the final renames stay on one file system, need no
    # write access above --out, and a failure creates nothing. A new --out
    # is the work directory itself, renamed into place with the mode
    # os.makedirs would give it; an existing one gets the files one by one.
    target = os.path.abspath(out)
    base = target
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    work = tempfile.mkdtemp(prefix=".hyperdiff-", dir=base)
    try:
        for name, content in outputs.items():
            _write_file(os.path.join(work, name), content)
        names = list(outputs)
        _write_manifest(work, subcommand, settings, names, started, result)
        if base == target:
            for name in names + ["manifest.json"]:
                os.replace(os.path.join(work, name), os.path.join(out, name))
            os.rmdir(work)
        else:
            umask = os.umask(0o777)  # read by setting; restored at once
            os.umask(umask)
            os.chmod(work, 0o777 & ~umask)
            if os.path.dirname(target) != base:  # --out's parent is new too
                os.makedirs(os.path.dirname(target), exist_ok=True)
            os.rename(work, target)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    if subcommand == "memory":  # printed only once the outputs are in place
        print(f"classification: {result['classification']}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and its subparsers by name; a default is what a run records."""
    parser = _Parser(
        prog="hyperdiff",
        description="Random hyperbolic diffusion on the sphere: kernels, "
                    "spectra, covariances, field simulation, 1D entropy.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    k = sub.add_parser("kernel", help="tabulate the transfer function")
    k.add_argument("--config", dest="params", type=_params, metavar="CONFIG",
                   help="JSON config (params used, measure ignored)")
    k.add_argument("--c", type=_real, help="speed (overrides config)")
    k.add_argument("--D", type=_real, help="diffusivity (overrides config)")
    k.add_argument("--mu", type=_reals, required=True, help="comma list of wave numbers")
    k.add_argument("--t", type=_reals, required=True, help="comma list of times")
    k.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("spectrum", help="angular power spectrum C_l(t,t)")
    s.add_argument("--config", type=_config, required=True)
    s.add_argument("--lmax", dest="l_count", type=_count, required=True,
                   help="number of degrees (l = 0..lmax-1)")
    s.add_argument("--times", type=_reals, required=True,
                   help="strictly increasing comma list")
    s.add_argument("--out", required=True)

    c = sub.add_parser("covariance", help="covariance R(cos gamma, t, t')")
    c.add_argument("--config", type=_config, required=True)
    c.add_argument("--gammas", type=_reals, required=True,
                   help="comma list of angles in [0, pi]")
    c.add_argument("--t", type=_real, default=0.0)
    c.add_argument("--t-prime", type=_real, default=None, help="defaults to --t")
    c.add_argument("--route", choices=("spectral", "legendre", "both"),
                   default="spectral")
    c.add_argument("--lmax", dest="l_count", type=_count, default=128,
                   help="Legendre series length for the legendre/both routes")
    c.add_argument("--out", required=True)

    m = sub.add_parser("simulate", help="simulate coefficients and field grids")
    m.add_argument("--config", type=_config, required=True)
    m.add_argument("--lmax", dest="degree_count", type=_count, required=True,
                   help="truncation degree L")
    m.add_argument("--grid", type=_grid, default=[32, 64], help="NTHETAxNPHI")
    m.add_argument("--times", type=_reals, required=True)
    m.add_argument("--seed", type=_count, default=0)
    m.add_argument("--ensemble", type=_count, default=0,
                   help="additionally estimate the spectrum from N runs, each "
                        "reduced as it is drawn; the coefficients drawn, N x times "
                        f"x L x (2L - 1), may be at most {_MAX_ENSEMBLE_COEFFICIENTS}")
    m.add_argument("--format", choices=["csv", "bin"], default="csv")
    m.add_argument("--n-quad", type=_count, default=64,
                   help="Gauss nodes per segment when atomising: Gauss-Jacobi "
                        "for a non-integer exponent on [0, hi], else Gauss-Legendre")
    m.add_argument("--out", required=True)

    y = sub.add_parser("memory", help="dependence classification and diagnostic")
    y.add_argument("--config", type=_config, required=True)
    y.add_argument("--t", type=_real, default=0.0)
    y.add_argument("--hmax", dest="h_max", type=_real, required=True,
                   help="largest time lag; the lag grid 0, h_step, ..., hmax, with "
                        "h_step = min(hmax/1e4, 2 pi/(10 c mu_max)), may have at most "
                        f"{MAX_LAGS} points")
    y.add_argument("--gamma", type=_real, default=0.0)
    y.add_argument("--out", required=True)

    e = sub.add_parser("entropy1d", help="1D entropy experiments")
    e.add_argument("--experiment", choices=entropy1d.EXPERIMENTS, required=True)
    e.add_argument("--half-length", type=_real, default=3.0 * math.pi)
    e.add_argument("--width", type=_real, default=2.0)
    e.add_argument("--n-intervals", type=_count, default=400)
    e.add_argument("--n-modes", type=_count, default=None,
                   help="cosine modes (default 100 for point_source, 200 for "
                        "rectangle); n_modes * (n_intervals + 1) may be at most "
                        f"{entropy1d.MAX_BASIS_ELEMENTS}")
    e.add_argument("--times", dest="trace_times", type=_reals, default=None,
                   help="trace times (comma list)")
    e.add_argument("--snapshot-times", type=_reals, default=None,
                   help="profile times (comma list)")
    e.add_argument("--out", required=True)

    r = sub.add_parser("rerun", help="replay a manifest into a new directory")
    r.add_argument("manifest")
    r.add_argument("--out", required=True)
    return parser, sub.choices


# Built once per process: parsing leaves a parser as it was, and no run
# changes a value it reads from settings (--grid's default list is shared).
_PARSER, _COMMANDS = _build_parser()


def _manifest_values(path: str) -> tuple[str, dict]:
    """A manifest's subcommand and its settings by dest, each value through
    the converter and choices of its argument, unset ones at their default."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("settings"), dict):
        raise ConfigError("manifest must be a JSON object with a settings object")
    name = manifest.get("subcommand")
    if name not in _RUNNERS:
        raise ConfigError(f"manifest names unknown subcommand {name!r}")
    settings = manifest["settings"]
    actions = {action.dest: action for action in _COMMANDS[name]._actions
               if action.dest not in ("help", "out")}
    for key in settings:
        if key not in actions:
            raise ConfigError(f"manifest setting {key!r} is not a {name} setting")
    values = {}
    for key, action in actions.items():
        if key not in settings:
            if action.required:
                raise ConfigError(f"manifest lacks the {name} setting {key!r}")
            values[key] = action.default
            continue
        try:
            values[key] = action.type(settings[key]) if action.type else settings[key]
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"manifest setting {key!r}: {exc}") from exc
        if action.choices is not None and values[key] not in action.choices:
            raise ConfigError(f"manifest setting {key!r} must be one of "
                              f"{', '.join(action.choices)}, got {values[key]!r}")
    return name, values


def _settings(name: str, values: dict) -> dict:
    """The settings a run records: the set values by dest, with kernel's
    --config, --c and --D folded into params and t_prime defaulting to t."""
    if name == "covariance" and values["t_prime"] is None:
        values = {**values, "t_prime": values["t"]}
    settings = {key: value for key, value in values.items()
                if value is not None and key not in ("subcommand", "out")}
    if name == "kernel":
        params = settings.pop("params", {})
        params.update((key, settings.pop(key)) for key in ("c", "D") if key in settings)
        if len(params) != 2:
            raise ConfigError("kernel needs params: --config or both --c and --D")
        settings = {"params": params, **settings}
    return settings


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.subcommand == "rerun":
            name, values = _manifest_values(args.manifest)
        else:
            name, values = args.subcommand, vars(args)
        return _execute(name, _settings(name, values), args.out)
    except SystemExit as exc:  # --help and --version
        return exc.code if isinstance(exc.code, int) else 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # e.g. MemoryError, RecursionError: no traceback
        detail = f": {exc}" if str(exc) else ""
        print(f"unexpected error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
