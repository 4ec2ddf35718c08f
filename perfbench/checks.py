"""Output checks for benchmark jobs.

Each check reads what a job wrote (or returned) and compares it against a
route independent of the one the job took, at the acceptance suite's
tolerances. Checks are deterministic: no pass or fail depends on the seed
through sampling noise. They raise CheckFailed with a reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import struct

import numpy as np

from hyperdiff import cli, covariance, field_sim, spectrum
from hyperdiff.measure import measure_from_dict, params_from_dict


class CheckFailed(Exception):
    """A job's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(path: str, header: list[str]) -> np.ndarray:
    got, rows = _read_csv(path)
    _require(got == header, f"{os.path.basename(path)}: header {got} != {header}")
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    _require(bool(np.all(np.isfinite(values))), f"{os.path.basename(path)}: non-finite value")
    return values


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _model(job: dict):
    cfg = job["config"]
    return params_from_dict(cfg["params"]), measure_from_dict(cfg["measure"])


def check_spectrum(job: dict, out: str, _result) -> None:
    """Variance identity: (1/4pi) sum_l (2l+1) C_l(t,t) plus the brute-force
    tail equals the spectral-route variance R(1,t,t) to 1e-6 relative."""
    argv = job["argv"]
    l_count = int(_opt(argv, "--lmax"))
    times = _float_list(_opt(argv, "--times"))
    values = _floats(os.path.join(out, "spectrum.csv"), ["t", "t_prime", "l", "C_l"])
    _require(values.shape[0] == l_count * len(times), "spectrum: wrong row count")
    params, measure = _model(job)
    for i, t in enumerate(times):
        block = values[i * l_count:(i + 1) * l_count]
        _require(bool(np.all(block[:, 0] == t) and np.all(block[:, 2] == np.arange(l_count))),
                 "spectrum: rows out of order")
        series = float(np.sum((2 * block[:, 2] + 1) * block[:, 3]))
        tail = spectrum.tail_sum_direct(l_count, measure, params, t, block=16).value
        variance = 4.0 * math.pi * covariance.covariance_spectral(0.0, t, t, measure, params)
        _require(abs(series + tail - variance) <= 1e-6 * abs(variance),
                 f"spectrum: variance identity off by {abs(series + tail - variance):.3e} "
                 f"(variance {variance:.6e})")


def check_covariance(job: dict, out: str, _result) -> None:
    """Route both: discrepancy <= remainder + 1e-9 per angle. Route spectral:
    the first angle against the Legendre route, within its remainder."""
    argv = job["argv"]
    gammas = _float_list(_opt(argv, "--gammas"))
    path = os.path.join(out, "covariance.csv")
    if _opt(argv, "--route") == "both":
        v = _floats(path, ["gamma", "R_spectral", "R_legendre", "remainder", "discrepancy"])
        _require(v.shape[0] == len(gammas), "covariance: wrong row count")
        _require(bool(np.all(v[:, 4] == np.abs(v[:, 1] - v[:, 2]))),
                 "covariance: discrepancy column inconsistent")
        _require(bool(np.all(v[:, 4] <= v[:, 3] + 1e-9)),
                 f"covariance: routes disagree beyond remainder "
                 f"(worst excess {float(np.max(v[:, 4] - v[:, 3])):.3e})")
        return
    v = _floats(path, ["gamma", "R"])
    _require(v.shape[0] == len(gammas), "covariance: wrong row count")
    params, measure = _model(job)
    t = float(_opt(argv, "--t"))
    t_prime = float(_opt(argv, "--t-prime", t))
    l_count = 2 * int(math.ceil(measure.support_upper_bound())) + 16
    lc = covariance.covariance_legendre(v[0, 0], t, t_prime, measure, params, l_count)
    _require(abs(v[0, 1] - lc.value) <= lc.remainder + 1e-9,
             f"covariance: spectral {v[0, 1]!r} vs Legendre {lc.value!r} "
             f"beyond remainder {lc.remainder:.3e}")


def check_memory(job: dict, out: str, _result) -> None:
    """Cumulative curve nondecreasing over [0, hmax]; classification equals
    the origin rule applied to the generated measure."""
    v = _floats(os.path.join(out, "memory.csv"), ["h", "integrated_abs_cov"])
    h_max = float(_opt(job["argv"], "--hmax"))
    _require(v[0, 0] == 0.0 and abs(v[-1, 0] - h_max) <= 1e-12 * h_max,
             "memory: lag grid does not span [0, hmax]")
    _require(bool(np.all(np.diff(v[:, 1]) >= 0.0)), "memory: cumulative curve decreases")
    segments = job["config"]["measure"]["segments"]
    lowest = min(segments, key=lambda s: s["lo"]) if segments else None
    expected = ("LongRange" if lowest is not None and lowest["lo"] == 0.0
                and lowest["exponent"] <= 1.0 else "ShortRange")
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        got = json.load(fh)["result"]["classification"]
    _require(got == expected, f"memory: classified {got}, origin rule says {expected}")


def check_kernel(job: dict, out: str, _result) -> None:
    """Criterion 01: h = h1 + h2, 0 <= h1 <= 1, |h2| <= wave bound; each
    branch is zero on the other side of the cut-off."""
    argv = job["argv"]
    mus = _float_list(_opt(argv, "--mu"))
    ts = _float_list(_opt(argv, "--t"))
    v = _floats(os.path.join(out, "kernel.csv"), ["mu", "t", "h1", "h2", "h"])
    _require(v.shape[0] == len(mus) * len(ts), "kernel: wrong row count")
    mu, t, h1, h2, h = v.T
    c, d = job["params"]["c"], job["params"]["D"]
    cutoff = c / (2.0 * d)
    a = c * c * t / (2.0 * d)
    _require(bool(np.all(np.abs(h - (h1 + h2)) <= 1e-12)), "kernel: h != h1 + h2")
    _require(bool(np.all((h1 >= -1e-12) & (h1 <= 1.0 + 1e-12))), "kernel: h1 outside [0, 1]")
    _require(bool(np.all(np.abs(h2) <= np.exp(-a) * (1.0 + a) + 1e-12)),
             "kernel: |h2| above the wave bound")
    _require(bool(np.all(h1[mu > cutoff] == 0.0) and np.all(h2[mu <= cutoff] == 0.0)),
             "kernel: branch nonzero on the wrong side of the cut-off")


def check_entropy1d(job: dict, out: str, _result) -> None:
    """Snapshot mass is 1 to 1e-8; computable entropy <= log(2L) + 1e-6."""
    argv = job["argv"]
    L = float(_opt(argv, "--half-length"))
    header, rows = _read_csv(os.path.join(out, "entropy.csv"))
    _require(header == ["t", "entropy", "computable"], "entropy1d: bad header")
    _require(len(rows) == len(_float_list(_opt(argv, "--times"))), "entropy1d: wrong row count")
    bound = math.log(2.0 * L) + 1e-6
    for t, s, flag in rows:
        if flag == "1":
            _require(float(s) <= bound, f"entropy1d: entropy {s} above log(2L) at t={t}")
        else:
            _require(flag == "0" and s == "", "entropy1d: bad not-computable marker")
    snapshots = _float_list(_opt(argv, "--snapshot-times"))
    for i in range(len(snapshots)):
        x, q = _floats(os.path.join(out, f"profile_{i}.csv"), ["x", "q"]).T
        _require(abs(x[0] + L) <= 1e-12 * L and abs(x[-1] - L) <= 1e-12 * L,
                 "entropy1d: profile does not span [-L, L]")
        total = float(np.trapezoid(q, x))
        _require(abs(total - 1.0) <= 1e-8, f"entropy1d: snapshot {i} mass {total!r}")


def _rerun_identical(out: str) -> None:
    """Criterion 13: replaying the manifest reproduces every output bitwise."""
    again = out + "_rerun"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["rerun", os.path.join(out, "manifest.json"), "--out", again])
    _require(code == 0, f"simulate: rerun exited {code}")
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out, name), "rb") as a, open(os.path.join(again, name), "rb") as b:
            _require(a.read() == b.read(), f"simulate: rerun of {name} differs")


def check_simulate(job: dict, out: str, _result) -> None:
    """Hermitian symmetry of every coefficient set, well-formed grids and
    ensemble spectra, and, for sampled jobs, a bitwise-identical rerun."""
    argv = job["argv"]
    l_count = int(_opt(argv, "--lmax"))
    times = _float_list(_opt(argv, "--times"))
    n_theta, n_phi = (int(v) for v in _opt(argv, "--grid").split("x"))
    for i in range(len(times)):
        v = _floats(os.path.join(out, f"coefficients_t{i}.csv"), ["l", "m", "re", "im"])
        _require(v.shape[0] == l_count * l_count, "simulate: wrong coefficient count")
        a = np.zeros((l_count, 2 * l_count - 1), dtype=complex)
        a[v[:, 0].astype(int), v[:, 1].astype(int) + l_count - 1] = v[:, 2] + 1j * v[:, 3]
        m = np.arange(1, l_count)
        mirror = ((-1.0) ** m) * np.conj(a[:, l_count - 1 + m])
        tol = 1e-12 * max(float(np.max(np.abs(a))), 1e-300)
        _require(bool(np.all(np.abs(a[:, l_count - 1 - m] - mirror) <= tol))
                 and bool(np.all(a[:, l_count - 1].imag == 0.0)),
                 "simulate: coefficients not Hermitian-symmetric")
        if _opt(argv, "--format") == "bin":
            with open(os.path.join(out, f"field_t{i}.bin"), "rb") as fh:
                blob = fh.read()
            magic, nt, nphi, t = struct.unpack_from("<8sQQd", blob, 0)
            _require(magic == b"HYPDGRID" and (nt, nphi) == (n_theta, n_phi) and t == times[i]
                     and len(blob) == 32 + 8 * n_theta * n_phi, "simulate: bad binary grid")
            _require(bool(np.all(np.isfinite(np.frombuffer(blob, "<f8", offset=32)))),
                     "simulate: non-finite grid value")
        else:
            g = _floats(os.path.join(out, f"field_t{i}.csv"), ["theta", "phi", "value"])
            _require(g.shape[0] == n_theta * n_phi, "simulate: wrong grid size")
    n_runs = int(_opt(argv, "--ensemble", "0"))
    if n_runs:
        e = _floats(os.path.join(out, "empirical_spectrum.csv"),
                    ["t", "l", "estimate", "std_error", "theory"])
        _require(e.shape[0] == len(times) * l_count, "simulate: wrong ensemble row count")
        _require(bool(np.all(e[:, 2:] >= 0.0)), "simulate: negative ensemble spectrum")
    if job.get("rerun"):
        _rerun_identical(out)


def check_truncation_mc(job: dict, _out: str, result) -> None:
    """The closed-form band norm squared cannot exceed the spectral-route
    variance R(1,t,t) of the simulated (atomised) measure."""
    call = job["call"]
    params, measure = _model(job)
    values = (result.estimate, result.exact, result.std_error_sq)
    _require(all(math.isfinite(v) and v >= 0.0 for v in values),
             f"truncation_mc: bad result {values}")
    _require(result.n_runs == call["n_runs"], "truncation_mc: wrong run count")
    variance = covariance.covariance_spectral(0.0, call["time"], call["time"],
                                              field_sim.atomize(measure), params)
    _require(result.exact ** 2 <= variance * (1.0 + 1e-9),
             f"truncation_mc: band norm^2 {result.exact ** 2:.6e} above variance {variance:.6e}")


CHECKS = {
    "spectrum": check_spectrum,
    "covariance": check_covariance,
    "memory": check_memory,
    "kernel": check_kernel,
    "entropy1d": check_entropy1d,
    "simulate": check_simulate,
    "truncation_mc": check_truncation_mc,
}
