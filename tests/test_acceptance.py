"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; run with `pytest -v -s` to see them all.
"""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.special as sp

from hyperdiff.cli import main as cli_main
from hyperdiff.covariance import (MemoryClass, angular_mse, covariance_legendre,
                                  covariance_spectral, memory_classify)
from hyperdiff.entropy1d import (decompose_initial, entropy_trace, evaluate,
                                 mass, run_experiment)
from hyperdiff.field_sim import ensemble_spectrum, truncation_error_mc
from hyperdiff.kernel import transfer, transfer_branches, wave_bound
from hyperdiff.measure import DiffusionParams, PowerLawSegment, SpectralMeasure
from hyperdiff.special import bessel_half_all
from hyperdiff.spectrum import (angular_spectrum, finite_variance_check,
                                tail_sum_direct, tail_sum_lommel)

HERE = os.path.dirname(__file__)
TWO_BAND_CONFIG = os.path.join(HERE, os.pardir, "configs", "two_band.json")


def report(number: int, description: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{timing}")
    assert ok, f"criterion {number} failed: {description}"


def two_band_measure():
    with open(TWO_BAND_CONFIG) as fh:
        doc = json.load(fh)
    atoms = tuple((a["mu"], a["mass"]) for a in doc["measure"]["atoms"])
    return (DiffusionParams(c=doc["params"]["c"], D=doc["params"]["D"]),
            SpectralMeasure(atoms=atoms))


def test_criterion_01_kernel_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(20):
        p = DiffusionParams(c=float(rng.uniform(0.2, 3.0)),
                            D=float(rng.uniform(0.2, 3.0)))
        mu = rng.uniform(0.0, 4.0 * p.cutoff, 500)
        t = rng.uniform(0.0, 20.0, 500)
        _, h1, h2 = transfer_branches(mu, t, p)
        ok &= bool(np.all(h1 >= -1e-12) and np.all(h1 <= 1.0 + 1e-12))
        ok &= bool(np.all(np.abs(h2) <= wave_bound(t, p) + 1e-12))
    elapsed = time.perf_counter() - started
    report(1, "kernel branch bounds on 10^4 random (mu,t,c,D), tol 1e-12",
           ok and elapsed < 1.0, elapsed)


def test_criterion_02_kernel_ode_residual():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    dt = 1e-4
    worst = 0.0
    for _ in range(4):
        p = DiffusionParams(c=float(rng.uniform(0.5, 2.0)),
                            D=float(rng.uniform(0.5, 2.0)))
        mu = rng.uniform(0.0, 4.0, 250)
        t = rng.uniform(0.1, 3.0, 250)
        hm, h0, hp = (transfer(mu, t - dt, p), transfer(mu, t, p),
                      transfer(mu, t + dt, p))
        residual = ((hp - 2 * h0 + hm) / dt ** 2 / p.c ** 2
                    + (hp - hm) / (2 * dt) / p.D + mu ** 2 * h0)
        worst = max(worst, float(np.max(np.abs(residual))))
    elapsed = time.perf_counter() - started
    report(2, f"kernel ODE residual <= 1e-5 at 10^3 points (worst {worst:.2e})",
           worst <= 1e-5 and elapsed < 1.0, elapsed)


def test_criterion_03_cutoff_continuity():
    rng = np.random.default_rng(1003)
    eps = 1e-8
    worst = 0.0
    for _ in range(100):
        p = DiffusionParams(c=float(rng.uniform(0.2, 3.0)),
                            D=float(rng.uniform(0.2, 3.0)))
        t = float(rng.uniform(0.0, 10.0))
        gap = abs(transfer(p.cutoff - eps, t, p) - transfer(p.cutoff + eps, t, p))
        worst = max(worst, gap)
    report(3, f"transfer continuous across the cut-off (worst gap {worst:.2e})",
           worst <= 1e-6)


def test_criterion_04_von_lommel():
    started = time.perf_counter()
    p = DiffusionParams(1.0, 1.0)
    ok = True
    # raw Bessel identity against a brute-force scipy oracle
    for l_start in range(1, 11):
        for mu in [0.5, 1.0, 5.0, 20.0]:
            ls = np.arange(l_start, 61)
            brute = float(np.sum((2 * ls + 1) * sp.jv(ls + 0.5, mu) ** 2))
            # j[k] = J_{k-1/2}(mu); d/dx J_{l+1/2} = (J_{l-1/2} - J_{l+3/2}) / 2
            j = np.concatenate([[math.sqrt(2.0 / (math.pi * mu)) * math.cos(mu)],
                                bessel_half_all(l_start + 1, mu)])
            closed = mu ** 2 * (
                j[l_start] * 0.5 * (j[l_start] - j[l_start + 2])
                - j[l_start + 1] * 0.5 * (j[l_start - 1] - j[l_start + 1])
            )
            ok &= abs(brute - closed) <= 1e-10 * abs(closed)
    # library tail sums on three measures
    measures = [
        SpectralMeasure(atoms=((1.0, 1.0),)),
        SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7), (9.0, 1.1))),
        SpectralMeasure(atoms=((0.2, 0.5),),
                        segments=(PowerLawSegment(1.0, 3.0, 0.4, 1.0),)),
    ]
    for m in measures:
        for l_start in [1, 4]:
            direct = tail_sum_direct(l_start, m, p, 0.0).value
            closed = tail_sum_lommel(l_start, m, p)
            ok &= abs(direct - closed) <= 1e-8 * abs(closed)
    elapsed = time.perf_counter() - started
    report(4, "Lommel tail identity: raw 1e-10, library routes 1e-8",
           ok and elapsed < 5.0, elapsed)


def test_criterion_05_route_agreement():
    started = time.perf_counter()
    p = DiffusionParams(1.0, 1.0)
    m = SpectralMeasure(atoms=((0.8, 0.6), (2.5, 0.4)),
                        segments=(PowerLawSegment(3.0, 5.0, 0.5, -1.0),))
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(100):
        gamma = float(rng.uniform(0.0, math.pi))
        t = float(rng.uniform(0.0, 1.5))
        t_prime = float(rng.uniform(0.0, 1.5))
        spectral = covariance_spectral(gamma, t, t_prime, m, p)
        lc = covariance_legendre(gamma, t, t_prime, m, p, 48)
        ok &= abs(spectral - lc.value) <= lc.remainder + 1e-9
    elapsed = time.perf_counter() - started
    report(5, "spectral vs Legendre covariance on 100 random queries",
           ok and elapsed < 10.0, elapsed)


def test_criterion_06_variance_identity():
    p, m = two_band_measure()
    ok = True
    for t in [0.0, 0.05, 0.1]:
        variance = covariance_spectral(0.0, t, t, m, p)
        l_count = 200
        values = angular_spectrum(l_count, t, t, m, p)
        series = float(np.sum((2 * np.arange(l_count) + 1) * values)) / (4 * math.pi)
        tail = tail_sum_direct(l_count, m, p, t).value / (4 * math.pi)
        ok &= tail <= 1e-9 * abs(variance)
        ok &= abs(series - variance) <= 1e-6 * abs(variance)
    report(6, "variance identity R(1,t,t) = (1/4pi) sum (2l+1) C_l on the "
              "two-band measure (c=1, D=2)", ok)


def test_criterion_07_hoelder_mse_bound():
    p = DiffusionParams(1.0, 1.0)
    m = SpectralMeasure(atoms=((1.0, 1.0),))
    l_count = 60
    ok = True
    for alpha in [0.5, 1.0]:
        constant = finite_variance_check(m, p, alpha).weighted_sum / math.pi
        for t in [0.0, 0.1]:
            for gamma in np.geomspace(1e-3, math.pi, 30):
                bound = constant * (1 - math.cos(gamma)) ** alpha
                ok &= angular_mse(float(gamma), t, m, p, l_count) <= bound * (1 + 1e-10)
    # bounded support: MSE/(1 - cos gamma) bounded across three decades
    values = angular_spectrum(l_count, 0.0, 0.0, m, p)
    ls = np.arange(l_count)
    limit = float(np.sum((2 * ls + 1) * ls * (ls + 1) * values)) / (2 * math.pi)
    for gamma in [1e-1, 1e-2, 1e-3]:
        ratio = angular_mse(gamma, 0.0, m, p, l_count) / (1 - math.cos(gamma))
        ok &= ratio <= limit * (1 + 1e-6)
    report(7, "Hoelder MSE bound for alpha in {0.5, 1} and bounded ratio as "
              "gamma -> 0", ok)


def test_criterion_08_support_gap_decay():
    p = DiffusionParams(1.0, 1.0)
    ok = True
    # atoms with support lower bound delta = 0.3 below the cut-off
    delta = 0.3
    m_gap = SpectralMeasure(atoms=((0.3, 0.4), (0.35, 0.3), (0.45, 0.3)))
    const = (1.0 + (1.0 - 4.0 * delta ** 2) ** -0.5) ** 2
    base = angular_spectrum(51, 0.0, 0.0, m_gap, p)
    for t in [0.5, 1.0, 5.0]:
        values = angular_spectrum(51, t, t, m_gap, p)
        envelope = const * math.exp(-2.0 * delta ** 2 * t) * base
        ok &= bool(np.all(values <= envelope * (1 + 1e-10)))
    # no mass at or below the cut-off: wave-regime envelope
    m_wave = SpectralMeasure(atoms=((0.6, 0.5), (1.0, 0.3), (2.0, 0.2)))
    base_w = angular_spectrum(51, 0.0, 0.0, m_wave, p)
    for t in [0.5, 1.0, 5.0]:
        a = p.c ** 2 * t / (2 * p.D)
        envelope = (1 + a) ** 2 * math.exp(-2 * a) * base_w
        values = angular_spectrum(51, t, t, m_wave, p)
        ok &= bool(np.all(values <= envelope * (1 + 1e-10)))
    report(8, "support-gap and pure-wave spectral decay envelopes, l <= 50", ok)


def test_criterion_09_mc_spectrum_recovery():
    started = time.perf_counter()
    p = DiffusionParams(1.0, 1.0)
    m = SpectralMeasure(atoms=((1.0, 1.0),))
    estimate, std_error, _ = ensemble_spectrum(21, (0.0, 1.0), m, p,
                                               master_seed=2026, n_runs=2000)
    ok = True
    for ti, t in enumerate([0.0, 1.0]):
        theory = angular_spectrum(21, t, t, m, p)
        ok &= bool(np.all(np.abs(estimate[ti] - theory) <= 5 * std_error[ti]))
    elapsed = time.perf_counter() - started
    report(9, "Monte Carlo spectrum recovery within 5 SE, N = 2000, l <= 20",
           ok and elapsed < 60.0, elapsed)


def test_criterion_10_truncation_sharpness():
    p = DiffusionParams(1.0, 1.0)
    m = SpectralMeasure(atoms=((0.5, 0.3), (1.5, 0.5), (4.0, 0.2)))
    t0 = truncation_error_mc(3, 12, m, p, 0.0, n_runs=1500, master_seed=77)
    lo = math.sqrt(max(t0.estimate ** 2 - 5 * t0.std_error_sq, 0.0))
    hi = math.sqrt(t0.estimate ** 2 + 5 * t0.std_error_sq)
    ok = lo <= t0.exact <= hi
    t1 = truncation_error_mc(3, 12, m, p, 1.0, n_runs=1500, master_seed=77)
    ok &= t1.exact <= t0.exact * (1 + 1e-12)
    ok &= (t1.estimate ** 2 <= t0.estimate ** 2
           + 5 * (t0.std_error_sq + t1.std_error_sq))
    report(10, "truncation error: MC equals the closed form at t=0 and is "
               "dominated by it at t>0", ok)


def test_criterion_11_memory_classification():
    started = time.perf_counter()
    atoms = SpectralMeasure(atoms=((1.0, 1.0),))
    long_range = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
    short_range = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 1.5),))
    ok = memory_classify(atoms).classification is MemoryClass.SHORT_RANGE
    ok &= memory_classify(long_range).classification is MemoryClass.LONG_RANGE
    ok &= memory_classify(short_range).classification is MemoryClass.SHORT_RANGE
    elapsed = time.perf_counter() - started
    report(11, "memory classification per the origin criterion",
           ok and elapsed < 1.0, elapsed)


def test_criterion_12_entropy_lab():
    started = time.perf_counter()
    L = 3.0 * math.pi
    ok = True
    # uniform profile entropy
    uniform = decompose_initial(np.full(801, 1.0 / (2 * L)), L, 4)
    s_uniform = entropy_trace(uniform, [0.0], 400).entropy[0]
    ok &= abs(s_uniform - math.log(6 * math.pi)) <= 1e-6
    # standing wave reaches the maximum at t = pi / (2 omega)
    omega = math.sqrt(7.0) / 6.0
    t_star = math.pi / (2 * omega)
    sw = run_experiment("standing_wave", trace_times=[t_star])
    ok &= abs(sw.trace.entropy[0] - math.log(6 * math.pi)) <= 1e-3
    # successive minima strictly increase toward the maximum
    trace = run_experiment("standing_wave",
                           trace_times=np.arange(0.5, 25.0, 0.02)).trace
    s = trace.entropy
    interior = (s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])
    minima = s[1:-1][interior]
    ok &= len(minima) >= 3 and bool(np.all(np.diff(minima) > 0))
    ok &= bool(np.all(minima < math.log(6 * math.pi)))
    # point-source front advances at unit speed
    ps = run_experiment("point_source", trace_times=[0.0]).decomposition
    xg = np.linspace(0.0, L, 2001)
    cell = xg[1] - xg[0]
    ts = [2.0, 3.0, 4.0, 5.0]
    positions = [float(xg[np.argmax(np.where(xg > 0.5, evaluate(ps, xg, t),
                                             -np.inf))]) for t in ts]
    steps = np.diff(positions)
    ok &= bool(np.all(np.abs(steps - np.diff(ts)) <= cell + 1e-12))
    # mass conservation across experiments and times
    for name in ("standing_wave", "point_source", "rectangle"):
        md = run_experiment(name, trace_times=[0.0]).decomposition
        for t in [0.0, 0.5, 2.0, 10.0]:
            ok &= abs(mass(md, t) - 1.0) <= 1e-8
    elapsed = time.perf_counter() - started
    report(12, "entropy lab: uniform level, maximum attainment, increasing "
               "minima, unit front speed, mass conservation",
           ok and elapsed < 30.0, elapsed)


def test_criterion_13_reproducibility(tmp_path, run_cli_child):
    config = os.path.abspath(TWO_BAND_CONFIG)
    base = tmp_path / "base"
    args = ["simulate", "--config", config, "--lmax", "6", "--grid", "8x16",
            "--times", "0,0.05", "--seed", "99", "--ensemble", "32"]
    assert cli_main(args + ["--out", str(base)]) == 0
    # BLAS threads are the only thread count that can reach the results
    outs = [base]
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        proc = run_cli_child(["rerun", str(base / "manifest.json"),
                              "--out", str(out)], threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    ok = True
    for path in sorted(base.iterdir()):
        if path.name == "manifest.json":
            continue
        blobs = [(d / path.name).read_bytes() for d in outs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    report(13, "simulate reruns bitwise-identical under BLAS threads 1 and 2",
           ok)
