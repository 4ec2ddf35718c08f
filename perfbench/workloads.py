"""Seeded job streams for the hyperdiff benchmark.

A job is a plain dict: its ``kind``, the CLI ``argv`` with ``{config}`` and
``{out}`` placeholders that the runner fills with per-job paths, the measure
``config`` document it reads (if any), and, for ``truncation_mc``, the
arguments of the direct library call. ``cycle`` returns one cycle of a
workload: its fixed job templates, drawn from the seed and shuffled.

Every draw is valid input: atoms strictly increasing and outside every
segment, segments disjoint, origin segments with exponent > -1, and
half-lengths that are never an exact multiple of 2*pi. A job that still fails
is counted as failed by the runner; it is never redrawn.

This module uses only the standard library, so the job list depends on the
seed alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("continuous", "atomic", "closed_form")

# Shipped measure configs used by the atomic workload, relative to the repo root.
SHIPPED_CONFIGS = ("configs/two_band.json", "configs/inverse_decay.json")


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _increasing(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n strictly increasing floats in [lo, hi], at least (hi-lo)/(100 n) apart."""
    span = hi - lo
    gap = span / (100.0 * n)
    free = span - gap * (n - 1)
    points = sorted(rng.uniform(0.0, free) for _ in range(n))
    return [lo + p + i * gap for i, p in enumerate(points)]


def _near(rng: random.Random, value: float, rel: float = 0.1) -> float:
    """value perturbed by up to +-rel of itself."""
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _segment_measure(rng: random.Random, mu_max: float, n_seg: int,
                     origin: float | None, straddle: bool, n_atoms: int) -> dict:
    """Config with n_seg power-law segments on [0, ~mu_max] and a few atoms.

    origin: exponent (+-0.05) of a first segment starting at 0, or None for
    one starting above 0. straddle puts the cut-off c/(2D) strictly inside a
    segment; otherwise it lies above the support.
    """
    mu_max = _near(rng, mu_max)
    if n_seg == 1:
        ends = [rng.uniform(0.1, 0.3) * mu_max, mu_max]
    else:
        ends = [rng.uniform(0.05, 0.15) * mu_max, rng.uniform(0.35, 0.45) * mu_max,
                rng.uniform(0.55, 0.65) * mu_max, mu_max]
    if origin is not None:
        ends[0] = 0.0
    segments = []
    for i in range(n_seg):
        lo, hi = ends[2 * i], ends[2 * i + 1]
        exponent = origin + rng.uniform(-0.05, 0.05) if lo == 0.0 else rng.uniform(-1.0, 2.0)
        segments.append({"lo": lo, "hi": hi, "amplitude": rng.uniform(0.5, 2.0),
                         "exponent": exponent})

    # Atoms sit strictly inside the gaps between and after the segments.
    gaps = [(segments[i]["hi"], segments[i + 1]["lo"]) for i in range(n_seg - 1)]
    gaps.append((mu_max, 1.2 * mu_max))
    atom_mus = sorted({a + (b - a) * rng.uniform(0.1, 0.9)
                       for a, b in (gaps[i % len(gaps)] for i in range(n_atoms))})
    atoms = [{"mu": mu, "mass": rng.uniform(0.05, 0.5)} for mu in atom_mus]

    c = rng.uniform(0.8, 1.2)
    if straddle:
        seg = segments[-1]
        cutoff = seg["lo"] + (seg["hi"] - seg["lo"]) * rng.uniform(0.3, 0.7)
    else:
        cutoff = rng.uniform(1.3, 1.5) * mu_max
    return {"params": {"c": c, "D": c / (2.0 * cutoff)},
            "measure": {"atoms": atoms, "segments": segments}}


def _atom_measure(rng: random.Random, n_atoms: int, mu_max: float) -> dict:
    mus = _increasing(rng, n_atoms, 0.1, _near(rng, mu_max))
    c = rng.uniform(0.8, 1.2)
    return {"params": {"c": c, "D": c / (2.0 * rng.uniform(0.3, 0.7) * mu_max)},
            "measure": {"atoms": [{"mu": mu, "mass": rng.uniform(0.05, 1.0)}
                                  for mu in mus],
                        "segments": []}}


def _times(rng: random.Random, n: int, t_max: float) -> list[float]:
    return _increasing(rng, n, 0.0, t_max) if n > 1 else [rng.uniform(0.0, t_max)]


def _gammas(rng: random.Random, n: int) -> str:
    return _fmt(rng.uniform(0.0, math.pi) for _ in range(n))


def _job(kind: str, argv: list[str], config: dict | None = None, **extra) -> dict:
    job = {"kind": kind, "argv": argv, "config": config}
    job.update(extra)
    return job


# Each workload's cycle is a fixed list of job templates. A template fixes
# what sets a job's cost (kind, segment count, origin exponent, support,
# degree count, number of times or angles); the seed draws the rest within
# about 10%. So every seed runs the same mix at about the same cost, while
# the inputs still differ. Templates come in four cost tiers of 7, 6, 3 and 4
# jobs, so the median job falls inside the second tier and the 90th
# percentile inside the fourth rather than on a gap between two job sizes,
# where a small change in the mix would make them jump.

# --- continuous: segment measures through spectrum, covariance, memory ---

# (mu_max, segments, origin exponent, straddle, atoms, L, times)
_CONT_SPECTRUM = (
    (4.0, 1, 1.5, False, 2, 16, 1),
    (6.0, 2, None, True, 2, 32, 2),
    (5.0, 2, 0.5, True, 0, 24, 2),
    (4.0, 2, -0.2, False, 3, 24, 1),
    (2.5, 1, 0.8, True, 0, 16, 2),
    (3.0, 1, -0.4, True, 0, 16, 1),
)
# (mu_max, segments, origin exponent, straddle, atoms, angles)
_CONT_SPECTRAL = (
    (5.0, 2, 0.5, False, 2, 5),
    (4.0, 1, 1.5, True, 0, 4),
    (6.0, 2, None, True, 0, 6),
    (3.0, 1, 0.2, False, 2, 2),
    (3.0, 1, -0.4, True, 0, 3),
    (3.0, 1, -0.6, True, 0, 6),
)
# (mu_max, segments, origin exponent, straddle, atoms, L, angles)
_CONT_BOTH = (
    (4.0, 1, None, False, 2, 16, 2),
    (3.0, 1, 0.5, True, 0, 16, 1),
    (4.0, 2, 1.5, True, 0, 24, 2),
    (3.0, 1, 0.5, True, 0, 24, 2),
)
# (mu_max, segments, origin exponent, hmax): long range for exponents <= 1.
_CONT_MEMORY = ((3.0, 1, 0.9, 15.0), (3.0, 1, 1.1, 15.0),
                (3.0, 1, 0.9, 15.0), (3.0, 1, 1.1, 15.0))


def _continuous_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for mu_max, n_seg, origin, straddle, n_atoms, l_count, n_t in _CONT_SPECTRUM:
        cfg = _segment_measure(rng, mu_max, n_seg, origin, straddle, n_atoms)
        jobs.append(_job("spectrum", [
            "spectrum", "--config", "{config}", "--lmax", str(l_count),
            "--times", _fmt(_times(rng, n_t, 1.0)), "--out", "{out}"], cfg))
    for mu_max, n_seg, origin, straddle, n_atoms, n_g in _CONT_SPECTRAL:
        cfg = _segment_measure(rng, mu_max, n_seg, origin, straddle, n_atoms)
        t = rng.uniform(0.0, 1.0)
        jobs.append(_job("covariance", [
            "covariance", "--config", "{config}", "--gammas", _gammas(rng, n_g),
            "--t", repr(t), "--t-prime", repr(t + rng.uniform(0.0, 0.5)),
            "--route", "spectral", "--out", "{out}"], cfg))
    for mu_max, n_seg, origin, straddle, n_atoms, l_count, n_g in _CONT_BOTH:
        cfg = _segment_measure(rng, mu_max, n_seg, origin, straddle, n_atoms)
        jobs.append(_job("covariance", [
            "covariance", "--config", "{config}", "--gammas", _gammas(rng, n_g),
            "--t", repr(rng.uniform(0.0, 1.0)), "--route", "both",
            "--lmax", str(l_count), "--out", "{out}"], cfg))
    for mu_max, n_seg, origin, h_max in _CONT_MEMORY:
        cfg = _segment_measure(rng, mu_max, n_seg, origin, True, 0)
        jobs.append(_job("memory", [
            "memory", "--config", "{config}", "--t", repr(rng.uniform(0.0, 0.5)),
            "--hmax", repr(_near(rng, h_max)), "--out", "{out}"], cfg))
    return jobs


# --- atomic: atom-only spectra and covariances, simulation, truncation MC ---

def _atomic_cycle(rng: random.Random, shipped: list[dict]) -> list[dict]:
    two_band, inverse_decay = shipped
    small, large = _atom_measure(rng, 10, 10.0), _atom_measure(rng, 20, 20.0)
    segment = _segment_measure(rng, 4.0, 2, 0.5, True, 2)
    smooth = _segment_measure(rng, 3.0, 1, 1.5, False, 0)
    jobs = []
    for cfg, l_count, n_t in ((two_band, 64, 2), (inverse_decay, 128, 1),
                              (small, 256, 2), (large, 128, 3)):
        jobs.append(_job("spectrum", [
            "spectrum", "--config", "{config}", "--lmax", str(l_count),
            "--times", _fmt(_times(rng, n_t, 0.5)), "--out", "{out}"], cfg))
    for cfg, l_count, n_g in ((inverse_decay, 32, 3), (small, 64, 2), (two_band, 64, 2)):
        jobs.append(_job("covariance", [
            "covariance", "--config", "{config}", "--gammas", _gammas(rng, n_g),
            "--t", repr(rng.uniform(0.0, 0.5)), "--route", "both",
            "--lmax", str(l_count), "--out", "{out}"], cfg))
    # Single realisations written as CSV and binary grids. Simulation alone
    # takes segment measures, which it atomises. The first one is rerun.
    for i, (cfg, l_count, grid, fmt, n_t, n_quad) in enumerate((
            (two_band, 32, "32x64", "csv", 2, 64), (small, 64, "64x128", "bin", 1, 64),
            (segment, 24, "24x48", "csv", 2, 16), (inverse_decay, 32, "32x64", "bin", 2, 64),
            (large, 48, "48x96", "csv", 1, 64), (smooth, 32, "32x64", "csv", 1, 32),
            (large, 96, "96x192", "bin", 1, 64))):
        jobs.append(_job("simulate", [
            "simulate", "--config", "{config}", "--lmax", str(l_count), "--grid", grid,
            "--times", _fmt(_times(rng, n_t, 0.5)), "--seed", str(rng.randrange(1 << 31)),
            "--format", fmt, "--n-quad", str(n_quad), "--out", "{out}"], cfg,
            rerun=i == 0))
    for cfg, l_count, n_runs in ((inverse_decay, 16, 50), (two_band, 12, 50),
                                 (small, 12, 200), (inverse_decay, 12, 200)):
        jobs.append(_job("simulate", [
            "simulate", "--config", "{config}", "--lmax", str(l_count), "--grid", "8x16",
            "--times", _fmt(_times(rng, 1, 0.5)), "--seed", str(rng.randrange(1 << 31)),
            "--ensemble", str(n_runs), "--out", "{out}"], cfg))
    for cfg in (large, small):
        jobs.append(_job("truncation_mc", [], cfg, call={
            "l_inner": 8, "l_outer": 20, "time": rng.uniform(0.0, 0.5), "n_runs": 150,
            "master_seed": rng.randrange(1 << 31)}))
    return jobs


# --- closed_form: entropy1d experiments and kernel tables ---

def _half_length(rng: random.Random, value: float) -> float:
    while True:
        L = _near(rng, value)
        if L / (2.0 * math.pi) != round(L / (2.0 * math.pi)):
            return L


# (experiment, half-length, modes, trace times, intervals, snapshots)
_ENTROPY = (
    ("standing_wave", 3.0 * math.pi, 0, 200, 400, 2),
    ("standing_wave", 5.0, 0, 150, 300, 1),
    ("standing_wave", 7.0, 0, 100, 500, 1),
    ("point_source", 3.0 * math.pi, 60, 80, 400, 2),
    ("point_source", 6.0, 40, 120, 300, 1),
    ("point_source", 4.0, 50, 100, 350, 1),
    ("rectangle", 8.0, 60, 100, 300, 1),
    ("rectangle", 7.0, 70, 80, 350, 2),
    ("rectangle", 3.0 * math.pi, 50, 100, 300, 1),
    ("point_source", 3.0 * math.pi, 100, 100, 400, 1),
    ("rectangle", 3.0 * math.pi, 100, 80, 400, 3),
    ("rectangle", 3.0 * math.pi, 200, 100, 400, 1),
    ("rectangle", 10.0, 200, 100, 400, 2),
)
# (kernel wave numbers, times, via config)
_KERNEL = ((300, 2, True), (600, 1, False), (200, 3, True), (400, 2, False),
           (1000, 2, True), (2000, 2, False), (2000, 2, True))


def _closed_form_cycle(rng: random.Random) -> list[dict]:
    jobs = []
    for experiment, L, n_modes, n_trace, n_intervals, n_snap in _ENTROPY:
        L = _half_length(rng, L)
        t_end = rng.uniform(10.0, 25.0)
        argv = ["entropy1d", "--experiment", experiment, "--half-length", repr(L),
                "--n-intervals", str(n_intervals),
                "--times", _fmt(_times(rng, n_trace, t_end)),
                "--snapshot-times", _fmt(_times(rng, n_snap, t_end)), "--out", "{out}"]
        if n_modes:
            argv += ["--n-modes", str(n_modes)]
        if experiment == "rectangle":
            argv += ["--width", repr(rng.uniform(0.5, 1.5))]
        jobs.append(_job("entropy1d", argv))
    for n_mu, n_t, via_config in _KERNEL:
        c = rng.uniform(0.5, 2.0)
        cutoff = rng.uniform(0.2, 2.0)
        params = {"c": c, "D": c / (2.0 * cutoff)}
        mus = sorted(rng.uniform(0.0, 3.0 * cutoff) for _ in range(n_mu))
        if via_config:
            cfg = {"params": params, "measure": {"atoms": [], "segments": []}}
            argv = ["kernel", "--config", "{config}"]
        else:
            cfg = None
            argv = ["kernel", "--c", repr(params["c"]), "--D", repr(params["D"])]
        jobs.append(_job("kernel", argv + [
            "--mu", _fmt(mus), "--t", _fmt(_times(rng, n_t, 10.0)), "--out", "{out}"],
            cfg, params=params))
    return jobs


def setup_job(workload: str) -> dict:
    """A tiny fixed job of the workload's main path, run once in a fresh
    interpreter to time set-up (imports plus first-call costs)."""
    config = {"params": {"c": 1.0, "D": 1.0},
              "measure": {"atoms": [{"mu": 2.0, "mass": 0.5}],
                          "segments": [{"lo": 0.0, "hi": 1.0, "amplitude": 1.0,
                                        "exponent": 0.5}]}}
    argv = {
        "continuous": ["spectrum", "--config", "{config}", "--lmax", "4",
                       "--times", "0.1", "--out", "{out}"],
        "atomic": ["simulate", "--config", "{config}", "--lmax", "4", "--grid", "4x8",
                   "--times", "0.1", "--n-quad", "4", "--out", "{out}"],
        "closed_form": ["entropy1d", "--experiment", "standing_wave",
                        "--times", "0.5,1.0", "--snapshot-times", "1.0", "--out", "{out}"],
    }[workload]
    return _job(argv[0], argv, config)


def cycle(workload: str, seed: int, index: int, shipped: list[dict]) -> list[dict]:
    """The index-th cycle of jobs of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "continuous":
        jobs = _continuous_cycle(rng)
    elif workload == "atomic":
        jobs = _atomic_cycle(rng, shipped)
    elif workload == "closed_form":
        jobs = _closed_form_cycle(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for template, job in enumerate(jobs):
        job["cycle"] = index
        job["template"] = template
    rng.shuffle(jobs)
    return jobs


def load_shipped(root: str) -> list[dict]:
    """The shipped measure configs, parsed from the repo's configs directory."""
    docs = []
    for rel in SHIPPED_CONFIGS:
        with open(f"{root}/{rel}", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def job_list_hash(jobs: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a job list."""
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
