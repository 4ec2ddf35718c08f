"""Diffusion constants and the isotropic spectral measure of the initial field.

The random initial condition is characterised by a bounded non-negative
measure G on wave numbers mu >= 0 whose total mass equals the initial field
variance. Two ingredient families are supported: point atoms (mu_i, sigma_i^2)
and power-law density segments A * mu^a restricted to an interval [lo, hi].
Finite unions of these cover every regime the downstream theory distinguishes
(mass touching the origin or not, origin exponent above or below 1) while
keeping all integrals reducible to closed forms or 1D quadrature.

Configs are JSON documents of the form

    {"params": {"c": 1.0, "D": 2.0},
     "measure": {"atoms": [{"mu": 1.0, "mass": 3e-5}],
                 "segments": [{"lo": 0.0, "hi": 1.0,
                               "amplitude": 1.0, "exponent": 0.5}]}}

Instances are immutable after construction and safe to share across threads.

The module also owns the package's two argument rules: every integer count,
degree, seed and index goes through _index with its range, and every time,
lag and wave number through _nonnegative (finite and >= 0).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError


@dataclass(frozen=True)
class DiffusionParams:
    """Propagation speed c and diffusivity D of the hyperbolic diffusion equation."""

    c: float
    D: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"speed c must be a positive finite real, got {self.c}")
        if not (math.isfinite(self.D) and self.D > 0):
            raise ValueError(f"diffusivity D must be a positive finite real, got {self.D}")
        if not self.c * self.cutoff < math.inf:  # then c/(2D) is finite too
            raise ValueError(f"speed c = {self.c} and diffusivity D = {self.D} "
                             f"overflow the kernel scale c^2/(2D)")

    @property
    def cutoff(self) -> float:
        """Cut-off wave number c/(2D) separating diffusive from wave behaviour."""
        return self.c / (2.0 * self.D)


@dataclass(frozen=True)
class PowerLawSegment:
    """Density amplitude * mu**exponent on the interval [lo, hi]."""

    lo: float
    hi: float
    amplitude: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and self.lo >= 0):
            raise ValueError(f"segment lo must be >= 0, got {self.lo}")
        if not (math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"segment needs hi > lo, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"segment amplitude must be positive, got {self.amplitude}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"segment exponent must be finite, got {self.exponent}")
        if self.lo == 0.0 and self.exponent <= -1.0:
            raise ValueError(
                f"segment touching the origin needs exponent > -1 for finite mass, "
                f"got {self.exponent}"
            )


@dataclass(frozen=True)
class SpectralMeasure:
    """Isotropic spectral measure: atoms plus power-law segments.

    Atoms are (location, mass) pairs with strictly increasing positive
    locations; zero-mass atoms are rejected rather than dropped so that
    serialisation round-trips are exact. Segment intervals must be pairwise
    disjoint and contain no atom.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[PowerLawSegment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        atoms = tuple((float(mu), float(mass)) for mu, mass in self.atoms)
        segments = tuple(
            s if isinstance(s, PowerLawSegment) else PowerLawSegment(*s)
            for s in self.segments
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)

        last = 0.0
        for mu, mass in atoms:
            if not (math.isfinite(mu) and mu > 0):
                raise ValueError(f"atom location must be positive, got {mu}")
            if mu <= last:
                raise ValueError("atom locations must be strictly increasing")
            if not (math.isfinite(mass) and mass > 0):
                raise ValueError(f"atom mass must be positive, got {mass}")
            last = mu

        by_lo = sorted(segments, key=lambda s: s.lo)
        for a, b in zip(by_lo, by_lo[1:]):
            if b.lo < a.hi:
                raise ValueError(
                    f"segments [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] overlap"
                )
        for s in segments:
            for mu, _ in atoms:
                if s.lo <= mu <= s.hi:
                    raise ValueError(
                        f"atom at {mu} lies inside segment [{s.lo}, {s.hi}]"
                    )

    @property
    def is_empty(self) -> bool:
        return not self.atoms and not self.segments

    def total_mass(self) -> float:
        """Total mass of the measure, i.e. the initial field variance; inf
        where it overflows a double."""
        try:
            return math.exp(_log_power_moment(self, 0.0))
        except OverflowError:
            return math.inf

    def support_lower_bound(self) -> float:
        """Largest delta such that the measure has no mass in [0, delta).

        Equals the smallest atom location / segment start; 0 when a segment
        starts at the origin.
        """
        if self.is_empty:
            raise ValueError("support_lower_bound is undefined for the zero measure")
        candidates = [mu for mu, _ in self.atoms] + [s.lo for s in self.segments]
        return min(candidates)

    def support_upper_bound(self) -> float:
        """Smallest M such that the measure has no mass above M."""
        if self.is_empty:
            raise ValueError("support_upper_bound is undefined for the zero measure")
        candidates = [mu for mu, _ in self.atoms] + [s.hi for s in self.segments]
        return max(candidates)

    def to_dict(self) -> dict:
        return {
            "atoms": [{"mu": mu, "mass": mass} for mu, mass in self.atoms],
            "segments": [
                {"lo": s.lo, "hi": s.hi, "amplitude": s.amplitude, "exponent": s.exponent}
                for s in self.segments
            ],
        }


def _log_power_moment(measure: SpectralMeasure, power: float, lo: float = 0.0,
                      hi: float = math.inf) -> float:
    """log of the integral of mu^power over G on [lo, hi), -inf where G has no
    mass there. A segment's term comes from its larger endpoint, and the terms
    are summed in log space, so that nothing overflows before the caller's exp."""
    logs = [math.log(mass) + power * math.log(mu)
            for mu, mass in measure.atoms if lo <= mu < hi]
    for seg in measure.segments:
        a, b = max(seg.lo, lo), min(seg.hi, hi)
        if b <= a:
            continue
        p = seg.exponent + power + 1.0  # the integrand is mu^(p-1)
        ratio = math.log(b / a) if a > 0.0 else math.inf
        term = math.log(ratio) if p == 0.0 else (
            p * math.log(b if p > 0.0 else a) - math.log(abs(p))
            + math.log(-math.expm1(-abs(p) * ratio)))
        logs.append(math.log(seg.amplitude) + term)
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _index(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int in [lo, hi), or >= lo when hi is None;
    ValueError naming the parameter otherwise."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if hi is None:
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
    elif not lo <= value < hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}), got {value}")
    return value


def _nonnegative(name: str, values) -> np.ndarray:
    """values as a float array; ValueError unless every one is finite and >= 0."""
    arr = np.asarray(values, dtype=float)
    if not np.all((arr >= 0) & (arr < np.inf)):  # written so that NaN fails it
        raise ValueError(f"{name} must be finite and >= 0")
    return arr


def _require_number(obj: dict, key: str, where: str) -> float:
    if not isinstance(obj, dict):
        raise ConfigError(f"each {where} must be an object, got {obj!r}")
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {where}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number, got {value!r}")
    return float(value)


def measure_from_dict(obj: dict) -> SpectralMeasure:
    if not isinstance(obj, dict):
        raise ConfigError("'measure' must be an object")
    atoms = obj.get("atoms", [])
    segments = obj.get("segments", [])
    if not isinstance(atoms, list) or not isinstance(segments, list):
        raise ConfigError("'atoms' and 'segments' must be arrays")
    try:
        return SpectralMeasure(
            atoms=tuple(
                (_require_number(a, "mu", "atom"), _require_number(a, "mass", "atom"))
                for a in atoms
            ),
            segments=tuple(
                PowerLawSegment(
                    lo=_require_number(s, "lo", "segment"),
                    hi=_require_number(s, "hi", "segment"),
                    amplitude=_require_number(s, "amplitude", "segment"),
                    exponent=_require_number(s, "exponent", "segment"),
                )
                for s in segments
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid measure: {exc}") from exc


def params_from_dict(obj: dict) -> DiffusionParams:
    if not isinstance(obj, dict):
        raise ConfigError("'params' must be an object")
    try:
        return DiffusionParams(
            c=_require_number(obj, "c", "params"),
            D=_require_number(obj, "D", "params"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid params: {exc}") from exc


def load_config(config_text: str) -> tuple[DiffusionParams, SpectralMeasure]:
    """Parse a JSON config into validated (params, measure)."""
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "params" not in doc:
        raise ConfigError("missing key 'params'")
    if "measure" not in doc:
        raise ConfigError("missing key 'measure'")
    return params_from_dict(doc["params"]), measure_from_dict(doc["measure"])


def serialize_config(params: DiffusionParams, measure: SpectralMeasure) -> str:
    """Serialise to config text; load_config(serialize_config(p, m)) == (p, m)."""
    doc = {"params": {"c": params.c, "D": params.D}, "measure": measure.to_dict()}
    return json.dumps(doc, indent=2)
