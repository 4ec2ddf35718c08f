"""Spherical space-time covariance, angular mean-square error, memory structure.

Two independent routes evaluate the covariance between sphere locations at
angular distance gamma and times t, t':

  * spectral:  integral of sinc(2 mu sin(gamma/2)) * transfer(mu, t)
               * transfer(mu, t') over G(d mu), by _quad.integrate_measure;
  * Legendre:  (1/4pi) * sum_l (2l+1) C_l(t, t') P_l(cos gamma), truncated,
               with a certified remainder bound from the spectrum tails at
               t and t', both in closed form from one quadrature.

Their agreement is the Bessel/Legendre addition theorem made numerical, and
is used as a cross-check throughout the test suite.

Covariances at many time lags, R(cos gamma, t + h, t), take evenly spaced
lags l_0 + k d: the kernel's addition theorem builds the transfer factor at
t + l_0 + j B d + i d (B = ceil(sqrt(n)), k = j B + i), within a few ulps of
each lag, from about 2 sqrt(n) kernel evaluations per wave number.

Temporal dependence is classified exactly from the measure at the origin:
the time-integrated absolute covariance converges if and only if
mu^(-2) G(d mu) is integrable near zero. For the supported measure family
that reduces to inspecting the segment touching the origin, so the truncated
diagnostic integral is corroborating evidence only, never the authority.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import integrate_measure
from .kernel import transfer, transfer_pair
from .measure import DiffusionParams, SpectralMeasure
from .special import legendre_all
from .spectrum import angular_spectrum, tail_sum_lommel

_SINC_SERIES_X = 1e-4
# Lag budget of integrated_abs_covariance. Quadrature stores every node of a
# round times every lag: 1e5 lags on one segment peak at about 200 MB.
MAX_LAGS = 100_000


def _sinc(x):
    """sin(x)/x with series evaluation near zero (1 - x^2/6 + x^4/120)."""
    small = np.abs(x) < _SINC_SERIES_X
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0 * (1.0 - x * x / 20.0), np.sin(safe) / safe)


def _validate_query(gamma, t: float, t_prime: float) -> np.ndarray:
    # Each test is written so that NaN fails it.
    g = np.asarray(gamma, dtype=float)
    if not np.all((g >= 0.0) & (g <= math.pi)):
        raise ValueError("angular distance must lie in [0, pi]")
    if not (0.0 <= t < math.inf and 0.0 <= t_prime < math.inf):
        raise ValueError("times must be finite and >= 0")
    return g


def covariance_spectral(gamma, t: float, t_prime: float,
                        measure: SpectralMeasure, params: DiffusionParams):
    """Covariance R(cos gamma, t, t') by direct integration over the measure.

    gamma may be a scalar or an array of angular distances.
    """
    g = _validate_query(gamma, t, t_prime)
    half_chord = 2.0 * np.sin(np.atleast_1d(g) / 2.0)

    def f(mu):
        hh = transfer(mu, t, params) * transfer(mu, t_prime, params)
        return _sinc(np.multiply.outer(half_chord, mu)) * hh
    total = integrate_measure(f, measure, breakpoints=(params.cutoff,))
    return float(total[0]) if np.ndim(g) == 0 else total


@dataclass(frozen=True)
class LegendreCovariance:
    """Truncated Legendre-series covariance and its certified remainder bound.

    value is a float for a scalar angle and an array for an array of angles;
    the remainder bound does not depend on the angle.
    """

    value: float | np.ndarray
    remainder: float


def covariance_legendre(gamma, t: float, t_prime: float,
                        measure: SpectralMeasure, params: DiffusionParams,
                        l_count: int) -> LegendreCovariance:
    """Covariance via (1/4pi) sum_{l<l_count} (2l+1) C_l(t,t') P_l(cos gamma).

    The remainder bound sqrt(T(t)) sqrt(T(t')) / 4pi uses |P_l| <= 1 and
    Cauchy-Schwarz, with both tails T(t) = sum_{l>=l_count} (2l+1) C_l(t,t)
    from one tail_sum_lommel call (roots first, so tiny tails do not underflow).
    The (2l+1)-weighted sum amplifies per-degree quadrature error by about
    l_count^2, hence the tighter spectrum tolerance 1e-12 here. gamma may
    be a scalar or an array of angular distances.
    """
    if l_count < 1:
        raise ValueError(f"need at least one series term, got {l_count}")
    g = _validate_query(gamma, t, t_prime)
    spec = angular_spectrum(l_count, t, t_prime, measure, params, rtol=1e-12)
    ls = np.arange(l_count)
    pl = legendre_all(l_count - 1, np.cos(g))
    value = ((2 * ls + 1) * spec.values) @ pl / (4.0 * math.pi)
    if np.ndim(g) == 0:
        value = float(value)
    roots = np.sqrt(tail_sum_lommel(l_count, measure, params, [t, t_prime]))
    remainder = float(roots[0] * roots[1]) / (4.0 * math.pi)
    return LegendreCovariance(value=value, remainder=remainder)


def angular_mse(gamma: float, t: float, measure: SpectralMeasure,
                params: DiffusionParams, l_count: int) -> float:
    """Equal-time mean-square increment between points at angular distance gamma.

    Evaluates (1/2pi) sum_{l<l_count} (2l+1) C_l(t,t) (1 - P_l(cos gamma)),
    which equals 2 (R(1,t,t) - R(cos gamma,t,t)) up to series truncation.
    """
    if l_count < 1:
        raise ValueError(f"need at least one series term, got {l_count}")
    _validate_query(float(gamma), t, t)
    spec = angular_spectrum(l_count, t, t, measure, params)
    ls = np.arange(l_count)
    pl = legendre_all(l_count - 1, math.cos(gamma))
    return float(np.sum((2 * ls + 1) * spec.values * (1.0 - pl)) / (2.0 * math.pi))


class MemoryClass(enum.Enum):
    SHORT_RANGE = "ShortRange"
    LONG_RANGE = "LongRange"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MemoryReport:
    """Dependence classification plus optional diagnostic integral curve."""

    classification: MemoryClass
    origin_exponent: float | None = None
    integrated_abs_cov: tuple[tuple[float, float], ...] = field(default_factory=tuple)


def memory_classify(measure: SpectralMeasure) -> MemoryReport:
    """Short- vs long-range dependence from the measure at the origin.

    Long-range exactly when a positive-amplitude segment starts at zero with
    exponent a <= 1 (then mu^(a-2) is non-integrable at the origin); otherwise
    short-range. Atomic-only measures are always short-range since atoms sit
    at strictly positive wave numbers.
    """
    if measure.is_empty:
        raise ValueError("cannot classify the zero measure")
    lowest_seg = min(measure.segments, key=lambda s: s.lo, default=None)
    origin_exponent = lowest_seg.exponent if lowest_seg is not None else None
    if lowest_seg is not None and lowest_seg.lo == 0.0 and lowest_seg.exponent <= 1.0:
        return MemoryReport(MemoryClass.LONG_RANGE, origin_exponent=origin_exponent)
    return MemoryReport(MemoryClass.SHORT_RANGE, origin_exponent=origin_exponent)


def covariance_time_lags(gamma: float, t: float, lags: np.ndarray,
                         measure: SpectralMeasure,
                         params: DiffusionParams) -> np.ndarray:
    """R(cos gamma, t + h, t) for evenly spaced, non-decreasing lags h >= 0.

    The n lags l_0 + k d are split as k = j B + i with B = ceil(sqrt(n)). At
    each wave number the transfer factor at every lag follows from the
    addition theorem (kernel module docstring) with T_j = t + l_0 + j B d:
    h(T_j + i d) = h(T_j) h(i d) - (c mu g(T_j)) (c mu g(i d)), one rank-2
    product over the J = ceil(n/B) coarse times and B fine offsets, so each
    node costs 1 + J + B kernel evaluations instead of n. Values are taken
    at t + l_0 + j B d + i d, within a few ulps of each given lag. Raises
    ValueError for lags that are not evenly spaced within a few ulps.
    """
    g = float(_validate_query(float(gamma), t, t))
    lags_arr = np.asarray(lags, dtype=float)
    flat = lags_arr.ravel()
    if not np.all((flat >= 0) & (flat < math.inf)):
        raise ValueError("lags must be finite and >= 0")
    n = flat.size
    if n == 0:
        return np.zeros(lags_arr.shape)
    step = (flat[-1] - flat[0]) / max(n - 1, 1)
    even = np.abs(flat - (flat[0] + np.arange(n) * step))
    if not (step >= 0 and np.all(even <= 4.0 * np.finfo(float).eps * flat[-1])):
        raise ValueError("lags must be evenly spaced and non-decreasing")
    block = math.isqrt(n - 1) + 1
    coarse = -(-n // block)
    times = np.concatenate([[t], t + (flat[0] + np.arange(coarse) * (block * step)),
                            np.arange(block) * step])
    half_chord = 2.0 * math.sin(g / 2.0)

    def f(mu):
        h, cmu_g = transfer_pair(mu[:, None], times, params)
        cmu_g *= params.c * mu[:, None]
        weight = (_sinc(mu * half_chord) * h[:, 0])[:, None]
        rows = np.stack([h[:, 1:coarse + 1] * weight,
                         cmu_g[:, 1:coarse + 1] * -weight], axis=2)
        cols = np.stack([h[:, coarse + 1:], cmu_g[:, coarse + 1:]], axis=1)
        # Node-major with lags innermost; the transpose puts nodes last.
        return (rows @ cols).reshape(mu.size, -1)[:, :n].T
    return integrate_measure(f, measure,
                             breakpoints=(params.cutoff,)).reshape(lags_arr.shape)


def integrated_abs_covariance(t: float, h_max: float, measure: SpectralMeasure,
                              params: DiffusionParams, gamma: float = 0.0,
                              h_step: float | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative trapezoid of |R(cos gamma, t+h, t)| over h in [0, h_max].

    The default step resolves the fastest covariance oscillation,
    h_step <= 2 pi / (10 c mu_max), and never exceeds h_max / 1e4. Returns
    (h_grid, cumulative integral); the curve plateaus for short-range
    measures and keeps growing through h_max for long-range ones. A grid of
    more than MAX_LAGS points raises ValueError before anything is allocated.
    """
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"h_max must be positive and finite, got {h_max}")
    if h_step is not None and not h_step > 0.0:
        raise ValueError(f"h_step must be positive, got {h_step}")
    if measure.is_empty:
        grid = np.linspace(0.0, h_max, 2)
        return grid, np.zeros(2)
    if h_step is None:
        mu_max = measure.support_upper_bound()
        osc = 2.0 * math.pi / (10.0 * params.c * mu_max) if mu_max > 0 else h_max
        h_step = min(h_max / 1.0e4, osc)
    if not h_max / h_step <= MAX_LAGS - 1:
        raise ValueError(f"h_max = {h_max!r} at h_step = {h_step!r} needs more than "
                         f"{MAX_LAGS} lags; lower h_max or raise h_step")
    n = max(2, int(math.ceil(h_max / h_step)) + 1)
    grid = np.linspace(0.0, h_max, n)
    values = np.abs(covariance_time_lags(gamma, t, grid, measure, params))
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))]
    )
    return grid, cumulative
