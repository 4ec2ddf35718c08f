"""Time-dependent angular power spectrum of the spherical diffusion field.

The degree-l spectrum couples the spectral measure to the transfer kernel:

    C_l(t, t') = 2 pi^2 * integral of  J_{l+1/2}(mu)^2 / mu
                 * transfer(mu, t) * transfer(mu, t') over G(d mu),

integrated by _quad.integrate_measure with panels split at the cut-off wave
number, where the integrand's time derivative changes character. Tail sums
over degrees admit a closed form through the Lommel identity (Watson 5.11)

    sum_{l>=L} (2l+1) J_{l+1/2}(mu)^2
        = mu^2 (J_{L-1/2} J'_{L+1/2} - J_{L+1/2} J'_{L-1/2})(mu),

which holds at every time, since the transfer factor does not depend on l.
The direct sum over degrees is its oracle; a Gamma-function bound caps
the tail at time zero.

Direct tail accumulation, by blocks of degrees that double in size, stops
once the degree has passed the upper end of the measure's support and three
consecutive increments fall below the relative threshold (Bessel oscillation
in l makes a single small increment an unreliable stopping signal). A hard
degree cap guards non-convergence.

All computations are pure; evaluations for distinct degrees are independent
and summation order is fixed, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._quad import integrate_measure
from .kernel import transfer
from .measure import DiffusionParams, SpectralMeasure, _index, _log_power_moment
from .special import _bessel_half_neg, bessel_half_all

_TWO_PI_SQ = 2.0 * math.pi ** 2
DEFAULT_DEGREE_CAP = 4096
_CONSECUTIVE_BELOW = 3
_TAIL_REL_TOL = 1e-12


@dataclass(frozen=True)
class TailSum:
    """Accumulated sum of (2l+1) C_l(t, t) from degree L upward."""

    value: float
    stopped_at: int
    converged: bool


@dataclass(frozen=True)
class FiniteVarianceReport:
    """Weighted spectrum sum sum_l (2l+1)^(1+2*alpha) C_l and its status."""

    alpha: float
    weighted_sum: float
    stopped_at: int
    converged: bool
    exp_moment: float
    exp_moment_finite: bool


def _cl_block(l_lo: int, l_hi: int, t, t_prime, measure: SpectralMeasure,
              params: DiffusionParams, rtol: float = 1e-9) -> np.ndarray:
    """C_l for l in [l_lo, l_hi), in angular_spectrum's shape and to its
    tolerance; transfer checks the times."""
    def f(mu):
        h = transfer(mu, np.array([t, t_prime])[..., None], params)
        return bessel_half_all(l_hi - 1, mu)[l_lo:] ** 2 * (h[0] * h[1] / mu)[..., None, :]
    return _TWO_PI_SQ * integrate_measure(f, measure, rtol=rtol,
                                          breakpoints=(params.cutoff,))


def angular_spectrum(l_count: int, t, t_prime, measure: SpectralMeasure,
                     params: DiffusionParams, rtol: float = 1e-9) -> np.ndarray:
    """Spectrum C_l(t, t') for l = 0..l_count-1: (l,) for scalar times, or
    (pairs, l) for equal-length arrays, row i at (t[i], t_prime[i]), all from
    one quadrature with rtol relative to the largest value over all rows."""
    if l_count < 1:
        raise ValueError(f"need at least one degree, got {l_count}")
    return _cl_block(0, l_count, t, t_prime, measure, params, rtol)


def _weighted_tail(l_start: int, measure: SpectralMeasure,
                   params: DiffusionParams, t: float, power: float,
                   block: int) -> TailSum:
    """Sum of (2l+1)^power C_l(t, t) for l >= l_start, by blocks of degrees
    that double from `block`, so the cost is linear in the stopping degree."""
    if measure.is_empty:
        return TailSum(value=0.0, stopped_at=l_start, converged=True)
    floor_l = int(math.ceil(measure.support_upper_bound()))
    total = 0.0
    below = 0
    l = l_start
    while l < DEFAULT_DEGREE_CAP:
        hi = min(l + block, DEFAULT_DEGREE_CAP)
        cls = _cl_block(l, hi, t, t, measure, params)
        for off in range(hi - l):
            deg = l + off
            inc = (2 * deg + 1) ** power * cls[off]
            total += inc
            if deg >= floor_l and inc <= _TAIL_REL_TOL * total:
                below += 1
                if below >= _CONSECUTIVE_BELOW:
                    return TailSum(value=total, stopped_at=deg, converged=True)
            else:
                below = 0
        l = hi
        block *= 2
    return TailSum(value=total, stopped_at=DEFAULT_DEGREE_CAP - 1, converged=False)


def tail_sum_direct(l_start: int, measure: SpectralMeasure,
                    params: DiffusionParams, t: float,
                    block: int = 64) -> TailSum:
    """Brute-force sum of (2l+1) C_l(t, t) for l >= l_start.

    Issues a warning and returns converged=False when the degree cap,
    DEFAULT_DEGREE_CAP, is reached first.
    """
    if l_start < 0:
        raise ValueError(f"degree must be >= 0, got {l_start}")
    tail = _weighted_tail(l_start, measure, params, t, 1, block)
    if not tail.converged:
        warnings.warn(
            f"tail sum from degree {l_start} hit the cap {DEFAULT_DEGREE_CAP} before "
            f"converging; returning the partial value",
            stacklevel=2,
        )
    return tail


def _lommel_weight(l_start: int, mu):
    """mu^2-free factor J_{L-1/2} J'_{L+1/2} - J_{L+1/2} J'_{L-1/2} at mu."""
    jmat = bessel_half_all(l_start + 1, mu)
    j_lm1 = jmat[l_start - 1]
    j_l = jmat[l_start]
    j_lp1 = jmat[l_start + 1]
    j_lm2 = jmat[l_start - 2] if l_start >= 2 else _bessel_half_neg(mu)
    dj_upper = 0.5 * (j_lm1 - j_lp1)
    dj_lower = 0.5 * (j_lm2 - j_l)
    return j_lm1 * dj_upper - j_l * dj_lower


def tail_sum_lommel(l_start: int, measure: SpectralMeasure,
                    params: DiffusionParams, t=0.0):
    """Closed form for sum_{l>=L} (2l+1) C_l(t, t), L >= 1.

    Evaluates 2 pi^2 * integral of mu * lommel_weight(L, mu) * transfer(mu, t)^2
    over G(d mu). A scalar t gives a float; an array gives one tail per time,
    all from one quadrature, with the tolerance relative to the largest tail.
    """
    if l_start < 1:
        raise ValueError("closed-form tail needs degree >= 1; "
                         "use tail_sum_direct for L = 0")
    times = np.asarray(t, dtype=float)[..., None]

    def f(mu):
        return mu * _lommel_weight(l_start, mu) * transfer(mu, times, params) ** 2
    total = _TWO_PI_SQ * integrate_measure(f, measure, breakpoints=(params.cutoff,))
    return float(total) if np.ndim(t) == 0 else total


def tail_bound_gamma(l_start: int, measure: SpectralMeasure,
                     params: DiffusionParams) -> float:
    """Certified upper bound on the time-zero tail.

    Evaluates (2 pi^2 / (2^(2L-3) Gamma(L-1/2)^2)) * integral of
    max(mu^(2L-2), mu^(2L+4)) over G(d mu) for L >= 2; inf where that
    overflows a double. The absolute constant in front is the spectrum
    prefactor 2 pi^2; with it the expression dominates the Poisson-integral
    product bounds term by term, hence dominates tail_sum_direct(L, ..., t=0).
    """
    l_start = _index("degree", l_start)
    if l_start < 2:
        raise ValueError(f"the Gamma-function bound needs degree >= 2, got {l_start}")
    log_pref = (
        math.log(_TWO_PI_SQ)
        - (2 * l_start - 3) * math.log(2.0)
        - 2.0 * math.lgamma(l_start - 0.5)
    )
    # the larger power is the lower one below mu = 1 and the higher one from 1 on
    log_moment = np.logaddexp(_log_power_moment(measure, 2 * l_start - 2, hi=1.0),
                              _log_power_moment(measure, 2 * l_start + 4, lo=1.0))
    with np.errstate(over="ignore"):
        return float(np.exp(log_pref + log_moment))


def finite_variance_check(measure: SpectralMeasure, params: DiffusionParams,
                          alpha: float) -> FiniteVarianceReport:
    """Weighted sum sum_l (2l+1)^(1+2*alpha) C_l(0,0) plus the exp-moment test.

    The exponential moment integral of exp(mu^2/4) over G is finite in exact
    arithmetic for the supported measure family (finitely many atoms, bounded
    segments), but can overflow double precision once the support passes
    mu ~ 53; exp_moment_finite reports whether the computed value is finite.
    Each segment integrates exp(mu^2/4 - M) mu^a, with M its largest mu^2/4,
    and the pieces are summed in log space, so the quadrature never overflows.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    logs = [math.log(mass) + mu * mu / 4.0 for mu, mass in measure.atoms]
    for seg in measure.segments:
        top = seg.hi * seg.hi / 4.0
        unit = SpectralMeasure(segments=(replace(seg, amplitude=1.0),))
        scaled = integrate_measure(lambda mu: np.exp(mu * mu / 4.0 - top), unit)
        logs.append(math.log(seg.amplitude) + math.log(scaled) + top)
    with np.errstate(over="ignore"):
        exp_moment = float(np.exp(np.logaddexp.reduce(logs, initial=-np.inf)))
    tail = _weighted_tail(0, measure, params, 0.0, 1.0 + 2.0 * alpha, 64)
    return FiniteVarianceReport(alpha=alpha, weighted_sum=tail.value,
                                stopped_at=tail.stopped_at, converged=tail.converged,
                                exp_moment=exp_moment,
                                exp_moment_finite=math.isfinite(exp_moment))
