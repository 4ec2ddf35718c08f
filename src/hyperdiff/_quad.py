"""Integration against the spectral measure, with certified error reporting.

integrate_measure is the one place where a kernel is integrated against
G(d mu): atoms are summed exactly and each power-law segment goes to
integrate_vector, a thin wrapper around scipy's Gauss-Kronrod panel
integrator (quad_vec) for vector-valued integrands; error control targets
the dominant component (norm='max'). Failure to reach the tolerance raises
AccuracyError carrying the achieved estimate instead of silently returning it.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad_vec

from .exceptions import AccuracyError
from .measure import SpectralMeasure


def integrate_vector(f, lo: float, hi: float, *, rtol: float = 1e-9,
                     atol: float = 1e-15, breakpoints=(), limit: int = 2000):
    """Integrate a scalar-to-vector integrand over [lo, hi].

    breakpoints inside the interval (e.g. where a derivative jumps) seed the
    initial panel subdivision.
    """
    pts = sorted(p for p in breakpoints if lo < p < hi)
    res, err, info = quad_vec(
        f, lo, hi,
        epsabs=atol, epsrel=rtol, norm="max",
        points=pts or None, limit=limit, full_output=True,
    )
    scale = np.max(np.abs(np.atleast_1d(res)))
    if not info.success or err > max(atol, rtol * scale) * 10.0:
        raise AccuracyError(
            f"quadrature over [{lo}, {hi}] did not converge "
            f"(error estimate {err:.3e})",
            estimate=res, error=err,
        )
    return res


def integrate_measure(f, measure: SpectralMeasure, *, rtol: float = 1e-9,
                      breakpoints=()):
    """Integral of f(mu) over G(d mu).

    f takes a float (a quadrature node) or a 1D array of wave numbers (the
    atoms) and puts the wave-number axis last, so f(mus) @ masses sums the
    atoms exactly. Each segment's f(mu) * A mu^a is integrated by
    integrate_vector, its panels split at the breakpoints. The empty measure
    gives zeros of f's shape.
    """
    mus = np.array([mu for mu, _ in measure.atoms])
    masses = np.array([mass for _, mass in measure.atoms])
    total = f(mus) @ masses if measure.atoms or not measure.segments else 0.0
    for seg in measure.segments:
        def integrand(mu, seg=seg):
            return f(mu) * (seg.amplitude * mu ** seg.exponent)
        total = total + integrate_vector(integrand, seg.lo, seg.hi, rtol=rtol,
                                         breakpoints=breakpoints)
    return total
