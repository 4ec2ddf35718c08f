"""Integration against the spectral measure, with certified error reporting.

integrate_measure is the one place where a kernel is integrated against
G(d mu): atoms are summed exactly and each power-law segment goes to
integrate_vector, an adaptive Gauss-Kronrod (G10, K21) integrator for
vector-valued integrands. Its rule and error estimate are QUADPACK's
(Piessens et al. 1983); its subdivision is global: each round bisects the
panels with the largest error estimates together, error control on the
dominant component (max norm). All nodes of a round go to the integrand
as arrays of at most _ELEMENTS_PER_CALL output values, so the kernels only
ever see arrays. Failure to reach the tolerance, or a non-finite result,
raises AccuracyError carrying the achieved estimate instead of silently
returning it.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import AccuracyError
from .measure import SpectralMeasure

# QUADPACK's dqk21: the Kronrod nodes in (0, 1), the Kronrod weights (the last
# one for node 0) and the Gauss weights of the odd-numbered nodes.
_XK = [0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
       0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
       0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
       0.14887433898163122]
_WK = [0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169]
_WG = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287]
_NODES = np.array(_XK + [0.0] + [-x for x in _XK[::-1]])
_WEIGHTS = np.array([_WK + _WK[-2::-1],
                     [w for g in _WG + _WG[::-1] for w in (0.0, g)] + [0.0]])

# Output values per integrand call. Memory jobs evaluate 1e4 lags per node;
# 2^14 and 2^18 both made them slower than this.
_ELEMENTS_PER_CALL = 2 ** 16
_MAX_BISECT = 128
_ATOL = 1e-15


def _gk21(f, lo: np.ndarray, hi: np.ndarray, width: int):
    """Integral and error estimate of each panel [lo, hi], and the summed
    rounding error of all of them. The node values are stored node-major,
    (nodes, width), and reduced in blocks of panels of about one call's size,
    so each reduction reads contiguous rows that are still in cache."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)[:, None] + half[:, None] * _NODES).ravel()
    v = np.empty((x.size, width))
    step = max(1, _ELEMENTS_PER_CALL // max(width, 1))
    for i in range(0, x.size, step):
        v[i:i + step] = np.reshape(f(x[i:i + step]), (width, -1)).T
    v = v.reshape(lo.size, 21, width)
    sums = np.empty((lo.size, 4, width))
    group = max(1, step // 21)
    for j in range(0, lo.size, group):
        vj, sj = v[j:j + group], sums[j:j + group]
        sj[:, :2] = _WEIGHTS @ vj
        sj[:, 2] = _WEIGHTS[0] @ np.abs(vj)
        sj[:, 3] = _WEIGHTS[0] @ np.abs(vj - 0.5 * sj[:, :1])
    s_k, s_g, s_abs, s_dabs = np.moveaxis(sums, 1, 0)
    err = half * np.max(np.abs(s_k - s_g), axis=1, initial=0.0)
    dabs = half * np.max(s_dabs, axis=1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
    err = np.where((dabs != 0.0) & (err != 0.0), scaled, err)
    rounding = 50.0 * np.finfo(float).eps * half * np.max(s_abs, axis=1, initial=0.0)
    err = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
    return half[:, None] * s_k, err, float(rounding.sum())


def integrate_vector(f, lo: float, hi: float, *, rtol: float = 1e-9,
                     breakpoints=(), limit: int = 2000):
    """Integrate a vector-valued integrand over [lo, hi].

    f takes a 1D array of nodes and puts the node axis last; the result has
    the shape of one node's values. breakpoints inside the interval (e.g.
    where a derivative jumps) seed the initial panel subdivision.
    """
    inner = sorted({p for p in breakpoints if lo < p < hi})
    a, b = np.array([lo, *inner], dtype=float), np.array([*inner, hi], dtype=float)
    shape = np.shape(f(np.array([0.5 * (a[0] + b[0])])))[:-1]  # from one node
    width = math.prod(shape)
    ints, errs, rounding = _gk21(f, a, b, width)

    def tolerance():
        return max(_ATOL, rtol * float(np.max(np.abs(ints.sum(axis=0)), initial=0.0)))

    error, converged = float(errs.sum()), False
    while a.size < limit:
        # Bisect the worst panels until their error covers error - tol/8.
        order = np.lexsort((b, a, -errs))
        covered = np.cumsum(errs[order]) <= error - tolerance() / 8
        split, keep = np.split(order, [min(_MAX_BISECT, 1 + np.count_nonzero(covered))])
        mid = 0.5 * (a[split] + b[split])
        lo_c, hi_c = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        ints_c, errs_c, rounding_c = _gk21(f, lo_c, hi_c, width)
        a, b = np.concatenate([a[keep], lo_c]), np.concatenate([b[keep], hi_c])
        ints = np.concatenate([ints[keep], ints_c])
        errs = np.concatenate([errs[keep], errs_c])
        error, rounding = float(errs.sum()), rounding + rounding_c
        if error < tolerance() / 8:
            converged = True
            break
        if error < rounding or not (math.isfinite(error) and math.isfinite(rounding)):
            break

    total, err = ints.sum(axis=0), error + rounding
    # Each test is written so that NaN fails it.
    if not (converged and err <= 10.0 * tolerance() and np.all(np.abs(total) < np.inf)):
        raise AccuracyError(
            f"quadrature over [{lo}, {hi}] did not reach its tolerance "
            f"(error estimate {err:.3e})",
            estimate=total.reshape(shape), error=err,
        )
    return total.reshape(shape)


def integrate_measure(f, measure: SpectralMeasure, *, rtol: float = 1e-9,
                      breakpoints=()):
    """Integral of f(mu) over G(d mu).

    f takes a 1D array of wave numbers and puts that axis last. The atoms go
    in as one array, so f(mus) @ masses sums them exactly; each segment's
    f(mu) * A mu^a goes to integrate_vector, its panels split at the
    breakpoints. The empty measure gives zeros of f's shape.
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
