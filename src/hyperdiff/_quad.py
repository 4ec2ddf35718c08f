"""Integration against the spectral measure, with certified error reporting.

integrate_measure is the one place where a kernel is integrated against
G(d mu): atoms are summed exactly and each power-law segment goes to
integrate_vector, an adaptive Gauss-Kronrod (G10, K21) integrator for
vector-valued integrands. Its rule and error estimate are QUADPACK's
(Piessens et al. 1983); its subdivision is global: each round bisects the
panels with the largest error estimates together, error control on the
dominant component (max norm). All nodes of a round go to the integrand
as arrays, so the kernels only ever see arrays. Failure to reach the
tolerance, or a non-finite result, raises AccuracyError carrying the
achieved estimate instead of silently returning it.

An integrand returns either an array with the node axis last (the dense
rule, _gk21, which takes calls of at most _ELEMENTS_PER_CALL values), or a
pair of factors, rows (nodes, J, K) and cols (nodes, K, B), whose value at
a node is the (J, B) matrix rows @ cols. The factored rule, _gk21_factored,
folds the weights into cols and takes each panel's Kronrod sum and its
Kronrod-minus-Gauss difference as (J x 21K) @ (21K x B) products, so no
node's value is ever formed. Its error estimate is the raw max |K - G|:
QUADPACK's rescaling needs |value - mean| at every node, which does not
factor, and for a resolved panel (200 |K - G| below that spread) the raw
difference is the larger estimate. Its rounding bound takes
|rows| @ |cols| in place of |value|.
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

# Output values per dense integrand call. The dense integrands (spectra,
# spectral covariances, Lommel tails) have at most a few hundred values per
# node, so a call carries hundreds of nodes and spreads the kernels' fixed
# cost per call. The value was tuned on memory jobs, which now take the
# factored rule.
_ELEMENTS_PER_CALL = 2 ** 16
# Panel sums per factored chunk: a chunk's (panels, J, B) integrals and the
# products that give its errors are what the factored rule holds at once.
_VALUES_PER_CHUNK = 2 ** 20
# Multiply-adds per GEMM of the factored rule. OpenBLAS runs a GEMM of at
# most 2^18 of them on one thread; a larger one split over 2 threads gave
# other last bits than on 1, so every product stays below this size.
_SERIAL_GEMM = 2 ** 18
_MAX_BISECT = 128
_ATOL = 1e-15


def _gk21(f, lo: np.ndarray, hi: np.ndarray, shape: tuple):
    """Integral and error estimate of each panel [lo, hi], and the summed
    rounding error of all of them. The node values are stored node-major,
    (nodes, width), and reduced in blocks of panels of about one call's size,
    so each reduction reads contiguous rows that are still in cache."""
    width = math.prod(shape)
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


def _gk21_factored(f, lo: np.ndarray, hi: np.ndarray, shape: tuple):
    """_gk21 for an integrand that returns factors (rows, cols): each panel's
    sums are products of its rows, (J, 21K), with its weighted cols,
    (21K, B), over chunks of about _VALUES_PER_CHUNK panel sums, and each
    product is split along J to stay within _SERIAL_GEMM multiply-adds."""
    n_rows, n_cols = shape
    half = 0.5 * (hi - lo)
    ints = np.empty((lo.size, n_rows, n_cols))
    err, s_abs = np.zeros(lo.size), np.zeros(lo.size)
    step = max(1, _VALUES_PER_CHUNK // max(n_rows * n_cols, 1))
    for p in range(0, lo.size, step):
        chunk = slice(p, p + step)
        x = (0.5 * (lo + hi)[chunk, None] + half[chunk, None] * _NODES).ravel()
        rows, cols = f(x)
        panels, inner = x.size // 21, 21 * rows.shape[-1]
        # (panel, J, node, K) and (panel, node, K, B): node-major inner index.
        rows = rows.reshape(panels, 21, n_rows, -1).swapaxes(1, 2).reshape(
            panels, n_rows, inner)
        cols = cols.reshape(panels, 21, -1, n_cols)
        kronrod, difference = (
            (w[:, None, None] * cols).reshape(panels, inner, n_cols)
            for w in (_WEIGHTS[0], _WEIGHTS[0] - _WEIGHTS[1]))
        kronrod_abs = np.abs(kronrod)
        block = max(1, _SERIAL_GEMM // max(inner * n_cols, 1))
        for j in range(0, n_rows, block):
            r = rows[:, j:j + block]
            ints[chunk, j:j + block] = r @ kronrod
            err[chunk] = np.maximum(err[chunk], np.max(
                np.abs(r @ difference), axis=(1, 2), initial=0.0))
            s_abs[chunk] = np.maximum(s_abs[chunk], np.max(
                np.abs(r) @ kronrod_abs, axis=(1, 2), initial=0.0))
    ints *= half[:, None, None]
    err *= half
    rounding = 50.0 * np.finfo(float).eps * half * s_abs
    err = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
    return ints.reshape(lo.size, -1), err, float(rounding.sum())


def integrate_vector(f, lo: float, hi: float, *, rtol: float = 1e-9,
                     breakpoints=(), limit: int = 2000):
    """Integrate a vector-valued integrand over [lo, hi].

    f takes a 1D array of nodes and either puts the node axis last, or
    returns the pair (rows (nodes, J, K), cols (nodes, K, B)) whose value at
    a node is rows @ cols; the result has the shape of one node's values.
    breakpoints inside the interval (e.g. where a derivative jumps) seed the
    initial panel subdivision.
    """
    inner = sorted({p for p in breakpoints if lo < p < hi})
    a, b = np.array([lo, *inner], dtype=float), np.array([*inner, hi], dtype=float)
    probe = f(np.array([0.5 * (a[0] + b[0])]))  # one node picks the rule
    if isinstance(probe, tuple):
        rule, shape = _gk21_factored, (probe[0].shape[1], probe[1].shape[2])
    else:
        rule, shape = _gk21, np.shape(probe)[:-1]
    ints, errs, rounding = rule(f, a, b, shape)

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
        ints_c, errs_c, rounding_c = rule(f, lo_c, hi_c, shape)
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

    f takes a 1D array of wave numbers and puts that axis last, or returns
    factors as integrate_vector takes them. The atoms go in as one array, so
    f(mus) @ masses sums them exactly (for factors, the sum over atoms of
    mass * rows @ cols); each segment's f(mu) * A mu^a goes to
    integrate_vector, its panels split at the breakpoints. The empty measure
    gives zeros of f's shape.
    """
    mus = np.array([mu for mu, _ in measure.atoms])
    masses = np.array([mass for _, mass in measure.atoms])
    total = 0.0
    if measure.atoms or not measure.segments:
        values = f(mus)
        if isinstance(values, tuple):
            total = np.einsum("ajk,a,akb->jb", values[0], masses, values[1])
        else:
            total = values @ masses
    for seg in measure.segments:
        def integrand(mu, seg=seg):
            values, density = f(mu), seg.amplitude * mu ** seg.exponent
            if isinstance(values, tuple):
                return values[0] * density[:, None, None], values[1]
            return values * density
        total = total + integrate_vector(integrand, seg.lo, seg.hi, rtol=rtol,
                                         breakpoints=breakpoints)
    return total
