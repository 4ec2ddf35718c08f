"""Exact radial Fourier transfer function of the hyperbolic diffusion equation.

With cut-off wave number cutoff = c/(2D) and damping exponent a = c^2 t / (2D),
the factor multiplying the initial spectral content at wave number mu is

    exp(-a) * (coshc(u) + a * sinhc(u)),    u = (c*t)^2 * (cutoff^2 - mu^2),

where coshc(u) = cosh(sqrt(u)) for u >= 0 continued to cos(sqrt(-u)) for
u < 0, and sinhc(u) = sinh(sqrt(u))/sqrt(u) continued likewise. Both are
entire in u, so the transfer function is analytic in mu^2. With
r = cutoff/sqrt|cutoff^2 - mu^2| it is evaluated in three regimes:

  * |u| <= 1/4: the power series, free of the closed forms' 0/0 at the cut-off;
  * u > 1/4: (1+r)/2 e^-(a-b) + (1-r)/2 e^-(a+b), b = sqrt(u) < a, with
    a - b = c t mu^2 / (cutoff + sqrt(cutoff^2 - mu^2)). The second term is at
    most e^(-2b) <= e^(-1) of the first, so nothing cancels, and exp(-a) is
    never formed, so huge times neither overflow nor lose digits to it;
  * u < -1/4: exp(-a) (cos w + r sin w), w = sqrt(-u); 0 where exp(-a) underflows.

Below the cut-off, modes decay without travelling (diffusive regime); above
it they are damped travelling waves. transfer_branches returns the factor
with its two branches, each zero on the other side of the cut-off, from one
evaluation. The zero mode is conserved exactly: the transfer factor at
mu = 0 is 1 for every t.

Each mode solves h'' + 2 alpha h' + c^2 mu^2 h = 0 with alpha = c^2/(2D),
h(0) = 1, h'(0) = 0. Its companion g, the solution with g(0) = 0 and
g'(0) = 1, is exp(-a) * t * sinhc(u), evaluated in the same regimes
(exponential pair: g = (e^-(a-b) - e^-(a+b)) / (2 c s) with s = b/(c t);
above the cut-off: exp(-a) sin(w) / (c s)). Since h' solves the same equation,
h' = -c^2 mu^2 g, and the addition theorem

    h(mu, T + d) = h(mu, T) h(mu, d) - c^2 mu^2 g(mu, T) g(mu, d)

gives the transfer factor at every T + d from factors at T and at d; the
time-lag covariance uses it to evaluate about 2 sqrt(n) times per wave
number for n evenly spaced lags. Where the phase c t sqrt(mu^2 - cutoff^2)
overflows while exp(-a) does not underflow, no value is representable and
ValueError is raised instead of returning NaN.

All functions broadcast over numpy arrays, through one array path, and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import DiffusionParams, _nonnegative

_SERIES_U = 0.25
_K_TERMS = 13
_INV_EVEN = np.array([1.0 / math.factorial(2 * k) for k in range(_K_TERMS)])
_INV_ODD = np.array([1.0 / math.factorial(2 * k + 1) for k in range(_K_TERMS)])


# At huge t, u overflows (inf * 0 at the cut-off).
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _evaluate(mu, t, params: DiffusionParams) -> tuple[np.ndarray, np.ndarray]:
    """h and g on the broadcast shape of mu and t, as arrays.

    transfer and transfer_pair both call this rather than each other, so a
    traced run attributes each public function's own work to it."""
    mu_arr = _nonnegative("wave number", mu)
    t_arr = _nonnegative("time", t)
    c, cutoff = params.c, params.cutoff
    # What depends on t alone or on mu alone is computed before broadcasting.
    a_t = c * cutoff * t_arr
    s_mu = np.sqrt(np.abs(cutoff - mu_arr)) * np.sqrt(cutoff + mu_arr)
    u = (c * t_arr) ** 2 * (cutoff * cutoff - mu_arr ** 2)
    a, mu_b, t_b, s, u = np.broadcast_arrays(a_t, mu_arr, t_arr, s_mu, u)
    h = np.zeros(u.shape)
    g = np.zeros(u.shape)

    near = np.abs(u) <= _SERIES_U
    if np.any(near):
        un, an = u[near], a[near]
        damp = np.exp(-an)
        even = odd = np.zeros_like(un)
        for k in range(_K_TERMS - 1, -1, -1):
            even = even * un + _INV_EVEN[k]
            odd = odd * un + _INV_ODD[k]
        h[near] = damp * (even + an * odd)
        g[near] = damp * t_b[near] * odd

    pos = u > _SERIES_U
    if np.any(pos):
        # a - b = c t mu^2 / (cutoff + s) does not cancel; t/(2b) = 1/(2 c s).
        m, sp = mu_b[pos], s[pos]
        r = cutoff / sp
        slow = np.exp(-c * t_b[pos] * m * m / (cutoff + sp))
        fast = np.exp(-a[pos] - np.sqrt(u[pos]))
        h[pos] = 0.5 * (1.0 + r) * slow + 0.5 * (1.0 - r) * fast
        g[pos] = (slow - fast) / (2.0 * c * sp)

    neg = u < -_SERIES_U
    if np.any(neg):
        damp, sn = np.exp(-a[neg]), s[neg]
        # Where exp(-a) underflows the mode is 0 and its phase is not needed.
        w = np.where(damp > 0.0, c * t_b[neg] * sn, 0.0)
        if not np.all(w < np.inf):
            raise ValueError("the wave phase c t sqrt(mu^2 - cutoff^2) overflows "
                             "while exp(-c^2 t/(2D)) does not underflow")
        sin_w = np.sin(w)
        h[neg] = damp * (np.cos(w) + cutoff / sn * sin_w)
        g[neg] = damp * sin_w / (c * sn)

    h[(mu_b == 0.0) | (t_b == 0.0)] = 1.0
    return h, g


def transfer(mu, t, params: DiffusionParams):
    """Transfer factor at wave number mu and time t; broadcasts over arrays.

    Returns a float when mu and t are both scalars. Raises ValueError where
    the wave phase overflows while the mode is not yet damped to zero.
    """
    h, _ = _evaluate(mu, t, params)
    return float(h) if h.ndim == 0 else h


def transfer_pair(mu, t, params: DiffusionParams):
    """(h, g) at wave number mu and time t: the transfer factor and the
    solution with g(0) = 0, g'(0) = 1; broadcasts like transfer.

    h is bitwise transfer's value. Together they give every later time by
    h(T + d) = h(T) h(d) - c^2 mu^2 g(T) g(d).
    """
    h, g = _evaluate(mu, t, params)
    return (float(h), float(g)) if h.ndim == 0 else (h, g)


def transfer_branches(mu, t, params: DiffusionParams):
    """(h, h_diffusive, h_wave) at wave number mu and time t; broadcasts like
    transfer, and h is bitwise transfer's value.

    h_diffusive is h for mu <= c/(2D) and 0 above, and lies in [0, 1];
    h_wave is h above the cut-off and 0 below, bounded in magnitude by
    wave_bound(t). Their sum is not h where h is -0.0.
    """
    h, _ = _evaluate(mu, t, params)
    below = np.asarray(mu) <= params.cutoff
    branches = (h, np.where(below, h, 0.0), np.where(below, 0.0, h))
    return tuple(map(float, branches)) if h.ndim == 0 else branches


@np.errstate(over="ignore")
def wave_bound(t, params: DiffusionParams):
    """Envelope exp(-c^2 t/(2D)) (1 + c^2 t/(2D)) bounding the wave branch;
    t is checked as in transfer. It is 0 where exp(-c^2 t/(2D)) underflows,
    as the wave branch is, including where c^2 t/(2D) itself overflows."""
    a = params.c * params.cutoff * _nonnegative("time", t)
    damp = np.exp(-a)
    return damp * (1.0 + np.where(damp > 0.0, a, 0.0))
