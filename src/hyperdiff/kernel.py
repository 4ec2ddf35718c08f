"""Exact radial Fourier transfer function of the hyperbolic diffusion equation.

With cut-off wave number cutoff = c/(2D) and damping exponent a = c^2 t / (2D),
the factor multiplying the initial spectral content at wave number mu is

    exp(-a) * (coshc(u) + a * sinhc(u)),    u = (c*t)^2 * (cutoff^2 - mu^2),

where coshc(u) = cosh(sqrt(u)) for u >= 0 continued to cos(sqrt(-u)) for
u < 0, and sinhc(u) = sinh(sqrt(u))/sqrt(u) continued likewise. Both are
entire in u, so the transfer function is analytic in mu^2; near u = 0 the
power series avoids the 0/0 cancellation of the closed forms, and for large
positive u the evaluation moves to log space, exploiting
exp(-a)(cosh b + r sinh b) = (1+r)/2 e^(b-a) + (1-r)/2 e^(-b-a) with b <= a.

Below the cut-off, modes decay without travelling (diffusive regime); above
it they are damped travelling waves. The zero mode is conserved exactly:
the transfer factor at mu = 0 is 1 for every t.

All functions broadcast over numpy arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import DiffusionParams

_SERIES_U = 0.25
_K_TERMS = 13
_INV_EVEN = np.array([1.0 / math.factorial(2 * k) for k in range(_K_TERMS)])
_INV_ODD = np.array([1.0 / math.factorial(2 * k + 1) for k in range(_K_TERMS)])
_LOG_B = 700.0


def _validate(mu, t) -> tuple[np.ndarray, np.ndarray]:
    # Each test is written so that NaN fails it.
    mu_arr = np.asarray(mu, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((mu_arr >= 0) & (mu_arr < np.inf)):
        raise ValueError("wave number must be finite and >= 0")
    if not np.all((t_arr >= 0) & (t_arr < np.inf)):
        raise ValueError("time must be finite and >= 0")
    return mu_arr, t_arr


def _transfer_scalar(mu: float, t: float, params: DiffusionParams) -> float:
    if mu == 0.0:
        return 1.0
    a = params.c ** 2 * t / (2.0 * params.D)
    u = (params.c * t) ** 2 * (params.cutoff ** 2 - mu * mu)
    if abs(u) <= _SERIES_U:
        even = odd = 0.0
        for k in range(_K_TERMS - 1, -1, -1):
            even = even * u + float(_INV_EVEN[k])
            odd = odd * u + float(_INV_ODD[k])
        return math.exp(-a) * (even + a * odd)
    if u > 0.0:
        b = math.sqrt(u)
        if b <= _LOG_B:
            return math.exp(-a) * (math.cosh(b) + a * math.sinh(b) / b)
        r = a / b
        return (0.5 * (1.0 + r) * math.exp(b - a)
                + 0.5 * (1.0 - r) * math.exp(-b - a))
    w = math.sqrt(-u)
    return math.exp(-a) * (math.cos(w) + a * math.sin(w) / w)


def transfer(mu, t, params: DiffusionParams):
    """Transfer factor at wave number mu and time t; broadcasts over arrays."""
    if isinstance(mu, float) and isinstance(t, float):
        if not (0.0 <= mu < math.inf and 0.0 <= t < math.inf):
            _validate(mu, t)
        return _transfer_scalar(mu, t, params)
    mu_arr, t_arr = _validate(mu, t)
    scalar = mu_arr.ndim == 0 and t_arr.ndim == 0
    if scalar:
        return _transfer_scalar(float(mu_arr), float(t_arr), params)
    mu_b, t_b = np.broadcast_arrays(np.atleast_1d(mu_arr), np.atleast_1d(t_arr))

    cutoff = params.cutoff
    a = params.c ** 2 * t_b / (2.0 * params.D)
    u = (params.c * t_b) ** 2 * (cutoff ** 2 - mu_b ** 2)
    out = np.empty(u.shape)

    near = np.abs(u) <= _SERIES_U
    if np.any(near):
        un, an = u[near], a[near]
        even = np.zeros_like(un)
        odd = np.zeros_like(un)
        for k in range(_K_TERMS - 1, -1, -1):
            even = even * un + _INV_EVEN[k]
            odd = odd * un + _INV_ODD[k]
        out[near] = np.exp(-an) * (even + an * odd)

    pos = u > _SERIES_U
    if np.any(pos):
        up, ap = u[pos], a[pos]
        b = np.sqrt(up)
        vals = np.empty_like(b)
        mod = b <= _LOG_B
        if np.any(mod):
            vals[mod] = np.exp(-ap[mod]) * (
                np.cosh(b[mod]) + ap[mod] * np.sinh(b[mod]) / b[mod]
            )
        if np.any(~mod):
            bb, aa = b[~mod], ap[~mod]
            r = aa / bb
            vals[~mod] = 0.5 * (1.0 + r) * np.exp(bb - aa) + 0.5 * (1.0 - r) * np.exp(
                -bb - aa
            )
        out[pos] = vals

    neg = u < -_SERIES_U
    if np.any(neg):
        w = np.sqrt(-u[neg])
        an = a[neg]
        out[neg] = np.exp(-an) * (np.cos(w) + an * np.sin(w) / w)

    out[mu_b == 0.0] = 1.0
    return out.reshape(np.broadcast(mu_arr, t_arr).shape)


def transfer_diffusive(mu, t, params: DiffusionParams):
    """Sub-cut-off branch: the transfer factor for mu <= c/(2D), zero above.

    Always lies in [0, 1].
    """
    value = transfer(mu, t, params)
    out = np.where(np.asarray(mu) <= params.cutoff, value, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def transfer_wave(mu, t, params: DiffusionParams):
    """Above-cut-off branch: the transfer factor for mu > c/(2D), zero below.

    Bounded in magnitude by exp(-c^2 t/(2D)) * (1 + c^2 t/(2D)).
    """
    value = transfer(mu, t, params)
    out = np.where(np.asarray(mu) > params.cutoff, value, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def wave_bound(t, params: DiffusionParams):
    """Envelope exp(-c^2 t/(2D)) (1 + c^2 t/(2D)) bounding the wave branch."""
    a = params.c ** 2 * np.asarray(t, dtype=float) / (2.0 * params.D)
    return np.exp(-a) * (1.0 + a)
