"""Special functions: half-integer Bessel, Legendre, spherical harmonics.

Half-integer Bessel functions J_{l+1/2} are computed through the spherical
Bessel functions j_l = sqrt(pi/(2x)) J_{l+1/2}. The three-term recurrence
j_{n+1} = ((2n+1)/x) j_n - j_{n-1} is stable upward only while n < x; for
n >= x the minimal solution j_n is swamped by the dominant one, so there a
Miller-type downward recurrence is used: recurse down from a starting order
well above max(l, x), rescale before overflow, and normalise against j_0 or j_1
(whichever is larger in magnitude, so zeros of sin(x)/x cannot poison the
anchor). One step grows the carrier by a bounded factor, so its size is
tested once per stride of steps that cannot overflow rather than at every
step, and a rescale multiplies by an exact power of two, so the step at
which it happens changes no bit of the result. Tiny arguments use the power
series directly.
A scalar argument goes through the same vectorised recurrences as an array.

All functions are pure; safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import _index

_MAX_ORDER = 10_000
_MAX_ARG = 1.0e5
_SERIES_X = 1.0e-3
_RESCALE_LIMIT = 1.0e250
# 2^-830, about 1.4e-250: multiplying by a power of two is exact.
_RESCALE_FACTOR = math.ldexp(1.0, -830)
_RESCALE_ROOM = math.log(np.finfo(float).max / _RESCALE_LIMIT)


def _sph_jn_series(n_max: int, x: np.ndarray) -> np.ndarray:
    """j_n(x) for 0 <= n <= n_max via the leading power-series terms (x << 1)."""
    out = np.zeros((n_max + 1, x.size))
    out[0, x == 0.0] = 1.0
    pos = x > 0.0
    if not np.any(pos):
        return out
    xp = x[pos]
    n = np.arange(n_max + 1, dtype=float)[:, None]
    # x^n / (2n+1)!! in log space; (2n+1)!! = 2^(n+1) Gamma(n+3/2) / sqrt(pi)
    log_x = np.log(xp)[None, :]
    log_dfact = (n + 1.0) * math.log(2.0) + _lgamma_arr(n + 1.5) - 0.5 * math.log(math.pi)
    pref = np.exp(n * log_x - log_dfact)
    y = 0.5 * xp * xp
    correction = 1.0 - y / (2 * n + 3) * (1.0 - y / (2.0 * (2 * n + 5)))
    out[:, pos] = pref * correction
    return out


def _sph_j_low(n: int, x: np.ndarray) -> np.ndarray:
    """Closed forms for j_0, j_1, j_2; stable at zeros of higher anchors."""
    sin_x, cos_x = np.sin(x), np.cos(x)
    if n == 0:
        return sin_x / x
    if n == 1:
        return sin_x / (x * x) - cos_x / x
    return (3.0 / (x * x * x) - 1.0 / x) * sin_x - 3.0 / (x * x) * cos_x


def _lgamma_arr(a: np.ndarray) -> np.ndarray:
    return np.vectorize(math.lgamma, otypes=[float])(a)


def _sph_jn_upward(n_max: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((n_max + 1, x.size))
    j_prev = np.sin(x) / x
    out[0] = j_prev
    if n_max == 0:
        return out
    j_cur = j_prev / x - np.cos(x) / x
    out[1] = j_cur
    for n in range(1, n_max):
        j_prev, j_cur = j_cur, (2 * n + 1) / x * j_cur - j_prev
        out[n + 1] = j_cur
    return out


def _downward_margin(x_max: float) -> int:
    # Suppression of the dominant-solution contamination across the turning
    # point scales like exp(-(2*sqrt(2)/3) * margin^(3/2) / sqrt(x)).
    return 24 + int(math.ceil(12.0 * x_max ** (1.0 / 3.0)))


def _sph_jn_downward(n_max: int, x: np.ndarray) -> np.ndarray:
    m_start = n_max + _downward_margin(float(np.max(x)))
    out = np.empty((n_max + 1, x.size))
    v_up = np.zeros(x.size)
    v = np.full(x.size, 1.0e-30)
    # One step multiplies max(|v|, |v_up|) by at most 1 + (2 m_start + 1) / x,
    # so from at most _RESCALE_LIMIT it stays finite for `stride` steps.
    growth = 1.0 + (2 * m_start + 1) / float(np.min(x))
    stride = max(1, int(_RESCALE_ROOM / math.log(growth)))
    for n in range(m_start, -1, -1):
        if n <= n_max:
            out[n] = v
        v_up, v = v, (2 * n + 1) / x * v - v_up
        if n % stride:
            continue
        big = np.maximum(np.abs(v), np.abs(v_up)) > _RESCALE_LIMIT
        if np.any(big):
            v[big] *= _RESCALE_FACTOR
            v_up[big] *= _RESCALE_FACTOR
            out[min(n, n_max):, big] *= _RESCALE_FACTOR
    # v_up now holds the carrier at n = 0 (same scale as the stored rows).
    j0 = _sph_j_low(0, x)
    j1 = _sph_j_low(1, x)
    anchor0 = np.abs(j0) >= np.abs(j1)
    if n_max == 0:
        anchor0 = np.full(x.shape, True)
    denom0 = np.where(v_up != 0.0, v_up, 1.0)
    denom1 = np.where(out[min(1, n_max)] != 0.0, out[min(1, n_max)], 1.0)
    scale = np.where(anchor0, j0, j1) / np.where(anchor0, denom0, denom1)
    out *= scale
    # Near zeros of the anchors (x >= 1) the lowest orders lose relative
    # accuracy; closed forms restore it. Below x = 1 the anchors are
    # well-conditioned and the closed form for j_2 would itself cancel.
    big = x >= 1.0
    if np.any(big):
        for n in range(min(2, n_max) + 1):
            out[n, big] = _sph_j_low(n, x[big])
    return out


def spherical_jn_all(n_max: int, x) -> np.ndarray:
    """j_n(x) for n = 0..n_max; x scalar or 1D array, returns (n_max+1, ...) values."""
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim > 1:
        raise ValueError("x must be scalar or one-dimensional")
    xs = np.atleast_1d(x_arr)
    if not np.all(xs >= 0):  # written so that NaN fails it
        raise ValueError(f"argument x must be >= 0, got {xs[~(xs >= 0)][0]}")
    n_max = _index("order", n_max, 0, _MAX_ORDER + 1)
    if xs.size and np.max(xs) > _MAX_ARG:
        raise ValueError(f"argument {np.max(xs)} exceeds supported range ({_MAX_ARG})")

    out = np.zeros((n_max + 1, xs.size))
    small = xs <= _SERIES_X
    up = (~small) & (xs >= n_max + 2)
    down = (~small) & (~up)
    if np.any(small):
        out[:, small] = _sph_jn_series(n_max, xs[small])
    if np.any(up):
        out[:, up] = _sph_jn_upward(n_max, xs[up])
    if np.any(down):
        out[:, down] = _sph_jn_downward(n_max, xs[down])
    return out[:, 0] if x_arr.ndim == 0 else out


def bessel_half_all(l_max: int, x) -> np.ndarray:
    """J_{l+1/2}(x) for l = 0..l_max; x scalar or 1D array."""
    j = spherical_jn_all(l_max, x)
    x = np.asarray(x, dtype=float)
    # 2x/pi is subnormal below x ~ 3.5e-308, so take the root of x alone there.
    factor = np.where(x < 1e-300, np.sqrt(x) * math.sqrt(2.0 / math.pi),
                      np.sqrt(2.0 * x / math.pi))
    return j * factor


def _bessel_half_neg(x):
    """J_{-1/2}(x) = sqrt(2/(pi x)) cos(x); x scalar or array."""
    return np.sqrt(2.0 / (math.pi * x)) * np.cos(x)


def legendre_all(l_max: int, x) -> np.ndarray:
    """P_l(x) for l = 0..l_max by the three-term recurrence; |x| <= 1."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(x_arr) <= 1.0):  # written so that NaN fails it
        raise ValueError(f"Legendre argument x must lie in [-1, 1], got {x}")
    l_max = _index("l_max", l_max, 0)
    out = np.empty((l_max + 1,) + x_arr.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x_arr
    for l in range(1, l_max):
        out[l + 1] = ((2 * l + 1) * x_arr * out[l] - l * out[l - 1]) / (l + 1)
    return out


def norm_plm_blocks(l_count: int, theta):
    """Yield (l, block) for l < l_count, block[m, ...] = Pbar_lm(cos theta)
    for 0 <= m <= l, where Y_lm(theta, phi) = Pbar_lm(cos theta) exp(i m phi)
    (Condon-Shortley phase included) and theta is a scalar or array in [0, pi].

    Each degree is one array step from the two before it, vectorised over
    orders (SHTns, Schaeffer 2013); the normalised coefficients keep every
    value within float range up to high degree. sin theta comes from theta,
    not from cos theta, so values near the poles keep full precision.
    """
    theta = np.asarray(theta, dtype=float)
    x, s = np.cos(theta), np.sin(theta)
    column = (-1,) + (1,) * x.ndim
    prev2 = np.empty((0,) + x.shape)
    prev = np.full((1,) + x.shape, 1.0 / math.sqrt(4.0 * math.pi))
    if l_count > 0:
        yield 0, prev
    for l in range(1, l_count):
        m = np.arange(l - 1)
        a = np.sqrt((2 * l - 1.0) * (2 * l + 1.0) / ((l - m) * (l + m)))
        b = np.sqrt((2 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m)
                    / ((2 * l - 3.0) * (l - m) * (l + m)))
        block = np.empty((l + 1,) + x.shape)
        block[:l - 1] = (a.reshape(column) * x * prev[:l - 1]
                         - b.reshape(column) * prev2)
        block[l - 1] = math.sqrt(2 * l + 1.0) * x * prev[l - 1]
        block[l] = -math.sqrt((2 * l + 1.0) / (2 * l)) * s * prev[l - 1]
        yield l, block
        prev2, prev = prev, block


def sph_harm_all(l_count: int, theta: float, phi: float) -> np.ndarray:
    """Every Y_lm(theta, phi), l < l_count, for theta in [0, pi], finite phi.

    CoefficientSet layout: shape (l_count, 2*l_count - 1), order m in column
    l_count - 1 + m, zero where |m| > l, so a truncated series at the point is
    sum(coeffs * Y). Orders m < 0 follow from Y_{l,-m} = (-1)^m conj(Y_lm).
    """
    l_count = _index("l_count", l_count, 1)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    half = l_count - 1
    phase = np.exp(1j * np.arange(l_count) * phi)
    y = np.zeros((l_count, 2 * l_count - 1), dtype=complex)
    for l, block in norm_plm_blocks(l_count, theta):
        y[l, half:half + l + 1] = block * phase[:l + 1]
    y[:, :half] = (-1.0) ** np.arange(half, 0, -1) * np.conj(y[:, :half:-1])
    return y
