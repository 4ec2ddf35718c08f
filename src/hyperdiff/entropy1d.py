"""1D hyperbolic diffusion on [-L, L] with Neumann walls and its Shannon entropy.

In nondimensional variables the density obeys q_t + q_tt = q_xx with
q_x(+-L, t) = 0, so even unit-mass profiles evolve as a cosine series

    q(x, t) = a_0 + sum_n c_n T_n(t) cos(k_n x),   k_n = n pi / L,

where each mode's clock T_n solves T'' + T' + k_n^2 T = 0. For zero initial
velocity (T(0) = 1, T'(0) = 0) that clock is the exact transfer factor
`kernel.transfer(k_n, t, DiffusionParams(c=1, D=1))`: modes below the cut-off
k = 1/2 decay without oscillating, modes above it are damped standing waves,
and the kernel is continuous through k = 1/2, so any half-length works. The
profile at a block of times is one product, a_0 + (clocks * c) @ cos(k x).

The standing-wave experiment is the one exception: its single mode starts
with nonzero velocity and carries the cosine-only clock
e^(-t/2) cos(omega t), omega = sqrt(k^2 - 1/4), which needs k > 1/2.

Total Shannon entropy S(t) = integral of q log(1/q) is computed by composite
trapezoid; where a truncated series dips to q <= 0 at a node the trace
records NaN for that time rather than a number, since the entropy of a
signed profile is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import transfer
from .measure import DiffusionParams

_EVEN_TOL = 1e-9
_UNIT = DiffusionParams(c=1.0, D=1.0)
# Times per profile product, so peak memory does not grow with the number of
# times; 16 keeps the arrays of a block small at a few ms of loop overhead.
_TIME_BLOCK = 16


def _check_half_length(half_length) -> float:
    L = float(half_length)
    if not 0.0 < L < math.inf:
        raise ValueError(f"half_length must be finite and > 0, got {L}")
    return L


def _check_times(times, name: str) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"{name} must be a 1D list of times")
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise ValueError(f"{name} must be finite and >= 0")
    return t


@dataclass(frozen=True)
class ModeDecomposition:
    """Mean level a0 plus cosine modes of an even profile on [-L, L].

    Mode n has wave number wave_numbers[n-1] = n pi / L and amplitude
    amplitudes[n-1] = c_n at t = 0. Its clock is the zero-velocity transfer
    factor, or e^(-t/2) cos(omega t) when standing_wave is set.
    """

    half_length: float
    a0: float
    wave_numbers: np.ndarray
    amplitudes: np.ndarray
    standing_wave: bool = False

    def __post_init__(self):
        _check_half_length(self.half_length)
        if self.standing_wave and not np.all(np.asarray(self.wave_numbers) > 0.5):
            raise ValueError("standing_wave needs wave numbers above 1/2 "
                             f"(half_length < 4 pi for the n = 2 harmonic), "
                             f"got half_length {self.half_length}")


def _profile_blocks(md: ModeDecomposition, x: np.ndarray, times: np.ndarray):
    """Yield (slice of times, profiles of shape (block, x.size)) in time order."""
    basis = np.outer(md.wave_numbers, x)
    np.cos(basis, out=basis)  # in place: the basis is the largest array
    k = md.wave_numbers[None, :]
    for start in range(0, times.size, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        t = times[block, None]
        if md.standing_wave:
            clock = np.exp(-0.5 * t) * np.cos(np.sqrt(k * k - 0.25) * t)
        else:
            clock = transfer(k, t, _UNIT)
        yield block, md.a0 + (clock * md.amplitudes) @ basis


def decompose_initial(u0, half_length: float, n_modes: int) -> ModeDecomposition:
    """Cosine decomposition of an even profile sampled uniformly on [-L, L].

    u0 must be sampled on the inclusive uniform grid x_j = -L + 2L j / (N-1);
    its odd part must vanish to tolerance. The profile starts at rest (zero
    initial velocity), so each mode evolves by the transfer-factor clock.
    """
    L = _check_half_length(half_length)
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    samples = np.asarray(u0, dtype=float)
    if samples.ndim != 1 or samples.size < 3:
        raise ValueError("u0 must be a 1D array of at least 3 samples")
    if samples.size - 1 < 2 * n_modes:
        raise ValueError(
            f"{samples.size} samples cannot resolve {n_modes} modes; "
            f"need at least {2 * n_modes + 1}"
        )
    odd = np.max(np.abs(samples - samples[::-1]))
    if odd > _EVEN_TOL * max(1.0, float(np.max(np.abs(samples)))):
        raise ValueError(f"profile has an odd component ({odd:.3e} above tolerance)")

    x = np.linspace(-L, L, samples.size)
    a0 = float(np.trapezoid(samples, x)) / (2.0 * L)
    k = np.arange(1, n_modes + 1) * math.pi / L
    c = np.trapezoid(samples * np.cos(np.outer(k, x)), x, axis=1) / L
    return ModeDecomposition(half_length=L, a0=a0, wave_numbers=k, amplitudes=c)


def evaluate(md: ModeDecomposition, x, t: float):
    """Profile value q(x, t); x scalar or array within [-L, L], t >= 0."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(x_arr) <= md.half_length * (1 + 1e-12)):
        raise ValueError("x outside [-L, L]")
    _, q = next(_profile_blocks(md, x_arr.ravel(), _check_times([t], "time")))
    return float(q[0, 0]) if x_arr.ndim == 0 else q[0].reshape(x_arr.shape)


@dataclass(frozen=True)
class EntropyTrace:
    """S(t) samples; NaN marks times where the profile was not positive."""

    times: np.ndarray
    entropy: np.ndarray
    n_intervals: int

    @property
    def computable(self) -> np.ndarray:
        return ~np.isnan(self.entropy)


def entropy_trace(md: ModeDecomposition, times, n_intervals: int = 400) -> EntropyTrace:
    """Total Shannon entropy by composite trapezoid on n_intervals panels."""
    if n_intervals < 2:
        raise ValueError(f"need at least 2 intervals, got {n_intervals}")
    t_arr = _check_times(times, "times")
    x = np.linspace(-md.half_length, md.half_length, n_intervals + 1)
    entropy = np.empty(t_arr.shape)
    for block, q in _profile_blocks(md, x, t_arr):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.trapezoid(-q * np.log(q), x, axis=1)
        entropy[block] = np.where(np.min(q, axis=1) > 0.0, s, math.nan)
    return EntropyTrace(times=t_arr, entropy=entropy, n_intervals=n_intervals)


def mass(md: ModeDecomposition, t: float, n_intervals: int = 400) -> float:
    """Trapezoid integral of the profile over [-L, L] at time t."""
    x = np.linspace(-md.half_length, md.half_length, n_intervals + 1)
    return float(np.trapezoid(evaluate(md, x, t), x))


EXPERIMENTS = ("standing_wave", "point_source", "rectangle")
_DEFAULT_TERMS = {"point_source": 100, "rectangle": 200}


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    decomposition: ModeDecomposition
    trace: EntropyTrace
    snapshots: tuple[tuple[float, np.ndarray, np.ndarray], ...]


def run_experiment(name: str, *, half_length: float = 3.0 * math.pi,
                   n_modes: int | None = None, width: float = 2.0,
                   trace_times=None, snapshot_times=(),
                   n_intervals: int = 400) -> ExperimentResult:
    """Run a named scenario: standing_wave, point_source, or rectangle.

    All inputs are checked before anything is computed: half_length finite
    and > 0, trace and snapshot times finite and >= 0, n_modes >= 0 (0 or
    None picks the default), and (rectangle only) width finite within
    (0, 2L); each failure raises ValueError naming the parameter. Emits the
    entropy trace where computable plus (t, x, q) profile snapshots at the
    requested times.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    L = _check_half_length(half_length)
    if trace_times is None:
        trace_times = np.linspace(0.0, 25.0, 501)
    trace_times = _check_times(trace_times, "trace_times")
    snapshot_times = _check_times(snapshot_times, "snapshot_times")
    if name == "rectangle" and not 0.0 < width < 2.0 * L:
        raise ValueError(f"width must be finite and lie in (0, 2L) = (0, {2.0 * L}), "
                         f"got {width}")
    if n_modes is not None and n_modes < 0:
        raise ValueError(f"n_modes must be >= 0 (0 picks the default), got {n_modes}")

    if name == "standing_wave":
        # q = (1/2L) [1 + e^(-t/2) cos(omega t) cos(k x)] with the n = 2
        # harmonic: amplitude on the cosine clock only, no sin companion.
        k = np.array([2.0 * math.pi / L])
        c = np.array([1.0 / (2.0 * L)])
    else:
        k = np.arange(1, (n_modes or _DEFAULT_TERMS[name]) + 1) * math.pi / L
        if name == "point_source":
            # a point mass at the origin has the uniform spectrum c_n = 1/L
            c = np.full(k.size, 1.0 / L)
        else:
            # a centred rectangle of the given width: sinc-weighted 1/L
            c = 2.0 * np.sin(k * width / 2.0) / (L * k * width)
    md = ModeDecomposition(half_length=L, a0=1.0 / (2.0 * L), wave_numbers=k,
                           amplitudes=c, standing_wave=name == "standing_wave")
    trace = entropy_trace(md, trace_times, n_intervals)
    x = np.linspace(-L, L, n_intervals + 1)
    q = np.empty((snapshot_times.size, x.size))
    for block, profiles in _profile_blocks(md, x, snapshot_times):
        q[block] = profiles
    snapshots = tuple((float(t), x, q[i]) for i, t in enumerate(snapshot_times))
    return ExperimentResult(name=name, decomposition=md, trace=trace,
                            snapshots=snapshots)
