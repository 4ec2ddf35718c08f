"""1D hyperbolic diffusion on [-L, L] with Neumann walls and its Shannon entropy.

In nondimensional variables the density obeys q_t + q_tt = q_xx with
q_x(+-L, t) = 0, so even unit-mass profiles evolve as a cosine series

    q(x, t) = a_0 + sum_n c_n T_n(t) cos(k_n x),   k_n = n pi / L,

where each mode's clock T_n solves T'' + T' + k_n^2 T = 0. For zero initial
velocity (T(0) = 1, T'(0) = 0) that clock is the transfer factor h of
`kernel.transfer_pair(k_n, t, DiffusionParams(c=1, D=1))`: modes below the
cut-off k = 1/2 decay without oscillating, modes above it are damped standing
waves, and the kernel is continuous through k = 1/2, so any half-length works.
A run builds the basis cos(k x) once and takes its clocks from one
`transfer_pair` call per chunk of times. The profile at a block of 16 times is
one serial_matmul product, a_0 + (clocks * c) @ cos(k x), whose bits do not
depend on the BLAS thread count; a row of it can change in its last bits with
the rows stacked beside it, so the fixed block keeps every profile bitwise the
same however the times are split, and peak memory stays a few blocks.

The standing-wave experiment is the one exception: its single mode starts
with T'(0) = -1/2, so its clock is h - g/2 = e^(-t/2) cos(omega t) from the
same call, omega = sqrt(k^2 - 1/4), which is a standing wave only for k > 1/2.

Total Shannon entropy S(t) = integral of q log(1/q) is computed by composite
trapezoid; where a truncated series dips to q <= 0 at a node the trace
records NaN for that time rather than a number, since the entropy of a
signed profile is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import serial_matmul
from .kernel import transfer_pair
from .measure import DiffusionParams, _index

_EVEN_TOL = 1e-9
_UNIT = DiffusionParams(c=1.0, D=1.0)
# Times per profile product: a GEMM row's last bits depend on the rows stacked
# with it, so a fixed block (and serial_matmul) keeps profiles bitwise whatever
# the times and BLAS threads; 16 keeps peak memory from growing with the times.
_TIME_BLOCK = 16
# Clock values per transfer_pair call: a chunk takes as many whole blocks as
# fit, so the kernel's fixed cost is paid a few times per run while its
# temporaries, several arrays of this size, stay small.
_CLOCK_VALUES = 2 ** 13
# Element budget of run_experiment: the cosine basis holds
# n_modes * (n_intervals + 1) values, 8 bytes each (1e7 is 80 MB).
MAX_BASIS_ELEMENTS = 10_000_000


def _check_half_length(half_length) -> float:
    L = float(half_length)
    if not 0.0 < L < math.inf:
        raise ValueError(f"half_length must be finite and > 0, got {L}")
    return L


def _check_intervals(n_intervals) -> int:
    n_intervals = _index("n_intervals", n_intervals)
    if n_intervals < 2:
        raise ValueError(f"need at least 2 intervals, got {n_intervals}")
    return n_intervals


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
    factor h, or h - g/2 = e^(-t/2) cos(omega t) when standing_wave is set.
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


def _cosine_basis(md: ModeDecomposition, x: np.ndarray) -> np.ndarray:
    basis = np.outer(md.wave_numbers, x)
    np.cos(basis, out=basis)  # in place: the basis is the largest array
    return basis


def _profile_blocks(md: ModeDecomposition, basis: np.ndarray, times: np.ndarray):
    """Yield (slice of times, profiles of shape (block, x.size)) in time order."""
    k = md.wave_numbers[None, :]
    step = _TIME_BLOCK * max(1, _CLOCK_VALUES // (_TIME_BLOCK * k.size))
    for first in range(0, times.size, step):
        h, g = transfer_pair(k, times[first:first + step, None], _UNIT)
        clocks = h - 0.5 * g if md.standing_wave else h
        for start in range(0, clocks.shape[0], _TIME_BLOCK):
            block = clocks[start:start + _TIME_BLOCK]
            yield (slice(first + start, first + start + block.shape[0]),
                   md.a0 + serial_matmul(block * md.amplitudes, basis))


def _entropies(md: ModeDecomposition, x: np.ndarray, basis: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    entropy = np.empty(times.shape)
    for block, q in _profile_blocks(md, basis, times):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.trapezoid(-q * np.log(q), x, axis=1)
        entropy[block] = np.where(np.min(q, axis=1) > 0.0, s, math.nan)
    return entropy


def decompose_initial(u0, half_length: float, n_modes: int) -> ModeDecomposition:
    """Cosine decomposition of an even profile sampled uniformly on [-L, L].

    u0 must be finite and sampled on the inclusive uniform grid
    x_j = -L + 2L j / (N-1); its odd part must vanish to tolerance. The
    profile starts at rest (zero initial velocity), so each mode evolves by
    the transfer-factor clock.
    """
    L = _check_half_length(half_length)
    n_modes = _index("n_modes", n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    samples = np.asarray(u0, dtype=float)
    if samples.ndim != 1 or samples.size < 3:
        raise ValueError("u0 must be a 1D array of at least 3 samples")
    if not np.all(np.abs(samples) < np.inf):  # NaN fails it too
        raise ValueError("u0 must be finite")
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
    basis = _cosine_basis(md, x_arr.ravel())
    _, q = next(_profile_blocks(md, basis, _check_times([t], "time")))
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
    n_intervals = _check_intervals(n_intervals)
    t_arr = _check_times(times, "times")
    x = np.linspace(-md.half_length, md.half_length, n_intervals + 1)
    entropy = _entropies(md, x, _cosine_basis(md, x), t_arr)
    return EntropyTrace(times=t_arr, entropy=entropy, n_intervals=n_intervals)


def mass(md: ModeDecomposition, t: float, n_intervals: int = 400) -> float:
    """Trapezoid integral of the profile over [-L, L] at time t."""
    n_intervals = _check_intervals(n_intervals)
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
    None picks the default), n_intervals >= 2, (rectangle only) width finite
    within (0, 2L), and n_modes * (n_intervals + 1) at most MAX_BASIS_ELEMENTS;
    each failure raises ValueError naming the parameter. Emits the
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
    n_modes = _index("n_modes", 0 if n_modes is None else n_modes)
    if n_modes < 0:
        raise ValueError(f"n_modes must be >= 0 (0 picks the default), got {n_modes}")
    modes = 1 if name == "standing_wave" else n_modes or _DEFAULT_TERMS[name]
    n_intervals = _check_intervals(n_intervals)
    if modes * (n_intervals + 1) > MAX_BASIS_ELEMENTS:
        raise ValueError(f"n_modes = {modes} with n_intervals = {n_intervals} needs "
                         f"more than {MAX_BASIS_ELEMENTS} basis elements; lower "
                         f"n_modes or n_intervals")

    if name == "standing_wave":
        # q = (1/2L) [1 + e^(-t/2) cos(omega t) cos(k x)] with the n = 2
        # harmonic: amplitude on the cosine clock h - g/2 only.
        k = np.array([2.0 * math.pi / L])
        c = np.array([1.0 / (2.0 * L)])
    else:
        k = np.arange(1, modes + 1) * math.pi / L
        if name == "point_source":
            # a point mass at the origin has the uniform spectrum c_n = 1/L
            c = np.full(k.size, 1.0 / L)
        else:
            # a centred rectangle of the given width: sinc-weighted 1/L
            c = 2.0 * np.sin(k * width / 2.0) / (L * k * width)
    md = ModeDecomposition(half_length=L, a0=1.0 / (2.0 * L), wave_numbers=k,
                           amplitudes=c, standing_wave=name == "standing_wave")
    # One grid and basis for both passes. The snapshots stay a pass of their
    # own: stacked into the trace's blocks, their rows would change in the
    # last bits.
    x = np.linspace(-L, L, n_intervals + 1)
    basis = _cosine_basis(md, x)
    trace = EntropyTrace(times=trace_times,
                         entropy=_entropies(md, x, basis, trace_times),
                         n_intervals=n_intervals)
    q = np.empty((snapshot_times.size, x.size))
    for block, profiles in _profile_blocks(md, basis, snapshot_times):
        q[block] = profiles
    snapshots = tuple((float(t), x, q[i]) for i, t in enumerate(snapshot_times))
    return ExperimentResult(name=name, decomposition=md, trace=trace,
                            snapshots=snapshots)
