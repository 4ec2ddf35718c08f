"""Gaussian realisations of the truncated spherical diffusion field.

Coefficients of the Laplace series are drawn in closed form from the measure:
for an atomic measure, degree-l coefficients are weighted sums of independent
standard normals with weights pi*sqrt(2) * J_{l+1/2}(mu_i)/sqrt(mu_i)
* transfer(mu_i, t) * sigma_i. None of these weights depends on the seed, so
each call computes them once, (times x degrees x atoms), and one private
draw routine turns them into coefficients for a list of seeds and a range of
degrees: simulate_coefficients is the one-seed case, simulate_ensemble the
many-seed case, and truncation_error_mc draws only its degree band into one
reused buffer.

One normal block is drawn per degree from a counter-based Philox stream
keyed by (seed, degree) (Salmon et al., SC'11), so identical inputs give
bitwise-identical coefficients regardless of evaluation order, and all
requested times reuse the same draws -- time enters only through the
deterministic transfer factor, making the temporal dependence structure
exact by construction. The draw routine resets one Philox bit generator to
each stream instead of building a generator per stream; that generator
belongs to the call, so concurrent calls do not interfere. Seeds of single
runs lie in [0, 2**128), master seeds of ensembles in [0, 2**64).

The field must be real, so coefficients are drawn with Hermitian symmetry
a_{l,-m} = (-1)^m conj(a_{lm}): the m = 0 coefficient is real with variance
C_l, and for m > 0 real and imaginary parts are independent with variance
C_l/2 each. This is the real-harmonic draw expressed in the complex basis
and preserves the defining second-moment structure E a a* = C_l(t, t').

Measures with continuous segments are atomised for simulation (Gauss-Legendre
nodes as atoms); spectra for simulation-vs-theory comparisons should be
computed from the same atomised measure so the discretisation cancels.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .kernel import transfer
from .measure import DiffusionParams, SpectralMeasure
from .special import bessel_half_all, norm_plm_blocks, sph_harm_all
from .spectrum import angular_spectrum

_GRID_MAGIC = b"HYPDGRID"
_HERMITIAN_TOL = 1e-12
_WORD = (1 << 64) - 1


def atomize(measure: SpectralMeasure, n_quad: int = 64) -> SpectralMeasure:
    """Replace each power-law segment by n_quad Gauss-Legendre atoms."""
    if n_quad < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
    if not measure.segments:
        return measure
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    atoms = list(measure.atoms)
    for seg in measure.segments:
        mid = 0.5 * (seg.hi + seg.lo)
        half = 0.5 * (seg.hi - seg.lo)
        mus = mid + half * nodes
        masses = half * weights * seg.amplitude * mus ** seg.exponent
        atoms.extend(zip(mus.tolist(), masses.tolist()))
    atoms.sort(key=lambda pair: pair[0])
    return SpectralMeasure(atoms=tuple(atoms))


def _check_int(name: str, value, bits: int) -> int:
    """value as a Python int; ValueError unless it is an integer in [0, 2**bits)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Distinct Philox key for ensemble member run_index under a master seed;
    both lie in [0, 2**64)."""
    master_seed = _check_int("master_seed", master_seed, 64)
    run_index = _check_int("run index", run_index, 64)
    return (master_seed << 64) | run_index


@dataclass(frozen=True)
class CoefficientSet:
    """Simulated Laplace coefficients a_lm(t) for l < degree_count.

    coeffs has shape (n_times, degree_count, 2*degree_count - 1) with column
    index (degree_count - 1) + m for order m; entries with |m| > l are zero.
    Hermitian symmetry a_{l,-m} = (-1)^m conj(a_{lm}) holds exactly.
    """

    degree_count: int
    times: tuple[float, ...]
    coeffs: np.ndarray
    seed: int

    def order_index(self, m: int) -> int:
        if abs(m) >= self.degree_count:
            raise ValueError(f"order {m} out of range for L={self.degree_count}")
        return self.degree_count - 1 + m

    def time_index(self, time: float) -> int:
        for idx, t in enumerate(self.times):
            if t == time:
                return idx
        raise ValueError(f"time {time} not among simulated times {self.times}")

    def coefficient(self, l: int, m: int, time_index: int) -> complex:
        return complex(self.coeffs[time_index, l, self.order_index(m)])

    def truncated(self, degree_count: int) -> "CoefficientSet":
        """The same realisation restricted to degrees below degree_count."""
        if not 1 <= degree_count <= self.degree_count:
            raise ValueError(f"invalid truncation degree {degree_count}")
        shift = self.degree_count - degree_count
        sub = self.coeffs[:, :degree_count, shift:shift + 2 * degree_count - 1]
        return CoefficientSet(degree_count=degree_count, times=self.times,
                              coeffs=sub.copy(), seed=self.seed)


def _weights(degree_count: int, times, atomic: SpectralMeasure,
             params: DiffusionParams) -> tuple[tuple[float, ...], np.ndarray]:
    """Validated times and the seed-independent draw weights
    pi*sqrt(2) * J_{l+1/2}(mu)/sqrt(mu) * sigma * transfer(mu, t), indexed
    (time, degree l < degree_count, atom) of the atomic measure."""
    if degree_count < 1:
        raise ValueError(f"degree count must be >= 1, got {degree_count}")
    if not atomic.atoms:
        raise ValueError("cannot simulate from the zero measure")
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    if any(t < 0 for t in times):
        raise ValueError("times must be >= 0")
    mus = np.array([mu for mu, _ in atomic.atoms])
    sigmas = np.sqrt([mass for _, mass in atomic.atoms])
    jmat = bessel_half_all(degree_count - 1, mus)
    base = math.pi * math.sqrt(2.0) * jmat / np.sqrt(mus) * sigmas
    hfac = transfer(mus, np.array(times)[:, None], params)
    return times, base[None, :, :] * hfac[:, None, :]


def _draw(weights: np.ndarray, seeds, degrees: range):
    """Yield the coefficients of each seed in turn, in one reused buffer.

    The buffer has shape (times, len(degrees), 2*degrees.stop - 1): degree l
    in row l - degrees.start, order m in column degrees.stop - 1 + m, zero
    where |m| > l. The normals of (seed, l) come from Philox with key
    seed and counter l << 192: the degree occupies the top 64 bits of the
    256-bit counter and blocks are consumed from the bottom, so streams never
    collide. One bit generator per call is reset to each stream rather than
    built anew; it is never shared between calls.
    """
    n_t, _, n_atoms = weights.shape
    half = degrees.stop - 1
    out = np.zeros((n_t, len(degrees), 2 * half + 1), dtype=complex)
    signs = (-1.0) ** np.arange(1, degrees.stop)
    bitgen = Philox(key=0)
    gen = Generator(bitgen)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    for seed in seeds:
        key[0], key[1] = seed & _WORD, seed >> 64
        for row, l in enumerate(degrees):
            counter[3] = l
            bitgen.state = state
            z = gen.standard_normal((l + 1, n_atoms, 2))
            z_c = z.view(complex)[..., 0] / math.sqrt(2.0)
            for ti, w in enumerate(weights[:, l]):
                alm = z_c @ w
                alm[0] = z[0, :, 0] @ w
                out[ti, row, half:half + l + 1] = alm
        # a_{l,-m} = (-1)^m conj(a_lm), every degree and time at once.
        out[..., :half] = signs[::-1] * np.conj(out[..., :half:-1])
        yield out


def simulate_coefficients(degree_count: int, times, measure: SpectralMeasure,
                          params: DiffusionParams, seed: int,
                          n_quad: int = 64) -> CoefficientSet:
    """Draw one realisation of the coefficients a_lm(t) for l < degree_count."""
    seed = _check_int("seed", seed, 128)
    times, weights = _weights(degree_count, times, atomize(measure, n_quad),
                              params)
    coeffs = next(_draw(weights, (seed,), range(degree_count)))
    return CoefficientSet(degree_count=degree_count, times=times,
                          coeffs=coeffs, seed=seed)


def simulate_ensemble(degree_count: int, times, measure: SpectralMeasure,
                      params: DiffusionParams, master_seed: int, n_runs: int,
                      n_quad: int = 64) -> list[CoefficientSet]:
    """Independent realisations indexed by run: member r is the single run
    with seed derive_run_seed(master_seed, r)."""
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    seeds = [derive_run_seed(master_seed, run) for run in range(n_runs)]
    times, weights = _weights(degree_count, times, atomize(measure, n_quad),
                              params)
    draws = _draw(weights, seeds, range(degree_count))
    return [CoefficientSet(degree_count=degree_count, times=times,
                           coeffs=coeffs.copy(), seed=seed)
            for seed, coeffs in zip(seeds, draws)]


@dataclass(frozen=True)
class FieldGrid:
    """Real field raster on the equiangular grid

    theta_j = (j + 1/2) pi / n_theta, phi_k = 2 pi k / n_phi.
    """

    n_theta: int
    n_phi: int
    values: np.ndarray
    time: float
    meta: dict

    def thetas(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * math.pi / self.n_theta

    def phis(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi


def synthesize(cs: CoefficientSet, time_index: int, n_theta: int,
               n_phi: int) -> FieldGrid:
    """Evaluate the truncated Laplace series on the equiangular grid.

    The coefficients must be Hermitian, a_{l,-m} = (-1)^m conj(a_lm) for
    m >= 0 (so Im a_l0 = 0), to 1e-12 of the largest |a_lm|; otherwise
    ValueError. The field is then Re[P_0 + 2 sum_{m>0} P_m e^{i m phi}],
    with the theta profile P_m of each order m >= 0 summed one degree at a
    time over norm_plm_blocks.
    """
    if n_theta < 2 or n_phi < 4:
        raise ValueError(f"grid must be at least 2x4, got {n_theta}x{n_phi}")
    L = cs.degree_count
    a = cs.coeffs[time_index]
    half = L - 1
    # Order m = 0 pairs a_l0 with its own conjugate, so Im a_l0 must vanish.
    mirror = (-1.0) ** np.arange(L) * np.conj(a[:, half:])
    asymmetry = np.max(np.abs(a[:, half::-1] - mirror))
    if not asymmetry <= _HERMITIAN_TOL * np.max(np.abs(a)):  # NaN fails it too
        raise ValueError(f"coefficients are not Hermitian: a_(l,-m) departs from "
                         f"(-1)^m conj(a_lm) by {asymmetry:.3e}")
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi

    profiles = np.zeros((L, n_theta), dtype=complex)
    for l, block in norm_plm_blocks(L, theta):
        profiles[:l + 1] += a[l, half:half + l + 1, None] * block
    profiles[1:] *= 2.0
    m_phi = np.outer(np.arange(L), phi)
    values = profiles.real.T @ np.cos(m_phi) - profiles.imag.T @ np.sin(m_phi)
    meta = {"seed": cs.seed, "degree_count": L}
    return FieldGrid(n_theta=n_theta, n_phi=n_phi, values=values,
                     time=cs.times[time_index], meta=meta)


def radial_coefficient(l: int, mu: float, r: float) -> float:
    """Radial weight J_{l+1/2}(r mu) / sqrt(r mu) for synthesis at radius r.

    Depends on (l, r*mu) only; r = 1 reproduces the coefficient weight used
    in simulate_coefficients up to the pi*sqrt(2) constant.
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if mu <= 0:
        raise ValueError(f"wave number must be positive, got {mu}")
    x = r * mu
    return float(bessel_half_all(l, x)[l]) / math.sqrt(x)


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Ensemble estimate of C_l(t, t) with its standard error."""

    value: float
    std_error: float
    n_runs: int


def _spectrum_estimate(coeffs: np.ndarray, orders):
    """Ensemble mean of sum_m |a_lm|^2 / orders and its standard error.

    coeffs holds runs on axis 0 and orders m on the last axis (entries with
    |m| > l zero); both estimates span the axes in between. The CLI builds
    its empirical-spectrum table from one call on the stacked ensemble.
    """
    per_run = np.sum(np.abs(coeffs) ** 2, axis=-1) / orders
    n_runs = per_run.shape[0]
    return (per_run.mean(axis=0),
            per_run.std(axis=0, ddof=1) / math.sqrt(n_runs))


def empirical_spectrum(ensemble, l: int, time: float) -> EmpiricalSpectrum:
    """Estimate C_l(t, t) as the ensemble mean of (2l+1)-averaged |a_lm|^2."""
    ensemble = list(ensemble)
    if len(ensemble) < 2:
        raise ValueError("need an ensemble of at least 2 runs")
    rows = np.stack([cs.coeffs[cs.time_index(time), l,
                               cs.degree_count - 1 - l:cs.degree_count + l]
                     for cs in ensemble])
    value, std_error = _spectrum_estimate(rows, 2 * l + 1)
    return EmpiricalSpectrum(value=float(value), std_error=float(std_error),
                             n_runs=len(ensemble))


@dataclass(frozen=True)
class TruncationError:
    """Monte Carlo L2 truncation error against its closed-form value."""

    estimate: float
    std_error_sq: float
    exact: float
    n_runs: int


def truncation_error_mc(l_inner: int, l_outer: int, measure: SpectralMeasure,
                        params: DiffusionParams, time: float, n_runs: int = 500,
                        master_seed: int = 0, theta: float = 1.1,
                        phi: float = 2.3, n_quad: int = 64) -> TruncationError:
    """Monte Carlo estimate of the L2 norm of the degree band [l_inner, l_outer).

    By isotropy the pointwise second moment of the band field equals the
    squared norm (1/4pi) sum_band (2l+1) C_l(t,t), so sampling the band at a
    single location estimates the truncation error; the closed-form value
    (1/(2 sqrt(pi))) sqrt(sum_band (2l+1) C_l(t,t)) is returned alongside.
    std_error_sq is the standard error of the mean-square estimate (the
    quantity inside the square root). Needs n_runs >= 2, a finite time >= 0,
    theta in [0, pi], a finite phi and a master seed in [0, 2**64).
    """
    if not 0 <= l_inner <= l_outer:
        raise ValueError(f"need 0 <= l_inner <= l_outer, got {l_inner}, {l_outer}")
    if n_runs < 2:
        raise ValueError(f"need at least 2 runs, got {n_runs}")
    if not 0.0 <= time < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {time}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    seeds = [derive_run_seed(master_seed, run) for run in range(n_runs)]
    if l_inner == l_outer:
        return TruncationError(estimate=0.0, std_error_sq=0.0, exact=0.0,
                               n_runs=n_runs)
    atomic = atomize(measure, n_quad)
    spec = angular_spectrum(l_outer, time, time, atomic, params)
    band = spec.values[l_inner:l_outer]
    ls = np.arange(l_inner, l_outer)
    exact = math.sqrt(float(np.sum((2 * ls + 1) * band))) / (2.0 * math.sqrt(math.pi))

    y_band = sph_harm_all(l_outer, theta, phi)[l_inner:]

    _, weights = _weights(l_outer, (time,), atomic, params)
    sq = np.empty(n_runs)
    for run, coeffs in enumerate(_draw(weights, seeds, range(l_inner, l_outer))):
        delta = np.sum(coeffs[0] * y_band).real
        sq[run] = delta * delta
    estimate = math.sqrt(float(sq.mean()))
    return TruncationError(estimate=estimate,
                           std_error_sq=float(sq.std(ddof=1) / math.sqrt(n_runs)),
                           exact=exact, n_runs=n_runs)


def histogram_entropy(values, n_bins: int) -> float:
    """Natural-log Shannon entropy of the equal-width histogram of values.

    Bins span [min, max]; empty bins contribute nothing; the result is at
    most log(n_bins), and constant input gives 0.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("need at least one value")
    if np.min(arr) == np.max(arr):
        return 0.0
    counts, _ = np.histogram(arr, bins=n_bins)
    p = counts[counts > 0] / arr.size
    return float(-np.sum(p * np.log(p)))


def grid_to_binary(grid: FieldGrid) -> bytes:
    """Flat binary raster: 32-byte header (magic, n_theta, n_phi, time) then
    row-major float64 values."""
    header = struct.pack("<8sQQd", _GRID_MAGIC, grid.n_theta, grid.n_phi,
                         grid.time)
    return header + np.ascontiguousarray(grid.values, dtype="<f8").tobytes()


def grid_from_binary(blob: bytes) -> FieldGrid:
    magic, n_theta, n_phi, time = struct.unpack_from("<8sQQd", blob, 0)
    if magic != _GRID_MAGIC:
        raise ValueError("not a field grid blob (bad magic)")
    values = np.frombuffer(blob, dtype="<f8", offset=32).reshape(n_theta, n_phi)
    return FieldGrid(n_theta=n_theta, n_phi=n_phi, values=values.copy(),
                     time=time, meta={})
