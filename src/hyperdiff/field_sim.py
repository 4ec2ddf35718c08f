"""Gaussian realisations of the truncated spherical diffusion field.

Coefficients of the Laplace series are drawn in closed form from the measure:
for an atomic measure, degree-l coefficients are weighted sums of independent
standard normals with weights pi*sqrt(2) * J_{l+1/2}(mu_i)/sqrt(mu_i)
* transfer(mu_i, t) * sigma_i. One normal block is drawn per degree from a
counter-based Philox stream keyed by (seed, degree), so identical inputs give
bitwise-identical coefficients regardless of evaluation order, and all
requested times reuse the same draws -- time enters only through the
deterministic transfer factor, making the temporal dependence structure
exact by construction.

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
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .exceptions import AccuracyError
from .kernel import transfer
from .measure import DiffusionParams, SpectralMeasure
from .special import bessel_half_all, norm_plm_blocks
from .spectrum import angular_spectrum

_GRID_MAGIC = b"HYPDGRID"
_IMAG_RESIDUE_TOL = 1e-10


def atomize(measure: SpectralMeasure, n_quad: int = 64) -> SpectralMeasure:
    """Replace each power-law segment by n_quad Gauss-Legendre atoms."""
    if not measure.segments:
        return measure
    if n_quad < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
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


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Distinct Philox key for ensemble member run_index under a master seed."""
    if run_index < 0 or run_index >= 1 << 64:
        raise ValueError(f"run index out of range: {run_index}")
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


def _degree_stream(seed: int, l: int) -> Generator:
    # The degree index occupies the top 64 bits of the 256-bit counter;
    # block consumption increments from the bottom, so streams never collide.
    return Generator(Philox(key=seed, counter=l << 192))


def simulate_coefficients(degree_count: int, times, measure: SpectralMeasure,
                          params: DiffusionParams, seed: int,
                          n_quad: int = 64) -> CoefficientSet:
    """Draw one realisation of the coefficients a_lm(t) for l < degree_count."""
    if degree_count < 1:
        raise ValueError(f"degree count must be >= 1, got {degree_count}")
    atomic = atomize(measure, n_quad)
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
    hfac = np.stack([transfer(mus, t, params) for t in times])

    n_t = len(times)
    half = degree_count - 1
    coeffs = np.zeros((n_t, degree_count, 2 * degree_count - 1), dtype=complex)
    signs = (-1.0) ** np.arange(1, degree_count)
    for l in range(degree_count):
        z = _degree_stream(seed, l).standard_normal((l + 1, mus.size, 2))
        z_c = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
        for ti in range(n_t):
            w = base[l] * hfac[ti]
            alm = z_c @ w
            alm[0] = z[0, :, 0] @ w
            coeffs[ti, l, half:half + l + 1] = alm
            if l > 0:
                coeffs[ti, l, half - l:half] = (
                    signs[:l] * np.conj(alm[1:])
                )[::-1]
    return CoefficientSet(degree_count=degree_count, times=times,
                          coeffs=coeffs, seed=seed)


def simulate_ensemble(degree_count: int, times, measure: SpectralMeasure,
                      params: DiffusionParams, master_seed: int, n_runs: int,
                      n_quad: int = 64) -> list[CoefficientSet]:
    """Independent realisations indexed by run: member r is the single run
    with seed derive_run_seed(master_seed, r)."""
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    return [simulate_coefficients(degree_count, times, measure, params,
                                  seed=derive_run_seed(master_seed, run),
                                  n_quad=n_quad)
            for run in range(n_runs)]


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

    The Hermitian-symmetric sum is accumulated in complex arithmetic; its
    imaginary residue must stay below 1e-10 of the field amplitude and is
    then discarded.
    """
    if n_theta < 2 or n_phi < 4:
        raise ValueError(f"grid must be at least 2x4, got {n_theta}x{n_phi}")
    L = cs.degree_count
    a = cs.coeffs[time_index]
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi

    half = L - 1
    profiles = np.zeros((2 * L - 1, n_theta), dtype=complex)
    for m, block in norm_plm_blocks(L, np.cos(theta)):
        profiles[half + m] = a[m:, half + m] @ block
        if m > 0:
            profiles[half - m] = (-1.0) ** m * (a[m:, half - m] @ block)
    m_values = np.arange(-half, half + 1)
    phases = np.exp(1j * np.outer(m_values, phi))
    field_c = profiles.T @ phases

    amplitude = float(np.max(np.abs(field_c.real)))
    residue = float(np.max(np.abs(field_c.imag)))
    if residue > _IMAG_RESIDUE_TOL * max(amplitude, 1e-300):
        raise AccuracyError(
            f"imaginary residue {residue:.3e} exceeds tolerance relative to "
            f"field amplitude {amplitude:.3e}",
            estimate=field_c.real, error=residue,
        )
    meta = {"seed": cs.seed, "degree_count": L}
    return FieldGrid(n_theta=n_theta, n_phi=n_phi, values=field_c.real,
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


def empirical_spectrum(ensemble, l: int, time: float) -> EmpiricalSpectrum:
    """Estimate C_l(t, t) as the ensemble mean of (2l+1)-averaged |a_lm|^2."""
    ensemble = list(ensemble)
    if len(ensemble) < 2:
        raise ValueError("need an ensemble of at least 2 runs")
    per_run = np.empty(len(ensemble))
    for i, cs in enumerate(ensemble):
        ti = cs.time_index(time)
        half = cs.degree_count - 1
        row = cs.coeffs[ti, l, half - l:half + l + 1]
        per_run[i] = np.sum(np.abs(row) ** 2) / (2 * l + 1)
    return EmpiricalSpectrum(value=float(per_run.mean()),
                             std_error=float(per_run.std(ddof=1) / math.sqrt(len(ensemble))),
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
    quantity inside the square root).
    """
    if not 0 <= l_inner <= l_outer:
        raise ValueError(f"need 0 <= l_inner <= l_outer, got {l_inner}, {l_outer}")
    if l_inner == l_outer:
        return TruncationError(estimate=0.0, std_error_sq=0.0, exact=0.0,
                               n_runs=n_runs)
    atomic = atomize(measure, n_quad)
    spec = angular_spectrum(l_outer, time, time, atomic, params)
    band = spec.values[l_inner:l_outer]
    ls = np.arange(l_inner, l_outer)
    exact = math.sqrt(float(np.sum((2 * ls + 1) * band))) / (2.0 * math.sqrt(math.pi))

    y = np.zeros((l_outer, 2 * l_outer - 1), dtype=complex)
    half = l_outer - 1
    cos_t = np.array([math.cos(theta)])
    for m, block in norm_plm_blocks(l_outer, cos_t):
        pbar = block[:, 0]
        y[m:, half + m] = pbar * complex(math.cos(m * phi), math.sin(m * phi))
        if m > 0:
            y[m:, half - m] = (-1.0) ** m * np.conj(y[m:, half + m])

    sq = np.empty(n_runs)
    for run in range(n_runs):
        cs = simulate_coefficients(l_outer, (time,), atomic, params,
                                   seed=derive_run_seed(master_seed, run),
                                   n_quad=n_quad)
        band_coeffs = cs.coeffs[0, l_inner:l_outer]
        delta = np.sum(band_coeffs * y[l_inner:l_outer]).real
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
