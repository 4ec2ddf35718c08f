"""Gaussian realisations of the truncated spherical diffusion field.

Coefficients of the Laplace series are drawn in closed form from the measure:
for an atomic measure, degree-l coefficients are weighted sums of independent
standard normals with weights pi*sqrt(2) * J_{l+1/2}(mu_i)/sqrt(mu_i)
* transfer(mu_i, t) * sigma_i. None of these weights depends on the seed, so
each public simulation call prepares them once, (times x degrees x atoms),
from the atomised measure, and one private draw routine turns them into
coefficients for a sequence of seeds and a range of degrees.
simulate_coefficients keeps the draw of one seed. Member r of an ensemble
under a master seed is the single run with seed derive_run_seed(master, r);
ensemble_spectrum and truncation_error_mc draw many members at once and
reduce each to one statistic as it is drawn (sum_m |a_lm|^2, or a degree
band's squared value at a point), reporting the mean over runs with its
standard error.

One normal block is drawn per degree from a counter-based Philox stream
keyed by (seed, degree) (Salmon et al., SC'11), so identical inputs give
bitwise-identical coefficients regardless of evaluation order, and all
requested times reuse the same draws -- time enters only through the
deterministic transfer factor, making the temporal dependence structure
exact by construction. The draw routine resets one Philox bit generator to
each stream instead of building a generator per stream; that generator
belongs to the call, so concurrent calls do not interfere. Seeds of single
runs lie in [0, 2**128), master seeds of ensembles in [0, 2**64).

The streams of many seeds and degrees fill one buffer of bounded size
(_VALUES_PER_BLOCK), and each full buffer is contracted with the weights in
a few array passes, summing over atoms in atom order. No BLAS product takes
part: the sum behind each coefficient is then the same whatever else is in
the buffer, which keeps ensemble members bitwise equal to single runs and
band draws bitwise equal to full draws.

The field must be real, so coefficients are drawn with Hermitian symmetry
a_{l,-m} = (-1)^m conj(a_{lm}): the m = 0 coefficient is real with variance
C_l, and for m > 0 real and imaginary parts are independent with variance
C_l/2 each. This is the real-harmonic draw expressed in the complex basis
and preserves the defining second-moment structure E a a* = C_l(t, t').

Measures with continuous segments are atomised for simulation (the nodes of
a Gauss rule for each segment's density as atoms, see atomize). The theory
that ensemble_spectrum and truncation_error_mc report beside their estimates
is sum_i w_il(t)^2 over those weights: the square of a weight is its atom's
term of the C_l(t, t) integral, so this is C_l(t, t) of the atomised
measure, the variance the draws have, and the discretisation cancels from
the comparison.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from ._quad import _segment_atoms, serial_matmul
from .kernel import transfer
from .measure import DiffusionParams, SpectralMeasure, _index
from .special import bessel_half_all, norm_plm_blocks, sph_harm_all

_GRID_MAGIC = b"HYPDGRID"
_HERMITIAN_TOL = 1e-12
_WORD = (1 << 64) - 1
# Values that one block of a draw holds in normals, per-row weights and
# products together: enough that numpy's per-call cost is spread over many
# rows, few enough that a draw's working memory does not grow with the
# degree count.
_VALUES_PER_BLOCK = 2 ** 16
# (theta, phi) where truncation_error_mc samples the band field: by isotropy
# the band's second moment is the same at every point.
_MC_POINT = (1.1, 2.3)


def atomize(measure: SpectralMeasure, n_quad: int = 64) -> SpectralMeasure:
    """Replace each power-law segment by the n_quad atoms of a Gauss rule for
    its density: Gauss-Jacobi for a non-integer exponent on [0, hi],
    Gauss-Legendre otherwise."""
    n_quad = _index("n_quad", n_quad)
    if n_quad < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
    if not measure.segments:
        return measure
    atoms = list(measure.atoms)
    for mus, masses in _segment_atoms(measure.segments, n_quad):
        atoms.extend(zip(mus.tolist(), masses.tolist()))
    atoms.sort(key=lambda pair: pair[0])
    return SpectralMeasure(atoms=tuple(atoms))


def _check_int(name: str, value, bits: int) -> int:
    """value as a Python int; ValueError unless it is an integer in [0, 2**bits)."""
    value = _index(name, value)
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def _check_index(name: str, value, count: int) -> int:
    """value as a Python int; ValueError unless it is an index in [0, count)."""
    value = _index(name, value)
    if not 0 <= value < count:
        raise ValueError(f"{name} must lie in [0, {count}), got {value}")
    return value


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Distinct Philox key for ensemble member run_index under a master seed;
    both lie in [0, 2**64)."""
    master_seed = _check_int("master_seed", master_seed, 64)
    run_index = _check_int("run index", run_index, 64)
    return (master_seed << 64) | run_index


def _run_seeds(master_seed: int, n_runs: int) -> range:
    """The seeds of runs 0 .. n_runs - 1 (n_runs >= 1) under master_seed:
    consecutive integers, since the run index is their low 64 bits."""
    return range(derive_run_seed(master_seed, 0),
                 derive_run_seed(master_seed, n_runs - 1) + 1)


@dataclass(frozen=True)
class CoefficientSet:
    """Simulated Laplace coefficients a_lm(t) for l < degree_count.

    coeffs has shape (n_times, degree_count, 2*degree_count - 1) with column
    index (degree_count - 1) + m for order m; entries with |m| > l are zero.
    Hermitian symmetry a_{l,-m} = (-1)^m conj(a_{lm}) holds bit for bit,
    the signs of zeros included.
    """

    degree_count: int
    times: tuple[float, ...]
    coeffs: np.ndarray
    seed: int


def _prepare(degree_count: int, times, measure: SpectralMeasure,
             params: DiffusionParams, n_quad: int
             ) -> tuple[tuple[float, ...], np.ndarray]:
    """Validated times and the seed-independent draw weights
    pi*sqrt(2) * J_{l+1/2}(mu)/sqrt(mu) * sigma * transfer(mu, t), indexed
    (time, degree l < degree_count, atom) of the measure atomised with
    n_quad nodes per segment."""
    atomic = atomize(measure, n_quad)
    if degree_count < 1:
        raise ValueError(f"degree count must be >= 1, got {degree_count}")
    if not atomic.atoms:
        raise ValueError("cannot simulate from the zero measure")
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    mus = np.array([mu for mu, _ in atomic.atoms])
    sigmas = np.sqrt([mass for _, mass in atomic.atoms])
    jmat = bessel_half_all(degree_count - 1, mus)
    base = math.pi * math.sqrt(2.0) * jmat / np.sqrt(mus) * sigmas
    hfac = transfer(mus, np.array(times)[:, None], params)
    return times, base[None, :, :] * hfac[:, None, :]


def _moments(table: np.ndarray):
    """Mean over runs (the first axis) of a table of per-run values, and its
    standard error."""
    return table.mean(axis=0), table.std(axis=0, ddof=1) / math.sqrt(len(table))


def _fill(normals: np.ndarray, seeds, degrees: range):
    """Draw the Philox stream of each (seed, l), seeds outer and degrees
    inner, into consecutive rows of normals, (rows, atoms, 2); yield the
    number of rows filled whenever normals is full and once at the end.

    Stream (seed, l) has key seed and counter l << 192: the degree occupies
    the top 64 bits of the 256-bit counter and blocks are consumed from the
    bottom, so streams never collide. It gives l + 1 rows, as one
    standard_normal((l + 1, atoms, 2)) would; a stream cut by a full buffer
    continues where it stopped once the caller resumes. One bit generator is
    reset to each stream rather than built anew, and is never shared.
    """
    bitgen = Philox(key=0)
    gen = Generator(bitgen)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    filled = 0
    for seed in seeds:
        key[0], key[1] = seed & _WORD, seed >> 64
        for l in degrees:
            counter[3] = l
            bitgen.state = state
            row = 0
            while row <= l:
                take = min(l + 1 - row, len(normals) - filled)
                gen.standard_normal(out=normals[filled:filled + take])
                row += take
                filled += take
                if filled == len(normals):
                    yield filled
                    filled = 0
    if filled:
        yield filled


def _draw(weights: np.ndarray, seeds, degrees: range):
    """Yield the coefficients of each seed of the sequence seeds in turn.

    Each has shape (times, len(degrees), 2*degrees.stop - 1): degree l in row
    l - degrees.start, order m in column degrees.stop - 1 + m, zero where
    |m| > l. It is a view of a buffer that holds a chunk of seeds and is
    overwritten by the next chunk.

    A seed's rows are its (l, m), m = 0..l, degree by degree; row (l, m)
    holds the normals (x, y) of every atom from stream (seed, l) (see
    _fill). A block, whose normals, per-row weights and products hold at
    most _VALUES_PER_BLOCK values together, takes several whole seeds when
    one seed's rows fit in it, else one seed's rows in consecutive pieces,
    so a draw's memory beyond its output does not grow with the degrees or
    the seeds. Each block is contracted with elementwise products, indexed
    (atom, seed, time, x or y, row), summed by np.add.reduce over the
    leading atom axis: numpy sums pairwise only along the fast axis, so it
    adds one atom's slice at a time, in atom order.
    a_lm = sum_a (x_a + i y_a) w_la / sqrt(2) for m > 0 and
    a_l0 = sum_a x_a w_la are then the same sums in the same order whatever
    else shares their block, and ensemble members equal single runs and band
    rows equal full rows bitwise. BLAS is not used: a row of a GEMM changed
    its last bits with the number of rows stacked with it.
    """
    n_t, _, n_atoms = weights.shape
    half = degrees.stop - 1
    width = 2 * half + 1
    row_l = np.repeat(np.arange(degrees.start, degrees.stop),
                      np.arange(degrees.start, degrees.stop) + 1)
    row_m = np.concatenate([np.arange(l + 1) for l in degrees])
    dest = (row_l - degrees.start) * width + half + row_m
    real_only = row_m == 0
    # numpy's complex division by sqrt(2) multiplies by this same reciprocal.
    scale = np.where(real_only, 1.0, 1.0 / math.sqrt(2.0))
    by_atom = np.ascontiguousarray(weights.transpose(2, 0, 1))
    n_rows = row_l.size
    # Rows per block: a row takes 2 normals, times weights and 2 * times
    # products per atom.
    cap = max(1, _VALUES_PER_BLOCK // (n_atoms * (2 + 3 * n_t)))
    per_chunk = max(1, min(len(seeds), cap // n_rows))
    normals = np.empty((min(per_chunk * n_rows, cap), n_atoms, 2))
    products = np.empty(n_t * normals.size)
    out = np.zeros((per_chunk, n_t, len(degrees), width), dtype=complex)
    flat = out.reshape(per_chunk, n_t, -1)
    signs = (-1.0) ** np.arange(half, 0, -1)  # (-1)^m, m = -half .. -1
    span = None
    for first in range(0, len(seeds), per_chunk):
        chunk = seeds[first:first + per_chunk]
        start = 0
        for filled in _fill(normals, chunk, degrees):
            k = max(1, filled // n_rows)
            n = filled // k
            rows = slice(start, start + n)
            if span != rows:
                span = rows
                w = np.take(by_atom, row_l[rows], axis=2)
                w *= scale[rows]
            z = normals[:filled].reshape(k, n, n_atoms, 2).transpose(2, 0, 3, 1)
            # C order keeps the atom axis outermost, which the sum relies on.
            prod = products[:n_t * z.size].reshape(n_atoms, k, n_t, 2, n)
            np.multiply(z[:, :, None], w[:, None, :, None], out=prod)
            acc = np.add.reduce(prod, axis=0)
            acc[:, :, 1, real_only[rows]] = 0.0
            flat.real[:k, :, dest[rows]] = acc[:, :, 0]
            flat.imag[:k, :, dest[rows]] = acc[:, :, 1]
            start = rows.stop
        # a_{l,-m} = (-1)^m conj(a_lm), part by part so that zeros keep signs.
        head = out[:len(chunk)]
        np.multiply(head.real[..., :half:-1], signs, out=head.real[..., :half])
        np.multiply(head.imag[..., :half:-1], -signs, out=head.imag[..., :half])
        yield from head


def simulate_coefficients(degree_count: int, times, measure: SpectralMeasure,
                          params: DiffusionParams, seed: int,
                          n_quad: int = 64) -> CoefficientSet:
    """Draw one realisation of the coefficients a_lm(t) for l < degree_count."""
    seed = _check_int("seed", seed, 128)
    times, weights = _prepare(degree_count, times, measure, params, n_quad)
    coeffs = next(_draw(weights, (seed,), range(degree_count)))
    return CoefficientSet(degree_count=degree_count, times=times,
                          coeffs=coeffs, seed=seed)


@dataclass(frozen=True)
class FieldGrid:
    """Real field raster on the equiangular grid

    theta_j = (j + 1/2) pi / n_theta, phi_k = 2 pi k / n_phi.
    """

    n_theta: int
    n_phi: int
    values: np.ndarray
    time: float

    def thetas(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * math.pi / self.n_theta

    def phis(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi


def synthesize(cs: CoefficientSet, time_index: int, n_theta: int,
               n_phi: int) -> FieldGrid:
    """Evaluate the truncated Laplace series on the equiangular grid.

    The coefficients must be Hermitian, a_{l,-m} = (-1)^m conj(a_lm) for
    m >= 0 (so Im a_l0 = 0), to 1e-12 of the largest |a_lm|; otherwise
    ValueError. The field is then Re[P_0 + 2 sum_{m>0} P_m e^{i m phi}], the
    theta profile P_m of each order m >= 0 summed one degree at a time over
    norm_plm_blocks, and the orders by serial_matmul, so the field's bits do
    not depend on the BLAS thread count.
    """
    if n_theta < 2 or n_phi < 4:
        raise ValueError(f"grid must be at least 2x4, got {n_theta}x{n_phi}")
    time_index = _check_index("time index", time_index, len(cs.times))
    L = cs.degree_count
    a = cs.coeffs[time_index]
    half = L - 1
    # Order m = 0 pairs a_l0 with its own conjugate, so Im a_l0 must vanish.
    mirror = (-1.0) ** np.arange(L) * np.conj(a[:, half:])
    asymmetry = np.max(np.abs(a[:, half::-1] - mirror))
    if not asymmetry <= _HERMITIAN_TOL * np.max(np.abs(a)):  # NaN fails it too
        raise ValueError(f"coefficients are not Hermitian: a_(l,-m) departs from "
                         f"(-1)^m conj(a_lm) by {asymmetry:.3e}")
    grid = FieldGrid(n_theta, n_phi, np.empty((n_theta, n_phi)), cs.times[time_index])
    profiles = np.zeros((L, n_theta), dtype=complex)
    for l, block in norm_plm_blocks(L, grid.thetas()):
        profiles[:l + 1] += a[l, half:half + l + 1, None] * block
    profiles[1:] *= 2.0
    m_phi = np.outer(np.arange(L), grid.phis())
    np.subtract(serial_matmul(profiles.real.T, np.cos(m_phi)),
                serial_matmul(profiles.imag.T, np.sin(m_phi)), out=grid.values)
    return grid


def ensemble_spectrum(degree_count: int, times, measure: SpectralMeasure,
                      params: DiffusionParams, master_seed: int, n_runs: int,
                      n_quad: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, std_error, theory) of C_l(t, t), each indexed (time, l).

    Member r (the single run with seed derive_run_seed(master_seed, r)) is
    reduced to sum_m |a_lm|^2 / (2l+1) as it is drawn, so memory beyond one
    draw block is 8 bytes per (run, time, degree); the estimate is the mean
    over runs with its standard error. theory, the squared draw weights
    summed over atoms, is C_l(t, t) of the atomised measure the draws use.
    """
    n_runs = _index("n_runs", n_runs)
    if n_runs < 2:
        raise ValueError(f"need an ensemble of at least 2 runs, got {n_runs}")
    seeds = _run_seeds(master_seed, n_runs)
    times, weights = _prepare(degree_count, times, measure, params, n_quad)
    power = np.empty((n_runs, len(times), degree_count))
    for run, coeffs in enumerate(_draw(weights, seeds, range(degree_count))):
        power[run] = np.sum(np.abs(coeffs) ** 2, axis=-1)
    power /= 2 * np.arange(degree_count) + 1
    estimate, std_error = _moments(power)
    return estimate, std_error, np.sum(weights ** 2, axis=-1)


@dataclass(frozen=True)
class TruncationError:
    """Monte Carlo L2 truncation error against its closed-form value."""

    estimate: float
    std_error_sq: float
    exact: float
    n_runs: int


def truncation_error_mc(l_inner: int, l_outer: int, measure: SpectralMeasure,
                        params: DiffusionParams, time: float, n_runs: int = 500,
                        master_seed: int = 0, n_quad: int = 64) -> TruncationError:
    """Monte Carlo estimate of the L2 norm of the degree band [l_inner, l_outer).

    By isotropy the pointwise second moment of the band field equals the
    squared norm (1/4pi) sum_band (2l+1) C_l(t,t), so sampling the band at
    one point, _MC_POINT, estimates the truncation error; the closed-form value
    (1/(2 sqrt(pi))) sqrt(sum_band (2l+1) C_l(t,t)) is returned alongside.
    std_error_sq is the standard error of the mean-square estimate (the
    quantity inside the square root). Needs n_runs >= 2, a finite time >= 0
    and a master seed in [0, 2**64).
    """
    if not 0 <= l_inner <= l_outer:
        raise ValueError(f"need 0 <= l_inner <= l_outer, got {l_inner}, {l_outer}")
    n_runs = _index("n_runs", n_runs)
    if n_runs < 2:
        raise ValueError(f"need at least 2 runs, got {n_runs}")
    if not 0.0 <= time < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {time}")
    seeds = _run_seeds(master_seed, n_runs)
    if l_inner == l_outer:
        return TruncationError(estimate=0.0, std_error_sq=0.0, exact=0.0,
                               n_runs=n_runs)
    _, weights = _prepare(l_outer, (time,), measure, params, n_quad)
    band = np.sum(weights[0, l_inner:] ** 2, axis=-1)
    ls = np.arange(l_inner, l_outer)
    exact = math.sqrt(float(np.sum((2 * ls + 1) * band))) / (2.0 * math.sqrt(math.pi))

    y_band = sph_harm_all(l_outer, *_MC_POINT)[l_inner:]

    sq = np.empty(n_runs)
    for run, coeffs in enumerate(_draw(weights, seeds, range(l_inner, l_outer))):
        delta = np.sum(coeffs[0] * y_band).real
        sq[run] = delta * delta
    mean_sq, std_error_sq = _moments(sq)
    return TruncationError(estimate=math.sqrt(float(mean_sq)),
                           std_error_sq=float(std_error_sq),
                           exact=exact, n_runs=n_runs)


def grid_to_binary(grid: FieldGrid) -> bytes:
    """Flat binary raster: 32-byte header (magic, n_theta, n_phi, time) then
    row-major float64 values."""
    header = struct.pack("<8sQQd", _GRID_MAGIC, grid.n_theta, grid.n_phi,
                         grid.time)
    return header + np.ascontiguousarray(grid.values, dtype="<f8").tobytes()


def grid_from_binary(blob: bytes) -> FieldGrid:
    """The grid that grid_to_binary wrote; ValueError unless blob is one
    whole raster."""
    if len(blob) < 32:
        raise ValueError(f"field grid blob needs a 32-byte header, got {len(blob)} bytes")
    magic, n_theta, n_phi, time = struct.unpack_from("<8sQQd", blob, 0)
    if magic != _GRID_MAGIC:
        raise ValueError("not a field grid blob (bad magic)")
    expected = 32 + 8 * n_theta * n_phi
    if len(blob) != expected:
        raise ValueError(f"a {n_theta}x{n_phi} field grid blob takes {expected} bytes, "
                         f"got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", offset=32).reshape(n_theta, n_phi)
    return FieldGrid(n_theta=n_theta, n_phi=n_phi, values=values.copy(), time=time)
