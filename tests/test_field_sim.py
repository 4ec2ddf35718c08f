import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from hyperdiff import field_sim
from hyperdiff.exceptions import AccuracyError
from hyperdiff.field_sim import (CoefficientSet, _draw, _prepare, _run_seeds,
                                 atomize, derive_run_seed, ensemble_spectrum,
                                 grid_from_binary, grid_to_binary,
                                 simulate_coefficients, synthesize,
                                 truncation_error_mc)
from hyperdiff.kernel import transfer
from hyperdiff.measure import (DiffusionParams, PowerLawSegment, SpectralMeasure,
                               load_config)
from hyperdiff.special import sph_harm_all
from hyperdiff.spectrum import angular_spectrum

P11 = DiffusionParams(c=1.0, D=1.0)
ATOM1 = SpectralMeasure(atoms=((1.0, 1.0),))
ATOMS3 = SpectralMeasure(atoms=((0.5, 0.3), (1.5, 0.5), (4.0, 0.2)))
CONFIGS = Path(__file__).parent.parent / "configs"


class TestSimulateCoefficients:
    def test_reproducible(self):
        a = simulate_coefficients(6, (0.0, 0.5), ATOMS3, P11, seed=42)
        b = simulate_coefficients(6, (0.0, 0.5), ATOMS3, P11, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_seed_changes_draws(self):
        a = simulate_coefficients(6, (0.0,), ATOMS3, P11, seed=1)
        b = simulate_coefficients(6, (0.0,), ATOMS3, P11, seed=2)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_hermitian_symmetry_exact(self):
        cs = simulate_coefficients(8, (0.0, 1.0), ATOMS3, P11, seed=5)
        half = cs.degree_count - 1
        for ti in range(2):
            for l in range(8):
                for m in range(1, l + 1):
                    lhs = cs.coeffs[ti, l, half - m]
                    rhs = (-1) ** m * np.conj(cs.coeffs[ti, l, half + m])
                    assert lhs == rhs

    def test_hermitian_symmetry_keeps_signs_of_zeros(self):
        # The weights of an atom at mu = 1 underflow from degree 156 on, so
        # those a_lm are zeros; their mirrors still take the signs of
        # (-1)^m conj(a_lm), as do the zeros where |m| > l.
        cs = simulate_coefficients(200, (0.0,), ATOM1, P11, seed=3)
        a = cs.coeffs[0]
        assert a[155].any() and not a[156:].any()
        half = cs.degree_count - 1
        signs = (-1.0) ** np.arange(1, half + 1)
        upper, lower = a[:, half + 1:], a[:, half - 1::-1]
        assert np.array_equal(np.signbit(lower.real), np.signbit(signs * upper.real))
        assert np.array_equal(np.signbit(lower.imag), np.signbit(-signs * upper.imag))

    def test_single_atom_time_factorisation(self):
        cs = simulate_coefficients(5, (0.0, 0.7), ATOM1, P11, seed=9)
        factor = transfer(1.0, 0.7, P11)
        nz = cs.coeffs[0] != 0
        ratios = cs.coeffs[1][nz] / cs.coeffs[0][nz]
        assert np.allclose(ratios, factor, rtol=1e-12)

    def test_second_moment_matches_spectrum(self):
        estimate, std_error, _ = ensemble_spectrum(4, (0.0,), ATOMS3, P11,
                                                   master_seed=123, n_runs=1500)
        spec = angular_spectrum(4, 0.0, 0.0, ATOMS3, P11)
        for l in [0, 3]:
            assert abs(estimate[0, l] - spec[l]) <= 5 * std_error[0, l]

    def test_m_zero_is_real(self):
        cs = simulate_coefficients(6, (0.0,), ATOMS3, P11, seed=17)
        half = cs.degree_count - 1
        assert np.all(cs.coeffs[0, :, half].imag == 0.0)

    def test_segments_are_atomised(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.5, 2.0, 1.0, 0.0),))
        cs = simulate_coefficients(4, (0.0,), m, P11, seed=3)
        assert np.any(cs.coeffs != 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_coefficients(0, (0.0,), ATOM1, P11, seed=1)
        with pytest.raises(ValueError):
            simulate_coefficients(3, (0.0,), SpectralMeasure(), P11, seed=1)
        with pytest.raises(ValueError):
            simulate_coefficients(3, (), ATOM1, P11, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, math.nan, 3.0])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate_coefficients(3, (0.0,), ATOM1, P11, seed=seed)

    def test_seed_range_edges_accepted(self):
        for seed in (0, 2 ** 128 - 1):
            assert simulate_coefficients(2, (0.0,), ATOM1, P11, seed=seed).seed == seed

    def test_numpy_integer_seed(self):
        a = simulate_coefficients(4, (0.0,), ATOMS3, P11, seed=np.int64(7))
        b = simulate_coefficients(4, (0.0,), ATOMS3, P11, seed=7)
        assert type(a.seed) is int and np.array_equal(a.coeffs, b.coeffs)


class TestStreams:
    @pytest.mark.parametrize("l", [0, 1, 63, 10000])
    def test_reset_stream_equals_built_generator(self, l):
        # With one atom of weight 1, a_l0 = z_0 and a_lm = (x_m + i y_m)/sqrt 2
        # read the normals of stream (seed, l) straight off the output.
        seeds = [0, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1]
        weights = np.ones((1, l + 1, 1))
        members = (coeffs for block in _draw(weights, seeds, range(l, l + 1))
                   for coeffs in block)
        for seed, coeffs in zip(seeds, members):
            z = Generator(Philox(key=seed, counter=l << 192)).standard_normal(
                (l + 1, 1, 2))
            expected = (z[:, 0, 0] + 1j * z[:, 0, 1]) / math.sqrt(2.0)
            expected[0] = z[0, 0, 0]
            assert np.array_equal(coeffs[0, 0, l:], expected)

    @pytest.mark.parametrize("rows", [8, 9, 10])
    def test_stream_at_buffer_end(self, rows, monkeypatch):
        # One atom at one time takes 5 values a row, so the buffer holds
        # rows rows. Degrees 3..5 give streams of 4, 5 and 6 rows; the first
        # buffer of each seed ends one row before the end of stream (seed, 4),
        # exactly at it, or one row after it, cutting stream (seed, 5).
        monkeypatch.setattr(field_sim, "_VALUES_PER_BLOCK", 5 * rows)
        seeds = [5, 2 ** 64 + 3, 2 ** 128 - 1]
        degrees = range(3, 6)
        weights = np.ones((1, degrees.stop, 1))
        members = (coeffs for block in _draw(weights, seeds, degrees)
                   for coeffs in block)
        for seed, coeffs in zip(seeds, members, strict=True):
            for l in degrees:
                z = Generator(Philox(key=seed, counter=l << 192)).standard_normal(
                    (l + 1, 1, 2))
                expected = (z[:, 0, 0] + 1j * z[:, 0, 1]) / math.sqrt(2.0)
                expected[0] = z[0, 0, 0]
                assert np.array_equal(coeffs[0, l - degrees.start, 5:6 + l], expected)


def _draw_per_run(weights, seeds, degrees):
    """The draw one (seed, degree, time) at a time, with a generator built
    per stream and one BLAS product per time: the reference for the blocked
    contraction of _draw."""
    n_t, _, n_atoms = weights.shape
    half = degrees.stop - 1
    signs = (-1.0) ** np.arange(1, degrees.stop)
    result = []
    for seed in seeds:
        out = np.zeros((n_t, len(degrees), 2 * half + 1), dtype=complex)
        for row, l in enumerate(degrees):
            z = Generator(Philox(key=seed, counter=l << 192)).standard_normal(
                (l + 1, n_atoms, 2))
            z_c = z.view(complex)[..., 0] / math.sqrt(2.0)
            for ti, w in enumerate(weights[:, l]):
                alm = z_c @ w
                alm[0] = z[0, :, 0] @ w
                out[ti, row, half:half + l + 1] = alm
        out[..., :half] = signs[::-1] * np.conj(out[..., :half:-1])
        result.append(out)
    return result


class TestBlockedDraw:
    SEEDS = [derive_run_seed(2 ** 64 - 1, run) for run in range(12)]

    @pytest.mark.parametrize("degrees", [range(10), range(4, 10)])
    def test_matches_per_run_loop(self, degrees):
        # Sums in atom order round unlike BLAS products, by a few ulps.
        atoms = tuple((0.4 + 0.9 * i, 0.1 + 0.05 * i) for i in range(7))
        _, weights = _prepare(10, (0.0, 0.2, 0.9), SpectralMeasure(atoms=atoms),
                                 P11, n_quad=64)
        blocked = [c.copy() for block in _draw(weights, self.SEEDS, degrees)
                   for c in block]
        for got, want in zip(blocked, _draw_per_run(weights, self.SEEDS, degrees),
                             strict=True):
            for got_t, want_t in zip(got, want):
                assert np.max(np.abs(got_t - want_t)) <= 1e-15 * np.max(np.abs(want_t))

    @pytest.mark.parametrize("values", [24 * 144, 24 * 10])
    def test_block_layout_leaves_no_trace(self, values, monkeypatch):
        # 3 atoms at 2 times take 24 values a row, and a seed below L = 8 has
        # 36 rows: 144 rows a block hold 4 whole seeds, 10 rows cut a seed,
        # and its streams, into 4 pieces.
        _, weights = _prepare(8, (0.0, 0.3), ATOMS3, P11, n_quad=64)
        singles = [next(_draw(weights, (seed,), range(8)))[0].copy()
                   for seed in self.SEEDS]
        chunks = []
        fill = field_sim._fill

        def counted(normals, seeds, *args):
            chunks.append([len(seeds)])
            for filled in fill(normals, seeds, *args):
                chunks[-1].append(filled)
                yield filled

        monkeypatch.setattr(field_sim, "_VALUES_PER_BLOCK", values)
        monkeypatch.setattr(field_sim, "_fill", counted)
        full = [c.copy() for block in _draw(weights, self.SEEDS, range(8))
                for c in block]
        band = [c.copy() for block in _draw(weights, self.SEEDS, range(3, 8))
                for c in block]
        if values == 24 * 144:
            assert len(chunks) >= 6 and all(c[0] > 1 for c in chunks)
        else:
            assert all(c[0] == 1 and len(c) >= 4 for c in chunks)
        for single, member, rows in zip(singles, full, band, strict=True):
            assert np.array_equal(member, single)
            assert np.array_equal(rows, single[:, 3:])

    def test_one_bit_generator_per_draw(self, monkeypatch):
        # 10 rows a block cut each of the 12 seeds into its own chunk
        _, weights = _prepare(8, (0.0, 0.3), ATOMS3, P11, n_quad=64)
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return Philox(*args, **kwargs)

        monkeypatch.setattr(field_sim, "_VALUES_PER_BLOCK", 24 * 10)
        monkeypatch.setattr(field_sim, "Philox", counted)
        blocks = sum(1 for _ in _draw(weights, self.SEEDS, range(8)))
        assert blocks == len(self.SEEDS) and len(built) == 1

    def test_memory_stays_within_blocks(self):
        # One seed below L = 96 with 20 atoms: 4656 rows, 1.5 MB of normals.
        weights = np.random.default_rng(5).uniform(0.5, 1.0, (1, 96, 20))
        tracemalloc.start()
        try:
            coeffs = next(_draw(weights, (7,), range(96)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coeffs.nbytes + 4 * 8 * field_sim._VALUES_PER_BLOCK


class TestEnsemble:
    def test_members_match_single_runs(self):
        # Members drawn together, as ensemble_spectrum draws them, equal the
        # single runs with seeds derive_run_seed(8, r).
        seeds = _run_seeds(8, 12)
        assert list(seeds) == [derive_run_seed(8, r) for r in range(12)]
        _, weights = _prepare(5, (0.0, 0.3), ATOMS3, P11, 64)
        members = [coeffs.copy() for block in _draw(weights, seeds, range(5))
                   for coeffs in block]
        assert len(members) == 12
        for seed, coeffs in zip(seeds, members):
            single = simulate_coefficients(5, (0.0, 0.3), ATOMS3, P11, seed=seed)
            assert single.seed == seed
            assert np.array_equal(coeffs, single.coeffs)

    def test_concurrent_calls_match_serial(self):
        # Threads with different master seeds, switching as often as the
        # interpreter allows: a generator shared between calls mixes streams.
        args = (6, (0.0, 0.4), ATOMS3, P11)
        seeds = (31, 32, 33, 34)
        serial = [ensemble_spectrum(*args, master_seed=s, n_runs=100)
                  for s in seeds]
        results = [None] * len(seeds)
        start = threading.Barrier(len(seeds))

        def run(i):
            start.wait()
            results[i] = ensemble_spectrum(*args, master_seed=seeds[i],
                                           n_runs=100)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(seeds))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for result, expected in zip(results, serial):
            assert all(np.array_equal(a, b) for a, b in zip(result, expected))

    @pytest.mark.parametrize("master_seed", [-1, 2 ** 64, 1.5])
    def test_master_seed_range(self, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            ensemble_spectrum(3, (0.0,), ATOM1, P11, master_seed=master_seed,
                              n_runs=2)
        with pytest.raises(ValueError, match="master_seed"):
            derive_run_seed(master_seed, 0)

    def test_numpy_integer_master_seed(self):
        # (master << 64) in int64 arithmetic would wrap to 0 for every master
        a = ensemble_spectrum(3, (0.0,), ATOMS3, P11, master_seed=np.int64(5), n_runs=2)
        b = ensemble_spectrum(3, (0.0,), ATOMS3, P11, master_seed=5, n_runs=2)
        assert derive_run_seed(np.int64(5), 1) == derive_run_seed(5, 1) == (5 << 64) | 1
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_runs_are_distinct(self):
        a, b = (simulate_coefficients(4, (0.0,), ATOMS3, P11, seed=derive_run_seed(8, r))
                for r in range(2))
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_derive_run_seed_distinct(self):
        seeds = {derive_run_seed(5, r) for r in range(100)}
        assert len(seeds) == 100
        with pytest.raises(ValueError):
            derive_run_seed(5, -1)


class TestSynthesize:
    def test_monopole_constant_map(self):
        cs = simulate_coefficients(1, (0.0,), ATOM1, P11, seed=2)
        grid = synthesize(cs, 0, 6, 12)
        expected = cs.coeffs[0, 0, 0].real / math.sqrt(4 * math.pi)
        assert np.allclose(grid.values, expected, rtol=1e-13)

    def test_matches_pointwise_harmonic_sum(self):
        cs = simulate_coefficients(5, (0.2,), ATOMS3, P11, seed=21)
        grid = synthesize(cs, 0, 5, 8)
        thetas, phis = grid.thetas(), grid.phis()
        for j in [0, 2, 4]:
            for k in [0, 3, 7]:
                direct = (cs.coeffs[0] * sph_harm_all(
                    5, float(thetas[j]), float(phis[k]))).sum().real
                assert grid.values[j, k] == pytest.approx(direct, rel=1e-10,
                                                          abs=1e-12)

    def test_area_weighted_mean_is_monopole(self):
        cs = simulate_coefficients(8, (0.0,), ATOMS3, P11, seed=33)
        grid = synthesize(cs, 0, 96, 192)
        w = np.sin(grid.thetas())
        mean = float((grid.values * w[:, None]).sum() / (w.sum() * grid.n_phi))
        expected = cs.coeffs[0, 0, cs.degree_count - 1].real / math.sqrt(4 * math.pi)
        assert mean == pytest.approx(expected, abs=1e-3 * max(1.0, abs(expected)))

    def test_deterministic(self):
        cs = simulate_coefficients(6, (0.0,), ATOMS3, P11, seed=4)
        g1 = synthesize(cs, 0, 10, 20)
        g2 = synthesize(cs, 0, 10, 20)
        assert np.array_equal(g1.values, g2.values)

    def test_point_variance_across_ensemble(self):
        n_runs = 2000
        seeds = _run_seeds(71, n_runs)
        times, weights = _prepare(4, (0.3,), ATOMS3, P11, 64)
        members = zip(seeds, (coeffs for block in _draw(weights, seeds, range(4))
                              for coeffs in block))
        values = np.array([synthesize(CoefficientSet(4, times, coeffs, seed), 0, 3, 4).values[1, 2]
                           for seed, coeffs in members])
        spec = angular_spectrum(4, 0.3, 0.3, ATOMS3, P11)
        ls = np.arange(4)
        theory = float(np.sum((2 * ls + 1) * spec)) / (4 * math.pi)
        sq = values ** 2
        se = sq.std(ddof=1) / math.sqrt(n_runs)
        assert abs(sq.mean() - theory) <= 5 * se

    def test_isotropy_over_point_pairs(self):
        # pairs at equal angular distance have equal ensemble covariance
        gamma = math.pi / 3
        pairs = [((0.8, 0.5), None), ((1.4, 2.0), None), ((2.2, 4.0), None)]
        n_runs = 2000
        _, weights = _prepare(4, (0.0,), ATOMS3, P11, 64)
        members = [coeffs[0].copy()
                   for block in _draw(weights, _run_seeds(29, n_runs), range(4))
                   for coeffs in block]
        from hyperdiff.covariance import covariance_spectral
        theory = covariance_spectral(gamma, 0.0, 0.0, ATOMS3, P11)
        for (theta1, phi1), _ in pairs:
            # rotate the second point gamma away along the meridian
            theta2 = theta1 + gamma if theta1 + gamma < math.pi else theta1 - gamma
            y1 = sph_harm_all(4, theta1, phi1)
            y2 = sph_harm_all(4, theta2, phi1)
            v1 = np.array([(coeffs * y1).sum().real for coeffs in members])
            v2 = np.array([(coeffs * y2).sum().real for coeffs in members])
            prod = v1 * v2
            se = prod.std(ddof=1) / math.sqrt(n_runs)
            assert abs(prod.mean() - theory) <= 5 * se

    def test_grid_too_small(self):
        cs = simulate_coefficients(2, (0.0,), ATOM1, P11, seed=1)
        with pytest.raises(ValueError):
            synthesize(cs, 0, 1, 8)

    @pytest.mark.parametrize("l, m, delta", [(2, -1, 0.3j), (2, 2, 1e-9), (1, 0, 0.2j),
                                             (2, 0, math.nan)])
    def test_non_hermitian_coefficients_rejected(self, l, m, delta):
        cs = simulate_coefficients(3, (0.0,), ATOMS3, P11, seed=5)
        coeffs = cs.coeffs.copy()
        coeffs[0, l, cs.degree_count - 1 + m] += delta
        bad = CoefficientSet(degree_count=3, times=cs.times, coeffs=coeffs,
                             seed=cs.seed)
        with pytest.raises(ValueError, match="Hermitian"):
            synthesize(bad, 0, 4, 8)


class TestTruncationError:
    def test_equal_degrees_zero(self):
        te = truncation_error_mc(6, 6, ATOM1, P11, 0.0, n_runs=10)
        assert te.estimate == 0.0 and te.exact == 0.0

    def test_time_zero_equality(self):
        te = truncation_error_mc(3, 12, ATOMS3, P11, 0.0, n_runs=1200,
                                 master_seed=13)
        lo = math.sqrt(max(te.estimate ** 2 - 5 * te.std_error_sq, 0.0))
        hi = math.sqrt(te.estimate ** 2 + 5 * te.std_error_sq)
        assert lo <= te.exact <= hi

    def test_positive_time_below_initial(self):
        t0 = truncation_error_mc(3, 12, ATOMS3, P11, 0.0, n_runs=800,
                                 master_seed=19)
        t1 = truncation_error_mc(3, 12, ATOMS3, P11, 1.5, n_runs=800,
                                 master_seed=19)
        assert t1.exact <= t0.exact * (1 + 1e-12)
        assert t1.estimate <= t0.estimate + 5 * math.sqrt(max(t0.std_error_sq,
                                                              t1.std_error_sq))

    def test_validation(self):
        with pytest.raises(ValueError):
            truncation_error_mc(5, 3, ATOM1, P11, 0.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_runs": 1}, "runs"), ({"n_runs": 0}, "runs"), ({"n_runs": -3}, "runs"),
        ({"master_seed": -1}, "master_seed"), ({"master_seed": 2 ** 64}, "master_seed"),
        ({"time": math.nan}, "time"), ({"time": -1.0}, "time"),
        ({"n_runs": 2.5}, "n_runs"),  # named the run index
        # the empty band (4, 4) returned zeros for these three
        ({"n_quad": 2.5}, "n_quad"), ({"n_quad": 0}, "n_quad"),
        ({"measure": SpectralMeasure()}, "zero measure"),
    ])
    def test_bad_input_rejected(self, kwargs, name):
        args = {"measure": ATOMS3, "params": P11, "time": 0.3, **kwargs}
        for band in ((2, 6), (4, 4)):
            with pytest.raises(ValueError, match=name):
                truncation_error_mc(*band, **args)

    def test_empty_band_at_origin_is_zero(self):
        # The empty band (0, 0) is valid input, though no degree count 0 is.
        te = truncation_error_mc(0, 0, ATOMS3, P11, 0.3, n_runs=3)
        assert te == field_sim.TruncationError(0.0, 0.0, 0.0, 3)

    @pytest.mark.parametrize("l_inner, l_outer, time", [
        (3, 12, 0.0), (0, 5, 0.8), (6, 7, 2.5),
    ])
    def test_matches_per_run_oracle(self, l_inner, l_outer, time, monkeypatch):
        measure = SpectralMeasure(atoms=((2.5, 0.2),),
                                  segments=(PowerLawSegment(0.5, 2.0, 1.0, 0.5),))
        n_runs, master_seed, n_quad = 40, 2 ** 64 - 1, 12
        # 13 atoms at one time take 65 values a row: the default block holds
        # many runs, and 5 rows a block cut every run of each band.
        results = []
        for values in (field_sim._VALUES_PER_BLOCK, 65 * 5):
            monkeypatch.setattr(field_sim, "_VALUES_PER_BLOCK", values)
            results.append(truncation_error_mc(l_inner, l_outer, measure, P11, time,
                                               n_runs=n_runs, master_seed=master_seed,
                                               n_quad=n_quad))
        monkeypatch.undo()

        atomic = atomize(measure, n_quad)
        ls = np.arange(l_inner, l_outer)

        def norm(band):
            return math.sqrt(float(np.sum((2 * ls + 1) * band))) / (2.0 * math.sqrt(math.pi))
        # The band's C_l are the squared draw weights summed over atoms, which
        # is C_l of the atomised measure up to rounding.
        _, weights = _prepare(l_outer, (time,), measure, P11, n_quad)
        band = angular_spectrum(l_outer, time, time, atomic, P11)[l_inner:]
        for te in results:
            assert te.exact == norm(np.sum(weights[0, l_inner:] ** 2, axis=-1))
            assert te.exact == pytest.approx(norm(band), rel=1e-14)
        y = sph_harm_all(l_outer, *field_sim._MC_POINT)
        sq = np.empty(n_runs)
        for run in range(n_runs):
            cs = simulate_coefficients(l_outer, (time,), atomic, P11,
                                       seed=derive_run_seed(master_seed, run))
            delta = np.sum(cs.coeffs[0, l_inner:] * y[l_inner:]).real
            sq[run] = delta * delta
        for te in results:
            assert te.estimate == math.sqrt(float(sq.mean()))
            assert te.std_error_sq == float(sq.std(ddof=1) / math.sqrt(n_runs))
            assert te.n_runs == n_runs


class TestCoefficientSet:
    @pytest.mark.parametrize("time_index", [-1, 2, 0.5])
    def test_time_index_range(self, time_index):
        # -1 would read the last time, and 2 or 0.5 raised IndexError
        cs = simulate_coefficients(3, (0.0, 0.25), ATOM1, P11, seed=1)
        assert synthesize(cs, 1, 2, 4).time == 0.25
        with pytest.raises(ValueError, match="time index"):
            synthesize(cs, time_index, 2, 4)


class TestEnsembleSpectrum:
    MIXED = SpectralMeasure(atoms=((2.5, 0.4),),
                            segments=((0.2, 1.5, 1.0, 0.5),))

    @pytest.mark.parametrize("degree_count, times", [
        (1, (0.0,)),  # one cell: numpy sums the runs pairwise
        (7, (0.0, 0.4, 1.2)),  # many cells: numpy adds the runs in order
    ])
    def test_equals_members_bitwise(self, degree_count, times, monkeypatch):
        args = (degree_count, times, self.MIXED, P11)
        # 9 atoms take 45 values a row at one time and 99 at three: the
        # default block holds many runs, and 495 values hold 11 runs of one
        # row (the last block 8) or cut each run of 28 rows into pieces of at
        # most 5.
        results = []
        for values in (field_sim._VALUES_PER_BLOCK, 495):
            monkeypatch.setattr(field_sim, "_VALUES_PER_BLOCK", values)
            results.append(ensemble_spectrum(*args, master_seed=9, n_runs=41,
                                             n_quad=8))
        monkeypatch.undo()
        # Reference: the single runs of the members, reduced to
        # sum_m |a_lm|^2 / (2l+1).
        power = np.array([np.sum(np.abs(simulate_coefficients(
            *args, seed=derive_run_seed(9, r), n_quad=8).coeffs) ** 2, axis=-1)
            for r in range(41)])
        power /= 2 * np.arange(degree_count) + 1
        _, weights = _prepare(degree_count, times, self.MIXED, P11, n_quad=8)
        expected = angular_spectrum(degree_count, times, times,
                                    atomize(self.MIXED, 8), P11)
        for estimate, std_error, theory in results:
            assert estimate.shape == std_error.shape == (len(times), degree_count)
            assert np.array_equal(estimate, power.mean(axis=0))
            assert np.array_equal(std_error, power.std(axis=0, ddof=1) / math.sqrt(41))
            # theory is the squared draw weights summed over atoms, which is
            # C_l of the atomised measure up to rounding.
            assert np.array_equal(theory, np.sum(weights ** 2, axis=-1))
            assert np.allclose(theory, expected, rtol=1e-14, atol=0.0)

    def test_single_atom_ratio_is_exact(self):
        # same draws cancel: C_hat(t)/C_hat(0) = transfer factor squared
        estimate, _, _ = ensemble_spectrum(4, (0.0, 0.9), ATOM1, P11,
                                           master_seed=3, n_runs=50)
        for l in [0, 2]:
            assert estimate[1, l] / estimate[0, l] == pytest.approx(
                transfer(1.0, 0.9, P11) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n_runs", [0, 1])
    def test_needs_two_runs(self, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            ensemble_spectrum(3, (0.0,), ATOM1, P11, master_seed=0,
                              n_runs=n_runs)

    def test_non_integer_run_count_rejected(self):
        # named the run index
        with pytest.raises(ValueError, match="n_runs"):
            ensemble_spectrum(3, (0.0,), ATOM1, P11, master_seed=0, n_runs=2.5)


class TestAtomize:
    def test_atoms_only_untouched(self):
        assert atomize(ATOMS3) is ATOMS3

    @pytest.mark.parametrize("lo, exponent", [(0.0, 0.5), (0.5, 0.5), (0.0, 1.0)])
    def test_non_integer_node_count_rejected(self, lo, exponent):
        # at the origin 2.5 gave 3 Gauss-Jacobi atoms; elsewhere leggauss
        # raised TypeError
        m = SpectralMeasure(segments=(PowerLawSegment(lo, 2.0, 1.0, exponent),))
        for n_quad in (2.5, np.float64(8.0)):
            with pytest.raises(ValueError, match="n_quad"):
                atomize(m, n_quad)
        with pytest.raises(ValueError, match="n_quad"):
            simulate_coefficients(3, (0.0,), m, P11, seed=1, n_quad=2.5)
        with pytest.raises(ValueError, match="n_quad"):
            ensemble_spectrum(3, (0.0,), m, P11, master_seed=0, n_runs=4, n_quad=2.5)
        with pytest.raises(ValueError, match="n_quad"):
            truncation_error_mc(2, 6, m, P11, 0.3, n_runs=4, n_quad=2.5)

    def test_mass_preserved_smooth_density(self):
        m = SpectralMeasure(segments=(PowerLawSegment(1.0, 3.0, 0.7, 2.0),))
        assert atomize(m, 32).total_mass() == pytest.approx(m.total_mass(),
                                                            rel=1e-12)

    def test_mass_approximated_singular_density(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        assert atomize(m, 64).total_mass() == pytest.approx(m.total_mass(),
                                                            rel=1e-5)

    @pytest.mark.parametrize("n_quad", [16, 64])
    @pytest.mark.parametrize("exponent", [None, -0.999, -0.6, -0.2, 0.5, 1.5])
    def test_origin_segment_draws_follow_the_measure(self, exponent, n_quad):
        # Gauss-Legendre atoms on mu^a over [0, hi] missed the largest C_l of
        # long_range.json (None) by 2.7e-2 at n_quad 64, and of mu^-0.999 by 99 %.
        if exponent is None:
            params, measure = load_config((CONFIGS / "long_range.json").read_text())
            times = (0.0, 0.05)
        else:
            params = DiffusionParams(c=1.0, D=2.0)
            measure = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, exponent),))
            times = (0.0, 0.1)
        _, weights = _prepare(16, times, measure, params, n_quad)
        exact = angular_spectrum(16, np.array(times), np.array(times), measure, params,
                                 rtol=1e-12)
        drawn = np.sum(weights ** 2, axis=-1)
        assert np.max(np.abs(drawn - exact)) <= 1e-9 * np.max(exact)


class TestGridSerialisation:
    def test_binary_round_trip(self):
        cs = simulate_coefficients(4, (0.1,), ATOMS3, P11, seed=55)
        grid = synthesize(cs, 0, 6, 12)
        restored = grid_from_binary(grid_to_binary(grid))
        assert restored.n_theta == 6 and restored.n_phi == 12
        assert restored.time == grid.time
        assert np.array_equal(restored.values, grid.values)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            grid_from_binary(b"\x00" * 64)

    def test_short_or_ragged_blob(self):
        # These raised struct.error and numpy's buffer-size error.
        cs = simulate_coefficients(4, (0.1,), ATOMS3, P11, seed=55)
        blob = grid_to_binary(synthesize(cs, 0, 6, 12))
        with pytest.raises(ValueError, match="32-byte header, got 20 bytes"):
            grid_from_binary(blob[:20])
        for ragged in (blob[:-3], blob + b"\x00"):
            with pytest.raises(ValueError, match=f"6x12 .* 608 bytes, got {len(ragged)}"):
                grid_from_binary(ragged)
