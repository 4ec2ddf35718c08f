import math

import numpy as np
import pytest

from hyperdiff.exceptions import AccuracyError
from hyperdiff.field_sim import (CoefficientSet, atomize, derive_run_seed,
                                 empirical_spectrum, grid_from_binary,
                                 grid_to_binary, histogram_entropy,
                                 radial_coefficient, simulate_coefficients,
                                 simulate_ensemble, synthesize,
                                 truncation_error_mc)
from hyperdiff.kernel import transfer
from hyperdiff.measure import DiffusionParams, PowerLawSegment, SpectralMeasure
from hyperdiff.special import sph_harm
from hyperdiff.spectrum import angular_spectrum

P11 = DiffusionParams(c=1.0, D=1.0)
ATOM1 = SpectralMeasure(atoms=((1.0, 1.0),))
ATOMS3 = SpectralMeasure(atoms=((0.5, 0.3), (1.5, 0.5), (4.0, 0.2)))


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

    def test_single_atom_time_factorisation(self):
        cs = simulate_coefficients(5, (0.0, 0.7), ATOM1, P11, seed=9)
        factor = transfer(1.0, 0.7, P11)
        nz = cs.coeffs[0] != 0
        ratios = cs.coeffs[1][nz] / cs.coeffs[0][nz]
        assert np.allclose(ratios, factor, rtol=1e-12)

    def test_second_moment_matches_spectrum(self):
        n_runs = 1500
        ens = simulate_ensemble(4, (0.0,), ATOMS3, P11, master_seed=123,
                                n_runs=n_runs)
        spec = angular_spectrum(4, 0.0, 0.0, ATOMS3, P11).values
        for l in [0, 3]:
            est = empirical_spectrum(ens, l, 0.0)
            assert abs(est.value - spec[l]) <= 5 * est.std_error

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


class TestEnsemble:
    def test_members_match_single_runs(self):
        ens = simulate_ensemble(5, (0.0, 0.3), ATOMS3, P11, master_seed=8,
                                n_runs=12)
        assert len(ens) == 12
        for r, member in enumerate(ens):
            single = simulate_coefficients(5, (0.0, 0.3), ATOMS3, P11,
                                           seed=derive_run_seed(8, r))
            assert member.seed == single.seed
            assert np.array_equal(member.coeffs, single.coeffs)

    def test_runs_are_distinct(self):
        ens = simulate_ensemble(4, (0.0,), ATOMS3, P11, master_seed=8, n_runs=3)
        assert not np.array_equal(ens[0].coeffs, ens[1].coeffs)

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
        half = cs.degree_count - 1
        for j in [0, 2, 4]:
            for k in [0, 3, 7]:
                direct = sum(
                    (cs.coeffs[0, l, half + m] *
                     sph_harm(l, m, float(thetas[j]), float(phis[k]))).real
                    for l in range(5) for m in range(-l, l + 1)
                )
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
        ens = simulate_ensemble(4, (0.3,), ATOMS3, P11, master_seed=71,
                                n_runs=n_runs)
        values = np.array([synthesize(cs, 0, 3, 4).values[1, 2] for cs in ens])
        spec = angular_spectrum(4, 0.3, 0.3, ATOMS3, P11).values
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
        ens = simulate_ensemble(4, (0.0,), ATOMS3, P11, master_seed=29,
                                n_runs=n_runs)
        from hyperdiff.covariance import covariance_spectral
        theory = covariance_spectral(gamma, 0.0, 0.0, ATOMS3, P11)
        half = 3
        for (theta1, phi1), _ in pairs:
            # rotate the second point gamma away along the meridian
            theta2 = theta1 + gamma if theta1 + gamma < math.pi else theta1 - gamma
            y1 = np.zeros((4, 7), dtype=complex)
            y2 = np.zeros((4, 7), dtype=complex)
            for l in range(4):
                for m in range(-l, l + 1):
                    y1[l, half + m] = sph_harm(l, m, theta1, phi1)
                    y2[l, half + m] = sph_harm(l, m, theta2, phi1)
            v1 = np.array([(cs.coeffs[0] * y1).sum().real for cs in ens])
            v2 = np.array([(cs.coeffs[0] * y2).sum().real for cs in ens])
            prod = v1 * v2
            se = prod.std(ddof=1) / math.sqrt(n_runs)
            assert abs(prod.mean() - theory) <= 5 * se

    def test_grid_too_small(self):
        cs = simulate_coefficients(2, (0.0,), ATOM1, P11, seed=1)
        with pytest.raises(ValueError):
            synthesize(cs, 0, 1, 8)


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


class TestCoefficientSet:
    def test_truncated_shares_realisation(self):
        cs = simulate_coefficients(8, (0.0,), ATOMS3, P11, seed=77)
        sub = cs.truncated(4)
        half_big, half_small = 7, 3
        for l in range(4):
            for m in range(-l, l + 1):
                assert sub.coeffs[0, l, half_small + m] == cs.coeffs[0, l, half_big + m]

    def test_time_lookup(self):
        cs = simulate_coefficients(3, (0.0, 0.25), ATOM1, P11, seed=1)
        assert cs.time_index(0.25) == 1
        with pytest.raises(ValueError):
            cs.time_index(0.3)


class TestEmpiricalSpectrum:
    def test_single_atom_ratio_is_exact(self):
        # same draws cancel: C_hat(t)/C_hat(0) = transfer factor squared
        ens = simulate_ensemble(4, (0.0, 0.9), ATOM1, P11, master_seed=3,
                                n_runs=50)
        for l in [0, 2]:
            e0 = empirical_spectrum(ens, l, 0.0)
            e1 = empirical_spectrum(ens, l, 0.9)
            assert e1.value / e0.value == pytest.approx(
                transfer(1.0, 0.9, P11) ** 2, rel=1e-12)

    def test_zero_coefficients(self):
        zero = CoefficientSet(degree_count=2, times=(0.0,),
                              coeffs=np.zeros((1, 2, 3), dtype=complex), seed=0)
        est = empirical_spectrum([zero, zero], 1, 0.0)
        assert est.value == 0.0

    def test_needs_two_runs(self):
        cs = simulate_coefficients(3, (0.0,), ATOM1, P11, seed=1)
        with pytest.raises(ValueError):
            empirical_spectrum([cs], 1, 0.0)


class TestHistogramEntropy:
    def test_uniform_sixteen_bins(self):
        values = np.repeat(np.arange(16), 25) + 0.5
        assert histogram_entropy(values, 16) == pytest.approx(math.log(16.0),
                                                              rel=1e-12)

    def test_constant_input(self):
        assert histogram_entropy(np.full(100, 3.3), 16) == 0.0

    def test_two_equal_bins(self):
        values = np.array([0.0] * 40 + [1.0] * 40)
        assert histogram_entropy(values, 2) == pytest.approx(math.log(2.0),
                                                             rel=1e-14)

    def test_upper_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            values = rng.normal(size=500)
            n_bins = int(rng.integers(2, 40))
            assert histogram_entropy(values, n_bins) <= math.log(n_bins) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram_entropy([1.0], 1)
        with pytest.raises(ValueError):
            histogram_entropy([], 4)


class TestRadialCoefficient:
    def test_l0_closed_form(self):
        x = 2.0
        expected = math.sqrt(2 / (math.pi * x)) * math.sin(x) / math.sqrt(x)
        assert radial_coefficient(0, 2.0, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_unit_radius_matches_weight(self):
        from hyperdiff.special import bessel_half
        assert radial_coefficient(3, 2.5, 1.0) == pytest.approx(
            bessel_half(3, 2.5) / math.sqrt(2.5), rel=1e-13)

    def test_scale_invariance(self):
        assert radial_coefficient(4, 2.0, 1.5) == pytest.approx(
            radial_coefficient(4, 3.0, 1.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            radial_coefficient(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            radial_coefficient(1, 1.0, 0.0)


class TestAtomize:
    def test_atoms_only_untouched(self):
        assert atomize(ATOMS3) is ATOMS3

    def test_mass_preserved_smooth_density(self):
        m = SpectralMeasure(segments=(PowerLawSegment(1.0, 3.0, 0.7, 2.0),))
        assert atomize(m, 32).total_mass() == pytest.approx(m.total_mass(),
                                                            rel=1e-12)

    def test_mass_approximated_singular_density(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        assert atomize(m, 64).total_mass() == pytest.approx(m.total_mass(),
                                                            rel=1e-5)


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
