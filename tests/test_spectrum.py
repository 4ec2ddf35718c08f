import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from hyperdiff.exceptions import AccuracyError
from hyperdiff import _quad
from hyperdiff._quad import integrate_measure, integrate_vector
from hyperdiff.kernel import transfer
from hyperdiff.measure import DiffusionParams, PowerLawSegment, SpectralMeasure
from hyperdiff.spectrum import (angular_spectrum, c_l, finite_variance_check,
                                tail_bound_gamma, tail_sum_direct,
                                tail_sum_lommel)

P11 = DiffusionParams(c=1.0, D=1.0)
ATOM1 = SpectralMeasure(atoms=((1.0, 1.0),))
EMPTY = SpectralMeasure()


def brute_tail(l_start: int, mu: float, l_stop: int = 80) -> float:
    """Independent oracle: sum (2l+1) J_{l+1/2}(mu)^2 via scipy."""
    ls = np.arange(l_start, l_stop + 1)
    return float(np.sum((2 * ls + 1) * sp.jv(ls + 0.5, mu) ** 2))


class TestCl:
    def test_single_atom_closed_form(self):
        # C_0(0,0) = 2 pi^2 J_{1/2}(1)^2 = 4 pi sin^2(1) = 8.89791...
        expected = 4.0 * math.pi * math.sin(1.0) ** 2
        assert c_l(0, 0.0, 0.0, ATOM1, P11) == pytest.approx(expected, rel=1e-12)
        oracle = 2 * math.pi ** 2 * sp.jv(0.5, 1.0) ** 2
        assert c_l(0, 0.0, 0.0, ATOM1, P11) == pytest.approx(oracle, rel=1e-10)

    def test_initial_time_kernel_drops_out(self):
        m = SpectralMeasure(atoms=((0.7, 0.2), (3.0, 1.4), (12.0, 0.5)))
        for l in [0, 1, 5, 11]:
            oracle = 2 * math.pi ** 2 * sum(
                sp.jv(l + 0.5, mu) ** 2 / mu * mass for mu, mass in m.atoms
            )
            assert c_l(l, 0.0, 0.0, m, P11) == pytest.approx(oracle, rel=1e-10)

    def test_single_atom_product_structure(self):
        expected = c_l(0, 0.0, 0.0, ATOM1, P11) * transfer(1.0, 1.0, P11) ** 2
        assert c_l(0, 1.0, 1.0, ATOM1, P11) == pytest.approx(expected, rel=1e-12)
        assert c_l(0, 1.0, 1.0, ATOM1, P11) == pytest.approx(3.8723, abs=5e-4)

    def test_segment_against_scipy_quad(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        for l, t, tp in [(0, 0.0, 0.0), (2, 0.3, 0.0), (4, 1.0, 0.5)]:
            oracle, _ = quad(
                lambda mu: sp.jv(l + 0.5, mu) ** 2 / mu
                * transfer(mu, t, P11) * transfer(mu, tp, P11) * mu ** 0.5,
                0.0, 1.0, points=[0.5], epsabs=1e-13, epsrel=1e-12)
            assert c_l(l, t, tp, m, P11) == pytest.approx(
                2 * math.pi ** 2 * oracle, rel=1e-8)

    def test_values_nonnegative_equal_times(self):
        m = SpectralMeasure(atoms=((0.3, 0.5), (2.0, 1.0)),
                            segments=(PowerLawSegment(4.0, 6.0, 0.2, -1.0),))
        for t in [0.0, 0.7, 3.0]:
            values = angular_spectrum(24, t, t, m, P11).values
            assert np.all(values >= 0.0)
            assert np.all(np.isfinite(values))

    def test_empty_measure(self):
        assert c_l(3, 0.5, 0.5, EMPTY, P11) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            c_l(-1, 0.0, 0.0, ATOM1, P11)
        with pytest.raises(ValueError):
            angular_spectrum(0, 0.0, 0.0, ATOM1, P11)
        with pytest.raises(ValueError):
            angular_spectrum(4, -1.0, 0.0, ATOM1, P11)


class TestTailSums:
    def test_full_sum_is_4pi_variance(self):
        # sum_l (2l+1) C_l(0,0) = 4 pi B(0) by the addition identity
        m = SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7), (9.0, 1.1)))
        result = tail_sum_direct(0, m, P11, 0.0)
        assert result.converged
        assert result.value == pytest.approx(4 * math.pi * m.total_mass(), rel=1e-10)

    def test_zero_measure(self):
        assert tail_sum_direct(3, EMPTY, P11, 0.0).value == 0.0
        assert tail_sum_lommel(3, EMPTY, P11) == 0.0

    def test_direct_against_brute_force(self):
        result = tail_sum_direct(1, ATOM1, P11, 0.0)
        oracle = 2 * math.pi ** 2 * brute_tail(1, 1.0)
        assert result.value == pytest.approx(oracle, rel=1e-10)

    def test_lommel_against_brute_force(self):
        for l_start in [1, 2, 5]:
            for mu in [0.5, 1.0, 5.0, 20.0]:
                m = SpectralMeasure(atoms=((mu, 1.0),))
                oracle = 2 * math.pi ** 2 * brute_tail(l_start, mu) / mu
                assert tail_sum_lommel(l_start, m, P11) == pytest.approx(
                    oracle, rel=1e-9), (l_start, mu)

    @pytest.mark.parametrize("measure", [
        ATOM1,
        SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7), (9.0, 1.1))),
        SpectralMeasure(atoms=((0.2, 0.5),),
                        segments=(PowerLawSegment(1.0, 3.0, 0.4, 1.0),)),
    ])
    @pytest.mark.parametrize("l_start", [1, 3, 8])
    def test_lommel_matches_direct(self, measure, l_start):
        direct = tail_sum_direct(l_start, measure, P11, 0.0).value
        closed = tail_sum_lommel(l_start, measure, P11)
        assert closed == pytest.approx(direct, rel=1e-8)

    def test_lommel_requires_positive_degree(self):
        with pytest.raises(ValueError):
            tail_sum_lommel(0, ATOM1, P11)

    def test_cap_warning(self):
        with pytest.warns(UserWarning):
            result = tail_sum_direct(0, ATOM1, P11, 0.0, degree_cap=3)
        assert not result.converged
        assert result.value > 0.0

    def test_time_decay_domination(self):
        m = SpectralMeasure(atoms=((0.3, 0.5), (2.0, 1.0)))
        base = tail_sum_direct(0, m, P11, 0.0).value
        for t in [0.05, 0.5, 2.0, 10.0]:
            assert tail_sum_direct(0, m, P11, t).value <= base * (1 + 1e-12)

    def test_cross_time_sum_dominated_by_initial(self):
        # sum (2l+1) C_l(t, t') <= sum (2l+1) C_l(0, 0) also for t != t'
        m = SpectralMeasure(atoms=((0.3, 0.5), (2.0, 1.0)))
        ls = np.arange(64)
        base = float(np.sum((2 * ls + 1)
                            * angular_spectrum(64, 0.0, 0.0, m, P11).values))
        for t, tp in [(0.1, 0.4), (0.5, 2.0), (3.0, 0.0)]:
            total = float(np.sum((2 * ls + 1)
                                 * angular_spectrum(64, t, tp, m, P11).values))
            assert total <= base * (1 + 1e-12)


class TestGammaBound:
    def test_dominates_direct_tail(self):
        m = SpectralMeasure(atoms=((0.5, 1.0),))
        for l_start in range(2, 11):
            bound = tail_bound_gamma(l_start, m, P11)
            direct = tail_sum_direct(l_start, m, P11, 0.0).value
            assert bound >= direct

    def test_super_exponential_decay(self):
        # successive ratios shrink like (delta/2)^2 / (L -1/2)^2 for delta < 1
        delta = 0.5
        m = SpectralMeasure(atoms=((delta, 1.0),))
        bounds = [tail_bound_gamma(l, m, P11) for l in range(2, 11)]
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        for i, r in enumerate(ratios):
            l_start = 2 + i
            approx_factor = (delta / 2) ** 2 / ((l_start - 0.5) * (l_start + 0.5))
            assert r <= 2.0 * approx_factor
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_segment_measure(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 0.8, 1.0, 0.5),))
        bound = tail_bound_gamma(3, m, P11)
        direct = tail_sum_direct(3, m, P11, 0.0).value
        assert 0.0 < direct <= bound

    def test_zero_measure(self):
        assert tail_bound_gamma(2, EMPTY, P11) == 0.0

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            tail_bound_gamma(1, ATOM1, P11)


class TestSupportGapDecay:
    def test_gap_measure_decay(self):
        # all mass at mu >= delta inside the diffusive range
        delta = 0.3
        m = SpectralMeasure(atoms=((0.3, 0.4), (0.35, 0.3), (0.45, 0.3)))
        const = (1.0 + 1.0 / math.sqrt(1.0 - 4.0 * delta ** 2)) ** 2
        base = angular_spectrum(30, 0.0, 0.0, m, P11).values
        for t in [0.5, 1.0, 5.0]:
            values = angular_spectrum(30, t, t, m, P11).values
            envelope = const * math.exp(-2.0 * delta ** 2 * t) * base
            assert np.all(values <= envelope * (1 + 1e-10))

    def test_pure_wave_decay(self):
        # no mass at or below the cut-off
        m = SpectralMeasure(atoms=((0.6, 0.5), (1.0, 0.3), (2.0, 0.2)))
        base = angular_spectrum(30, 0.0, 0.0, m, P11).values
        for t in [0.5, 1.0, 5.0]:
            a = P11.c ** 2 * t / (2 * P11.D)
            envelope = (1 + a) ** 2 * math.exp(-2 * a) * base
            values = angular_spectrum(30, t, t, m, P11).values
            assert np.all(values <= envelope * (1 + 1e-10))


class TestFiniteVariance:
    def test_atoms_always_finite(self):
        report = finite_variance_check(ATOM1, P11, 1.0)
        assert report.converged
        assert report.exp_moment_finite
        assert report.exp_moment == pytest.approx(math.exp(0.25), rel=1e-12)

    def test_overflowing_exp_moment_reported(self):
        # exp(60^2 / 4) = e^900 overflows double precision
        report = finite_variance_check(SpectralMeasure(atoms=((60.0, 1.0),)),
                                       P11, 0.0)
        assert report.exp_moment == math.inf
        assert report.exp_moment_finite is False

    def test_alpha_zero_reduces_to_variance_sum(self):
        m = SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7)))
        report = finite_variance_check(m, P11, 0.0)
        assert report.weighted_sum == pytest.approx(4 * math.pi * m.total_mass(),
                                                    rel=1e-10)

    def test_segment_weighted_sum_against_brute_force(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.0),))
        report = finite_variance_check(m, P11, 0.5)
        oracle = 0.0
        for l in range(40):
            integral, _ = quad(lambda mu: sp.jv(l + 0.5, mu) ** 2 / mu, 0, 1,
                               epsabs=1e-14, epsrel=1e-12)
            oracle += (2 * l + 1) ** 2 * 2 * math.pi ** 2 * integral
        assert report.converged
        assert report.weighted_sum == pytest.approx(oracle, rel=1e-7)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            finite_variance_check(ATOM1, P11, 1.5)

    def test_cap_reached_is_inconclusive(self):
        report = finite_variance_check(ATOM1, P11, 1.0, degree_cap=3)
        assert not report.converged


class TestQuadWrapper:
    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(AccuracyError) as err:
            integrate_vector(lambda x: np.atleast_1d(math.cos(1e4 * x)),
                             0.0, 1.0, rtol=1e-13, limit=2)
        assert err.value.estimate is not None


class TestIntegrateMeasure:
    MIXED = SpectralMeasure(atoms=((1.8, 0.7), (2.2, 0.4)),
                            segments=(PowerLawSegment(0.0, 1.5, 1.3, 0.5),
                                      PowerLawSegment(3.0, 4.0, 0.6, -1.0)))
    CUTOFF = 0.8  # inside the first segment

    @staticmethod
    def f(mu):
        """Vector-valued integrand with a kink at the cut-off."""
        rows = [np.cos(mu), np.abs(mu - 0.8) * mu, np.exp(-mu) * mu ** 2]
        return np.stack(rows) if np.ndim(mu) else np.array(rows)

    def test_mixed_measure_against_oracle(self):
        m = self.MIXED
        got = integrate_measure(self.f, m, rtol=1e-12, breakpoints=(self.CUTOFF,))
        assert got.shape == (3,)
        for k in range(3):
            oracle = sum(mass * float(self.f(mu)[k]) for mu, mass in m.atoms)
            for seg in m.segments:
                pts = [self.CUTOFF] if seg.lo < self.CUTOFF < seg.hi else None
                oracle += quad(
                    lambda x: self.f(x)[k] * seg.amplitude * x ** seg.exponent,
                    seg.lo, seg.hi, points=pts, epsabs=0.0, epsrel=1e-13)[0]
            assert got[k] == pytest.approx(oracle, rel=1e-10, abs=1e-14)

    def test_empty_measure_gives_zeros_of_integrand_shape(self):
        got = integrate_measure(self.f, EMPTY)
        assert got.shape == (3,)
        assert np.all(got == 0.0)

    def test_atom_only_measure_skips_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_vector called for an atom-only measure")
        monkeypatch.setattr(_quad, "integrate_vector", forbidden)
        m = SpectralMeasure(atoms=((0.5, 2.0), (1.5, 0.25)))
        got = integrate_measure(self.f, m, breakpoints=(self.CUTOFF,))
        expected = 2.0 * self.f(0.5) + 0.25 * self.f(1.5)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
