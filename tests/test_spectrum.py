import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec

from hyperdiff.exceptions import AccuracyError
from hyperdiff import _quad, spectrum
from hyperdiff._quad import integrate_measure, integrate_vector
from hyperdiff.covariance import (covariance_legendre, covariance_spectral,
                                  integrated_abs_covariance)
from hyperdiff.kernel import transfer
from hyperdiff.measure import (DiffusionParams, PowerLawSegment, SpectralMeasure,
                               load_config)
from hyperdiff.spectrum import (angular_spectrum, finite_variance_check,
                                tail_bound_gamma, tail_sum_direct,
                                tail_sum_lommel)

P11 = DiffusionParams(c=1.0, D=1.0)
ATOM1 = SpectralMeasure(atoms=((1.0, 1.0),))
EMPTY = SpectralMeasure()
CONFIGS = Path(__file__).parent.parent / "configs"
# The two shipped configs, two segments plus an atom, a segment at the
# origin, and three atoms, each with its diffusion parameters.
TAIL_MODELS = [
    load_config((CONFIGS / "two_band.json").read_text())[::-1],
    load_config((CONFIGS / "inverse_decay.json").read_text())[::-1],
    (SpectralMeasure(atoms=((0.2, 0.5),),
                     segments=(PowerLawSegment(1.0, 3.0, 0.4, 1.0),
                               PowerLawSegment(4.0, 6.0, 0.2, -0.5))), P11),
    (SpectralMeasure(segments=(PowerLawSegment(0.0, 2.0, 1.0, 0.5),)), P11),
    (SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7), (9.0, 1.1))), P11),
]


def brute_tail(l_start: int, mu: float, l_stop: int = 80) -> float:
    """Independent oracle: sum (2l+1) J_{l+1/2}(mu)^2 via scipy."""
    ls = np.arange(l_start, l_stop + 1)
    return float(np.sum((2 * ls + 1) * sp.jv(ls + 0.5, mu) ** 2))


class TestCl:
    def test_single_atom_closed_form(self):
        # C_0(0,0) = 2 pi^2 J_{1/2}(1)^2 = 4 pi sin^2(1) = 8.89791...
        expected = 4.0 * math.pi * math.sin(1.0) ** 2
        c0 = angular_spectrum(1, 0.0, 0.0, ATOM1, P11)[0]
        assert c0 == pytest.approx(expected, rel=1e-12)
        oracle = 2 * math.pi ** 2 * sp.jv(0.5, 1.0) ** 2
        assert c0 == pytest.approx(oracle, rel=1e-10)

    def test_initial_time_kernel_drops_out(self):
        m = SpectralMeasure(atoms=((0.7, 0.2), (3.0, 1.4), (12.0, 0.5)))
        for l in [0, 1, 5, 11]:
            oracle = 2 * math.pi ** 2 * sum(
                sp.jv(l + 0.5, mu) ** 2 / mu * mass for mu, mass in m.atoms
            )
            assert angular_spectrum(l + 1, 0.0, 0.0, m, P11)[l] == pytest.approx(oracle,
                                                                               rel=1e-10)

    def test_single_atom_product_structure(self):
        expected = angular_spectrum(1, 0.0, 0.0, ATOM1, P11)[0] * transfer(1.0, 1.0, P11) ** 2
        c0 = angular_spectrum(1, 1.0, 1.0, ATOM1, P11)[0]
        assert c0 == pytest.approx(expected, rel=1e-12)
        assert c0 == pytest.approx(3.8723, abs=5e-4)

    def test_segment_against_scipy_quad(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        for l, t, tp in [(0, 0.0, 0.0), (2, 0.3, 0.0), (4, 1.0, 0.5)]:
            oracle, _ = quad(
                lambda mu: sp.jv(l + 0.5, mu) ** 2 / mu
                * transfer(mu, t, P11) * transfer(mu, tp, P11) * mu ** 0.5,
                0.0, 1.0, points=[0.5], epsabs=1e-13, epsrel=1e-12)
            assert angular_spectrum(l + 1, t, tp, m, P11)[l] == pytest.approx(
                2 * math.pi ** 2 * oracle, rel=1e-8)

    def test_values_nonnegative_equal_times(self):
        m = SpectralMeasure(atoms=((0.3, 0.5), (2.0, 1.0)),
                            segments=(PowerLawSegment(4.0, 6.0, 0.2, -1.0),))
        for t in [0.0, 0.7, 3.0]:
            values = angular_spectrum(24, t, t, m, P11)
            assert np.all(values >= 0.0)
            assert np.all(np.isfinite(values))

    def test_time_arrays_match_scalar_calls(self):
        # The cut-off 1/2 lies inside the segment. One call's tolerance is
        # relative to its largest row, and the t = 20 row is 60 times smaller
        # than the t = 0 row, so each row is held to 1e-9 of its own maximum.
        m = SpectralMeasure(atoms=((4.0, 0.7),),
                            segments=(PowerLawSegment(0.1, 3.0, 0.8, 0.5),))
        times = np.array([0.0, 1.0, 5.0, 20.0])
        pairs = angular_spectrum(16, times, times[::-1], m, P11)
        assert pairs.shape == (4, 16)
        for row, t, tp in zip(pairs, times, times[::-1]):
            single = angular_spectrum(16, t, tp, m, P11)
            assert single.shape == (16,)
            assert np.max(np.abs(row - single)) <= 1e-9 * np.max(np.abs(single))
        diagonal = angular_spectrum(16, times, times, m, P11)
        for row, t in zip(diagonal, times):
            single = angular_spectrum(16, t, t, m, P11)
            assert np.max(np.abs(row - single)) <= 1e-9 * np.max(single)

    def test_empty_measure(self):
        assert angular_spectrum(4, 0.5, 0.5, EMPTY, P11)[3] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            angular_spectrum(0, 0.0, 0.0, ATOM1, P11)
        for t in (-1.0, math.nan, math.inf, [0.0, -1.0]):
            with pytest.raises(ValueError):
                angular_spectrum(4, t, t, ATOM1, P11)
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

    @pytest.mark.parametrize("model", TAIL_MODELS,
                             ids=["two_band", "inverse_decay", "segments_atom",
                                  "origin_segment", "atoms"])
    @pytest.mark.parametrize("l_start", [5, 16, 24, 40, 128])
    def test_lommel_at_every_time_matches_direct(self, model, l_start):
        measure, params = model
        times = np.array([0.0, 0.05, 0.7, 3.0])
        closed = tail_sum_lommel(l_start, measure, params, times)
        direct = [tail_sum_direct(l_start, measure, params, t).value for t in times]
        # Tails below the normal float range (3.6e-313 for the segments at
        # L = 128) carry no relative precision.
        np.testing.assert_allclose(closed, direct, rtol=1e-12, atol=1e-300)

    def test_lommel_time_argument(self):
        m = SpectralMeasure(atoms=((0.5, 0.3), (2.0, 0.7)))
        both = tail_sum_lommel(3, m, P11, np.array([0.0, 0.5]))
        single = tail_sum_lommel(3, m, P11, 0.5)
        assert both.shape == (2,) and isinstance(single, float)
        assert single == both[1]
        assert tail_sum_lommel(3, m, P11) == both[0]
        for bad in (-0.1, math.nan, math.inf, [0.0, -1.0]):
            with pytest.raises(ValueError):
                tail_sum_lommel(3, m, P11, bad)

    def test_lommel_requires_positive_degree(self):
        with pytest.raises(ValueError):
            tail_sum_lommel(0, ATOM1, P11)

    def test_cap_warning(self, monkeypatch):
        monkeypatch.setattr(spectrum, "DEFAULT_DEGREE_CAP", 3)
        with pytest.warns(UserWarning):
            result = tail_sum_direct(0, ATOM1, P11, 0.0)
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
                            * angular_spectrum(64, 0.0, 0.0, m, P11)))
        for t, tp in [(0.1, 0.4), (0.5, 2.0), (3.0, 0.0)]:
            total = float(np.sum((2 * ls + 1)
                                 * angular_spectrum(64, t, tp, m, P11)))
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

    @pytest.mark.parametrize("l_start", [120, 200])
    def test_segment_far_above_one(self, l_start):
        # 50.0 ** 245 raised OverflowError, and at L = 200 the prefactor alone
        # underflows to 0.
        m = SpectralMeasure(segments=(PowerLawSegment(1.0, 50.0, 1.0, 0.0),))
        with mp.workdps(40):
            pref = 2 * mp.pi ** 2 / (mp.mpf(2) ** (2 * l_start - 3)
                                     * mp.gamma(l_start - mp.mpf(1) / 2) ** 2)
            oracle = pref * (mp.mpf(50) ** (2 * l_start + 5) - 1) / (2 * l_start + 5)
        assert tail_bound_gamma(l_start, m, P11) == pytest.approx(float(oracle), rel=1e-12)

    def test_heavy_atom_far_above_one(self):
        # exp(exponent) * mass raised OverflowError; the bound is finite
        l_start, mu, mass = 100, 1e4, 1e-200
        m = SpectralMeasure(atoms=((mu, mass),))
        with mp.workdps(40):
            pref = 2 * mp.pi ** 2 / (mp.mpf(2) ** (2 * l_start - 3)
                                     * mp.gamma(l_start - mp.mpf(1) / 2) ** 2)
            oracle = pref * mp.mpf(mass) * mp.mpf(mu) ** (2 * l_start + 4)
        assert tail_bound_gamma(l_start, m, P11) == pytest.approx(float(oracle), rel=1e-12)

    def test_overflow_is_inf(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 50.0, 1.0, 300.0),))
        assert tail_bound_gamma(2, m, P11) == math.inf

    def test_zero_measure(self):
        assert tail_bound_gamma(2, EMPTY, P11) == 0.0

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            tail_bound_gamma(1, ATOM1, P11)
        # a non-integer degree used to give a number (4.93 at 2.5)
        for l_start in (2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="degree"):
                tail_bound_gamma(l_start, ATOM1, P11)


class TestSupportGapDecay:
    def test_gap_measure_decay(self):
        # all mass at mu >= delta inside the diffusive range
        delta = 0.3
        m = SpectralMeasure(atoms=((0.3, 0.4), (0.35, 0.3), (0.45, 0.3)))
        const = (1.0 + 1.0 / math.sqrt(1.0 - 4.0 * delta ** 2)) ** 2
        base = angular_spectrum(30, 0.0, 0.0, m, P11)
        for t in [0.5, 1.0, 5.0]:
            values = angular_spectrum(30, t, t, m, P11)
            envelope = const * math.exp(-2.0 * delta ** 2 * t) * base
            assert np.all(values <= envelope * (1 + 1e-10))

    def test_pure_wave_decay(self):
        # no mass at or below the cut-off
        m = SpectralMeasure(atoms=((0.6, 0.5), (1.0, 0.3), (2.0, 0.2)))
        base = angular_spectrum(30, 0.0, 0.0, m, P11)
        for t in [0.5, 1.0, 5.0]:
            a = P11.c ** 2 * t / (2 * P11.D)
            envelope = (1 + a) ** 2 * math.exp(-2 * a) * base
            values = angular_spectrum(30, t, t, m, P11)
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

    def test_overflowing_segment_moment_reported(self, monkeypatch):
        # exp(mu^2 / 4) overflows from mu ~ 53.3 on; no warning, no AccuracyError
        monkeypatch.setattr(spectrum, "DEFAULT_DEGREE_CAP", 4)
        seg = SpectralMeasure(segments=(PowerLawSegment(50.0, 60.0, 1.0, 0.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = finite_variance_check(seg, P11, 0.5)
        assert report.exp_moment == math.inf
        assert report.exp_moment_finite is False

    def test_tiny_amplitude_moment_beyond_overflow_point(self, monkeypatch):
        # the atom and the segment contribute about 4e41 each
        monkeypatch.setattr(spectrum, "DEFAULT_DEGREE_CAP", 4)
        m = SpectralMeasure(atoms=((56.5, 1e-305),),
                            segments=(PowerLawSegment(50.0, 56.0, 1e-300, 1.5),))
        report = finite_variance_check(m, P11, 0.5)
        with mp.workdps(40):
            oracle = (mp.mpf(1e-305) * mp.exp(mp.mpf(56.5) ** 2 / 4) + mp.mpf(1e-300)
                      * mp.quad(lambda x: x ** 1.5 * mp.exp(x * x / 4), [50, 53, 56]))
        assert report.exp_moment_finite
        assert report.exp_moment == pytest.approx(float(oracle), rel=1e-9)

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

    def test_cap_reached_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(spectrum, "DEFAULT_DEGREE_CAP", 3)
        report = finite_variance_check(ATOM1, P11, 1.0)
        assert not report.converged


def rank2_integrand(rng, kink):
    """A random (J, B) integrand of rank 2 with a kink at `kink`, as the
    factor pair (rows, cols) and as one dense array with nodes last."""
    n_rows, n_cols = (int(n) for n in rng.integers(1, 7, size=2))
    left, right = rng.normal(size=(n_rows, 2)), rng.normal(size=(2, n_cols))
    freq, rate = rng.uniform(0.5, 6.0, size=2), rng.uniform(0.0, 2.0, size=2)

    def factors(x):
        rows = np.stack([np.cos(freq[0] * x), np.abs(x - kink) ** 1.5], axis=-1)
        cols = np.stack([np.exp(-rate[0] * x), np.sin(freq[1] * x) + rate[1]], axis=-1)
        return left * rows[:, None, :], cols[:, :, None] * right

    def dense(x):
        rows, cols = factors(x)
        return np.moveaxis(rows @ cols, 0, -1)
    return factors, dense


class TestQuadWrapper:
    def test_nonconvergence_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(_quad, "_MAX_PANELS", 2)
        with pytest.raises(AccuracyError) as err:
            integrate_vector(lambda x: np.cos(1e4 * x)[None, :],
                             0.0, 1.0, rtol=1e-13)
        assert err.value.estimate is not None

    @staticmethod
    def nan_in_call(values, nan_call: int):
        """An integrand whose node-carrying call number nan_call (from 1) gets
        a NaN at its first node; the probe, with zero nodes, is not counted.
        Returns it and the list of node counts of those calls."""
        calls = []

        def f(x):
            result = values(x)
            if x.size:
                calls.append(x.size)
                if len(calls) == nan_call:
                    (result[0] if isinstance(result, tuple) else result)[0] = np.nan
            return result
        return f, calls

    @staticmethod
    def cos_factors(freq):
        def factors(x):
            rows = np.stack([np.cos(freq * x), np.sin(freq * x)], axis=-1)[:, None, :]
            return rows, np.ones((x.size, 2, 3))
        return factors

    def test_nan_at_one_node_raises(self):
        # cos converges on the first round, so its first call gets the NaN
        f, calls = self.nan_in_call(np.cos, 1)
        with pytest.raises(AccuracyError) as err:
            integrate_vector(f, 0.0, 1.0)
        assert calls[0] == 21
        assert not math.isfinite(err.value.error)

    def test_nan_in_factors_raises(self):
        f, calls = self.nan_in_call(self.cos_factors(1.0), 1)
        with pytest.raises(AccuracyError) as err:
            integrate_vector(f, 0.0, 1.0)
        assert calls[0] == 21
        assert not math.isfinite(err.value.error)

    @pytest.mark.parametrize("factored", [False, True])
    def test_nan_in_a_later_round_raises(self, factored):
        # cos(40 x) on [0, 1] takes three rule calls (four when factored), and
        # the third gets the NaN: a round after bisection must not converge
        # on it either.
        values = self.cos_factors(40.0) if factored else (lambda x: np.cos(40.0 * x))
        f, calls = self.nan_in_call(values, 3)
        with pytest.raises(AccuracyError) as err:
            integrate_vector(f, 0.0, 1.0)
        assert len(calls) == 3
        assert not math.isfinite(err.value.error)

    def test_one_rule_call_when_the_first_round_converges(self, monkeypatch):
        counts = TestOriginSegments.count_rule_calls(monkeypatch)
        got = integrate_vector(lambda x: x[None, :] ** 3, 0.0, 1.0, breakpoints=(0.5,))
        assert counts == {"calls": 1, "panels": 2}
        assert got[0] == pytest.approx(0.25, rel=1e-15)

    def test_initial_panels_at_the_limit_still_converge(self, monkeypatch):
        # Two breakpoint panels reach the limit of 2 before any bisection.
        monkeypatch.setattr(_quad, "_MAX_PANELS", 2)
        got = integrate_vector(lambda x: x[None, :] ** 3, 0.0, 1.0,
                               breakpoints=(0.5,))
        assert got[0] == pytest.approx(0.25, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), split=st.booleans())
    def test_factored_rule_matches_dense_rule(self, seed, split):
        # the kink sits on a breakpoint inside the segment, or outside it
        rng = np.random.default_rng(seed)
        lo = float(rng.uniform(0.0, 2.0))
        hi = lo + float(rng.uniform(0.5, 5.0))
        kink = float(rng.uniform(lo, hi)) if split else lo - 1.0
        factors, dense = rank2_integrand(rng, kink)
        got = integrate_vector(factors, lo, hi, breakpoints=(kink,))
        expected = integrate_vector(dense, lo, hi, breakpoints=(kink,))
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_kink_at_breakpoint_against_quad_vec(self):
        powers = np.arange(6.0)[:, None]

        def f(x):
            return np.abs(x - 0.3) ** 0.5 * x ** powers + np.sin(7.0 * x)
        got = integrate_vector(f, 0.0, 2.0, breakpoints=(0.3,), rtol=1e-12)
        oracle, _ = quad_vec(lambda x: f(np.array([x]))[:, 0], 0.0, 2.0,
                             epsrel=1e-12, norm="max", points=[0.3])
        assert got.shape == (6,)
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_wide_output_against_quad_vec(self):
        lags = np.linspace(0.0, 15.0, 10_000)[:, None]

        def f(x):
            return np.cos(lags * x) * np.exp(-x) * x ** 0.4
        got = integrate_vector(f, 0.0, 3.0, breakpoints=(1.1,))
        oracle, _ = quad_vec(lambda x: f(np.array([x]))[:, 0], 0.0, 3.0,
                             epsrel=1e-9, epsabs=1e-15, norm="max", points=[1.1])
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_calls_stay_within_the_element_budget(self):
        # past the budget a call still carries one whole panel, not one node
        budget = _quad._VALUES_PER_CALL
        assert 21 * 60_000 > budget
        for width in (1, 7, 21_845, 60_000):
            rows = np.arange(width, dtype=float)[:, None] / width
            sizes = []

            def f(x):
                sizes.append(x.size)
                return np.exp(-rows * x) * np.sqrt(x)
            integrate_vector(f, 0.0, 2.0, breakpoints=(0.5,))
            assert sizes[0] == 0  # the probe carries no nodes
            calls = sizes[1:]
            assert calls and all(n % 21 == 0 for n in calls)
            assert max(calls) * width <= max(21 * width, budget)
            if 21 * width > budget:
                assert set(calls) == {21}


class TestSerialMatmul:
    # (M, K, N): split along b's columns; one row, as GEMVs; a single column
    # over the budget, so along a's rows as well; within the budget, whole.
    @pytest.mark.parametrize("m, k, n", [(16, 200, 401), (1, 1000, 500),
                                         (700, 400, 3), (4, 5, 6)])
    def test_matches_matmul(self, m, k, n):
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal((2, k, m)).swapaxes(1, 2), rng.standard_normal((k, n))
        got = _quad.serial_matmul(a, b)
        assert got.shape == (2, m, n)
        np.testing.assert_allclose(got, a @ b, rtol=0.0, atol=1e-13 * k)


class TestIntegrateMeasure:
    MIXED = SpectralMeasure(atoms=((1.8, 0.7), (2.2, 0.4)),
                            segments=(PowerLawSegment(0.0, 1.5, 1.3, 0.5),
                                      PowerLawSegment(3.0, 4.0, 0.6, -1.0)))
    CUTOFF = 0.8  # inside the first segment

    @staticmethod
    def f(mu):
        """Vector-valued integrand with a kink at the cut-off."""
        return np.stack([np.cos(mu), np.abs(mu - 0.8) * mu, np.exp(-mu) * mu ** 2])

    def test_mixed_measure_against_oracle(self):
        m = self.MIXED
        got = integrate_measure(self.f, m, rtol=1e-12, breakpoints=(self.CUTOFF,))
        assert got.shape == (3,)
        for k in range(3):
            oracle = sum(mass * float(self.f(np.array([mu]))[k, 0])
                         for mu, mass in m.atoms)
            for seg in m.segments:
                pts = [self.CUTOFF] if seg.lo < self.CUTOFF < seg.hi else None
                oracle += quad(
                    lambda x: (self.f(np.array([x]))[k, 0]
                               * seg.amplitude * x ** seg.exponent),
                    seg.lo, seg.hi, points=pts, epsabs=0.0, epsrel=1e-13)[0]
            assert got[k] == pytest.approx(oracle, rel=1e-10, abs=1e-14)

    def test_factored_integrand_matches_dense(self):
        # atoms summed exactly from the factors, segments by the factored rule
        factors, dense = rank2_integrand(np.random.default_rng(7), self.CUTOFF)
        got = integrate_measure(factors, self.MIXED, breakpoints=(self.CUTOFF,))
        expected = integrate_measure(dense, self.MIXED, breakpoints=(self.CUTOFF,))
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))
        empty = integrate_measure(factors, EMPTY)
        assert empty.shape == expected.shape and np.all(empty == 0.0)

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
        expected = self.f(np.array([0.5, 1.5])) @ np.array([2.0, 0.25])
        np.testing.assert_allclose(got, expected, rtol=1e-15)


class TestOriginSegments:
    """Segments A mu^a on [0, hi]: graded toward 0, the panel at 0 taken where
    the density is constant. The oracle is QUADPACK's QAWS (scipy's
    weight='alg') below the cut-off and plain quad above it."""

    P = DiffusionParams(c=1.0, D=2.0)  # cut-off 0.25, inside [0, 3]

    @classmethod
    def oracle(cls, g, a):
        """Integral of g(mu) mu^a over [0, 3]."""
        cut = cls.P.cutoff
        below, _ = quad(g, 0.0, cut, weight="alg", wvar=(a, 0.0),
                        epsabs=0.0, epsrel=1e-13)
        above, _ = quad(lambda mu: g(mu) * mu ** a, cut, 3.0, epsabs=0.0,
                        epsrel=1e-13, limit=200)
        return below + above

    @classmethod
    def spectrum_integrand(cls, t, ls, weights=1.0):
        """2 pi^2 times the sum over ls of weights J_{l+1/2}(mu)^2 / mu, times
        h(mu, t)^2, written as (2/pi) j_l(mu)^2, which is finite at mu = 0."""
        return lambda mu: (4 * math.pi * np.sum(weights * sp.spherical_jn(ls, mu) ** 2)
                           * transfer(mu, t, cls.P) ** 2)

    @classmethod
    def covariance_integrand(cls, gamma, t, tp):
        chord = 2.0 * math.sin(gamma / 2.0)
        return lambda mu: (np.sinc(chord * mu / math.pi)
                           * transfer(mu, t, cls.P) * transfer(mu, tp, cls.P))

    @pytest.mark.parametrize("a", [-0.6, -0.2, 0.5, 1.5])
    def test_against_qaws(self, a):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, a),))
        t, tp = 0.2, 0.5
        for l in (0, 3):
            expected = self.oracle(self.spectrum_integrand(t, l), a)
            assert angular_spectrum(l + 1, t, t, m, self.P)[l] == pytest.approx(expected,
                                                                              rel=1e-8)
        gammas = np.array([0.3, 2.0])
        got = covariance_spectral(gammas, t, tp, m, self.P)
        for gamma, value in zip(gammas, got):
            expected = self.oracle(self.covariance_integrand(gamma, t, tp), a)
            assert value == pytest.approx(expected, rel=1e-8)
        ls = np.arange(3, 81)
        expected = self.oracle(self.spectrum_integrand(t, ls, 2 * ls + 1), a)
        assert tail_sum_lommel(3, m, self.P, t) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("a", [-0.99, -0.999])
    def test_exponent_near_minus_one(self, a):
        # Most of the mass lies below any panel bisection could reach; at
        # -0.99 the spectrum used to overflow at subnormal nodes.
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, a),))
        expected = self.oracle(self.spectrum_integrand(0.2, 0), a)
        assert angular_spectrum(1, 0.2, 0.2, m, self.P)[0] == pytest.approx(expected,
                                                                          rel=1e-8)
        if a == -0.99:
            assert expected == pytest.approx(1258.6862203559247, rel=1e-12)
        expected = self.oracle(self.covariance_integrand(0.5, 0.2, 0.2), a)
        got = covariance_spectral(0.5, 0.2, 0.2, m, self.P)
        assert got == pytest.approx(expected, rel=1e-8)
        values = angular_spectrum(9, 0.2, 0.2, m, self.P)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    @staticmethod
    def count_rule_calls(monkeypatch):
        counts = {"calls": 0, "panels": 0}
        real = _quad._gk21

        def counting(f, lo, hi, *args):
            counts["calls"] += 1
            counts["panels"] += lo.size
            return real(f, lo, hi, *args)
        monkeypatch.setattr(_quad, "_gk21", counting)
        return counts

    def test_a_few_rounds_at_negative_exponent(self, monkeypatch):
        # Bisection alone reaches mu = 0 one panel per round: 79 rule calls
        # for the spectrum and 107 for the Legendre route at a = -0.6.
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, -0.6),))
        counts = self.count_rule_calls(monkeypatch)
        times = np.array([0.0, 0.5])
        angular_spectrum(24, times, times, m, self.P)
        assert counts["calls"] <= 10
        counts["calls"] = 0
        covariance_legendre(np.linspace(0.0, 3.0, 6), 0.2, 0.2, m, self.P, 32)
        assert counts["calls"] <= 10

    def test_memory_job_evaluates_no_more_panels(self, monkeypatch):
        # A memory job's cost is panels times lags. Bisection alone took 18
        # panels here, in 9 rounds.
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, 0.9),))
        counts = self.count_rule_calls(monkeypatch)
        grid, _ = integrated_abs_covariance(0.2, 15.0, m, DiffusionParams(1.0, 1.0 / 3.0))
        assert grid.size == 10_001
        assert counts["panels"] <= 18
