import math
import time

import numpy as np
import pytest

from hyperdiff import _quad
from hyperdiff.covariance import (MAX_LAGS, MemoryClass, angular_mse,
                                  covariance_legendre, covariance_spectral,
                                  covariance_time_lags, integrated_abs_covariance,
                                  memory_classify)
from hyperdiff.kernel import transfer
from hyperdiff.measure import DiffusionParams, PowerLawSegment, SpectralMeasure
from hyperdiff.spectrum import angular_spectrum, tail_sum_direct

P11 = DiffusionParams(c=1.0, D=1.0)
ATOM1 = SpectralMeasure(atoms=((1.0, 1.0),))
MIXED = SpectralMeasure(atoms=((0.8, 0.6), (2.5, 0.4)),
                        segments=(PowerLawSegment(3.0, 5.0, 0.5, -1.0),))
# Most of the atom at 5000's variance lies above degree 4096.
ABOVE_CAP = SpectralMeasure(atoms=((1.0, 1.0), (5000.0, 1e-3)))


class TestSpectralRoute:
    def test_gamma_zero_is_total_mass(self):
        for m in [ATOM1, MIXED]:
            assert covariance_spectral(0.0, 0.0, 0.0, m, P11) == pytest.approx(
                m.total_mass(), rel=1e-9)

    def test_antipodal_single_atom(self):
        # sinc(2 mu sin(pi/2)) = sin(2)/2 for mu = 1
        value = covariance_spectral(math.pi, 0.0, 0.0, ATOM1, P11)
        assert value == pytest.approx(math.sin(2.0) / 2.0, rel=1e-13)
        assert value == pytest.approx(0.45465, abs=5e-6)

    def test_antipodal_with_time(self):
        expected = math.sin(2.0) / 2.0 * transfer(1.0, 1.0, P11) ** 2
        assert covariance_spectral(math.pi, 1.0, 1.0, ATOM1, P11) == pytest.approx(
            expected, rel=1e-13)
        assert expected == pytest.approx(0.19787, abs=5e-6)

    def test_quarter_angle(self):
        expected = math.sin(math.sqrt(2.0)) / math.sqrt(2.0)
        assert covariance_spectral(math.pi / 2, 0.0, 0.0, ATOM1, P11) == pytest.approx(
            expected, rel=1e-13)

    def test_symmetry_in_times(self):
        for g in [0.0, 0.4, 2.0]:
            a = covariance_spectral(g, 0.7, 0.2, MIXED, P11)
            b = covariance_spectral(g, 0.2, 0.7, MIXED, P11)
            assert a == pytest.approx(b, rel=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = float(rng.uniform(0, math.pi))
            t = float(rng.uniform(0, 2))
            tp = float(rng.uniform(0, 2))
            lhs = abs(covariance_spectral(g, t, tp, MIXED, P11))
            rhs = math.sqrt(covariance_spectral(0.0, t, t, MIXED, P11)
                            * covariance_spectral(0.0, tp, tp, MIXED, P11))
            assert lhs <= rhs * (1 + 1e-10)

    def test_positive_semidefinite_gram(self):
        rng = np.random.default_rng(37)
        thetas = rng.uniform(0, math.pi, 20)
        phis = rng.uniform(0, 2 * math.pi, 20)
        xyz = np.stack([np.sin(thetas) * np.cos(phis),
                        np.sin(thetas) * np.sin(phis),
                        np.cos(thetas)])
        cosg = np.clip(xyz.T @ xyz, -1.0, 1.0)
        gammas = np.arccos(cosg)
        t = 0.3
        gram = covariance_spectral(gammas.ravel(), t, t, ATOM1, P11).reshape(20, 20)
        eigmin = float(np.linalg.eigvalsh(gram).min())
        assert eigmin >= -1e-8 * np.trace(gram)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            covariance_spectral(-0.1, 0.0, 0.0, ATOM1, P11)
        with pytest.raises(ValueError):
            covariance_spectral(3.5, 0.0, 0.0, ATOM1, P11)
        with pytest.raises(ValueError):
            covariance_spectral(0.5, -1.0, 0.0, ATOM1, P11)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                covariance_spectral(bad, 0.0, 0.0, ATOM1, P11)
            with pytest.raises(ValueError):
                covariance_spectral(np.array([0.5, bad]), 0.0, 0.0, ATOM1, P11)
            with pytest.raises(ValueError):
                covariance_spectral(0.5, bad, 0.0, ATOM1, P11)
            with pytest.raises(ValueError):
                covariance_spectral(0.5, 0.0, bad, ATOM1, P11)
            with pytest.raises(ValueError):
                covariance_legendre(bad, 0.0, 0.0, ATOM1, P11, 8)


class TestLegendreRoute:
    def test_matches_spectral_at_zero(self):
        lc = covariance_legendre(0.0, 0.0, 0.0, ATOM1, P11, 40)
        assert abs(lc.value - covariance_spectral(0.0, 0.0, 0.0, ATOM1, P11)) <= (
            lc.remainder + 1e-9)

    def test_spec_example_quarter_angle(self):
        lc = covariance_legendre(math.pi / 2, 0.0, 0.0, ATOM1, P11, 40)
        assert lc.value == pytest.approx(math.sin(math.sqrt(2)) / math.sqrt(2),
                                         abs=1e-8)

    def test_zero_measure(self):
        lc = covariance_legendre(1.0, 0.0, 0.0, SpectralMeasure(), P11, 10)
        assert lc.value == 0.0
        assert lc.remainder == 0.0

    def test_route_agreement_random_queries(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = float(rng.uniform(0, math.pi))
            t = float(rng.uniform(0, 1.5))
            tp = float(rng.uniform(0, 1.5))
            spectral = covariance_spectral(g, t, tp, MIXED, P11)
            lc = covariance_legendre(g, t, tp, MIXED, P11, 48)
            assert abs(spectral - lc.value) <= lc.remainder + 1e-9
        # One array call equals the per-angle scalar calls.
        gammas = rng.uniform(0, math.pi, 5)
        batch = covariance_legendre(gammas, 0.3, 0.9, MIXED, P11, 48)
        assert batch.value.shape == gammas.shape
        for g, value in zip(gammas, batch.value):
            single = covariance_legendre(float(g), 0.3, 0.9, MIXED, P11, 48)
            assert isinstance(single.value, float)
            assert value == pytest.approx(single.value, rel=1e-13, abs=1e-15)
            assert batch.remainder == single.remainder
        # A 2-D array of angles keeps its shape.
        grid = covariance_legendre(gammas[:4].reshape(2, 2), 0.3, 0.9, MIXED, P11, 48)
        flat = covariance_legendre(gammas[:4], 0.3, 0.9, MIXED, P11, 48)
        assert np.array_equal(grid.value, flat.value.reshape(2, 2))

    def test_needs_terms(self):
        with pytest.raises(ValueError):
            covariance_legendre(0.0, 0.0, 0.0, ATOM1, P11, 0)

    def test_remainder_bounds_tail_above_degree_cap(self, recwarn):
        start = time.perf_counter()
        lc = covariance_legendre(0.3, 0.0, 0.0, ABOVE_CAP, P11, 16)
        elapsed = time.perf_counter() - start
        ls = np.arange(16)
        head = float(np.sum((2 * ls + 1)
                            * angular_spectrum(16, 0.0, 0.0, ABOVE_CAP, P11)))
        # sum_l (2l+1) C_l(0, 0) = 4 pi times the total mass
        tail = (4 * math.pi * ABOVE_CAP.total_mass() - head) / (4 * math.pi)
        assert lc.remainder >= tail * (1 - 1e-9)
        assert elapsed < 1.0
        assert len(recwarn) == 0

    @pytest.mark.parametrize("t, t_prime", [(0.2, 0.9), (1.5, 0.0)])
    def test_remainder_is_cauchy_schwarz_of_tails(self, t, t_prime):
        lc = covariance_legendre(0.4, t, t_prime, MIXED, P11, 12)
        tails = [tail_sum_direct(12, MIXED, P11, s).value for s in (t, t_prime)]
        expected = math.sqrt(tails[0]) * math.sqrt(tails[1]) / (4 * math.pi)
        assert lc.remainder == pytest.approx(expected, rel=1e-12)


class TestAngularMse:
    def test_zero_at_coincident_points(self):
        assert angular_mse(0.0, 0.5, ATOM1, P11, 30) == 0.0

    def test_equals_twice_covariance_deficit(self):
        for g in [0.1, 0.8, 2.5]:
            series = angular_mse(g, 0.4, ATOM1, P11, 60)
            direct = 2 * (covariance_spectral(0.0, 0.4, 0.4, ATOM1, P11)
                          - covariance_spectral(g, 0.4, 0.4, ATOM1, P11))
            assert series == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_hoelder_bound(self, alpha):
        # MSE <= (1/pi) sum (2l+1)^(1+2a) C_l (1 - cos g)^a
        l_count = 60
        for t in [0.0, 0.1]:
            values = angular_spectrum(l_count, t, t, ATOM1, P11)
            ls = np.arange(l_count)
            constant = float(np.sum((2 * ls + 1) ** (1 + 2 * alpha) * values)) / math.pi
            for g in np.geomspace(1e-3, math.pi, 25):
                mse = angular_mse(float(g), t, ATOM1, P11, l_count)
                assert mse <= constant * (1 - math.cos(g)) ** alpha * (1 + 1e-10)

    def test_wave_regime_extra_decay_factor(self):
        # no mass at or below the cut-off: the Hoelder bound gains the factor
        # exp(-c^2 t / D) (1 + c^2 t / 2D)^2
        m = SpectralMeasure(atoms=((0.6, 0.5), (1.5, 0.5)))
        l_count = 60
        alpha = 1.0
        base = angular_spectrum(l_count, 0.0, 0.0, m, P11)
        ls = np.arange(l_count)
        constant = float(np.sum((2 * ls + 1) ** (1 + 2 * alpha) * base)) / math.pi
        for t in [0.3, 1.0, 3.0]:
            a = P11.c ** 2 * t / (2 * P11.D)
            factor = math.exp(-2 * a) * (1 + a) ** 2
            for g in [0.05, 0.5, 2.0]:
                mse = angular_mse(g, t, m, P11, l_count)
                bound = constant * factor * (1 - math.cos(g)) ** alpha
                assert mse <= bound * (1 + 1e-10)

    def test_bounded_support_ratio_bounded(self):
        # MSE/(1-cos g) stays bounded as g -> 0 for bounded-support measures
        l_count = 40
        values = angular_spectrum(l_count, 0.0, 0.0, ATOM1, P11)
        ls = np.arange(l_count)
        limit = float(np.sum((2 * ls + 1) * ls * (ls + 1) * values)) / (2 * math.pi)
        ratios = []
        for g in [1e-1, 1e-2, 1e-3]:
            ratios.append(angular_mse(g, 0.0, ATOM1, P11, l_count) / (1 - math.cos(g)))
        assert all(r <= limit * (1 + 1e-6) for r in ratios)
        assert ratios[0] <= ratios[1] <= ratios[2]  # increases toward the limit


class TestMemory:
    def test_atoms_short_range(self):
        report = memory_classify(ATOM1)
        assert report.classification is MemoryClass.SHORT_RANGE
        assert report.origin_exponent is None

    def test_origin_segment_low_exponent_long_range(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        report = memory_classify(m)
        assert report.classification is MemoryClass.LONG_RANGE
        assert report.origin_exponent == 0.5

    def test_origin_segment_high_exponent_short_range(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 1.5),))
        assert memory_classify(m).classification is MemoryClass.SHORT_RANGE

    def test_boundary_exponent_is_long_range(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 1.0),))
        assert memory_classify(m).classification is MemoryClass.LONG_RANGE

    def test_detached_segment_short_range(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.5, 1.0, 1.0, 0.5),))
        assert memory_classify(m).classification is MemoryClass.SHORT_RANGE

    def test_empty_measure_errors(self):
        with pytest.raises(ValueError):
            memory_classify(SpectralMeasure())


class TestIntegratedAbsCovariance:
    def test_zero_measure(self):
        h, cum = integrated_abs_covariance(0.0, 10.0, SpectralMeasure(), P11)
        assert np.all(cum == 0.0)

    def test_short_range_plateau(self):
        # slow diffusive atom: decay rate ~ D mu^2-ish, plateau by h ~ 2000
        m = SpectralMeasure(atoms=((0.1, 1.0),))
        h, cum = integrated_abs_covariance(0.0, 2000.0, m, P11)
        slope_end = (cum[-1] - cum[-2]) / (h[-1] - h[-2])
        assert slope_end < 1e-8
        assert np.all(np.diff(cum) >= 0.0)

    def test_long_range_keeps_growing(self):
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.5),))
        h, cum = integrated_abs_covariance(0.0, 200.0, m, P11)
        n = len(h)
        late = (cum[-1] - cum[3 * n // 4]) / (h[-1] - h[3 * n // 4])
        # a short-range plateau would have decayed by orders of magnitude here
        assert late > 1e-4

    def test_lags_match_spectral_route(self):
        lags = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        values = covariance_time_lags(0.7, 0.3, lags, MIXED, P11)
        for lag, value in zip(lags, values):
            direct = covariance_spectral(0.7, 0.3 + lag, 0.3, MIXED, P11)
            assert value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n, start, stop", [(1, 0.4, 0.4), (2, 0.0, 3.0),
                                                (7, 0.25, 1.75), (1001, 0.0, 12.0)])
    def test_long_grids_match_spectral_route(self, n, start, stop):
        # coarse times and fine offsets cover each lag once, whatever n is
        m = SpectralMeasure(atoms=((4.5, 0.5),),
                            segments=(PowerLawSegment(0.0, 1.0, 1.0, 0.9),
                                      PowerLawSegment(1.0, 4.0, 0.5, 1.5)))
        p = DiffusionParams(c=1.4, D=0.6)
        lags = np.linspace(start, stop, n)
        values = covariance_time_lags(0.2, 0.6, lags, m, p)
        picks = sorted({0, n - 1, *range(0, n, max(1, n // 12))})
        scale = np.max(np.abs(values))
        for k in picks:
            direct = covariance_spectral(0.2, 0.6 + lags[k], 0.6, m, p)
            assert abs(values[k] - direct) <= 1e-9 * scale

    def test_lags_never_form_node_values(self, monkeypatch):
        # the dense reduction takes every node's value at every lag
        def dense_sums(*args):
            raise AssertionError("time lags went through the dense reduction")
        monkeypatch.setattr(_quad, "_dense_sums", dense_sums)
        values = covariance_time_lags(0.2, 0.6, np.linspace(0.0, 12.0, 1001),
                                      MIXED, P11)
        assert values.shape == (1001,) and np.all(np.isfinite(values))

    def test_lags_bitwise_under_blas_threads(self, run_python_child):
        # 30001 lags make (173 x 42) @ (42 x 174) panel products, whose
        # last bits depended on the BLAS thread count when taken unsplit
        code = (
            "import hashlib, numpy as np\n"
            "from hyperdiff.covariance import covariance_time_lags\n"
            "from hyperdiff.measure import (DiffusionParams, PowerLawSegment,\n"
            "                               SpectralMeasure)\n"
            "m = SpectralMeasure(segments=(PowerLawSegment(0.0, 3.0, 1.0, 0.9),))\n"
            "v = covariance_time_lags(0.0, 0.2, np.linspace(0.0, 15.0, 30001), m,\n"
            "                         DiffusionParams(1.0, 1.0))\n"
            "print(v.size, hashlib.sha256(v.tobytes()).hexdigest())\n")
        digests = []
        for threads in (1, 2):
            proc = run_python_child(code, threads)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0].startswith("30001 ") and digests[0] == digests[1]

    def test_lag_array_shape_kept(self):
        assert covariance_time_lags(0.0, 0.0, np.array([]), MIXED, P11).shape == (0,)
        grid = np.linspace(0.0, 1.0, 6)
        values = covariance_time_lags(0.3, 0.1, grid.reshape(2, 3), MIXED, P11)
        assert values.shape == (2, 3)
        assert np.array_equal(values.ravel(),
                              covariance_time_lags(0.3, 0.1, grid, MIXED, P11))

    @pytest.mark.parametrize("lags", [[0.0, 0.5, 2.0], [2.0, 1.0, 0.0],
                                      [0.0, 1.0, 2.0 + 1e-9], [0.0, -1.0],
                                      [0.0, math.nan], [0.0, math.inf]])
    def test_lags_must_be_even_and_finite(self, lags):
        with pytest.raises(ValueError, match="lags"):
            covariance_time_lags(0.0, 0.0, np.array(lags), ATOM1, P11)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrated_abs_covariance(0.0, -1.0, ATOM1, P11)

    @pytest.mark.parametrize("t, gamma", [(math.nan, 0.0), (-1.0, 0.0),
                                          (0.0, 9.0), (0.0, math.nan)])
    def test_query_checked_on_empty_measure(self, t, gamma):
        # bad input raises even where there is nothing to integrate
        with pytest.raises(ValueError, match="times|angular"):
            integrated_abs_covariance(t, 1.0, SpectralMeasure(), P11, gamma=gamma)

    @pytest.mark.parametrize("h_max, mu", [(5e-324, 1.0), (1e-310, 1.0), (1.0, 1e308)])
    def test_subnormal_lag_step_rejected(self, h_max, mu):
        # 5e-324 / 1e4 is 0.0, 2 pi / (10 c mu) is 0.0 at mu = 1e308, and
        # subnormal lags cannot be evenly spaced
        m = SpectralMeasure(atoms=((mu, 1.0),))
        with pytest.raises(ValueError, match="h_max.*h_step.*smallest normal"):
            integrated_abs_covariance(0.0, h_max, m, P11)

    def test_lag_budget_checked_before_allocating(self, monkeypatch):
        def no_lags(*args, **kwargs):
            raise AssertionError("evaluated the lags")
        monkeypatch.setattr("hyperdiff.covariance.covariance_time_lags", no_lags)
        # The step 2 pi / (10 c mu) of one atom at mu = 2 pi k / 10 is 1 / k.
        def atom_at(k):
            return SpectralMeasure(atoms=((2.0 * math.pi * k / 10.0, 1.0),))
        for h_max, m in ((1e12, ATOM1), (1.0, atom_at(MAX_LAGS)),
                         (1.0, SpectralMeasure(atoms=((1e308, 1.0),)))):
            with pytest.raises(ValueError, match="h_max") as info:
                integrated_abs_covariance(0.0, h_max, m, P11)
            assert "h_step" in str(info.value)
        monkeypatch.undo()
        h, _ = integrated_abs_covariance(0.0, 1.0, atom_at(MAX_LAGS - 1), P11)
        assert h.size == MAX_LAGS
