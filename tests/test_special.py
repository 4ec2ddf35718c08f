import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hyperdiff.special import (_sph_jn_downward, bessel_half_all, legendre_all,
                               norm_plm_blocks, sph_harm_all)


def bessel_half(l: int, x: float) -> float:
    """J_{l+1/2}(x), one order of bessel_half_all."""
    return float(bessel_half_all(l, x)[l])


def bessel_half_derivative(l: int, x: float) -> float:
    """d/dx J_{l+1/2}(x) = (J_{l-1/2}(x) - J_{l+3/2}(x)) / 2 from
    bessel_half_all, with J_{-1/2}(x) = sqrt(2/(pi x)) cos(x)."""
    upper = bessel_half_all(l + 1, x)
    lower = math.sqrt(2.0 / (math.pi * x)) * math.cos(x) if l == 0 else upper[l - 1]
    return 0.5 * (float(lower) - float(upper[l + 1]))


def sph_harm(l: int, m: int, theta: float, phi: float) -> complex:
    """Y_lm(theta, phi), one entry of sph_harm_all."""
    return complex(sph_harm_all(l + 1, theta, phi)[l, l + m])


def bessel_series(nu: float, x: float, terms: int = 60) -> float:
    """Independent power-series evaluation of J_nu(x) (small/moderate x)."""
    total = 0.0
    for n in range(terms):
        term = ((-1) ** n / math.exp(math.lgamma(n + 1) + math.lgamma(n + nu + 1))
                * (x / 2.0) ** (2 * n + nu))
        total += term
    return total


def bessel_poisson(nu: float, x: float) -> float:
    """Poisson-integral evaluation of J_nu(x), nu >= 1/2.

    Done in extended precision: the prefactor is huge and the integral tiny
    for large order/argument, which float64 quadrature cannot resolve.
    """
    with mp.workdps(50):
        num = mp.mpf(nu)
        xm = mp.mpf(x)
        pref = 2 * (xm / 2) ** num / (mp.sqrt(mp.pi) * mp.gamma(num + mp.mpf("0.5")))
        integral = mp.quad(lambda t: (1 - t * t) ** (num - mp.mpf("0.5"))
                           * mp.cos(xm * t), [0, 1])
        return float(pref * integral)


# closed forms for the first few half-integer orders, evaluated in extended
# precision so their small-x cancellation does not pollute the oracle
def closed_form(l: int, x: float) -> float:
    with mp.workdps(40):
        xm = mp.mpf(x)
        s, c = mp.sin(xm), mp.cos(xm)
        pref = mp.sqrt(2.0 / (mp.pi * xm))
        if l == 0:
            value = pref * s
        elif l == 1:
            value = pref * (s / xm - c)
        elif l == 2:
            value = pref * ((3.0 / xm ** 2 - 1.0) * s - 3.0 / xm * c)
        elif l == 3:
            value = pref * ((15.0 / xm ** 3 - 6.0 / xm) * s
                            - (15.0 / xm ** 2 - 1.0) * c)
        else:
            raise ValueError(l)
        return float(value)


@st.composite
def order_and_argument(draw):
    """l in 0..500 and x in (0, 1e4], two draws in five within 10% of the
    turning point x = l + 1/2."""
    l = draw(st.integers(0, 500))
    if draw(st.integers(0, 4)) < 2:
        return l, min(draw(st.floats(0.9, 1.1)) * (l + 0.5), 1e4)
    return l, draw(st.floats(0.0, 1e4, exclude_min=True))


class TestBesselHalf:
    def test_spec_value_l0(self):
        assert bessel_half(0, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * math.sin(1.0),
                                                    rel=1e-14)
        assert bessel_half(0, 1.0) == pytest.approx(0.6714, abs=5e-5)

    def test_spec_value_l1(self):
        expected = math.sqrt(2 / (math.pi * 2.0)) * (math.sin(2.0) / 2.0 - math.cos(2.0))
        assert bessel_half(1, 2.0) == pytest.approx(expected, rel=1e-14)
        assert bessel_half(1, 2.0) == pytest.approx(bessel_series(1.5, 2.0), rel=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 40, 200])
    def test_zero_argument(self, l):
        assert bessel_half(l, 0.0) == 0.0

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_closed_forms_low_orders(self, l):
        for x in np.linspace(0.05, 50.0, 173):
            expected = closed_form(l, float(x))
            assert bessel_half(l, float(x)) == pytest.approx(
                expected, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_against_scipy_high_orders(self, x):
        mine = bessel_half_all(200, x)
        ref = sp.jv(np.arange(201) + 0.5, x)
        envelope = np.max(np.abs(ref))
        for l in range(201):
            if abs(ref[l]) > 1e-240:
                # near zeros of J only envelope-relative accuracy is meaningful
                tol = 1e-10 * max(abs(ref[l]), 1e-8 * envelope)
                assert abs(mine[l] - ref[l]) <= tol, (l, x)
            else:
                assert abs(mine[l]) < 1e-230

    def test_against_series_small_x(self):
        for l in [0, 1, 4, 9]:
            for x in [1e-4, 1e-3, 0.01, 0.5, 2.0]:
                assert bessel_half(l, x) == pytest.approx(
                    bessel_series(l + 0.5, x), rel=1e-11, abs=1e-300)

    def test_recurrence_regions_against_poisson_integral(self):
        # both recurrence directions agree with the Poisson integral across
        # the upward, downward, and transition regions of 0..100 x {0.1..100}
        for l in [0, 1, 2, 5, 10, 20, 35, 50, 75, 100]:
            for x in [0.1, 1.0, 10.0, 100.0]:
                pref_log = (l + 0.5) * math.log(x / 2.0) - math.lgamma(l + 1.5)
                if pref_log < -500:
                    continue  # value below float range; both sides are 0
                expected = bessel_poisson(l + 0.5, x)
                assert bessel_half(l, x) == pytest.approx(expected, rel=1e-8,
                                                          abs=1e-13), (l, x)

    @settings(max_examples=1000, deadline=None)
    @given(case=order_and_argument())
    @example(case=(50, 1.4e-4))  # worst relative error of a 3,400-sample scan
    @example(case=(332, 365.7))  # worst envelope error of that scan
    @example(case=(0, 5e-324))  # 2x/pi is subnormal
    def test_order_against_mpmath(self, case):
        l, x = case
        got = float(bessel_half_all(l, x)[l])
        with mp.workdps(40):
            ref = float(mp.besselj(l + mp.mpf(1) / 2, mp.mpf(x)))
        if l + 0.5 <= x:
            assert abs(got - ref) <= 1e-13 * math.sqrt(2.0 / (math.pi * x))
        elif abs(ref) >= 1e-290:
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_batch_with_strides_and_rescales_against_mpmath(self):
        # One downward recurrence over all 25 arguments: its overflow test
        # runs once every 10 steps (set by x = 2e-3), and the small arguments
        # rescale many times. The reference runs the upward recurrence from
        # the closed forms of j_0 and j_1 at 700 digits; it loses about
        # log10(1 / (x^2 (2l+1) j_l^2)) < 590 of them where J >= 1e-290.
        xs = np.geomspace(2e-3, 500.0, 25)
        got = bessel_half_all(600, xs)
        with mp.workdps(700):
            for x, column in zip(xs, got.T):
                xm = mp.mpf(float(x))
                j_prev, j = mp.sin(xm) / xm, mp.sin(xm) / xm ** 2 - mp.cos(xm) / xm
                for l in range(601):
                    ref = float(mp.sqrt(2 * xm / mp.pi) * j_prev)
                    if l + 0.5 <= x:
                        assert abs(column[l] - ref) <= 1e-13 * math.sqrt(2.0 / (math.pi * x))
                    elif abs(ref) >= 1e-290:
                        assert abs(column[l] - ref) <= 1e-12 * abs(ref), (l, x)
                    else:
                        break  # J_{l+1/2}(x) only falls from here on
                    j_prev, j = j, (2 * l + 3) / xm * j - j_prev

    def test_rescale_step_changes_no_bit(self):
        # Both batches start at the same order, but x = 2e-3 tests for
        # overflow every 10 steps and x = 0.5 every 17, so the column at x = 5
        # is rescaled at other steps; an exact power of two makes that moot.
        a = _sph_jn_downward(600, np.array([0.002, 5.0]))[:, 1]
        b = _sph_jn_downward(600, np.array([0.5, 5.0]))[:, 1]
        assert np.array_equal(a, b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_half_all(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_half_all(10001, 1.0)
        with pytest.raises(ValueError):
            bessel_half_all(2, -0.5)
        with pytest.raises(ValueError):
            bessel_half_all(2, 2.0e5)
        with pytest.raises(ValueError, match="argument x"):
            bessel_half_all(3, math.nan)


class TestBesselHalfDerivative:
    def test_l0_closed_form(self):
        j_neg = math.sqrt(2 / math.pi) * math.cos(1.0)
        j_32 = closed_form(1, 1.0)
        expected = 0.5 * (j_neg - j_32)
        assert bessel_half_derivative(0, 1.0) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.0954, abs=5e-5)

    @pytest.mark.parametrize("l,x", [(0, 1.0), (1, 0.7), (2, 5.0), (7, 3.3),
                                     (20, 18.0)])
    def test_finite_difference(self, l, x):
        h = 1e-5
        fd = (bessel_half(l, x + h) - bessel_half(l, x - h)) / (2 * h)
        assert abs(bessel_half_derivative(l, x) - fd) <= 1e-6

    def test_recurrence_identity(self):
        # J'_nu = J_{nu-1} - (nu/x) J_nu
        nu, x = 2.5, 5.0
        expected = bessel_half(1, x) - nu / x * bessel_half(2, x)
        assert bessel_half_derivative(2, x) == pytest.approx(expected, rel=1e-10)


class TestLegendre:
    def test_low_degrees(self):
        assert legendre_all(0, 0.3)[0] == 1.0
        assert legendre_all(1, -0.4)[1] == -0.4
        assert legendre_all(2, 0.5)[2] == pytest.approx(-0.125, rel=1e-15)

    def test_bounded_and_unit_at_one(self):
        xs = np.linspace(-1, 1, 201)
        values = legendre_all(60, xs)
        assert np.max(np.abs(values)) <= 1.0 + 1e-12
        assert legendre_all(60, 1.0)[:, ] == pytest.approx(np.ones(61))

    def test_against_scipy(self):
        xs = np.linspace(-1, 1, 41)
        mine = legendre_all(40, xs)
        for l in range(41):
            assert np.allclose(mine[l], sp.eval_legendre(l, xs), atol=1e-12)

    def test_orthogonality(self):
        # Gauss-Legendre with 41 nodes integrates P_l P_l' exactly for l <= 20
        nodes, weights = np.polynomial.legendre.leggauss(41)
        values = legendre_all(20, nodes)
        gram = (values * weights) @ values.T
        expected = np.diag(2.0 / (2 * np.arange(21) + 1))
        assert np.max(np.abs(gram - expected)) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_all(3, 1.5)
        with pytest.raises(ValueError, match="argument x"):
            legendre_all(3, math.nan)


class TestNormPlm:
    def test_rows_match_scipy(self):
        # sin(theta) from theta keeps the near-pole rows exact; rebuilding it
        # as sqrt(1 - cos^2) lost up to 6e-6 at theta = 1e-8
        thetas = np.array([0.0, 1e-8, 1e-6, 1e-4, 0.3, math.pi / 2, 2.0,
                           math.pi - 1e-6, math.pi - 1e-8, math.pi])
        l_count = 200
        degrees = []
        for l, block in norm_plm_blocks(l_count, thetas):
            assert block.shape == (l + 1, thetas.size)
            m = np.arange(l + 1)[:, None]
            ref = sp.sph_legendre_p(l, m, thetas[None, :])[0]
            assert np.all(np.abs(block - ref)
                          <= 1e-13 * np.maximum(np.abs(ref), 1.0))
            degrees.append(l)
        assert degrees == list(range(l_count))


class TestSphHarm:
    def test_monopole_constant(self):
        for theta, phi in [(0.0, 0.0), (1.0, 2.0), (3.0, 6.0)]:
            assert sph_harm(0, 0, theta, phi) == pytest.approx(
                1.0 / math.sqrt(4 * math.pi), rel=1e-14)

    def test_pole_value(self):
        for l in [1, 2, 10, 41]:
            expected = math.sqrt((2 * l + 1) / (4 * math.pi))
            assert sph_harm(l, 0, 0.0, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            l = int(rng.integers(0, 30))
            m = int(rng.integers(0, l + 1))
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            lhs = sph_harm(l, m, theta, phi).conjugate()
            rhs = (-1) ** m * sph_harm(l, -m, theta, phi)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_addition_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            l = int(rng.integers(0, 51))
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            total = sum(abs(sph_harm(l, m, theta, phi)) ** 2
                        for m in range(-l, l + 1))
            assert total == pytest.approx((2 * l + 1) / (4 * math.pi), abs=1e-10)

    def test_addition_formula_spec_point(self):
        total = sum(abs(sph_harm(2, m, 1.1, 2.3)) ** 2 for m in range(-2, 3))
        assert total == pytest.approx(5.0 / (4 * math.pi), rel=1e-12)
        assert total == pytest.approx(0.39789, abs=5e-6)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            l = int(rng.integers(0, 80))
            m = int(rng.integers(-l, l + 1)) if l else 0
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            ref = complex(sp.sph_harm_y(l, m, theta, phi))
            assert sph_harm(l, m, theta, phi) == pytest.approx(ref, rel=1e-11,
                                                               abs=1e-13)

    def test_all_match_scipy(self):
        l_count = 60
        l, m = np.indices((l_count, 2 * l_count - 1))
        m -= l_count - 1
        for theta in (0.0, 1e-8, 0.7, math.pi / 2, 2.5, math.pi):
            for phi in (-7.0, 0.0, 2.3, 6.0):
                y = sph_harm_all(l_count, theta, phi)
                ref = np.where(np.abs(m) <= l, sp.sph_harm_y(l, m, theta, phi), 0)
                assert y.shape == ref.shape
                assert np.all(np.abs(y - ref)
                              <= 1e-13 * np.maximum(np.abs(ref), 1.0))
                assert np.all(y[np.abs(m) > l] == 0)

    def test_all_domain_errors(self):
        for args in [(0, 0.5, 0.5), (3, -0.1, 0.5), (3, math.nan, 0.5),
                     (3, 0.5, math.inf), (3, 0.5, math.nan)]:
            with pytest.raises(ValueError):
                sph_harm_all(*args)
