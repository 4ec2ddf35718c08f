import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdiff.kernel import (transfer, transfer_branches, transfer_pair,
                              wave_bound)
from hyperdiff.measure import DiffusionParams

P11 = DiffusionParams(c=1.0, D=1.0)


def reference_transfer(mu: float, t: float, p: DiffusionParams) -> float:
    """Direct evaluation of the two closed-form branches (independent route)."""
    a = p.c ** 2 * t / (2 * p.D)
    s = p.cutoff ** 2 - mu ** 2
    if s > 0:
        lam = math.sqrt(s)
        return math.exp(-a) * (math.cosh(p.c * t * lam)
                               + p.c / (2 * p.D * lam) * math.sinh(p.c * t * lam))
    if s < 0:
        om = math.sqrt(-s)
        return math.exp(-a) * (math.cos(p.c * t * om)
                               + p.c / (2 * p.D * om) * math.sin(p.c * t * om))
    return math.exp(-a) * (1.0 + a)


class TestTransferValues:
    def test_zero_mode_exact_one(self):
        for t in [0.0, 0.5, 5.0, 50.0, 2000.0]:
            assert transfer(0.0, t, P11) == 1.0
            assert transfer_branches(0.0, t, P11)[1] == 1.0

    def test_initial_time_is_identity(self):
        for mu in [0.0, 0.3, 0.5, 1.0, 7.5]:
            assert transfer(mu, 0.0, P11) == 1.0

    def test_cutoff_value(self):
        # common two-sided limit exp(-a)(1+a) assigned at the cut-off
        assert transfer(0.5, 2.0, P11) == pytest.approx(math.exp(-1.0) * 2.0,
                                                        rel=1e-14)
        assert transfer(0.5, 2.0, P11) == pytest.approx(0.73576, abs=5e-6)

    def test_wave_value_spec_example(self):
        expected = reference_transfer(1.0, 1.0, P11)
        assert transfer_branches(1.0, 1.0, P11)[2] == pytest.approx(expected, rel=1e-13)
        assert transfer_branches(1.0, 1.0, P11)[2] == pytest.approx(0.6597, abs=5e-5)

    def test_wave_initial_time(self):
        assert transfer_branches(2.0, 0.0, P11)[2] == 1.0
        assert transfer_branches(0.2, 0.0, P11)[2] == 0.0

    def test_agrees_with_reference_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            c = float(rng.uniform(0.2, 3.0))
            D = float(rng.uniform(0.2, 3.0))
            p = DiffusionParams(c=c, D=D)
            mu = float(rng.uniform(0.0, 4.0 * p.cutoff))
            t = float(rng.uniform(0.0, 10.0))
            if abs(mu - p.cutoff) < 1e-6 * p.cutoff:
                continue  # reference formula itself cancels there
            assert transfer(mu, t, p) == pytest.approx(
                reference_transfer(mu, t, p), rel=1e-11, abs=1e-300)

    def test_branches_partition(self):
        mus = np.linspace(0.0, 2.0, 101)
        h, h1, h2 = transfer_branches(mus, 1.3, P11)
        expected = transfer(mus, 1.3, P11)
        assert np.array_equal(h1 + h2, expected)
        assert np.array_equal(h, expected)
        assert np.all((h1 == 0.0) | (h2 == 0.0))

    def test_overflow_regime_stable(self):
        # huge damping exponents must not overflow
        p = DiffusionParams(c=10.0, D=0.01)  # a = 5000 t
        value = transfer(1.0, 50.0, p)
        assert 0.0 <= value <= 1.0
        assert np.isfinite(transfer(np.array([0.0, 400.0, 499.999, 500.001]),
                                    200.0, p)).all()
        # overflowing (c t)^2 (cutoff^2 - mu^2): finite, and 0 once exp(-a) underflows
        huge = transfer(np.array([0.0, 0.5, 1.0, 1e200]),
                        np.array([[1.0], [1e200], [1e308]]), P11)
        assert np.isfinite(huge).all() and np.all(huge[1:, 1:] == 0.0)


class TestBounds:
    def test_diffusive_in_unit_interval(self):
        rng = np.random.default_rng(11)
        c = rng.uniform(0.2, 3.0, 2000)
        D = rng.uniform(0.2, 3.0, 2000)
        t = rng.uniform(0.0, 20.0, 2000)
        for ci, Di, ti in zip(c, D, t):
            p = DiffusionParams(c=float(ci), D=float(Di))
            mus = np.linspace(0.0, p.cutoff, 17)
            values = transfer_branches(mus, float(ti), p)[1]
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-12)

    def test_wave_envelope(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            p = DiffusionParams(c=float(rng.uniform(0.2, 3.0)),
                                D=float(rng.uniform(0.2, 3.0)))
            mu = float(rng.uniform(p.cutoff * 1.0001, p.cutoff * 50))
            t = float(rng.uniform(0.0, 20.0))
            assert abs(transfer_branches(mu, t, p)[2]) <= wave_bound(t, p) + 1e-12

    def test_wave_envelope_where_damping_underflows(self):
        # c^2 t/(2D) = 2e308 overflows; the envelope's limit is 0, as
        # the wave branch gives, not 0 * inf (warnings are errors here)
        p = DiffusionParams(c=2.0, D=1.0)
        assert wave_bound(1e308, p) == 0.0
        assert transfer_branches(3.0, 1e308, p)[2] == 0.0
        np.testing.assert_array_equal(
            wave_bound(np.array([0.0, 1e3, 1e308]), p), [1.0, 0.0, 0.0])

    def test_support_gap_exponential_decay(self):
        # for mu >= delta the diffusive branch obeys the explicit envelope
        delta = 0.3
        const = 1.0 + 1.0 / math.sqrt(1.0 - 4.0 * delta ** 2)
        rng = np.random.default_rng(17)
        for _ in range(500):
            mu = float(rng.uniform(delta, 0.5))
            t = float(rng.uniform(0.0, 30.0))
            bound = const * math.exp(-1.0 * delta ** 2 * t)
            assert transfer_branches(mu, t, P11)[1] <= bound * (1 + 1e-12)


class TestContinuityAndODE:
    def test_cutoff_continuity(self):
        rng = np.random.default_rng(19)
        eps = 1e-8
        for _ in range(100):
            p = DiffusionParams(c=float(rng.uniform(0.2, 3.0)),
                                D=float(rng.uniform(0.2, 3.0)))
            t = float(rng.uniform(0.0, 10.0))
            gap = abs(transfer(p.cutoff - eps, t, p) - transfer(p.cutoff + eps, t, p))
            assert gap <= 1e-6

    def test_ode_residual(self):
        # (1/c^2) h'' + (1/D) h' + mu^2 h = 0 with h(mu, 0) = 1, h'(mu, 0) = 0
        rng = np.random.default_rng(23)
        dt = 1e-4
        for _ in range(300):
            p = DiffusionParams(c=float(rng.uniform(0.5, 2.0)),
                                D=float(rng.uniform(0.5, 2.0)))
            mu = float(rng.uniform(0.0, 4.0))
            t = float(rng.uniform(0.1, 3.0))
            hm, h0, hp = (transfer(mu, t - dt, p), transfer(mu, t, p),
                          transfer(mu, t + dt, p))
            d1 = (hp - hm) / (2 * dt)
            d2 = (hp - 2 * h0 + hm) / dt ** 2
            residual = d2 / p.c ** 2 + d1 / p.D + mu ** 2 * h0
            assert abs(residual) <= 1e-5

    def test_initial_slope_zero(self):
        dt = 1e-5
        for mu in [0.1, 0.5, 1.5]:
            slope = (transfer(mu, dt, P11) - transfer(mu, 0.0, P11)) / dt
            assert abs(slope) < 1e-4


class TestValidation:
    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            transfer(-0.1, 1.0, P11)
        with pytest.raises(ValueError):
            transfer(1.0, -0.1, P11)
        for bad in (math.nan, math.inf, -math.inf):
            for mu, t in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError):
                    transfer(mu, t, P11)
                with pytest.raises(ValueError):
                    transfer(np.array([0.5, mu, 2.0]), t, P11)
                with pytest.raises(ValueError):
                    transfer(mu, np.array([0.0, t]), P11)
                with pytest.raises(ValueError):
                    transfer_branches(mu, t, P11)
        for bad in (-5.0, math.nan, math.inf, np.array([1.0, -0.1])):
            with pytest.raises(ValueError):
                wave_bound(bad, P11)

    def test_broadcasting(self):
        mus = np.linspace(0, 2, 7)
        ts = np.linspace(0, 3, 5)
        grid = transfer(mus[:, None], ts[None, :], P11)
        assert grid.shape == (7, 5)
        for i, mu in enumerate(mus):
            for j, t in enumerate(ts):
                # scalar and vector paths may differ in the last bit only
                assert grid[i, j] == pytest.approx(
                    transfer(float(mu), float(t), P11), rel=5e-16, abs=0.0)


def mp_pair(mu: float, t: float, p: DiffusionParams):
    """(h, g, a, b, scale) in 50-digit arithmetic from the closed forms, where
    b = sqrt(u) (negative for the wave phase) and scale bounds |g|."""
    with mp.workdps(50):
        c, cutoff, mu, t = mp.mpf(p.c), mp.mpf(p.cutoff), mp.mpf(mu), mp.mpf(t)
        a = c * cutoff * t
        u = (c * t) ** 2 * (cutoff ** 2 - mu ** 2)
        if u > 0:
            b = mp.sqrt(u)
            ch, shc = mp.cosh(b), mp.sinh(b) / b
        elif u < 0:
            b = -mp.sqrt(-u)
            ch, shc = mp.cos(b), mp.sin(b) / b
        else:
            b, ch, shc = mp.mpf(0), mp.mpf(1), mp.mpf(1)
        damp = mp.exp(-a)
        h, g = damp * (ch + a * shc), damp * t * shc
        scale = damp * t * max(mp.mpf(1), shc)
        return float(h), float(g), float(a), float(b), float(scale)


def pair_tolerance(a: float, b: float, scale: float) -> float:
    """Error bound of the float evaluation: e^(-a) carries a's rounding, and
    u = (c t)^2 (cutoff^2 - mu^2) is rounded before its square root."""
    kappa = 1.0 + a + abs(b) + a * a / max(1.0, abs(b))
    return 16.0 * np.finfo(float).eps * kappa * scale + 1e-300


PARAM = st.floats(0.1, 10.0)


class TestTransferPair:
    @settings(max_examples=300, deadline=None)
    @given(c=PARAM, D=PARAM, ratio=st.floats(1e-3, 10.0),
           near=st.sampled_from([None, -1e-9, -1e-10, 1e-10, 1e-9]),
           damping=st.floats(-4.0, 4.0))
    @example(c=1.0, D=1.0, ratio=0.2, near=None, damping=3.0)  # exponential pair
    @example(c=1.0, D=1.0, ratio=3.0, near=None, damping=1.0)  # wave branch
    # exp(-a) is subnormal at a = 740: the pair must not be formed from it
    @example(c=1.0, D=1.0, ratio=0.8, near=None, damping=math.log10(740.0))
    def test_against_mpmath(self, c, D, ratio, near, damping):
        # mu relative to the cut-off, t through the damping exponent a = 10^damping
        p = DiffusionParams(c=c, D=D)
        mu = p.cutoff * (ratio if near is None else 1.0 + near)
        t = 10.0 ** damping / (c * p.cutoff)
        h, g = transfer_pair(mu, t, p)
        assert h == transfer(mu, t, p)
        h_ref, g_ref, a, b, scale = mp_pair(mu, t, p)
        assert abs(g - g_ref) <= pair_tolerance(a, b, scale)
        h_scale = max(abs(h_ref), float(wave_bound(t, p)))
        assert abs(h - h_ref) <= pair_tolerance(a, b, h_scale)

    def test_every_branch_reached(self):
        # series, exponential pair (small and huge b) and wave phase, on one array
        mu = np.array([0.5 + 1e-12, 0.3, 0.1, 3.0])
        t = np.array([1.0, 5.0, 2000.0, 4.0])
        h, g = transfer_pair(mu, t, P11)
        u = t ** 2 * (0.25 - mu ** 2)
        assert abs(u[0]) <= 0.25 < u[1] < u[2] and u[3] < -0.25
        for i in range(4):
            h_ref, g_ref, a, b, scale = mp_pair(float(mu[i]), float(t[i]), P11)
            assert g[i] == pytest.approx(g_ref, rel=1e-12, abs=1e-12 * scale)
            assert h[i] == transfer(float(mu[i]), float(t[i]), P11)

    def test_g_starts_at_zero_with_unit_slope(self):
        mus = np.array([0.0, 0.2, 0.5, 2.0])
        assert np.all(transfer_pair(mus, 0.0, P11)[1] == 0.0)
        dt = 1e-7
        slope = transfer_pair(mus, dt, P11)[1] / dt
        assert np.allclose(slope, 1.0, rtol=1e-6, atol=0.0)

    def test_h_prime_is_minus_c2_mu2_g(self):
        p = DiffusionParams(c=1.3, D=0.8)
        mus = np.array([0.1, p.cutoff, 1.5, 4.0])
        t, dt = 1.7, 1e-5
        slope = (transfer(mus, t + dt, p) - transfer(mus, t - dt, p)) / (2 * dt)
        g = transfer_pair(mus, t, p)[1]
        assert np.allclose(slope, -(p.c * mus) ** 2 * g, rtol=0.0, atol=1e-8)

    def test_scalar_and_array_shapes(self):
        h, g = transfer_pair(0.3, 1.0, P11)
        assert isinstance(h, float) and isinstance(g, float)
        h, g = transfer_pair(np.linspace(0, 2, 5)[:, None], np.ones(3), P11)
        assert h.shape == g.shape == (5, 3)

    @settings(max_examples=300, deadline=None)
    @given(c=st.floats(0.2, 5.0), D=st.floats(0.2, 5.0),
           ratio=st.one_of(st.floats(0.0, 3.0), st.floats(1 - 1e-6, 1 + 1e-6)),
           big=st.floats(0.0, 20.0), small=st.floats(0.0, 20.0))
    def test_addition_theorem(self, c, D, ratio, big, small):
        # h(T + d) = h(T) h(d) - c^2 mu^2 g(T) g(d); times through a = c^2 t / (2D)
        p = DiffusionParams(c=c, D=D)
        mu = ratio * p.cutoff
        big_t, small_t = big / (c * p.cutoff), small / (c * p.cutoff)
        (h_big, h_small), (g_big, g_small) = transfer_pair(
            mu, np.array([big_t, small_t]), p)
        composed = h_big * h_small - (c * mu * g_big) * (c * mu * g_small)
        direct = transfer(mu, big_t + small_t, p)
        scale = max(abs(direct), float(wave_bound(big_t + small_t, p)))
        assert abs(composed - direct) <= 1e-12 * scale

    def test_overflowing_phase_raises(self):
        # c t sqrt(mu^2 - cutoff^2) is inf while exp(-a) = exp(-1e-290) = 1
        p = DiffusionParams(c=1.0, D=5e299)
        for fn in (transfer, transfer_pair):
            with pytest.raises(ValueError, match="overflows"):
                fn(1e300, 1e10, p)
            with pytest.raises(ValueError, match="overflows"):
                fn(np.array([1.0, 1e300]), 1e10, p)
        # once exp(-a) underflows there is no phase to evaluate
        assert transfer(1e300, 1e308, DiffusionParams(c=1.0, D=0.5)) == 0.0
