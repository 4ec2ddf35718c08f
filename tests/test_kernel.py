import math

import numpy as np
import pytest

from hyperdiff.kernel import (transfer, transfer_diffusive, transfer_wave,
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
            assert transfer_diffusive(0.0, t, P11) == 1.0

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
        assert transfer_wave(1.0, 1.0, P11) == pytest.approx(expected, rel=1e-13)
        assert transfer_wave(1.0, 1.0, P11) == pytest.approx(0.6597, abs=5e-5)

    def test_wave_initial_time(self):
        assert transfer_wave(2.0, 0.0, P11) == 1.0
        assert transfer_wave(0.2, 0.0, P11) == 0.0

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
        h1 = transfer_diffusive(mus, 1.3, P11)
        h2 = transfer_wave(mus, 1.3, P11)
        assert np.array_equal(h1 + h2, transfer(mus, 1.3, P11))
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
            values = transfer_diffusive(mus, float(ti), p)
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-12)

    def test_wave_envelope(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            p = DiffusionParams(c=float(rng.uniform(0.2, 3.0)),
                                D=float(rng.uniform(0.2, 3.0)))
            mu = float(rng.uniform(p.cutoff * 1.0001, p.cutoff * 50))
            t = float(rng.uniform(0.0, 20.0))
            assert abs(transfer_wave(mu, t, p)) <= wave_bound(t, p) + 1e-12

    def test_support_gap_exponential_decay(self):
        # for mu >= delta the diffusive branch obeys the explicit envelope
        delta = 0.3
        const = 1.0 + 1.0 / math.sqrt(1.0 - 4.0 * delta ** 2)
        rng = np.random.default_rng(17)
        for _ in range(500):
            mu = float(rng.uniform(delta, 0.5))
            t = float(rng.uniform(0.0, 30.0))
            bound = const * math.exp(-1.0 * delta ** 2 * t)
            assert transfer_diffusive(mu, t, P11) <= bound * (1 + 1e-12)


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
                    transfer_diffusive(mu, t, P11)
                with pytest.raises(ValueError):
                    transfer_wave(mu, t, P11)

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
