import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hyperdiff import entropy1d
from hyperdiff.entropy1d import (ModeDecomposition, decompose_initial,
                                 entropy_trace, evaluate, mass, run_experiment)
from hyperdiff.kernel import transfer, transfer_pair
from hyperdiff.measure import DiffusionParams

L3PI = 3.0 * math.pi
P11 = DiffusionParams(c=1.0, D=1.0)


def oracle_clock(k: float, t: float) -> float:
    """Solution of T'' + T' + k^2 T = 0 with T(0) = 1, T'(0) = 0 from its
    characteristic roots, independent of the transfer kernel."""
    if k < 0.5:
        root = math.sqrt(1.0 - 4.0 * k * k)
        alpha_plus, alpha_minus = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
        return (alpha_plus * math.exp(-alpha_minus * t)
                - alpha_minus * math.exp(-alpha_plus * t)) / root
    if k == 0.5:
        return (1.0 + 0.5 * t) * math.exp(-0.5 * t)
    omega = math.sqrt(k * k - 0.25)
    return math.exp(-0.5 * t) * (math.cos(omega * t)
                                 + math.sin(omega * t) / (2.0 * omega))


def profile_derivative(md, x: float, t: float) -> float:
    """Series-evaluated q_x of a zero-velocity decomposition, independent of
    evaluate()."""
    return sum(-k * c * oracle_clock(k, t) * math.sin(k * x)
               for k, c in zip(md.wave_numbers, md.amplitudes))


class TestDecompose:
    def test_uniform_profile_is_pure_mean(self):
        samples = np.full(801, 1.0 / (2 * L3PI))
        md = decompose_initial(samples, L3PI, 10)
        assert md.a0 == pytest.approx(1.0 / (2 * L3PI), rel=1e-12)
        assert np.max(np.abs(md.amplitudes)) < 1e-13

    def test_rectangle_coefficients_against_quadrature(self):
        width = 2.0
        x = np.linspace(-L3PI, L3PI, 6001)
        samples = np.where(np.abs(x) <= width / 2, 1.0 / width, 0.0)
        md = decompose_initial(samples, L3PI, 6)
        for k, c_n in zip(md.wave_numbers, md.amplitudes):
            oracle = quad(lambda u: math.cos(k * u) / width, -width / 2, width / 2,
                          epsabs=1e-13)[0] / L3PI
            # dense sampling of the discontinuous profile limits the match
            assert c_n == pytest.approx(oracle, rel=5e-3, abs=1e-4)

    def test_point_source_has_uniform_spectrum(self):
        result = run_experiment("point_source", trace_times=[0.0])
        md = result.decomposition
        assert len(md.amplitudes) == 100
        assert np.allclose(md.amplitudes, 1.0 / L3PI, rtol=1e-12, atol=0.0)

    def test_odd_component_rejected(self):
        x = np.linspace(-L3PI, L3PI, 401)
        with pytest.raises(ValueError):
            decompose_initial(np.sin(x), L3PI, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.full(401, 1.0 / (2 * L3PI))
        samples[[0, -1]] = bad  # an even profile, so the odd-part check passes it
        with pytest.raises(ValueError, match="u0"):
            decompose_initial(samples, L3PI, 4)

    @pytest.mark.parametrize("n_modes", [0, 2.5])
    def test_bad_mode_count_rejected(self, n_modes):
        # 2.5 ran 3 modes
        with pytest.raises(ValueError, match="n_modes"):
            decompose_initial(np.ones(41), L3PI, n_modes)

    def test_undersampled_rejected(self):
        with pytest.raises(ValueError):
            decompose_initial(np.full(41, 1.0), L3PI, 30)

    def test_mode_split_counts(self):
        # floor(L / 2pi) modes sit below the cut-off k = 1/2; their clocks
        # decay without ever changing sign, while every wave mode's does
        t = np.linspace(0.0, 60.0, 1201)
        for half_length, expected in [(L3PI, 1), (5.0, 0), (13.0, 2)]:
            samples = np.full(2001, 1.0 / (2 * half_length))
            md = decompose_initial(samples, half_length, 20)
            clocks = transfer(md.wave_numbers[:, None], t[None, :], P11)
            assert np.sum(np.all(clocks > 0, axis=1)) == expected

    def test_critical_wave_number_continuous(self):
        # L = 2pi puts mode 1 exactly on k = 1/2, the double root of the clock
        x = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 2001)
        md = decompose_initial(1.0 + np.cos(x / 2.0), 2.0 * math.pi, 3)
        assert md.wave_numbers[0] == 0.5
        for t in [0.0, 0.5, 3.0, 10.0]:
            expected = 1.0 + oracle_clock(0.5, t) * np.cos(x / 2.0)
            assert np.allclose(evaluate(md, x, t), expected, rtol=0.0, atol=1e-12)

    def test_dissipative_exponents(self):
        # L = 3pi, n = 1: k = 1/3, slow rate alpha- = (1 - sqrt(5)/3)/2,
        # read off the late-time ratio of the transfer-factor clock
        md = run_experiment("point_source", trace_times=[0.0]).decomposition
        k = md.wave_numbers[0]
        assert k == pytest.approx(1.0 / 3.0, rel=1e-15)
        alpha_minus = 0.5 * (1 - math.sqrt(5) / 3)
        ratio = transfer(k, 61.0, P11) / transfer(k, 60.0, P11)
        assert ratio == pytest.approx(math.exp(-alpha_minus), rel=1e-12)
        assert -math.log(ratio) == pytest.approx(0.1273, abs=5e-5)


class TestEvaluate:
    def test_constant_profile_stays_constant(self):
        samples = np.full(401, 0.25)
        md = decompose_initial(samples, 2.0, 5)
        x = np.linspace(-2.0, 2.0, 17)
        for t in [0.0, 1.0, 10.0]:
            assert np.allclose(evaluate(md, x, t), 0.25, atol=1e-12)

    def test_standing_wave_uniform_at_quarter_period(self):
        result = run_experiment("standing_wave", trace_times=[0.0])
        md = result.decomposition
        k = md.wave_numbers[0]
        omega = math.sqrt(k * k - 0.25)
        t_star = math.pi / (2 * omega)
        x = np.linspace(-L3PI, L3PI, 101)
        assert np.allclose(evaluate(md, x, t_star), 1.0 / (2 * L3PI), atol=1e-15)

    def test_zero_initial_velocity(self):
        result = run_experiment("rectangle", trace_times=[0.0])
        md = result.decomposition
        dt = 1e-6
        x = np.linspace(-L3PI, L3PI, 31)
        slope = (evaluate(md, x, dt) - evaluate(md, x, 0.0)) / dt
        assert np.max(np.abs(slope)) < 1e-4

    @pytest.mark.parametrize("name", ["point_source", "rectangle"])
    def test_pde_residual(self, name):
        md = run_experiment(name, trace_times=[0.0]).decomposition
        dt = dx = 1e-4
        xs = np.linspace(-0.9 * L3PI, 0.9 * L3PI, 33)
        t = 1.7
        q0 = evaluate(md, xs, t)
        qp, qm = evaluate(md, xs, t + dt), evaluate(md, xs, t - dt)
        qt = (qp - qm) / (2 * dt)
        qtt = (qp - 2 * q0 + qm) / dt ** 2
        qxx = (evaluate(md, xs + dx, t) - 2 * q0 + evaluate(md, xs - dx, t)) / dx ** 2
        assert np.max(np.abs(qt + qtt - qxx)) <= 1e-5

    def test_neumann_walls(self):
        md = run_experiment("standing_wave", trace_times=[0.0]).decomposition
        h = 1e-3
        for t in [0.0, 0.8, 3.0]:
            for sign in (1.0, -1.0):
                wall = sign * L3PI
                one_sided = (3 * evaluate(md, wall, t)
                             - 4 * evaluate(md, wall - sign * h, t)
                             + evaluate(md, wall - sign * 2 * h, t)) / (2 * sign * h)
                assert abs(one_sided) <= 1e-6
        md200 = run_experiment("rectangle", trace_times=[0.0]).decomposition
        for t in [0.0, 2.0]:
            assert abs(profile_derivative(md200, L3PI, t)) < 1e-10

    def test_domain_checks(self):
        md = run_experiment("standing_wave", trace_times=[0.0]).decomposition
        with pytest.raises(ValueError):
            evaluate(md, 2 * L3PI, 0.0)
        with pytest.raises(ValueError):
            evaluate(md, 0.0, -1.0)


class TestEntropyTrace:
    def test_uniform_entropy_is_log_2l(self):
        samples = np.full(801, 1.0 / (2 * L3PI))
        md = decompose_initial(samples, L3PI, 4)
        trace = entropy_trace(md, [0.0, 1.0, 7.7], 400)
        assert np.allclose(trace.entropy, math.log(6 * math.pi), atol=1e-6)

    def test_standing_wave_reaches_maximum(self):
        omega = math.sqrt(7.0) / 6.0
        t_star = math.pi / (2 * omega)
        result = run_experiment("standing_wave", trace_times=[0.5, t_star, 4.0])
        assert result.trace.entropy[1] == pytest.approx(math.log(6 * math.pi),
                                                        abs=1e-9)
        assert np.all(result.trace.entropy <= math.log(6 * math.pi) + 1e-6)

    def test_entropy_minima_increase(self):
        times = np.arange(0.5, 25.0, 0.02)
        result = run_experiment("standing_wave", trace_times=times)
        s = result.trace.entropy
        interior = (s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])
        minima = s[1:-1][interior]
        assert len(minima) >= 3
        assert np.all(np.diff(minima) > 0)
        assert np.all(minima < math.log(6 * math.pi))

    def test_negative_profile_marked(self):
        # truncated rectangle series oscillates below zero at early times
        result = run_experiment("rectangle", trace_times=[0.0, 20.0])
        assert not result.trace.computable[0]

    def test_long_time_limit(self):
        result = run_experiment("point_source", trace_times=[60.0])
        assert result.trace.entropy[-1] == pytest.approx(math.log(6 * math.pi),
                                                         abs=1e-5)

    def test_mass_conserved(self):
        for name in ("standing_wave", "point_source", "rectangle"):
            md = run_experiment(name, trace_times=[0.0]).decomposition
            for t in [0.0, 0.3, 1.0, 5.0, 20.0]:
                assert mass(md, t) == pytest.approx(1.0, abs=1e-8)

    def test_interval_validation(self):
        md = run_experiment("standing_wave", trace_times=[0.0]).decomposition
        with pytest.raises(ValueError):
            entropy_trace(md, [0.0], n_intervals=1)
        for n_intervals in (0, 1):
            with pytest.raises(ValueError, match="intervals"):
                mass(md, 1.0, n_intervals)

    @pytest.mark.parametrize("n_intervals", [2.5, np.float64(400.0)])
    def test_non_integer_intervals_rejected(self, n_intervals):
        # both raised TypeError from np.linspace
        md = run_experiment("standing_wave", trace_times=[0.0]).decomposition
        with pytest.raises(ValueError, match="n_intervals"):
            entropy_trace(md, [0.0], n_intervals=n_intervals)
        with pytest.raises(ValueError, match="n_intervals"):
            mass(md, 1.0, n_intervals)


class TestExperiments:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("bogus")

    def test_default_term_counts(self):
        assert len(run_experiment("point_source",
                                  trace_times=[0.0]).decomposition.amplitudes) == 100
        assert len(run_experiment("rectangle",
                                  trace_times=[0.0]).decomposition.amplitudes) == 200

    def test_snapshots_emitted(self):
        result = run_experiment("rectangle", trace_times=[0.0],
                                snapshot_times=(0.5, 2.0))
        assert len(result.snapshots) == 2
        t, x, q = result.snapshots[0]
        assert t == 0.5 and len(x) == len(q) == 401

    def test_point_source_front_speed(self):
        # the travelling spike advances one unit of x per unit of t
        md = run_experiment("point_source", trace_times=[0.0]).decomposition
        xg = np.linspace(0.0, L3PI, 2001)
        cell = xg[1] - xg[0]
        ts = [2.0, 3.0, 4.0, 5.0]
        positions = []
        for t in ts:
            q = evaluate(md, xg, t)
            positions.append(float(xg[np.argmax(np.where(xg > 0.5, q, -np.inf))]))
        steps = np.diff(positions)
        assert np.all(np.abs(steps - np.diff(ts)) <= cell + 1e-12)
        # the spike itself stays within a lobe width of x = t
        assert np.all(np.abs(np.array(positions) - np.array(ts)) <= 2 * cell)

    def test_rectangle_width_validation(self):
        with pytest.raises(ValueError):
            run_experiment("rectangle", width=100.0, trace_times=[0.0])

    @pytest.mark.parametrize("kwargs, name", [
        ({"half_length": math.nan}, "half_length"),
        ({"half_length": math.inf}, "half_length"),
        ({"half_length": -3.0}, "half_length"),
        ({"half_length": 0.0}, "half_length"),
        ({"trace_times": [0.0, math.nan]}, "trace_times"),
        ({"trace_times": [math.inf]}, "trace_times"),
        ({"trace_times": [-1.0]}, "trace_times"),
        ({"snapshot_times": (math.nan,)}, "snapshot_times"),
        ({"snapshot_times": (-0.5,)}, "snapshot_times"),
        ({"width": math.nan}, "width"),
        ({"width": math.inf}, "width"),
        ({"width": 0.0}, "width"),
        ({"width": 6.0 * math.pi}, "width"),
        ({"n_modes": -1}, "n_modes"),
        ({"n_modes": 10 ** 8}, "n_intervals"),
        ({"n_modes": 2.5}, "n_modes"),  # ran 3 modes
        # both raised TypeError from np.linspace
        ({"n_intervals": 2.5}, "n_intervals"),
        ({"n_intervals": np.float64(400.0)}, "n_intervals"),
    ])
    def test_bad_input_names_parameter(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            run_experiment("rectangle", **kwargs)

    def test_standing_wave_needs_wave_mode(self):
        # its cosine-only clock exists only above the cut-off, L < 4pi
        with pytest.raises(ValueError, match="half_length"):
            run_experiment("standing_wave", half_length=4.0 * math.pi)
        run_experiment("standing_wave", half_length=4.0 * math.pi * (1 - 1e-9),
                       trace_times=[1.0])

    def test_standing_wave_below_cut_off_rejected(self):
        # built directly, a standing wave at k <= 1/2 has no real omega
        for k in (0.5, 0.4):
            with pytest.raises(ValueError, match="standing_wave"):
                ModeDecomposition(half_length=2.0 * math.pi / k, a0=0.1,
                                  wave_numbers=np.array([k]),
                                  amplitudes=np.array([0.1]), standing_wave=True)

    def test_rectangle_trapezoid_and_hump(self):
        # twin rectangle pulses travel outward as trapezoids whose boundary
        # moves at unit speed; at large t the central diffusive hump dominates
        md = run_experiment("rectangle", trace_times=[0.0]).decomposition
        xg = np.linspace(0.0, L3PI, 1200)
        for t in [2.0, 4.0]:
            q = evaluate(md, xg, t)
            window = (xg > t - 1.0) & (xg < t + 1.0)
            ahead = (xg > t + 1.3) & (xg < t + 2.3)
            assert q[window].max() > 10 * np.max(np.abs(q[ahead]))
        q6 = evaluate(md, xg, 6.0)
        window6 = (xg > 5.0) & (xg < 7.0)
        assert q6[0] > q6[window6].max()


class TestClock:
    def test_matches_closed_form(self):
        # evaluate() against the characteristic-root solution mode by mode,
        # on both sides of the cut-off and on it
        for half_length in (L3PI, 13.0, 2.0 * math.pi):
            md = run_experiment("point_source", half_length=half_length,
                                n_modes=30, trace_times=[0.0]).decomposition
            x = np.linspace(-half_length, half_length, 41)
            for t in [0.0, 0.7, 4.0, 25.0]:
                expected = md.a0 + sum(
                    c * oracle_clock(k, t) * np.cos(k * x)
                    for k, c in zip(md.wave_numbers, md.amplitudes))
                assert np.allclose(evaluate(md, x, t), expected,
                                   rtol=0.0, atol=1e-12)

    def test_critical_k_continuous(self):
        # the clock passes through k = 1/2 without a jump
        t = np.linspace(0.0, 25.0, 51)
        at = np.array([oracle_clock(0.5, s) for s in t])
        assert np.allclose(transfer(0.5, t, P11), at, rtol=0.0, atol=1e-14)
        for k in (0.5 - 1e-7, 0.5 + 1e-7):
            assert np.allclose(transfer(k, t, P11), at, rtol=0.0, atol=1e-6)


def reference_profiles(md, x, times):
    """Profiles and entropies by one transfer_pair call and one product per
    16 times, each block on its own: the algorithm the chunked clocks and
    the shared basis must reproduce bit for bit."""
    basis = np.cos(np.outer(md.wave_numbers, x))
    k = md.wave_numbers[None, :]
    q = np.empty((times.size, x.size))
    entropy = np.empty(times.size)
    for start in range(0, times.size, 16):
        h, g = transfer_pair(k, times[start:start + 16, None], P11)
        clock = h - 0.5 * g if md.standing_wave else h
        block = md.a0 + (clock * md.amplitudes) @ basis
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.trapezoid(-block * np.log(block), x, axis=1)
        q[start:start + 16] = block
        entropy[start:start + 16] = np.where(np.min(block, axis=1) > 0.0, s, math.nan)
    return q, entropy


class TestSinglePass:
    TRACE = np.linspace(0.0, 20.0, 100)
    SNAPSHOTS = [0.3, 2.0, 7.5]

    @pytest.mark.parametrize("name", ["standing_wave", "point_source", "rectangle"])
    def test_bitwise_equal_to_block_loop(self, name):
        result = run_experiment(name, half_length=5.0, n_modes=200,
                                trace_times=self.TRACE, snapshot_times=self.SNAPSHOTS)
        md = result.decomposition
        x = np.linspace(-5.0, 5.0, 401)
        _, entropy = reference_profiles(md, x, self.TRACE)
        q, _ = reference_profiles(md, x, np.array(self.SNAPSHOTS))
        assert result.trace.entropy.tobytes() == entropy.tobytes()
        assert entropy_trace(md, self.TRACE).entropy.tobytes() == entropy.tobytes()
        for i, (t, xs, qs) in enumerate(result.snapshots):
            assert t == self.SNAPSHOTS[i]
            assert xs.tobytes() == x.tobytes() and qs.tobytes() == q[i].tobytes()

    @pytest.mark.parametrize("name, modes", [("rectangle", 200), ("point_source", 600),
                                             ("standing_wave", None)])
    def test_one_call_per_chunk_and_one_basis(self, name, modes, monkeypatch):
        calls, bases = [], []
        real_pair, real_basis = entropy1d.transfer_pair, entropy1d._cosine_basis
        monkeypatch.setattr(entropy1d, "transfer_pair",
                            lambda k, t, p: calls.append(t.size) or real_pair(k, t, p))
        monkeypatch.setattr(entropy1d, "_cosine_basis",
                            lambda md, x: bases.append(x.size) or real_basis(md, x))
        run_experiment(name, half_length=5.0, n_modes=modes,
                       trace_times=self.TRACE, snapshot_times=self.SNAPSHOTS)
        # Each call takes whole 16-time blocks up to the clock budget, at
        # least one block, and the last call of a pass takes what is left.
        n_modes = modes or 1
        block = entropy1d._TIME_BLOCK
        step = block * max(1, entropy1d._CLOCK_VALUES // (block * n_modes))
        assert calls == [min(step, n - i) for n in (self.TRACE.size, len(self.SNAPSHOTS))
                         for i in range(0, n, step)]
        assert bases == [401]

    def test_peak_memory_is_basis_plus_a_few_blocks(self):
        # All 5,000 times' clocks at once would be 7.6 MB per array.
        k = np.arange(1, 201) * math.pi / L3PI
        md = ModeDecomposition(half_length=L3PI, a0=1.0 / (2.0 * L3PI),
                               wave_numbers=k, amplitudes=np.full(200, 1.0 / L3PI))
        times = np.linspace(0.0, 25.0, 5000)
        tracemalloc.start()
        try:
            entropy_trace(md, times, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * 401 * 8 + 2 ** 20
