import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hyperdiff.exceptions import ConfigError
from hyperdiff.measure import (DiffusionParams, PowerLawSegment, SpectralMeasure,
                               load_config, serialize_config)


def make_config(atoms=(), segments=(), c=1.0, D=1.0):
    return json.dumps({
        "params": {"c": c, "D": D},
        "measure": {
            "atoms": [{"mu": mu, "mass": mass} for mu, mass in atoms],
            "segments": [
                {"lo": lo, "hi": hi, "amplitude": a, "exponent": e}
                for lo, hi, a, e in segments
            ],
        },
    })


class TestDiffusionParams:
    def test_cutoff(self):
        assert DiffusionParams(c=1.0, D=2.0).cutoff == 0.25

    @pytest.mark.parametrize("c,D", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                     (1.0, -3.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_bad_constants(self, c, D):
        with pytest.raises(ValueError):
            DiffusionParams(c=c, D=D)


class TestLoadMeasure:
    def test_single_atom(self):
        m = load_config(make_config(atoms=[(1.0, 1.0)]))[1]
        assert m.total_mass() == 1.0

    def test_inverse_decay_atoms(self):
        # ten atoms with sigma_i = 100/i
        atoms = [(4.0 * i + 1.0, (100.0 / i) ** 2) for i in range(1, 11)]
        m = load_config(make_config(atoms=atoms))[1]
        assert m.total_mass() == pytest.approx(sum((100.0 / i) ** 2 for i in range(1, 11)),
                                               rel=1e-14)

    def test_segment_mass_against_quadrature(self):
        m = load_config(make_config(segments=[(0.0, 1.0, 1.0, 0.5)]))[1]
        oracle, _ = quad(lambda mu: mu ** 0.5, 0.0, 1.0)
        assert m.total_mass() == pytest.approx(oracle, rel=1e-10)
        assert m.total_mass() == pytest.approx(1.0 / 1.5, rel=1e-14)

    def test_params_parsed(self):
        params, _ = load_config(make_config(atoms=[(1.0, 1.0)], c=3.0, D=0.5))
        assert params == DiffusionParams(c=3.0, D=0.5)

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            load_config(json.dumps({"params": {"c": 1, "D": 1}}))
        with pytest.raises(ConfigError):
            load_config(json.dumps({"measure": {"atoms": []}}))
        with pytest.raises(ConfigError):
            load_config(json.dumps({"params": {"c": 1},
                                    "measure": {"atoms": []}}))

    def test_non_numeric_field(self):
        bad = json.dumps({"params": {"c": 1, "D": 1},
                          "measure": {"atoms": [{"mu": "one", "mass": 1}]}})
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("atoms,segments", [
        ([(1.0, -1.0)], []),                       # negative mass
        ([(1.0, 0.0)], []),                        # zero-mass atom rejected
        ([(0.0, 1.0)], []),                        # atom at the origin
        ([(2.0, 1.0), (1.0, 1.0)], []),            # not increasing
        ([(1.0, 1.0), (1.0, 1.0)], []),            # duplicate location
        ([], [(0.0, 1.0, 1.0, -1.5)]),             # divergent mass at origin
        ([], [(0.5, 0.5, 1.0, 0.0)]),              # empty interval
        ([], [(0.0, 1.0, -2.0, 0.0)]),             # negative amplitude
        ([], [(0.0, 2.0, 1.0, 0.0), (1.0, 3.0, 1.0, 0.0)]),  # overlap
        ([(1.5, 1.0)], [(1.0, 2.0, 1.0, 0.0)]),    # atom inside segment
    ])
    def test_invariant_violations(self, atoms, segments):
        with pytest.raises((ConfigError, ValueError)):
            load_config(make_config(atoms=atoms, segments=segments))


class TestTotalMass:
    def test_atoms_sum(self):
        m = SpectralMeasure(atoms=((1.0, 0.5), (2.0, 0.5)))
        assert m.total_mass() == 1.0

    def test_empty_measure(self):
        assert SpectralMeasure().total_mass() == 0.0

    def test_log_case_exponent(self):
        m = SpectralMeasure(segments=(PowerLawSegment(1.0, math.e, 2.0, -1.0),))
        assert m.total_mass() == pytest.approx(2.0, rel=1e-14)

    def test_overflow_is_inf(self):
        # 50.0 ** 301 raised OverflowError
        m = SpectralMeasure(segments=(PowerLawSegment(0.0, 50.0, 1.0, 300.0),))
        assert m.total_mass() == math.inf

    def test_additive_over_parts(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            mus = np.sort(rng.uniform(0.1, 10.0, n))
            masses = rng.uniform(0.1, 2.0, n)
            seg = PowerLawSegment(11.0, 12.0, float(rng.uniform(0.1, 2.0)),
                                  float(rng.uniform(-2.0, 2.0)))
            m = SpectralMeasure(atoms=tuple(zip(mus, masses)), segments=(seg,))
            parts = sum(masses) + SpectralMeasure(segments=(seg,)).total_mass()
            assert m.total_mass() == pytest.approx(parts, rel=1e-13)


class TestPowerLawIntegral:
    @pytest.mark.parametrize("exponent", [-2.5, -1.0, 0.0, 0.5])
    def test_against_quadrature(self, exponent):
        m = SpectralMeasure(segments=(PowerLawSegment(0.4, 2.0, 1.5, exponent),))
        oracle, _ = quad(lambda mu: 1.5 * mu ** exponent, 0.4, 2.0)
        assert m.total_mass() == pytest.approx(oracle, rel=1e-12)


class TestSupportBounds:
    def test_atom_and_segment(self):
        m = SpectralMeasure(atoms=((3.0, 1.0),),
                            segments=(PowerLawSegment(0.5, 1.0, 1.0, 0.0),))
        assert m.support_upper_bound() == 3.0

    def test_empty_measure_errors(self):
        with pytest.raises(ValueError):
            SpectralMeasure().support_upper_bound()


class TestRoundTrip:
    def test_serialize_load_identity(self):
        params = DiffusionParams(c=0.3, D=1.7)
        m = SpectralMeasure(
            atoms=((0.1234567890123456, 3e-05), (41.0, 99.99999999999999)),
            segments=(PowerLawSegment(0.0, 0.09, 1.0, 0.5),
                      PowerLawSegment(50.0, 60.0, 0.25, -2.0)),
        )
        loaded_params, loaded = load_config(serialize_config(params, m))
        assert loaded == m
        assert loaded_params == params
        assert loaded.total_mass() == m.total_mass()
