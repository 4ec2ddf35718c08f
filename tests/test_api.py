"""The package's public surface: one public name per object."""

import inspect

import numpy as np
import pytest

import hyperdiff
from hyperdiff import (_quad, covariance, entropy1d, field_sim, kernel, measure,
                       special, spectrum)


def test_every_exported_name_resolves_once():
    assert len(set(hyperdiff.__all__)) == len(hyperdiff.__all__)
    for name in hyperdiff.__all__:
        assert hasattr(hyperdiff, name), name


# Each duplicated an object that keeps one public name:
# field_sim.simulate_coefficients with derive_run_seed, angular_spectrum,
# load_config and kernel.transfer_branches.
@pytest.mark.parametrize("module, name", [
    (field_sim, "simulate_ensemble"), (spectrum, "c_l"), (measure, "load_measure"),
    (kernel, "transfer_diffusive"), (kernel, "transfer_wave"),
])
def test_duplicate_names_are_gone(module, name):
    assert name not in hyperdiff.__all__
    assert not hasattr(hyperdiff, name)
    assert not hasattr(module, name)


def test_lag_step_is_derived():
    assert "h_step" not in inspect.signature(
        covariance.integrated_abs_covariance).parameters


# Options that no caller outside the tests set: each is a module constant now,
# or, for the sampling point, fixed by isotropy.
@pytest.mark.parametrize("function, keyword", [
    (_quad.integrate_vector, "limit"),
    (spectrum.tail_sum_direct, "degree_cap"),
    (spectrum.finite_variance_check, "degree_cap"),
    (field_sim.truncation_error_mc, "theta"),
    (field_sim.truncation_error_mc, "phi"),
])
def test_test_only_keywords_are_gone(function, keyword):
    assert keyword not in inspect.signature(function).parameters


@pytest.mark.parametrize("name", ["order_index", "time_index", "coefficient"])
def test_coefficient_accessors_are_gone(name):
    # coeffs[t, l, L - 1 + m] is the documented layout
    assert not hasattr(field_sim.CoefficientSet, name)


# Power moments of the measure have one closed form, measure._log_power_moment,
# and integer counts one rule, measure._index.
@pytest.mark.parametrize("owner, name", [
    (measure, "power_law_integral"), (measure.PowerLawSegment, "mass"),
    (spectrum, "_log_power_integral"), (entropy1d, "_mode_count"),
    (field_sim, "_check_int"), (field_sim, "_check_index"),
    (entropy1d, "_check_intervals"), (special, "_check_order_arg"),
    (kernel, "_finite_nonnegative"),
])
def test_second_copies_are_gone(owner, name):
    assert not hasattr(owner, name)


P11 = measure.DiffusionParams(c=1.0, D=1.0)
# A segment, so that any quadrature reaches integrate_vector.
MIXED = measure.SpectralMeasure(atoms=((2.5, 0.4),), segments=((0.2, 1.5, 1.0, 0.5),))
COEFFS = field_sim.CoefficientSet(degree_count=2, times=(0.0,),
                                  coeffs=np.zeros((1, 2, 3), dtype=complex), seed=0)

# (entry point, parameter, a value just outside its range): every integer
# parameter goes through measure._index before any quadrature or draw.
INTEGER_ARGUMENTS = {
    "angular_spectrum": ("l_count", 0, lambda v: spectrum.angular_spectrum(
        v, 0.0, 0.0, MIXED, P11)),
    "covariance_legendre": ("l_count", 0, lambda v: covariance.covariance_legendre(
        0.5, 0.0, 0.0, MIXED, P11, v)),
    "angular_mse": ("l_count", 0, lambda v: covariance.angular_mse(
        0.5, 0.0, MIXED, P11, v)),
    "tail_sum_direct": ("l_start", -1, lambda v: spectrum.tail_sum_direct(
        v, MIXED, P11, 0.0)),
    "tail_sum_direct_block": ("block", 0, lambda v: spectrum.tail_sum_direct(
        4, MIXED, P11, 0.0, block=v)),
    "tail_sum_lommel": ("l_start", 0, lambda v: spectrum.tail_sum_lommel(
        v, MIXED, P11)),
    "simulate_coefficients": ("degree_count", 0, lambda v: field_sim.simulate_coefficients(
        v, (0.0,), MIXED, P11, seed=1)),
    "ensemble_spectrum": ("degree_count", 0, lambda v: field_sim.ensemble_spectrum(
        v, (0.0,), MIXED, P11, master_seed=0, n_runs=2)),
    "truncation_error_mc_inner": ("l_inner", -1, lambda v: field_sim.truncation_error_mc(
        v, 4, MIXED, P11, 0.0, n_runs=2)),
    "truncation_error_mc_outer": ("l_outer", 1, lambda v: field_sim.truncation_error_mc(
        2, v, MIXED, P11, 0.0, n_runs=2)),
    "synthesize_theta": ("n_theta", 1, lambda v: field_sim.synthesize(COEFFS, 0, v, 4)),
    "synthesize_phi": ("n_phi", 3, lambda v: field_sim.synthesize(COEFFS, 0, 2, v)),
    "sph_harm_all": ("l_count", 0, lambda v: special.sph_harm_all(v, 0.5, 0.5)),
    "legendre_all": ("l_max", -1, lambda v: special.legendre_all(v, 0.5)),
    "spherical_jn_all": ("order", special._MAX_ORDER + 1,
                         lambda v: special.spherical_jn_all(v, 0.5)),
}


@pytest.mark.parametrize("value", ["outside", 2.5, np.float64(3.0)],
                         ids=["outside", "fraction", "float64"])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_checked_before_work(entry, value, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the argument check")

    monkeypatch.setattr(_quad, "integrate_vector", no_work)
    monkeypatch.setattr(field_sim, "_draw", no_work)
    name, outside, call = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(outside if value == "outside" else value)


@pytest.mark.parametrize("value, hi, message", [
    (2.5, None, "n must be an integer, got 2.5"),
    (0, None, "n must be >= 1, got 0"),
    (9, 9, "n must lie in [1, 9), got 9"),
])
def test_index_messages(value, hi, message):
    with pytest.raises(ValueError) as err:
        measure._index("n", value, 1, hi)
    assert str(err.value) == message
