"""The package's public surface: one public name per object."""

import inspect

import pytest

import hyperdiff
from hyperdiff import _quad, covariance, field_sim, kernel, measure, spectrum


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
