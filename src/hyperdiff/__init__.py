"""Random hyperbolic diffusion restricted to the unit sphere.

Exact transfer kernels, angular power spectra, covariance functions,
truncated Laplace-series field simulation, dependence classification, and
1D Shannon-entropy experiments, with a CSV-emitting CLI front end.
"""

__version__ = "0.1.0"

from .exceptions import AccuracyError, ConfigError
from .measure import (DiffusionParams, PowerLawSegment, SpectralMeasure,
                      load_config, load_measure, serialize_config)
from .kernel import transfer, transfer_diffusive, transfer_wave, wave_bound
from .spectrum import (AngularSpectrum, FiniteVarianceReport, TailSum,
                       angular_spectrum, c_l, finite_variance_check,
                       tail_bound_gamma, tail_sum_direct, tail_sum_lommel)
from .covariance import (LegendreCovariance, MemoryClass, MemoryReport,
                         angular_mse, covariance_legendre, covariance_spectral,
                         covariance_time_lags, integrated_abs_covariance,
                         memory_classify)
from .field_sim import (CoefficientSet, EmpiricalSpectrum, FieldGrid,
                        TruncationError, atomize, derive_run_seed,
                        empirical_spectrum, histogram_entropy,
                        radial_coefficient, simulate_coefficients,
                        simulate_ensemble, synthesize, truncation_error_mc)
from .entropy1d import (EntropyTrace, ExperimentResult, ModeDecomposition,
                        decompose_initial, entropy_trace, evaluate,
                        run_experiment)

__all__ = [
    "AccuracyError", "ConfigError",
    "DiffusionParams", "PowerLawSegment", "SpectralMeasure",
    "load_config", "load_measure", "serialize_config",
    "transfer", "transfer_diffusive", "transfer_wave", "wave_bound",
    "AngularSpectrum", "FiniteVarianceReport", "TailSum",
    "angular_spectrum", "c_l", "finite_variance_check",
    "tail_bound_gamma", "tail_sum_direct", "tail_sum_lommel",
    "LegendreCovariance", "MemoryClass", "MemoryReport",
    "angular_mse", "covariance_legendre", "covariance_spectral",
    "covariance_time_lags", "integrated_abs_covariance", "memory_classify",
    "CoefficientSet", "EmpiricalSpectrum", "FieldGrid", "TruncationError",
    "atomize", "derive_run_seed", "empirical_spectrum", "histogram_entropy",
    "radial_coefficient", "simulate_coefficients", "simulate_ensemble",
    "synthesize", "truncation_error_mc",
    "EntropyTrace", "ExperimentResult", "ModeDecomposition",
    "decompose_initial", "entropy_trace", "evaluate", "run_experiment",
]
